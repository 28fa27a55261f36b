//! Resilience — makespan/max-flow degradation under slave failures.
//!
//! The paper's platforms never fail; this experiment (new in the
//! `mss-scenario` subsystem) measures how gracefully each of the seven
//! algorithms — wrapped in the fault-aware [`mss_core::Redispatch`] policy
//! so they stay live — degrades as the failure rate grows. For each failure level,
//! each of the `scale.platforms` random heterogeneous platforms runs a
//! Poisson-failure scenario (exponential repair, at least one slave always
//! up); results are normalized per algorithm to its own run on the static
//! platform (level `static` ≡ 1).
//!
//! The static level uses `scenario: None` cells, i.e. exactly the engine
//! path of Figure 1/2 — a regression guard asserts those numbers stay
//! byte-identical to the static harness.

use crate::report::{fmt3, AsciiTable, ExperimentScale};
use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_scenario::{GeneratorSpec, ScenarioError, ScenarioSpec};
use mss_sweep::{run_cells, Cell, PlatformCell, ScenarioCell, SweepConfig};
use mss_workload::ArrivalProcess;

/// Slaves per platform draw: the paper's heterogeneous platforms.
const SLAVES: usize = 5;

/// One failure-rate level of the experiment.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FailureLevel {
    /// Row label (e.g. `static`, `mtbf=480s`).
    pub label: String,
    /// Mean time between failures per slave; `None` is the static level.
    pub mtbf: Option<f64>,
    /// Mean (exponential) repair time, ignored for the static level.
    pub repair_mean: f64,
}

impl FailureLevel {
    /// The default ladder, scaled with the run length so quick and full
    /// scales see comparable failure counts: static, then MTBF of 4×, 1×
    /// and 0.25× the task count (in seconds), with repair 5% of it.
    pub fn default_ladder(scale: ExperimentScale) -> Vec<FailureLevel> {
        let t = scale.tasks as f64;
        let mut levels = vec![FailureLevel {
            label: "static".into(),
            mtbf: None,
            repair_mean: 0.0,
        }];
        for factor in [4.0, 1.0, 0.25] {
            levels.push(FailureLevel {
                label: format!("mtbf={}s", t * factor),
                mtbf: Some(t * factor),
                repair_mean: t * 0.05,
            });
        }
        levels
    }
}

/// One algorithm's measurements across the failure levels.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ResilienceRow {
    /// The algorithm (always run under `Redispatch`).
    pub algorithm: Algorithm,
    /// Mean makespan per level, seconds.
    pub makespan: Vec<f64>,
    /// Mean max-flow per level, seconds.
    pub max_flow: Vec<f64>,
    /// `makespan[i] / makespan[static]` per level.
    pub degradation_makespan: Vec<f64>,
    /// `max_flow[i] / max_flow[static]` per level.
    pub degradation_max_flow: Vec<f64>,
}

/// The resilience report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ResilienceReport {
    /// Run scale.
    pub scale: ExperimentScale,
    /// Arrival regime (near-saturated stream by default, so max-flow is
    /// arrival-bound and meaningful).
    pub arrival: ArrivalProcess,
    /// Level labels, in column order (index 0 is the static baseline).
    pub levels: Vec<String>,
    /// Rows in the paper's algorithm order.
    pub rows: Vec<ResilienceRow>,
}

fn scenario_for(
    scale: ExperimentScale,
    level_idx: usize,
    level: &FailureLevel,
    pi: usize,
) -> Option<ScenarioCell> {
    let mtbf = level.mtbf?;
    Some(ScenarioCell {
        spec: ScenarioSpec {
            name: Some(level.label.clone()),
            // Same seed across algorithms (head-to-head comparability),
            // distinct across platform draws and levels.
            seed: scale.seed ^ 0xFA11 ^ ((level_idx as u64) << 11) ^ ((pi as u64) << 23),
            horizon: Some(scale.tasks as f64 * 20.0),
            min_up: Some(1),
            events: None,
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(mtbf),
                repair_mean: Some(level.repair_mean),
                ..GeneratorSpec::default()
            }]),
        },
        fault_aware: true,
    })
}

/// The experiment grid: levels × platform draws × the seven algorithms,
/// reusing Figure 1's platform stream and task seeds so the static level is
/// cell-for-cell the static harness.
pub fn report_cells(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    levels: &[FailureLevel],
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(levels.len() * scale.platforms * Algorithm::ALL.len());
    for (li, level) in levels.iter().enumerate() {
        for pi in 0..scale.platforms {
            for &algorithm in &Algorithm::ALL {
                cells.push(Cell {
                    platform: PlatformCell::Class {
                        class: PlatformClass::Heterogeneous,
                        slaves: SLAVES,
                        seed: scale.seed,
                        index: pi,
                    },
                    arrival,
                    perturbation: None,
                    scenario: scenario_for(scale, li, level, pi),
                    tasks: scale.tasks,
                    algorithm,
                    information: InfoTier::Clairvoyant,
                    replicate: 0,
                    task_seed: scale.seed ^ (pi as u64) << 17,
                });
            }
        }
    }
    cells
}

/// Folds level-major metrics (`levels × platforms × algorithms`, the
/// layout of [`report_cells`]) into per-algorithm rows: mean over platform
/// draws per level, normalized to level 0 (the static baseline).
fn fold_rows(
    metrics: &[mss_sweep::CellMetrics],
    n_levels: usize,
    scale: ExperimentScale,
) -> Vec<ResilienceRow> {
    let n_alg = Algorithm::ALL.len();
    let nplat = scale.platforms as f64;
    debug_assert_eq!(metrics.len(), n_levels * scale.platforms * n_alg);
    let mut mk = vec![vec![0.0f64; n_levels]; n_alg];
    let mut mf = vec![vec![0.0f64; n_levels]; n_alg];
    for (ci, m) in metrics.iter().enumerate() {
        let li = ci / (scale.platforms * n_alg);
        let ai = ci % n_alg;
        mk[ai][li] += m.makespan / nplat;
        mf[ai][li] += m.max_flow / nplat;
    }
    Algorithm::ALL
        .iter()
        .enumerate()
        .map(|(ai, &algorithm)| ResilienceRow {
            algorithm,
            degradation_makespan: mk[ai].iter().map(|v| v / mk[ai][0]).collect(),
            degradation_max_flow: mf[ai].iter().map(|v| v / mf[ai][0]).collect(),
            makespan: mk[ai].clone(),
            max_flow: mf[ai].clone(),
        })
        .collect()
}

/// Runs the resilience experiment over the given failure ladder.
pub fn run_with_levels(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    levels: &[FailureLevel],
    config: &SweepConfig,
) -> ResilienceReport {
    assert!(
        levels.first().is_some_and(|l| l.mtbf.is_none()),
        "resilience: the first level must be the static baseline"
    );
    let outcome = run_cells(report_cells(scale, arrival, levels), config);
    ResilienceReport {
        scale,
        arrival,
        levels: levels.iter().map(|l| l.label.clone()).collect(),
        rows: fold_rows(&outcome.metrics, levels.len(), scale),
    }
}

/// Runs the default ladder (static + three Poisson failure rates).
pub fn run_with(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    config: &SweepConfig,
) -> ResilienceReport {
    run_with_levels(scale, arrival, &FailureLevel::default_ladder(scale), config)
}

/// Reads a scenario file for [`run_scenario_file`] and checks that it fits
/// the experiment's 5-slave platforms, so a bad file fails before any run.
pub fn load_scenario(path: &std::path::Path) -> Result<ScenarioSpec, String> {
    let spec = mss_sweep::scenario_from_path(path).map_err(|e| e.to_string())?;
    spec.validate_for(SLAVES)
        .map_err(|e| ScenarioError(format!("{}: {}", path.display(), e.0)).to_string())?;
    Ok(spec)
}

/// Runs static vs one user-supplied scenario (e.g. parsed from
/// `examples/failure_scenario.toml`). Each platform draw perturbs the
/// scenario seed so draws see independent failure patterns. A scenario
/// that does not fit the experiment's 5-slave platforms is an error.
pub fn run_scenario_file(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    scenario: &ScenarioSpec,
    config: &SweepConfig,
) -> Result<ResilienceReport, ScenarioError> {
    scenario.validate_for(SLAVES)?;
    let levels = vec![
        FailureLevel {
            label: "static".into(),
            mtbf: None,
            repair_mean: 0.0,
        },
        FailureLevel {
            label: scenario.label(),
            mtbf: Some(f64::NAN), // placeholder: cells below override
            repair_mean: 0.0,
        },
    ];
    // Build the grid manually: the second level embeds the user scenario.
    let mut cells = report_cells(scale, arrival, &levels[..1]);
    for pi in 0..scale.platforms {
        for &algorithm in &Algorithm::ALL {
            let mut spec = scenario.clone();
            spec.seed ^= (pi as u64) << 23;
            cells.push(Cell {
                platform: PlatformCell::Class {
                    class: PlatformClass::Heterogeneous,
                    slaves: SLAVES,
                    seed: scale.seed,
                    index: pi,
                },
                arrival,
                perturbation: None,
                scenario: Some(ScenarioCell {
                    spec,
                    fault_aware: true,
                }),
                tasks: scale.tasks,
                algorithm,
                information: InfoTier::Clairvoyant,
                replicate: 0,
                task_seed: scale.seed ^ (pi as u64) << 17,
            });
        }
    }
    let outcome = run_cells(cells, config);
    Ok(ResilienceReport {
        scale,
        arrival,
        rows: fold_rows(&outcome.metrics, levels.len(), scale),
        levels: levels.into_iter().map(|l| l.label).collect(),
    })
}

impl ResilienceReport {
    /// Renders the degradation tables (makespan, then max-flow).
    pub fn render(&self) -> String {
        let mut header = vec!["#".to_string(), "algorithm".to_string()];
        header.extend(self.levels.iter().cloned());

        let mut mk = AsciiTable::new(header.clone());
        let mut mf = AsciiTable::new(header);
        for row in &self.rows {
            let lead = vec![
                row.algorithm.figure_index().to_string(),
                format!("{}+RD", row.algorithm.name()),
            ];
            let mut mk_cells = lead.clone();
            mk_cells.extend(row.degradation_makespan.iter().map(|v| fmt3(*v)));
            mk.row(mk_cells);
            let mut mf_cells = lead;
            mf_cells.extend(row.degradation_max_flow.iter().map(|v| fmt3(*v)));
            mf.row(mf_cells);
        }
        format!(
            "Resilience — degradation vs failure rate, {} platforms, {} tasks, {}\n\
             (per algorithm, normalized to its static run; fault-aware \
             redispatch, at least one slave up)\n\n\
             makespan:\n{}\nmax-flow:\n{}",
            self.scale.platforms,
            self.scale.tasks,
            self.arrival.label(),
            mk.render(),
            mf.render()
        )
    }

    /// Header and stringified rows of `resilience.csv`: one row per
    /// (algorithm, level).
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let mut rows = Vec::new();
        for row in &self.rows {
            for (li, label) in self.levels.iter().enumerate() {
                rows.push(vec![
                    row.algorithm.name().to_string(),
                    label.clone(),
                    format!("{}", row.makespan[li]),
                    format!("{}", row.max_flow[li]),
                    format!("{}", row.degradation_makespan[li]),
                    format!("{}", row.degradation_max_flow[li]),
                ]);
            }
        }
        let header = &[
            "algorithm",
            "level",
            "makespan_mean",
            "maxflow_mean",
            "deg_makespan",
            "deg_maxflow",
        ];
        (header, rows)
    }

    /// Degradation columns for one algorithm: `(makespan, max_flow)`.
    pub fn degradation(&self, a: Algorithm) -> (&[f64], &[f64]) {
        let row = self
            .rows
            .iter()
            .find(|r| r.algorithm == a)
            .expect("algorithm present");
        (&row.degradation_makespan, &row.degradation_max_flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ResilienceReport {
        run_with(
            ExperimentScale::quick(),
            ArrivalProcess::UniformStream { load: 0.9 },
            &SweepConfig::default(),
        )
    }

    #[test]
    fn static_level_is_the_unit_and_failures_degrade() {
        let report = quick();
        assert_eq!(report.levels.len(), 4);
        for row in &report.rows {
            assert!((row.degradation_makespan[0] - 1.0).abs() < 1e-12);
            assert!((row.degradation_max_flow[0] - 1.0).abs() < 1e-12);
            for li in 1..report.levels.len() {
                let d = row.degradation_makespan[li];
                assert!(
                    d.is_finite() && d > 0.5,
                    "{}: nonsensical degradation {d}",
                    row.algorithm
                );
            }
        }
        // The stormiest level visibly hurts at least one algorithm.
        let worst = report
            .rows
            .iter()
            .map(|r| r.degradation_makespan[3])
            .fold(0.0f64, f64::max);
        assert!(worst > 1.01, "no degradation at the highest rate: {worst}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let scale = ExperimentScale::quick();
        let arrival = ArrivalProcess::UniformStream { load: 0.9 };
        let a = run_with(
            scale,
            arrival,
            &SweepConfig {
                threads: 1,
                cache_dir: None,
                ..SweepConfig::default()
            },
        );
        let b = run_with(
            scale,
            arrival,
            &SweepConfig {
                threads: 8,
                cache_dir: None,
                ..SweepConfig::default()
            },
        );
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn custom_scenario_runs_against_static_baseline() {
        let scenario = ScenarioSpec {
            name: Some("maint".into()),
            seed: 5,
            horizon: Some(2000.0),
            min_up: Some(1),
            events: None,
            generators: Some(vec![GeneratorSpec {
                kind: "maintenance".into(),
                period: Some(100.0),
                duration: Some(10.0),
                ..GeneratorSpec::default()
            }]),
        };
        let report = run_scenario_file(
            ExperimentScale::quick(),
            ArrivalProcess::AllAtZero,
            &scenario,
            &SweepConfig::default(),
        )
        .expect("a maintenance scenario fits");
        assert_eq!(report.levels, vec!["static".to_string(), "maint".into()]);
        for row in &report.rows {
            assert!((row.degradation_makespan[0] - 1.0).abs() < 1e-12);
            assert!(row.degradation_makespan[1].is_finite());
        }
    }

    #[test]
    fn renders_and_writes() {
        let report = quick();
        let rendered = report.render();
        assert!(rendered.contains("Resilience"));
        assert!(rendered.contains("SLJFWC+RD"));
        let rows = Algorithm::ALL.len() * report.levels.len();
        assert_eq!(report.csv_table().1.len(), rows);
    }
}
