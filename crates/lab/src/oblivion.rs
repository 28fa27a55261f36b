//! Oblivion — degradation under withdrawn information.
//!
//! The paper's seven heuristics assume a fully clairvoyant master; this
//! experiment (new with the information-model refactor) measures what each
//! algorithm loses when that knowledge is withdrawn. Across the paper's
//! §4.2 heterogeneity ladder — homogeneous, communication-homogeneous,
//! computation-homogeneous, fully heterogeneous — every algorithm runs the
//! *identical* instances at all three [`InfoTier`]s, and the report gives
//! its makespan/max-flow ratio against **its own clairvoyant self**
//! (column `clairvoyant` ≡ 1).
//!
//! Two readings fall out. Memoryless heuristics (SRPT, LS, the RR family)
//! differ between `speed-oblivious` and `non-clairvoyant` only through
//! knowledge they never use, so their two sub-clairvoyant columns
//! coincide on identical-task workloads — the cost of oblivion for them
//! is pure estimator warm-up, and it grows with the rung's
//! heterogeneity (on the homogeneous rung the neutral prior is already
//! correct). The planners separate the tiers: at `speed-oblivious` they
//! still see the horizon and commit a *whole-instance* plan built on the
//! not-yet-informed prior — SLJFWC's reversed greedy then spreads work
//! uniformly over slaves that are anything but uniform, and no later
//! observation can undo it — while at `non-clairvoyant` the withdrawn
//! horizon shrinks the plan window to the first release batch and the
//! learned-estimate List-Scheduling tail takes over. Withdrawing *more*
//! information can therefore help a misinformed planner: confident plans
//! on wrong beliefs lose to humble reactivity.

use crate::report::{fmt3, AsciiTable, ExperimentScale};
use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_sweep::{run_cells, Cell, PlatformCell, SweepConfig};
use mss_workload::ArrivalProcess;

/// The ladder rungs, in the paper's Figure 1 panel order (a–d).
pub const LADDER: [PlatformClass; 4] = [
    PlatformClass::Homogeneous,
    PlatformClass::CommHomogeneous,
    PlatformClass::CompHomogeneous,
    PlatformClass::Heterogeneous,
];

/// One (platform class, algorithm) pair's measurements across the tiers.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct OblivionRow {
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// The ladder rung the row was measured on.
    pub class: PlatformClass,
    /// Mean makespan per tier (column order: [`InfoTier::ALL`]), seconds.
    pub makespan: Vec<f64>,
    /// Mean max-flow per tier, seconds.
    pub max_flow: Vec<f64>,
    /// `makespan[i] / makespan[clairvoyant]` per tier.
    pub deg_makespan: Vec<f64>,
    /// `max_flow[i] / max_flow[clairvoyant]` per tier.
    pub deg_max_flow: Vec<f64>,
}

/// The oblivion report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct OblivionReport {
    /// Run scale.
    pub scale: ExperimentScale,
    /// Arrival regime (near-saturated stream by default, so max-flow is
    /// arrival-bound and meaningful).
    pub arrival: ArrivalProcess,
    /// Tier labels, in column order (index 0 is the clairvoyant baseline).
    pub tiers: Vec<String>,
    /// Rows, ladder-major then the paper's algorithm order.
    pub rows: Vec<OblivionRow>,
}

/// The experiment grid: ladder rung × platform draw × tier × algorithm,
/// with one task seed per (rung, draw) so every tier and every algorithm
/// of a point faces the identical instance.
pub fn report_cells(scale: ExperimentScale, arrival: ArrivalProcess) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(
        LADDER.len() * scale.platforms * InfoTier::ALL.len() * Algorithm::ALL.len(),
    );
    for &class in &LADDER {
        for pi in 0..scale.platforms {
            for &information in &InfoTier::ALL {
                for &algorithm in &Algorithm::ALL {
                    cells.push(Cell {
                        platform: PlatformCell::Class {
                            class,
                            slaves: 5,
                            seed: scale.seed,
                            index: pi,
                        },
                        arrival,
                        perturbation: None,
                        scenario: None,
                        tasks: scale.tasks,
                        algorithm,
                        information,
                        replicate: 0,
                        task_seed: scale.seed ^ (pi as u64) << 17,
                    });
                }
            }
        }
    }
    cells
}

/// Folds the grid (layout of [`report_cells`]) into per-(class, algorithm)
/// rows: mean over platform draws per tier, normalized to tier 0.
fn fold_rows(metrics: &[mss_sweep::CellMetrics], scale: ExperimentScale) -> Vec<OblivionRow> {
    let n_tier = InfoTier::ALL.len();
    let n_alg = Algorithm::ALL.len();
    let nplat = scale.platforms as f64;
    debug_assert_eq!(
        metrics.len(),
        LADDER.len() * scale.platforms * n_tier * n_alg
    );
    let mut rows: Vec<OblivionRow> = LADDER
        .iter()
        .flat_map(|&class| {
            Algorithm::ALL.iter().map(move |&algorithm| OblivionRow {
                algorithm,
                class,
                makespan: vec![0.0; n_tier],
                max_flow: vec![0.0; n_tier],
                deg_makespan: vec![0.0; n_tier],
                deg_max_flow: vec![0.0; n_tier],
            })
        })
        .collect();
    for (ci, m) in metrics.iter().enumerate() {
        let ai = ci % n_alg;
        let ti = (ci / n_alg) % n_tier;
        let cls = ci / (n_alg * n_tier * scale.platforms);
        let row = &mut rows[cls * n_alg + ai];
        row.makespan[ti] += m.makespan / nplat;
        row.max_flow[ti] += m.max_flow / nplat;
    }
    for row in &mut rows {
        for ti in 0..n_tier {
            row.deg_makespan[ti] = row.makespan[ti] / row.makespan[0];
            row.deg_max_flow[ti] = row.max_flow[ti] / row.max_flow[0];
        }
    }
    rows
}

/// Runs the oblivion experiment.
pub fn run_with(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    config: &SweepConfig,
) -> OblivionReport {
    let outcome = run_cells(report_cells(scale, arrival), config);
    OblivionReport {
        scale,
        arrival,
        tiers: InfoTier::ALL
            .iter()
            .map(|t| t.label().to_string())
            .collect(),
        rows: fold_rows(&outcome.metrics, scale),
    }
}

impl OblivionReport {
    /// Renders the degradation tables (makespan, then max-flow).
    pub fn render(&self) -> String {
        let mut header = vec![
            "#".to_string(),
            "algorithm".to_string(),
            "platforms".to_string(),
        ];
        header.extend(self.tiers.iter().cloned());

        let mut mk = AsciiTable::new(header.clone());
        let mut mf = AsciiTable::new(header);
        for row in &self.rows {
            let lead = vec![
                row.algorithm.figure_index().to_string(),
                row.algorithm.name().to_string(),
                format!("{}", row.class),
            ];
            let mut mk_cells = lead.clone();
            mk_cells.extend(row.deg_makespan.iter().map(|v| fmt3(*v)));
            mk.row(mk_cells);
            let mut mf_cells = lead;
            mf_cells.extend(row.deg_max_flow.iter().map(|v| fmt3(*v)));
            mf.row(mf_cells);
        }
        format!(
            "Oblivion — degradation vs information tier, {} platforms/class, {} tasks, {}\n\
             (per algorithm, normalized to its own clairvoyant run on the \
             identical instances)\n\n\
             makespan:\n{}\nmax-flow:\n{}",
            self.scale.platforms,
            self.scale.tasks,
            self.arrival.label(),
            mk.render(),
            mf.render()
        )
    }

    /// Header and stringified rows of `oblivion.csv`: one row per
    /// (class, algorithm, tier).
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let mut rows = Vec::new();
        for row in &self.rows {
            for (ti, tier) in self.tiers.iter().enumerate() {
                rows.push(vec![
                    row.algorithm.name().to_string(),
                    format!("{}", row.class),
                    tier.clone(),
                    format!("{}", row.makespan[ti]),
                    format!("{}", row.max_flow[ti]),
                    format!("{}", row.deg_makespan[ti]),
                    format!("{}", row.deg_max_flow[ti]),
                ]);
            }
        }
        let header = &[
            "algorithm",
            "class",
            "tier",
            "makespan_mean",
            "maxflow_mean",
            "deg_makespan",
            "deg_maxflow",
        ];
        (header, rows)
    }

    /// Degradation columns for one (class, algorithm) pair:
    /// `(makespan, max_flow)`.
    pub fn degradation(&self, class: PlatformClass, a: Algorithm) -> (&[f64], &[f64]) {
        let row = self
            .rows
            .iter()
            .find(|r| r.class == class && r.algorithm == a)
            .expect("(class, algorithm) present");
        (&row.deg_makespan, &row.deg_max_flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OblivionReport {
        run_with(
            ExperimentScale::quick(),
            ArrivalProcess::UniformStream { load: 0.9 },
            &SweepConfig::default(),
        )
    }

    #[test]
    fn covers_the_full_grid_with_clairvoyant_as_the_unit() {
        let report = quick();
        assert_eq!(report.tiers.len(), 3);
        assert_eq!(report.tiers[0], "clairvoyant");
        assert_eq!(report.rows.len(), LADDER.len() * Algorithm::ALL.len());
        for row in &report.rows {
            assert!((row.deg_makespan[0] - 1.0).abs() < 1e-12);
            assert!((row.deg_max_flow[0] - 1.0).abs() < 1e-12);
            for ti in 0..3 {
                assert!(
                    row.deg_makespan[ti].is_finite() && row.deg_makespan[ti] > 0.2,
                    "{} on {}: nonsensical degradation {}",
                    row.algorithm,
                    row.class,
                    row.deg_makespan[ti]
                );
            }
        }
        // Every (class, algorithm) pair is addressable.
        for &class in &LADDER {
            for a in Algorithm::ALL {
                let (mk, mf) = report.degradation(class, a);
                assert_eq!((mk.len(), mf.len()), (3, 3));
            }
        }
    }

    #[test]
    fn memoryless_heuristics_coincide_across_sub_clairvoyant_tiers() {
        // SRPT/LS/RR* never read task sizes or the horizon, so on
        // identical-task workloads the speed-oblivious and non-clairvoyant
        // runs are the same schedule.
        let report = quick();
        for row in &report.rows {
            if matches!(
                row.algorithm,
                Algorithm::Srpt
                    | Algorithm::ListScheduling
                    | Algorithm::RoundRobin
                    | Algorithm::RoundRobinComm
                    | Algorithm::RoundRobinProc
            ) {
                assert_eq!(
                    row.makespan[1].to_bits(),
                    row.makespan[2].to_bits(),
                    "{} on {}: tiers 1 and 2 must coincide",
                    row.algorithm,
                    row.class
                );
            }
        }
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
    fn renders_and_writes() {
        let report = quick();
        let rendered = report.render();
        assert!(rendered.contains("Oblivion"));
        assert!(rendered.contains("non-clairvoyant"));
        let rows = report.rows.len() * report.tiers.len();
        assert_eq!(report.csv_table().1.len(), rows);
    }
}
