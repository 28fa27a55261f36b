//! Figure 2 — "Assessing the robustness of the algorithms".
//!
//! The paper perturbs the size of each task by up to ±10 % and compares the
//! obtained average makespan / sum-flow / max-flow against the run with
//! identical sizes on the same platforms. Heuristics keep planning with
//! *nominal* sizes (they do not know the jitter), so their load estimates
//! drift — flow objectives suffer far more than the makespan, which is the
//! paper's observation.
//!
//! Flow-time robustness is only informative when flows are arrival-bound,
//! so this experiment defaults to a near-saturated stream (ρ = 0.9); the
//! bag-of-tasks regime is available for comparison (see
//! [`ArrivalProcess`]).

use crate::report::{fmt3, AsciiTable, ExperimentScale};
use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_sweep::{run_cells, Cell, PerturbCell, PlatformCell, SweepConfig};
use mss_workload::{ArrivalProcess, Perturbation};

/// One algorithm's robustness ratios.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig2Row {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Mean ratio perturbed / identical for [makespan, max-flow, sum-flow].
    pub ratio: [f64; 3],
}

/// The Figure 2 report.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig2Report {
    /// Run scale.
    pub scale: ExperimentScale,
    /// Arrival regime used.
    pub arrival: ArrivalProcess,
    /// Size jitter applied.
    pub perturbation: Perturbation,
    /// Rows in the paper's algorithm order.
    pub rows: Vec<Fig2Row>,
}

/// The robustness grid as sweep cells: each platform draw × each algorithm
/// appears twice — once with exact sizes and once perturbed — with the
/// harness's historical seed derivation.
pub fn report_cells(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    perturbation: Perturbation,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(scale.platforms * 2 * Algorithm::ALL.len());
    for pi in 0..scale.platforms {
        for perturbed in [false, true] {
            for &algorithm in &Algorithm::ALL {
                cells.push(Cell {
                    platform: PlatformCell::Class {
                        class: PlatformClass::Heterogeneous,
                        slaves: 5,
                        seed: scale.seed,
                        index: pi,
                    },
                    arrival,
                    perturbation: perturbed.then_some(PerturbCell {
                        delta: perturbation.delta,
                        comm_exponent: perturbation.comm_exponent,
                        comp_exponent: perturbation.comp_exponent,
                        seed: scale.seed ^ 0x9e37 ^ (pi as u64) << 9,
                    }),
                    scenario: None,
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

/// Runs the robustness experiment through `mss-sweep` with the given
/// runtime.
pub fn run_with(
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    perturbation: Perturbation,
    config: &SweepConfig,
) -> Fig2Report {
    let outcome = run_cells(report_cells(scale, arrival, perturbation), config);

    let mut ratio_sum = vec![[0.0f64; 3]; Algorithm::ALL.len()];

    // Cells per platform: 7 nominal then 7 perturbed.
    let per_platform = 2 * Algorithm::ALL.len();
    for chunk in outcome.metrics.chunks(per_platform) {
        let (nominal, perturbed) = chunk.split_at(Algorithm::ALL.len());
        for (ai, (base, pert)) in nominal.iter().zip(perturbed).enumerate() {
            ratio_sum[ai][0] += pert.makespan / base.makespan;
            ratio_sum[ai][1] += pert.max_flow / base.max_flow;
            ratio_sum[ai][2] += pert.sum_flow / base.sum_flow;
        }
    }

    let nplat = scale.platforms as f64;
    let rows = Algorithm::ALL
        .iter()
        .enumerate()
        .map(|(ai, &algorithm)| Fig2Row {
            algorithm,
            ratio: [
                ratio_sum[ai][0] / nplat,
                ratio_sum[ai][1] / nplat,
                ratio_sum[ai][2] / nplat,
            ],
        })
        .collect();

    Fig2Report {
        scale,
        arrival,
        perturbation,
        rows,
    }
}

impl Fig2Report {
    /// Renders the report mirroring the paper's bar groups.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "#".to_string(),
            "algorithm".to_string(),
            "makespan".to_string(),
            "max-flow".to_string(),
            "sum-flow".to_string(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.algorithm.figure_index().to_string(),
                row.algorithm.name().to_string(),
                fmt3(row.ratio[0]),
                fmt3(row.ratio[1]),
                fmt3(row.ratio[2]),
            ]);
        }
        format!(
            "Figure 2 — perturbed(±{:.0}%) / identical, {} platforms, {} tasks, {}\n{}",
            self.perturbation.delta * 100.0,
            self.scale.platforms,
            self.scale.tasks,
            self.arrival.label(),
            t.render()
        )
    }

    /// Header and stringified rows of `fig2.csv`.
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.name().to_string(),
                    fmt3(r.ratio[0]),
                    fmt3(r.ratio[1]),
                    fmt3(r.ratio[2]),
                ]
            })
            .collect();
        let header = &[
            "algorithm",
            "makespan_ratio",
            "maxflow_ratio",
            "sumflow_ratio",
        ];
        (header, rows)
    }

    /// Ratios for one algorithm.
    pub fn ratio(&self, a: Algorithm) -> [f64; 3] {
        self.rows
            .iter()
            .find(|r| r.algorithm == a)
            .expect("algorithm present")
            .ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_robust_flows_are_not() {
        // The paper's headline: "our algorithms are quite robust for
        // makespan minimization problems, but not as much for sum-flow or
        // max-flow problems."
        let report = run_with(
            ExperimentScale::quick(),
            ArrivalProcess::UniformStream { load: 0.9 },
            Perturbation::linear(0.1),
            &SweepConfig::default(),
        );
        for row in &report.rows {
            assert!(
                (row.ratio[0] - 1.0).abs() < 0.25,
                "{}: makespan ratio {} far from 1",
                row.algorithm,
                row.ratio[0]
            );
        }
        // At least one algorithm shows visibly amplified flow sensitivity.
        let worst_flow = report
            .rows
            .iter()
            .map(|r| r.ratio[1].max(r.ratio[2]))
            .fold(0.0f64, f64::max);
        let worst_makespan = report
            .rows
            .iter()
            .map(|r| (r.ratio[0] - 1.0).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst_flow - 1.0 > worst_makespan,
            "flows (worst {worst_flow}) should be less robust than makespan (worst dev {worst_makespan})"
        );
    }

    #[test]
    fn renders_and_writes() {
        let report = run_with(
            ExperimentScale::quick(),
            ArrivalProcess::UniformStream { load: 0.9 },
            Perturbation::linear(0.1),
            &SweepConfig::default(),
        );
        assert!(report.render().contains("Figure 2"));
        assert_eq!(report.csv_table().1.len(), Algorithm::ALL.len());
    }

    #[test]
    fn zero_perturbation_is_identity() {
        let report = run_with(
            ExperimentScale::quick(),
            ArrivalProcess::AllAtZero,
            Perturbation::linear(0.0),
            &SweepConfig::default(),
        );
        for row in &report.rows {
            for k in 0..3 {
                assert!(
                    (row.ratio[k] - 1.0).abs() < 1e-9,
                    "{}: ratio {} with zero jitter",
                    row.algorithm,
                    row.ratio[k]
                );
            }
        }
    }
}
