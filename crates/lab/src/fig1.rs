//! Figure 1 — "Comparison of the seven algorithms on different platforms".
//!
//! For each panel (a–d: homogeneous, communication-homogeneous,
//! computation-homogeneous, fully heterogeneous), the paper creates ten
//! random platforms, sends 1000 tasks, and plots each algorithm's average
//! makespan / sum-flow / max-flow **normalized to SRPT** (SRPT ≡ 1).

use crate::report::{fmt3, AsciiTable, ExperimentScale};
use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_sweep::{run_cells, Cell, PlatformCell, SweepConfig};
use mss_workload::ArrivalProcess;

/// One algorithm's bars in one panel.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig1Row {
    /// The algorithm (paper order: SRPT, LS, RR, RRC, RRP, SLJF, SLJFWC).
    pub algorithm: Algorithm,
    /// Mean normalized [makespan, max-flow, sum-flow] (SRPT ≡ 1).
    pub normalized: [f64; 3],
    /// Mean absolute values, seconds.
    pub absolute: [f64; 3],
}

/// One panel of Figure 1.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Fig1Panel {
    /// Which platform class the panel draws (a–d).
    pub class: PlatformClass,
    /// Run scale.
    pub scale: ExperimentScale,
    /// Arrival regime (the paper's main reading: bag-of-tasks).
    pub arrival: ArrivalProcess,
    /// Rows in the paper's algorithm order.
    pub rows: Vec<Fig1Row>,
}

/// Panel letter for a platform class, following the paper's layout.
pub fn panel_letter(class: PlatformClass) -> char {
    match class {
        PlatformClass::Homogeneous => 'a',
        PlatformClass::CommHomogeneous => 'b',
        PlatformClass::CompHomogeneous => 'c',
        PlatformClass::Heterogeneous => 'd',
    }
}

/// The panel's grid as sweep cells: `scale.platforms` platform draws × the
/// seven algorithms, with the harness's historical seed derivation so the
/// emitted tables stay identical to the pre-sweep serial implementation.
pub fn panel_cells(
    class: PlatformClass,
    scale: ExperimentScale,
    arrival: ArrivalProcess,
) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(scale.platforms * Algorithm::ALL.len());
    for pi in 0..scale.platforms {
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
                information: InfoTier::Clairvoyant,
                replicate: 0,
                task_seed: scale.seed ^ (pi as u64) << 17,
            });
        }
    }
    cells
}

/// Runs one Figure 1 panel through `mss-sweep` with the given runtime.
pub fn run_panel_with(
    class: PlatformClass,
    scale: ExperimentScale,
    arrival: ArrivalProcess,
    config: &SweepConfig,
) -> Fig1Panel {
    let outcome = run_cells(panel_cells(class, scale, arrival), config);

    // Accumulate normalized and absolute sums per algorithm per objective,
    // folding per-cell metrics in (platform, algorithm) order.
    let mut norm_sum = vec![[0.0f64; 3]; Algorithm::ALL.len()];
    let mut abs_sum = vec![[0.0f64; 3]; Algorithm::ALL.len()];

    for chunk in outcome.metrics.chunks(Algorithm::ALL.len()) {
        let triple = |m: &mss_sweep::CellMetrics| [m.makespan, m.max_flow, m.sum_flow];
        let srpt = triple(&chunk[0]); // Algorithm::ALL[0] == Srpt
        for (ai, m) in chunk.iter().enumerate() {
            let v = triple(m);
            for k in 0..3 {
                norm_sum[ai][k] += v[k] / srpt[k];
                abs_sum[ai][k] += v[k];
            }
        }
    }

    let nplat = scale.platforms as f64;
    let rows = Algorithm::ALL
        .iter()
        .enumerate()
        .map(|(ai, &algorithm)| Fig1Row {
            algorithm,
            normalized: [
                norm_sum[ai][0] / nplat,
                norm_sum[ai][1] / nplat,
                norm_sum[ai][2] / nplat,
            ],
            absolute: [
                abs_sum[ai][0] / nplat,
                abs_sum[ai][1] / nplat,
                abs_sum[ai][2] / nplat,
            ],
        })
        .collect();

    Fig1Panel {
        class,
        scale,
        arrival,
        rows,
    }
}

impl Fig1Panel {
    /// Renders the panel as an ASCII table mirroring the paper's bars.
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
                fmt3(row.normalized[0]),
                fmt3(row.normalized[1]),
                fmt3(row.normalized[2]),
            ]);
        }
        format!(
            "Figure 1({}) — {} platforms, m = 5, {} tasks, {}, normalized to SRPT\n{}",
            panel_letter(self.class),
            self.scale.platforms,
            self.scale.tasks,
            self.arrival.label(),
            t.render()
        )
    }

    /// Header and stringified rows of `fig1<letter>.csv`.
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.name().to_string(),
                    fmt3(r.normalized[0]),
                    fmt3(r.normalized[1]),
                    fmt3(r.normalized[2]),
                    fmt3(r.absolute[0]),
                    fmt3(r.absolute[1]),
                    fmt3(r.absolute[2]),
                ]
            })
            .collect();
        let header = &[
            "algorithm",
            "norm_makespan",
            "norm_maxflow",
            "norm_sumflow",
            "abs_makespan",
            "abs_maxflow",
            "abs_sumflow",
        ];
        (header, rows)
    }

    /// The normalized triple for one algorithm.
    pub fn normalized(&self, a: Algorithm) -> [f64; 3] {
        self.rows
            .iter()
            .find(|r| r.algorithm == a)
            .expect("algorithm present")
            .normalized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(class: PlatformClass) -> Fig1Panel {
        run_panel_with(
            class,
            ExperimentScale::quick(),
            ArrivalProcess::AllAtZero,
            &SweepConfig::default(),
        )
    }

    #[test]
    fn srpt_is_the_unit() {
        let panel = quick(PlatformClass::Heterogeneous);
        let srpt = panel.normalized(Algorithm::Srpt);
        for v in srpt {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn homogeneous_statics_beat_srpt() {
        // Figure 1(a): all static algorithms equal, better than SRPT.
        let panel = quick(PlatformClass::Homogeneous);
        for a in [
            Algorithm::ListScheduling,
            Algorithm::RoundRobin,
            Algorithm::RoundRobinComm,
            Algorithm::RoundRobinProc,
            Algorithm::Sljf,
            Algorithm::Sljfwc,
        ] {
            let n = panel.normalized(a);
            assert!(
                n[0] <= 1.0 + 1e-9,
                "{a} normalized makespan {} on homogeneous platforms",
                n[0]
            );
        }
        // And the RR family coincides exactly.
        assert_eq!(
            panel.normalized(Algorithm::RoundRobin),
            panel.normalized(Algorithm::RoundRobinComm)
        );
    }

    #[test]
    fn comm_homogeneous_rrc_is_worst_rr() {
        // Figure 1(b): RRC ignores speed heterogeneity and trails RRP/RR.
        let panel = quick(PlatformClass::CommHomogeneous);
        let rrc = panel.normalized(Algorithm::RoundRobinComm);
        let rrp = panel.normalized(Algorithm::RoundRobinProc);
        // 1% tolerance: at quick scale (3 platforms) the two can tie within
        // sampling noise; the paper-scale gap is checked in paper_claims.rs.
        assert!(
            rrc[0] >= rrp[0] - 0.01,
            "RRC {} should not beat RRP {} on comm-homogeneous",
            rrc[0],
            rrp[0]
        );
    }

    #[test]
    fn comp_homogeneous_rrp_trails_rrc() {
        // Figure 1(c): RRP (and SLJF) ignore link heterogeneity.
        let panel = quick(PlatformClass::CompHomogeneous);
        let rrc = panel.normalized(Algorithm::RoundRobinComm);
        let rrp = panel.normalized(Algorithm::RoundRobinProc);
        assert!(
            rrp[0] >= rrc[0] - 1e-9,
            "RRP {} should not beat RRC {} on comp-homogeneous",
            rrp[0],
            rrc[0]
        );
    }

    #[test]
    fn renders_and_writes() {
        let panel = quick(PlatformClass::Homogeneous);
        let rendered = panel.render();
        assert!(rendered.contains("Figure 1(a)"));
        assert!(rendered.contains("SLJFWC"));
        assert_eq!(panel.csv_table().1.len(), Algorithm::ALL.len());
    }
}
