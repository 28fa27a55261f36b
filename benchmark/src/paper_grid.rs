//! `paper-grid`: Figure 1(a–d) and Figure 2 at the paper's scale.
//!
//! One pass runs the four Figure 1 panels (bag of 1000 tasks, 10 random
//! 5-slave platforms, 7 heuristics) and the Figure 2 robustness grid
//! (10 heterogeneous platforms × exact/±10 % matrix-perturbed × 7 on a
//! ρ = 0.9 uniform stream) through `fig1::run_panel_with` and
//! `fig2::run_with` — 420 cells — without printing or writing artifacts.
//! One op is one cell.

use crate::exec::TracedExecutor;
use crate::trace::{Counts, Recorder};
use crate::{Bench, Digest, Scale};
use mss_core::{Algorithm, PlatformClass};
use mss_lab::fig1::{self, Fig1Panel, Fig1Row};
use mss_lab::fig2::{self, Fig2Report, Fig2Row};
use mss_lab::ExperimentScale;
use mss_sweep::{run_cells, Cell, CellMetrics, SweepConfig};
use mss_workload::{ArrivalProcess, Perturbation};
use std::hint::black_box;
use std::time::Instant;

/// Figure 1's panels, a–d.
const CLASSES: [PlatformClass; 4] = [
    PlatformClass::Homogeneous,
    PlatformClass::CommHomogeneous,
    PlatformClass::CompHomogeneous,
    PlatformClass::Heterogeneous,
];

/// Figure 1's arrival regime: a bag of tasks.
const FIG1_ARRIVAL: ArrivalProcess = ArrivalProcess::AllAtZero;

/// Figure 2's arrival regime: a near-saturated uniform stream.
const FIG2_ARRIVAL: ArrivalProcess = ArrivalProcess::UniformStream { load: 0.9 };

/// Figure 2's perturbation, as `ms-lab fig2` runs it.
fn fig2_perturbation() -> Perturbation {
    Perturbation::matrix(0.1)
}

/// What one pass produces: the rows behind the five paper artifacts.
pub struct Output {
    /// Figure 1(a–d).
    pub panels: Vec<Fig1Panel>,
    /// Figure 2.
    pub fig2: Fig2Report,
}

/// The workload's state.
pub struct PaperGrid {
    scale: ExperimentScale,
    config: SweepConfig,
}

/// All cells of one pass, as the two experiments build them.
fn all_cells(scale: ExperimentScale) -> Vec<Cell> {
    let mut cells: Vec<Cell> = CLASSES
        .iter()
        .flat_map(|&class| fig1::panel_cells(class, scale, FIG1_ARRIVAL))
        .collect();
    cells.extend(fig2::report_cells(scale, FIG2_ARRIVAL, fig2_perturbation()));
    cells
}

impl PaperGrid {
    /// The workload at `seed` and `scale`.
    pub fn new(seed: u64, scale: &Scale) -> PaperGrid {
        PaperGrid {
            scale: ExperimentScale {
                platforms: scale.grid_platforms,
                tasks: scale.grid_tasks,
                seed,
            },
            config: SweepConfig {
                threads: 1,
                ..SweepConfig::default()
            },
        }
    }
}

/// `fig1::run_panel_with`'s fold of per-cell metrics into the panel rows,
/// in the same order and arithmetic.
fn fig1_panel(class: PlatformClass, scale: ExperimentScale, metrics: &[CellMetrics]) -> Fig1Panel {
    let n = Algorithm::ALL.len();
    let mut norm_sum = vec![[0.0f64; 3]; n];
    let mut abs_sum = vec![[0.0f64; 3]; n];
    let triple = |m: &CellMetrics| [m.makespan, m.max_flow, m.sum_flow];
    for chunk in metrics.chunks(n) {
        let srpt = triple(&chunk[0]);
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
            normalized: norm_sum[ai].map(|v| v / nplat),
            absolute: abs_sum[ai].map(|v| v / nplat),
        })
        .collect();
    Fig1Panel {
        class,
        scale,
        arrival: FIG1_ARRIVAL,
        rows,
    }
}

/// `fig2::run_with`'s fold, in the same order and arithmetic.
fn fig2_report(scale: ExperimentScale, metrics: &[CellMetrics]) -> Fig2Report {
    let n = Algorithm::ALL.len();
    let mut ratio_sum = vec![[0.0f64; 3]; n];
    for chunk in metrics.chunks(2 * n) {
        let (nominal, perturbed) = chunk.split_at(n);
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
            ratio: ratio_sum[ai].map(|v| v / nplat),
        })
        .collect();
    Fig2Report {
        scale,
        arrival: FIG2_ARRIVAL,
        perturbation: fig2_perturbation(),
        rows,
    }
}

/// Runs `cells` through a fresh traced executor (the library starts a
/// fresh worker for every `run_cells` call too).
fn traced_cells(rec: &mut Recorder, counts: &mut Counts, cells: &[Cell]) -> Vec<CellMetrics> {
    let all: Vec<usize> = (0..cells.len()).collect();
    TracedExecutor::new(rec.totals.clone())
        .run(rec, counts, cells, &all, None)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

fn positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

impl Bench for PaperGrid {
    type Output = Output;

    fn ops_per_pass(&self) -> u64 {
        (CLASSES.len() + 2) as u64 * self.scale.platforms as u64 * Algorithm::ALL.len() as u64
    }

    fn run(&mut self) -> Output {
        let panels = CLASSES
            .iter()
            .map(|&class| fig1::run_panel_with(class, self.scale, FIG1_ARRIVAL, &self.config))
            .collect();
        let fig2 = fig2::run_with(self.scale, FIG2_ARRIVAL, fig2_perturbation(), &self.config);
        Output { panels, fig2 }
    }

    fn check(&self, out: &Output) -> Result<u64, String> {
        let mut d = Digest::default();
        if out.panels.len() != CLASSES.len() {
            return Err(format!("{} Figure 1 panels", out.panels.len()));
        }
        for panel in &out.panels {
            if panel.rows.len() != Algorithm::ALL.len() {
                return Err(format!("{} rows in a Figure 1 panel", panel.rows.len()));
            }
            // Every bar is normalized to SRPT, so SRPT's bars are exactly 1.
            if panel.rows[0].normalized != [1.0; 3] {
                return Err(format!("SRPT normalizes to {:?}", panel.rows[0].normalized));
            }
            for row in &panel.rows {
                if !row
                    .normalized
                    .iter()
                    .chain(&row.absolute)
                    .all(|&v| positive(v))
                {
                    return Err(format!("non-positive Figure 1 bar for {}", row.algorithm));
                }
                d.u64(row.algorithm as u64);
                row.normalized
                    .iter()
                    .chain(&row.absolute)
                    .for_each(|&v| d.f64(v));
            }
        }
        if out.fig2.rows.len() != Algorithm::ALL.len() {
            return Err(format!("{} rows in Figure 2", out.fig2.rows.len()));
        }
        for row in &out.fig2.rows {
            if !row.ratio.iter().all(|&v| positive(v)) {
                return Err(format!("non-positive Figure 2 ratio for {}", row.algorithm));
            }
            d.u64(row.algorithm as u64);
            row.ratio.iter().for_each(|&v| d.f64(v));
        }
        Ok(d.finish())
    }

    fn run_traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> Output {
        let scale = self.scale;
        let panels = CLASSES
            .iter()
            .map(|&class| {
                rec.span("run", |rec| {
                    let cells = fig1::panel_cells(class, scale, FIG1_ARRIVAL);
                    let metrics = traced_cells(rec, counts, &cells);
                    fig1_panel(class, scale, &metrics)
                })
            })
            .collect();
        let fig2 = rec.span("run", |rec| {
            let cells = fig2::report_cells(scale, FIG2_ARRIVAL, fig2_perturbation());
            let metrics = traced_cells(rec, counts, &cells);
            fig2_report(scale, &metrics)
        });
        Output { panels, fig2 }
    }

    fn verify(&mut self, _reference: &Output) -> Result<Vec<String>, String> {
        // Batched execution equals `Cell::run` on a sample of cells: one
        // platform of the heterogeneous panel, every heuristic.
        let cells = fig1::panel_cells(PlatformClass::Heterogeneous, self.scale, FIG1_ARRIVAL);
        let batched = run_cells(cells.clone(), &self.config);
        let n = Algorithm::ALL.len();
        let platform = (self.scale.seed as usize) % self.scale.platforms;
        let sample = cells
            .iter()
            .zip(&batched.metrics)
            .skip(platform * n)
            .take(n);
        for (cell, metrics) in sample {
            if cell.run() != *metrics {
                return Err(format!(
                    "batched run of {} on platform {platform} differs from Cell::run",
                    cell.algorithm
                ));
            }
        }
        Ok(vec![format!(
            "batched execution equals Cell::run on {n} cells (platform {platform} of Figure 1(d))"
        )])
    }

    /// Building the cell list with `fig1::panel_cells` and
    /// `fig2::report_cells`. One build takes tens of microseconds, so a
    /// sample times a batch of builds.
    fn setup(&mut self) -> Result<f64, String> {
        const BUILDS: usize = 10;
        let t0 = Instant::now();
        let built: Vec<Vec<Cell>> = (0..BUILDS)
            .map(|_| all_cells(black_box(self.scale)))
            .collect();
        let secs = t0.elapsed().as_secs_f64() / BUILDS as f64;
        if built
            .iter()
            .any(|cells| cells.len() as u64 != self.ops_per_pass())
        {
            return Err("the cell list does not match the pass".into());
        }
        Ok(secs)
    }

    fn setup_metric(&self) -> &'static str {
        "sweep.spec_s"
    }
}
