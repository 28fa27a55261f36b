//! Ablation studies for the reproduction's own design choices, where the
//! paper leaves a detail open. Each has a row in `docs/PAPER_MAP.md`.
//!
//! * **A1 — RR dispatch**: the paper leaves the Round-Robin dispatch rule
//!   unspecified; we chose buffer-bounded demand-driven dispatch (buffer 1).
//!   This ablation sweeps the buffer bound and the cyclic/priority mode and
//!   shows why: buffer 0 degenerates to SRPT-like behaviour, large buffers
//!   to blind flooding.
//! * **A2 — SLJF/SLJFWC quality**: our reconstructions of the two planned
//!   heuristics (the companion report \[23\] being unavailable) are compared
//!   against the exhaustive optimum on small instances.
//! * **A3 — arrival regime**: Figure 1(d) under bag-of-tasks vs streamed
//!   arrivals at several loads.
//! * **A4 — heterogeneity degree**: the title question as a curve —
//!   platforms interpolating from homogeneous to the paper's heterogeneous
//!   distribution, per axis, measuring how much algorithm choice matters.

use crate::report::{fmt3, fmt4, AsciiTable, ExperimentScale};
use mss_core::{
    simulate, Algorithm, InfoTier, Objective, Platform, PlatformClass, RoundRobin, RrDispatch,
    RrOrder, SimConfig,
};
use mss_opt::schedule::{Goal, Instance};
use mss_sweep::{parallel_map, run_cells, Cell, PlatformCell, SweepConfig};
use mss_workload::{ArrivalProcess, PlatformSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------- A1 ----

/// One configuration of the RR dispatch ablation.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BufferRow {
    /// Buffer bound swept.
    pub buffer: usize,
    /// Dispatch mode label (`priority` or `cyclic`).
    pub mode: String,
    /// Mean makespan normalized to SRPT, on [comm-homog, comp-homog] panels.
    pub normalized_makespan: [f64; 2],
}

/// Report of ablation A1.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BufferAblation {
    /// Scale used.
    pub scale: ExperimentScale,
    /// All swept configurations.
    pub rows: Vec<BufferRow>,
}

/// Sweeps the RR buffer bound and dispatch mode (order fixed to the RR
/// key) with the given runtime. The ten (mode, buffer) configurations are
/// independent and run in parallel through `mss-sweep`'s executor; each
/// configuration's inner fold is unchanged, so the report matches the
/// serial implementation.
pub fn buffer_sweep_with(scale: ExperimentScale, config: &SweepConfig) -> BufferAblation {
    let sampler = PlatformSampler::default();
    let classes = [
        PlatformClass::CommHomogeneous,
        PlatformClass::CompHomogeneous,
    ];
    let platform_sets: Vec<Vec<Platform>> = classes
        .iter()
        .map(|&c| sampler.sample_many(c, scale.platforms, scale.seed))
        .collect();

    let configs: Vec<(RrDispatch, usize)> = [RrDispatch::Priority, RrDispatch::Cyclic]
        .into_iter()
        .flat_map(|d| [0usize, 1, 2, 4, 16].into_iter().map(move |b| (d, b)))
        .collect();

    let rows = parallel_map(&configs, config.threads, |_, &(dispatch, buffer)| {
        let mut norm = [0.0f64; 2];
        for (ci, platforms) in platform_sets.iter().enumerate() {
            for (pi, platform) in platforms.iter().enumerate() {
                let tasks = ArrivalProcess::AllAtZero.generate(
                    scale.tasks,
                    platform,
                    scale.seed ^ (pi as u64),
                );
                let cfg = SimConfig::with_horizon(scale.tasks);
                let srpt = simulate(platform, &tasks, &cfg, &mut Algorithm::Srpt.build())
                    .unwrap()
                    .makespan();
                let mut rr = RoundRobin::new(RrOrder::SumCp, dispatch, buffer);
                let rr_makespan = simulate(platform, &tasks, &cfg, &mut rr)
                    .unwrap()
                    .makespan();
                norm[ci] += rr_makespan / srpt;
            }
            norm[ci] /= platforms.len() as f64;
        }
        BufferRow {
            buffer,
            mode: match dispatch {
                RrDispatch::Priority => "priority".into(),
                RrDispatch::Cyclic => "cyclic".into(),
            },
            normalized_makespan: norm,
        }
    });
    BufferAblation { scale, rows }
}

impl BufferAblation {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "mode".to_string(),
            "buffer".to_string(),
            "comm-homog".to_string(),
            "comp-homog".to_string(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.mode.clone(),
                r.buffer.to_string(),
                fmt3(r.normalized_makespan[0]),
                fmt3(r.normalized_makespan[1]),
            ]);
        }
        format!(
            "Ablation A1 — RR dispatch (makespan normalized to SRPT, lower is better)\n{}",
            t.render()
        )
    }

    /// Header and stringified rows of `ablation_buffer.csv`.
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.buffer.to_string(),
                    fmt3(r.normalized_makespan[0]),
                    fmt3(r.normalized_makespan[1]),
                ]
            })
            .collect();
        let header = &["mode", "buffer", "comm_homog_norm", "comp_homog_norm"];
        (header, rows)
    }
}

// ---------------------------------------------------------------- A2 ----

/// Report of ablation A2: planned heuristics vs the exhaustive optimum.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SljfQuality {
    /// Mean and max SLJF/OPT makespan ratio on comm-homogeneous bags.
    pub sljf_comm: (f64, f64),
    /// Mean and max SLJFWC/OPT makespan ratio on comp-homogeneous bags.
    pub sljfwc_comp: (f64, f64),
    /// Mean and max SLJFWC/OPT makespan ratio on heterogeneous bags.
    pub sljfwc_het: (f64, f64),
    /// Number of random instances per cell.
    pub instances: usize,
}

/// Measures plan quality against `mss-opt`'s exhaustive optimum
/// (n ≤ 5 tasks, m = 2 slaves so the search stays exact and fast).
///
/// The instance parameters are drawn up front from the single sequential
/// RNG stream (exactly as the serial implementation consumed it), then all
/// `3 × instances` simulate-vs-exhaustive comparisons run in parallel and
/// the summary folds in draw order — same numbers, parallel wall-clock.
/// `config` sets the runtime (thread count).
pub fn sljf_quality_with(instances: usize, seed: u64, config: &SweepConfig) -> SljfQuality {
    let mut rng = StdRng::seed_from_u64(seed);
    let cells = [
        (PlatformClass::CommHomogeneous, Algorithm::Sljf),
        (PlatformClass::CompHomogeneous, Algorithm::Sljfwc),
        (PlatformClass::Heterogeneous, Algorithm::Sljfwc),
    ];

    // Draw phase: consumes the RNG in the historical order.
    let mut jobs: Vec<(Vec<f64>, Vec<f64>, usize, Algorithm)> = Vec::new();
    for &(class, alg) in &cells {
        for _ in 0..instances {
            let c1: f64 = rng.gen_range(0.05..1.0);
            let c2: f64 = rng.gen_range(0.05..1.0);
            let p1: f64 = rng.gen_range(0.2..4.0);
            let p2: f64 = rng.gen_range(0.2..4.0);
            let (c, p) = match class {
                PlatformClass::CommHomogeneous => (vec![c1, c1], vec![p1, p2]),
                PlatformClass::CompHomogeneous => (vec![c1, c2], vec![p1, p1]),
                _ => (vec![c1, c2], vec![p1, p2]),
            };
            let n = rng.gen_range(2..=5);
            jobs.push((c, p, n, alg));
        }
    }

    // Evaluation phase: independent, parallel.
    let ratios = parallel_map(&jobs, config.threads, |_, (c, p, n, alg)| {
        let platform = Platform::from_vectors(c, p);
        let tasks = mss_core::bag_of_tasks(*n);
        let trace = simulate(
            &platform,
            &tasks,
            &SimConfig::with_horizon(*n),
            &mut alg.build(),
        )
        .unwrap();
        let inst = Instance {
            c: c.clone(),
            p: p.clone(),
            r: vec![0.0; *n],
        };
        let opt = mss_opt::best_f64(&inst, Goal::Makespan).value;
        Objective::Makespan.evaluate(&trace) / opt
    });

    let summarize = |slot: usize| -> (f64, f64) {
        let chunk = &ratios[slot * instances..(slot + 1) * instances];
        let sum: f64 = chunk.iter().sum();
        let max = chunk.iter().copied().fold(0.0f64, f64::max);
        (sum / instances as f64, max)
    };

    SljfQuality {
        sljf_comm: summarize(0),
        sljfwc_comp: summarize(1),
        sljfwc_het: summarize(2),
        instances,
    }
}

impl SljfQuality {
    /// Renders the quality table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "cell".to_string(),
            "mean ratio".to_string(),
            "max ratio".to_string(),
        ]);
        t.row(vec![
            "SLJF / OPT, comm-homog".to_string(),
            fmt4(self.sljf_comm.0),
            fmt4(self.sljf_comm.1),
        ]);
        t.row(vec![
            "SLJFWC / OPT, comp-homog".to_string(),
            fmt4(self.sljfwc_comp.0),
            fmt4(self.sljfwc_comp.1),
        ]);
        t.row(vec![
            "SLJFWC / OPT, heterogeneous".to_string(),
            fmt4(self.sljfwc_het.0),
            fmt4(self.sljfwc_het.1),
        ]);
        format!(
            "Ablation A2 — planned heuristics vs exhaustive optimum ({} bags each, makespan)\n{}",
            self.instances,
            t.render()
        )
    }
}

// ---------------------------------------------------------------- A3 ----

/// Report of ablation A3: Figure 1(d) across arrival regimes.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ArrivalAblation {
    /// Scale used.
    pub scale: ExperimentScale,
    /// Per regime: label and per-algorithm normalized makespans.
    pub regimes: Vec<(String, Vec<(String, f64)>)>,
}

/// Runs Figure 1(d) under several arrival regimes with the given runtime
/// (thread count).
pub fn arrival_sweep_with(scale: ExperimentScale, config: &SweepConfig) -> ArrivalAblation {
    let regimes = [
        ArrivalProcess::AllAtZero,
        ArrivalProcess::UniformStream { load: 0.5 },
        ArrivalProcess::UniformStream { load: 0.9 },
        ArrivalProcess::UniformStream { load: 1.2 },
    ];
    let out = regimes
        .iter()
        .map(|&arrival| {
            let panel =
                crate::fig1::run_panel_with(PlatformClass::Heterogeneous, scale, arrival, config);
            let rows = panel
                .rows
                .iter()
                .map(|r| (r.algorithm.name().to_string(), r.normalized[0]))
                .collect();
            (arrival.label(), rows)
        })
        .collect();
    ArrivalAblation {
        scale,
        regimes: out,
    }
}

impl ArrivalAblation {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut header = vec!["algorithm".to_string()];
        header.extend(self.regimes.iter().map(|(l, _)| l.clone()));
        let mut t = AsciiTable::new(header);
        for (ai, a) in Algorithm::ALL.iter().enumerate() {
            let mut row = vec![a.name().to_string()];
            for (_, rows) in &self.regimes {
                row.push(fmt3(rows[ai].1));
            }
            t.row(row);
        }
        format!(
            "Ablation A3 — Figure 1(d) normalized makespan across arrival regimes\n{}",
            t.render()
        )
    }
}

// ---------------------------------------------------------------- A4 ----

/// Report of ablation A4: the impact of the *degree* of heterogeneity.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct HeterogeneityImpact {
    /// Degrees swept.
    pub degrees: Vec<f64>,
    /// Per axis: label and, per degree, the mean normalized makespan of the
    /// best static heuristic and of the *worst* static heuristic — the
    /// spread between them is "the impact of heterogeneity" on algorithm
    /// choice.
    pub rows: Vec<(String, Vec<(f64, f64)>)>,
    /// Tasks per run.
    pub tasks: usize,
    /// Families (seeds) averaged.
    pub families: usize,
}

/// Sweeps the heterogeneity degree along all three axes (A4,
/// `examples/heterogeneity_impact.rs`): as heterogeneity grows, the spread
/// between the best and worst static heuristic widens — the experimental
/// mirror of the theory section, where heterogeneity raises every lower
/// bound. `config` sets the runtime (thread count).
pub fn heterogeneity_impact_with(
    tasks: usize,
    families: usize,
    seed: u64,
    config: &SweepConfig,
) -> HeterogeneityImpact {
    use mss_workload::HeterogeneityAxis;
    let degrees = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    let axes = [
        HeterogeneityAxis::Communication,
        HeterogeneityAxis::Computation,
        HeterogeneityAxis::Both,
    ];

    // The full (axis × degree × family × algorithm) grid as sweep cells;
    // `Algorithm::ALL` puts SRPT first, so each chunk of 7 metrics is one
    // (axis, degree, family) point with its normalization baseline first.
    let mut cells = Vec::new();
    for axis in axes {
        for &h in &degrees {
            for f in 0..families {
                for &algorithm in &Algorithm::ALL {
                    cells.push(Cell {
                        platform: PlatformCell::Heterogeneity {
                            axis,
                            level: h,
                            slaves: 5,
                            seed: seed ^ (f as u64 * 7919),
                            family: f as u64,
                        },
                        arrival: ArrivalProcess::AllAtZero,
                        perturbation: None,
                        scenario: None,
                        tasks,
                        algorithm,
                        information: InfoTier::Clairvoyant,
                        replicate: f as u64,
                        task_seed: seed,
                    });
                }
            }
        }
    }
    let outcome = run_cells(cells, config);

    let per_point = Algorithm::ALL.len();
    let mut chunks = outcome.metrics.chunks(per_point);
    let mut rows = Vec::new();
    for axis in axes {
        let mut per_degree = Vec::new();
        for _ in &degrees {
            let (mut best_sum, mut worst_sum) = (0.0f64, 0.0f64);
            for _ in 0..families {
                let chunk = chunks.next().expect("one chunk per (axis, degree, family)");
                let srpt = chunk[0].makespan;
                let normalized = chunk[1..].iter().map(|m| m.makespan / srpt);
                best_sum += normalized.clone().fold(f64::INFINITY, f64::min);
                worst_sum += normalized.fold(0.0f64, f64::max);
            }
            per_degree.push((best_sum / families as f64, worst_sum / families as f64));
        }
        rows.push((axis.label().to_string(), per_degree));
    }

    HeterogeneityImpact {
        degrees,
        rows,
        tasks,
        families,
    }
}

impl HeterogeneityImpact {
    /// Renders best/worst normalized makespan per axis and degree.
    pub fn render(&self) -> String {
        let mut header = vec!["axis".to_string()];
        header.extend(self.degrees.iter().map(|h| format!("h={h}")));
        let mut t = AsciiTable::new(header);
        for (label, per_degree) in &self.rows {
            let mut row = vec![label.clone()];
            row.extend(
                per_degree
                    .iter()
                    .map(|(best, worst)| format!("{} / {}", fmt3(*best), fmt3(*worst))),
            );
            t.row(row);
        }
        format!(
            "Ablation A4 — impact of heterogeneity degree (best / worst static, makespan vs SRPT)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneity_widens_the_static_spread() {
        let report = heterogeneity_impact_with(100, 2, 5, &SweepConfig::default());
        // At h = 0 all statics coincide; at h = 1 (both axes) they do not.
        let both = &report.rows.iter().find(|(l, _)| l == "both").unwrap().1;
        let (b0, w0) = both[0];
        let (b1, w1) = both[both.len() - 1];
        // A small residual spread exists even at h = 0 (the RR family's
        // bounded buffer costs a little at the end of a bag); heterogeneity
        // must widen it substantially.
        assert!(w0 - b0 < 0.05, "homogeneous spread {b0}..{w0}");
        assert!(
            w1 - b1 > (w0 - b0) + 0.01,
            "spread did not widen: h=0 {b0}..{w0} vs h=1 {b1}..{w1}"
        );
        assert!(report.render().contains("Ablation A4"));
    }

    #[test]
    fn buffer_zero_matches_srpt_like_behaviour() {
        // Buffer 0 forbids queueing entirely; on homogeneous-ish platforms
        // the RR family then loses its pipelining edge and the normalized
        // makespan rises towards (or above) 1.
        // Scale matters: with very few tasks the end-game stranding of a
        // queued task on a slow slave can dominate; at ≥100 tasks the
        // pipelining gain is reliable.
        let scale = ExperimentScale {
            platforms: 4,
            tasks: 120,
            seed: 7,
        };
        let report = buffer_sweep_with(scale, &SweepConfig::default());
        let b0 = report
            .rows
            .iter()
            .find(|r| r.buffer == 0 && r.mode == "priority")
            .unwrap();
        let b1 = report
            .rows
            .iter()
            .find(|r| r.buffer == 1 && r.mode == "priority")
            .unwrap();
        assert!(
            b1.normalized_makespan[0] <= b0.normalized_makespan[0] + 1e-9,
            "buffer 1 ({}) should beat buffer 0 ({}) on comm-homog",
            b1.normalized_makespan[0],
            b0.normalized_makespan[0]
        );
        assert!(report.render().contains("Ablation A1"));
    }

    #[test]
    fn sljf_quality_close_to_optimal_in_its_design_domain() {
        let q = sljf_quality_with(40, 3, &SweepConfig::default());
        assert!(
            q.sljf_comm.1 < 1.0 + 1e-6,
            "SLJF max ratio {} on comm-homog bags (expected optimal)",
            q.sljf_comm.1
        );
        assert!(
            q.sljfwc_comp.0 < 1.15,
            "SLJFWC mean ratio {} on comp-homog bags",
            q.sljfwc_comp.0
        );
        assert!(q.render().contains("Ablation A2"));
    }

    #[test]
    fn arrival_sweep_has_all_regimes() {
        let scale = ExperimentScale {
            platforms: 2,
            tasks: 60,
            seed: 5,
        };
        let report = arrival_sweep_with(scale, &SweepConfig::default());
        assert_eq!(report.regimes.len(), 4);
        assert!(report.render().contains("bag(t=0)"));
    }
}
