//! `stream-replay`: a CSV task trace replayed through the bounded-memory
//! streamed engine.
//!
//! Before timing, the workload writes a uniform-stream (ρ = 0.7) trace with
//! ±10 % matrix-perturbed sizes, drawn from the seed, for the 100-slave
//! platform of `BENCH_engine.json`'s `stream` entry. Set-up is
//! `TraceSource::open`'s validation pass. One pass replays the trace
//! through `simulate_streamed_objectives_in` under LS and under SRPT; one
//! op is one task simulated.

use crate::trace::{Counts, Recorder, Timed, TimedSource};
use crate::{Bench, Digest, Scale};
use mss_core::{
    simulate_streamed_objectives_in, simulate_streamed_objectives_with_probe_in, Algorithm,
    OnlineScheduler, Platform, SimConfig, SimError, SimWorkspace, StreamStats, TaskSource,
    Timeline,
};
use mss_workload::{ArrivalProcess, GeneratedSource, Perturbation, TraceSource};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The two replays of a pass: LS (chunked linear scan over the slaves)
/// and SRPT (tournament-tree kernel).
const ALGORITHMS: [Algorithm; 2] = [Algorithm::ListScheduling, Algorithm::Srpt];

/// Salt separating the size-jitter stream from the arrival stream.
const PERTURB_SALT: u64 = 0x5eed_5eed;

/// `BENCH_engine.json`'s streaming platform: 100 mildly heterogeneous,
/// compute-bound slaves.
pub fn platform() -> Platform {
    let c: Vec<f64> = (0..100).map(|j| 0.01 + 0.0001 * j as f64).collect();
    let p: Vec<f64> = (0..100).map(|j| 2.0 + 0.03 * j as f64).collect();
    Platform::from_vectors(&c, &p)
}

/// The seeded task stream the trace file holds.
pub fn generated(seed: u64, tasks: usize, platform: &Platform) -> GeneratedSource {
    GeneratedSource::new(
        ArrivalProcess::UniformStream { load: 0.7 },
        tasks,
        platform,
        seed,
    )
    .with_perturbation(Perturbation::matrix(0.1), seed ^ PERTURB_SALT)
}

/// Writes `source` as a CSV trace. `{}` prints the shortest decimal that
/// parses back to the same `f64`, so the replay is bit-exact.
fn write_trace(path: &Path, source: &mut dyn TaskSource) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "release,size_c,size_p")?;
    while let Some(t) = source.next_task() {
        writeln!(out, "{},{},{}", t.release.as_f64(), t.size_c, t.size_p)?;
    }
    out.flush()
}

/// One pass's output: the two replays' results.
pub type Output = Vec<Result<StreamStats, SimError>>;

/// The workload's state.
pub struct StreamReplay {
    platform: Platform,
    config: SimConfig,
    tasks: usize,
    seed: u64,
    path: PathBuf,
    ws: SimWorkspace,
    /// The opened trace; every set-up opens it afresh.
    source: Option<TraceSource>,
    schedulers: Vec<Box<dyn OnlineScheduler>>,
    /// Timed scheduler instances of the traced replay, built on first use.
    timed: Vec<Timed<Box<dyn OnlineScheduler>>>,
}

impl StreamReplay {
    /// Writes the seeded trace into `scratch`; the first
    /// [`Bench::setup`] opens it.
    pub fn new(seed: u64, scale: &Scale, scratch: &Path) -> Result<StreamReplay, String> {
        let platform = platform();
        let tasks = scale.stream_tasks;
        let path = scratch.join("trace.csv");
        write_trace(&path, &mut generated(seed, tasks, &platform))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(StreamReplay {
            config: SimConfig::with_horizon(tasks),
            platform,
            tasks,
            seed,
            path,
            ws: SimWorkspace::new(),
            source: None,
            schedulers: ALGORITHMS.iter().map(|a| a.build()).collect(),
            timed: Vec::new(),
        })
    }
}

impl Bench for StreamReplay {
    type Output = Output;

    fn ops_per_pass(&self) -> u64 {
        (ALGORITHMS.len() * self.tasks) as u64
    }

    fn run(&mut self) -> Output {
        let StreamReplay {
            platform,
            config,
            ws,
            source,
            schedulers,
            ..
        } = self;
        let source = source.as_mut().expect("set up before the first pass");
        schedulers
            .iter_mut()
            .map(|scheduler| {
                source.reset();
                simulate_streamed_objectives_in(
                    ws,
                    platform,
                    source,
                    config,
                    &Timeline::EMPTY,
                    scheduler.as_mut(),
                )
            })
            .collect()
    }

    fn check(&self, out: &Output) -> Result<u64, String> {
        let mut d = Digest::default();
        for (alg, r) in ALGORITHMS.iter().zip(out) {
            let s = r
                .as_ref()
                .map_err(|e| format!("{alg} replay failed: {e}"))?;
            let o = s.objectives;
            if s.tasks != self.tasks {
                return Err(format!(
                    "{alg} replay pulled {} of {} tasks",
                    s.tasks, self.tasks
                ));
            }
            if ![o.makespan, o.max_flow, o.sum_flow]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0)
            {
                return Err(format!("{alg} replay objectives {o:?}"));
            }
            d.u64(s.tasks as u64);
            for v in [o.makespan, o.max_flow, o.sum_flow] {
                d.f64(v);
            }
        }
        Ok(d.finish())
    }

    fn run_traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> Output {
        let StreamReplay {
            platform,
            config,
            ws,
            source,
            timed,
            ..
        } = self;
        let source = source.as_mut().expect("set up before the first pass");
        if timed.is_empty() {
            *timed = ALGORITHMS
                .iter()
                .map(|&a| Timed::new(a.build(), a, rec.totals.clone()))
                .collect();
        }
        timed
            .iter_mut()
            .map(|scheduler| {
                rec.span("replay", |rec| {
                    source.reset();
                    let mut pulled = TimedSource::new(source, rec.totals.clone());
                    let r = rec.span("simulate", |_| {
                        simulate_streamed_objectives_with_probe_in(
                            ws,
                            platform,
                            &mut pulled,
                            config,
                            &Timeline::EMPTY,
                            scheduler,
                            &mut counts.sim,
                        )
                    });
                    if let Ok(s) = &r {
                        counts.peak_live_slots =
                            counts.peak_live_slots.max(s.peak_live_slots as u64);
                        counts.peak_resident_slots =
                            counts.peak_resident_slots.max(s.peak_resident_slots as u64);
                    }
                    r
                })
            })
            .collect()
    }

    fn verify(&mut self, reference: &Output) -> Result<Vec<String>, String> {
        // The trace replay equals a replay of the same seed's generated
        // stream: the CSV round trip is exact.
        for ((alg, scheduler), replayed) in
            ALGORITHMS.iter().zip(&mut self.schedulers).zip(reference)
        {
            let mut direct = generated(self.seed, self.tasks, &self.platform);
            let generated = simulate_streamed_objectives_in(
                &mut self.ws,
                &self.platform,
                &mut direct,
                &self.config,
                &Timeline::EMPTY,
                scheduler.as_mut(),
            )
            .map_err(|e| format!("{alg} generated run failed: {e}"))?;
            let replayed = replayed
                .as_ref()
                .map_err(|e| format!("{alg} replay failed: {e}"))?;
            if generated.objectives != replayed.objectives || generated.tasks != replayed.tasks {
                return Err(format!(
                    "{alg}: trace replay {:?} != generated stream {:?}",
                    replayed.objectives, generated.objectives
                ));
            }
        }
        Ok(vec![format!(
            "trace replay equals the GeneratedSource run under LS and SRPT ({} tasks)",
            self.tasks
        )])
    }

    /// `TraceSource::open`: the strict validation pass over the file.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let opened = TraceSource::open(&self.path).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if opened.len() != self.tasks || opened.dropped() != 0 {
            return Err(format!(
                "trace holds {} tasks ({} torn), {} were written",
                opened.len(),
                opened.dropped(),
                self.tasks
            ));
        }
        self.source = Some(opened);
        Ok(secs)
    }

    fn setup_metric(&self) -> &'static str {
        "workload.trace.open_s"
    }
}
