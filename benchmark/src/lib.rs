//! # mss-benchmark — the repository's end-to-end benchmark
//!
//! Three workloads drive the library crates in-process through the same
//! public calls `ms-lab` makes, on one worker thread, one workload per
//! process:
//!
//! * `paper_grid` — Figure 1(a–d) and Figure 2 at the paper's scale;
//! * `stream_replay` — a CSV task trace replayed through the
//!   bounded-memory streamed engine under LS and SRPT;
//! * `sweep_resume` — a 1,680-cell TOML sweep run cold into an empty
//!   result store, re-run warm from it, then aggregated.
//!
//! A run times many short passes and checks every pass's output. A traced
//! run (`trace`) replays the same passes one layer call at a time and
//! reports where the time went. `README.md` beside this crate explains
//! the workloads, the metrics and the statistics.

#![forbid(unsafe_code)]

mod exec;
mod paper_grid;
mod stats;
mod stream_replay;
mod sweep_resume;
mod trace;

use stats::{median, PassStats};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Breakdown, Counts, Recorder};

/// The seed the golden digests are recorded at (the paper harness's).
pub const DEFAULT_SEED: u64 = 42;

/// Golden output digests at [`DEFAULT_SEED`] and full scale, one
/// `<workload> <hex digest>` line each.
const GOLDEN: &str = include_str!("../golden.txt");

/// Passes a run times at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Traced passes whose spans are written to the Chrome trace.
const KEPT_PASSES: usize = 2;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1(a–d) and Figure 2 at the paper's scale.
    PaperGrid,
    /// A CSV trace replayed through the streamed engine.
    StreamReplay,
    /// A TOML sweep run cold, resumed warm, and aggregated.
    SweepResume,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::StreamReplay,
        Workload::SweepResume,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::StreamReplay => "stream-replay",
            Workload::SweepResume => "sweep-resume",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures (and what
/// the golden digests are recorded at); [`Scale::TINY`] keeps the same
/// shapes for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Random platforms per Figure 1 panel and in Figure 2.
    pub grid_platforms: usize,
    /// Tasks per Figure 1/2 cell.
    pub grid_tasks: usize,
    /// Tasks in the replayed trace.
    pub stream_tasks: usize,
    /// Random platforms in the sweep spec.
    pub sweep_platforms: usize,
    /// Tasks per sweep cell.
    pub sweep_tasks: usize,
}

impl Scale {
    /// The measured scale: the paper's grid, a 100k-task trace, the
    /// 1,680-cell sweep.
    pub const FULL: Scale = Scale {
        grid_platforms: 10,
        grid_tasks: 1000,
        stream_tasks: 100_000,
        sweep_platforms: 10,
        sweep_tasks: 40,
    };

    /// A seconds-long version for tests.
    pub const TINY: Scale = Scale {
        grid_platforms: 2,
        grid_tasks: 60,
        stream_tasks: 3_000,
        sweep_platforms: 2,
        sweep_tasks: 10,
    };
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to time passes for.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the Chrome trace and the scratch space go.
    pub out_dir: PathBuf,
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything a run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Ops attempted (cells, tasks or cell results, per workload).
    pub attempted: u64,
    /// Ops of passes whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run hygiene and check notes, one line each.
    pub log: Vec<String>,
    /// The Chrome trace of a traced run.
    pub chrome_trace: Option<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload as the measuring loop drives it.
trait Bench {
    /// What one pass returns.
    type Output;

    /// Ops one pass performs.
    fn ops_per_pass(&self) -> u64;

    /// Untimed work before every pass (e.g. emptying the scratch store).
    fn prepare(&mut self) {}

    /// One pass through the public calls `ms-lab` makes (timed).
    fn run(&mut self) -> Self::Output;

    /// Checks a pass's output and returns its digest (untimed).
    fn check(&self, out: &Self::Output) -> Result<u64, String>;

    /// The same pass, replayed one layer call at a time under `rec`.
    fn run_traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> Self::Output;

    /// Checks made once per run against the first pass's output: the
    /// seed-free identities. Returns one note per check.
    fn verify(&mut self, reference: &Self::Output) -> Result<Vec<String>, String>;

    /// Performs the workload's set-up once and returns the seconds it
    /// took. The first call builds the state the passes use; later calls
    /// rebuild it, one between every two passes.
    fn setup(&mut self) -> Result<f64, String>;

    /// The per-layer metric that set-up time belongs to.
    fn setup_metric(&self) -> &'static str;
}

/// FNV-1a over the bits of a pass's outputs.
#[derive(Clone, Copy, Debug)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a float's bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The golden digest of `workload`, if one is recorded.
fn golden(workload: Workload) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let (name, hex) = line.trim().split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())?
    })
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    /// Creates a fresh directory at `path`.
    pub fn new(path: PathBuf) -> std::io::Result<Scratch> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Result<Report, String> {
    let scratch = Scratch::new(opts.out_dir.join(format!(
        "tmp-{}-{}",
        opts.workload.name(),
        std::process::id()
    )))
    .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    let (seed, scale, dir) = (opts.seed, &opts.scale, scratch.path());
    let mut report = match opts.workload {
        Workload::PaperGrid => measure(paper_grid::PaperGrid::new(seed, scale), opts),
        Workload::StreamReplay => {
            measure(stream_replay::StreamReplay::new(seed, scale, dir)?, opts)
        }
        Workload::SweepResume => measure(sweep_resume::SweepResume::new(seed, scale, dir), opts),
    }?;
    drop(scratch);
    if !opts.trace {
        let rss = peak_rss_mb()?;
        report.metrics.push(metric("peak_rss_mb", rss, "MB"));
    }
    Ok(report)
}

/// The measuring loop shared by every workload.
fn measure<B: Bench>(mut bench: B, opts: &Options) -> Result<Report, String> {
    let workload = opts.workload.name();
    let mut report = Report {
        log: vec![hygiene(opts)],
        ..Report::default()
    };
    // Set-up is repeated between passes, so its samples span the whole
    // run like the pass times do.
    let mut setups = vec![bench.setup()?];

    // The first pass warms caches and is the reference every later pass
    // must reproduce.
    bench.prepare();
    let first = bench.run();
    let mut checks_ok = true;
    let reference = match bench.check(&first) {
        Ok(d) => d,
        Err(e) => {
            report.log.push(format!("check: first pass failed: {e}"));
            checks_ok = false;
            0
        }
    };
    report
        .log
        .push(format!("digest: {workload} {reference:016x}"));
    match bench.verify(&first) {
        Ok(notes) => report
            .log
            .extend(notes.into_iter().map(|n| format!("check: {n}"))),
        Err(e) => {
            report.log.push(format!("check: {e}"));
            checks_ok = false;
        }
    }
    drop(first);
    if opts.scale == Scale::FULL && opts.seed == DEFAULT_SEED {
        match golden(opts.workload) {
            Some(g) if g == reference => report.log.push("check: golden digest matches".into()),
            Some(g) => {
                report
                    .log
                    .push(format!("check: digest {reference:016x} != golden {g:016x}"));
                checks_ok = false;
            }
            None => {
                report.log.push("check: no golden digest recorded".into());
                checks_ok = false;
            }
        }
    }

    let ops = bench.ops_per_pass();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut breakdowns: Vec<Breakdown> = Vec::new();
    let mut counts_seen: Option<Counts> = None;
    let mut rec = Recorder::new(KEPT_PASSES);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || plain.len() < MIN_PASSES {
        bench.prepare();
        let t0 = Instant::now();
        let out = bench.run();
        plain.push(t0.elapsed().as_secs_f64());
        report.attempted += ops;
        if !checks_ok || bench.check(&out) != Ok(reference) {
            report.failed += ops;
        }
        drop(out);
        setups.push(bench.setup()?);
        if !opts.trace {
            continue;
        }
        // Traced passes alternate with untraced ones, so both see the
        // same host speed and `trace.overhead` compares like with like.
        bench.prepare();
        mss_obs::kernel_stats_reset();
        let mut counts = Counts::default();
        let (out, breakdown) = rec.pass(|rec| bench.run_traced(rec, &mut counts))?;
        counts.kernel = mss_obs::kernel_stats_snapshot();
        report.attempted += ops;
        if !checks_ok || bench.check(&out) != Ok(reference) {
            report.failed += ops;
        }
        match &counts_seen {
            Some(c) if *c != counts => return Err("traced passes counted different work".into()),
            _ => counts_seen = Some(counts),
        }
        traced.push(breakdown.total_ns as f64 * 1e-9);
        breakdowns.push(breakdown);
    }

    let timing = PassStats::of(&plain).expect("at least one pass");
    let setup = PassStats::of(&setups).expect("at least one set-up");
    report
        .log
        .push(format!("passes: {} ops/pass; {}", ops, timing.describe()));
    report.log.push(format!("setups: {}", setup.describe()));
    report.correct = checks_ok && report.failed == 0;
    if opts.trace {
        let traced_stats = PassStats::of(&traced).expect("at least one traced pass");
        report
            .log
            .push(format!("traced passes: {}", traced_stats.describe()));
        let counts = counts_seen.expect("at least one traced pass");
        let overhead = traced_stats.min / timing.min;
        let setup_layer = [(bench.setup_metric(), setup.min)];
        report.metrics = layer_metrics(&breakdowns, &counts, &setup_layer, overhead);
        report.chrome_trace = Some(rec.chrome_trace(workload));
    } else {
        report.metrics = vec![
            metric("ops_per_s", ops as f64 / timing.min, "1/s"),
            metric("setup_s", setup.min, "s"),
        ];
    }
    Ok(report)
}

/// The run-hygiene line: what ran, where, on how much hardware.
fn hygiene(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "run: workload={} seed={} seconds={} trace={} threads=1 pid={} nproc={nproc} cpu=\"{cpu}\"",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::process::id(),
    )
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Names of the per-layer metrics, with units, in report order.
pub const LAYER_METRICS: [(&str, &str); 52] = [
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.callbacks", "count"),
    ("sim.callbacks_elided", "count"),
    ("sim.view_recomputes", "count"),
    ("sim.estimator_updates", "count"),
    ("sim.failures", "count"),
    ("sim.tasks_lost", "count"),
    ("sim.peak_live_slots", "count"),
    ("sim.peak_resident_slots", "count"),
    ("core.decide_s", "s"),
    ("core.decisions", "count"),
    ("core.ns_per_decision", "ns"),
    ("core.srpt.ns_per_decision", "ns"),
    ("core.ls.ns_per_decision", "ns"),
    ("core.rr.ns_per_decision", "ns"),
    ("core.rrc.ns_per_decision", "ns"),
    ("core.rrp.ns_per_decision", "ns"),
    ("core.sljf.ns_per_decision", "ns"),
    ("core.sljfwc.ns_per_decision", "ns"),
    ("kernel.queries", "count"),
    ("kernel.rebuilds", "count"),
    ("kernel.replayed", "count"),
    ("kernel.scans", "count"),
    ("kernel.hit_ratio", "ratio"),
    ("workload.trace.open_s", "s"),
    ("workload.trace.pull_s", "s"),
    ("workload.trace.pulls", "count"),
    ("sweep.materialize_s", "s"),
    ("sweep.materializations", "count"),
    ("workload.platform_s", "s"),
    ("workload.arrivals_s", "s"),
    ("workload.perturb_s", "s"),
    ("scenario.compile_s", "s"),
    ("opt.bounds_s", "s"),
    ("sweep.spec_s", "s"),
    ("sweep.group_s", "s"),
    ("sweep.batches", "count"),
    ("sweep.batch_reuse_ratio", "ratio"),
    ("sweep.key_s", "s"),
    ("sweep.keys", "count"),
    ("sweep.store.append_s", "s"),
    ("sweep.store.appends", "count"),
    ("sweep.store.bytes", "bytes"),
    ("sweep.store.load_s", "s"),
    ("sweep.store.records", "count"),
    ("sweep.store.hit_ratio", "ratio"),
    ("sweep.agg_s", "s"),
    ("sweep.agg.rows", "count"),
    ("trace.harness_s", "s"),
    ("trace.overhead", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run: times are medians over the traced
/// passes (seconds per pass), counts are per pass (identical in every
/// traced pass), set-up layers are per set-up.
fn layer_metrics(
    passes: &[Breakdown],
    c: &Counts,
    setup: &[(&'static str, f64)],
    overhead: f64,
) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&Breakdown) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let b0 = &passes[0];
    let decisions: u64 = b0.decisions.iter().sum();
    let events = c.sim.events();
    let value = |name: &str| -> f64 {
        if let Some(&(_, v)) = setup.iter().find(|(n, _)| *n == name) {
            return v;
        }
        if let Some(alg) = name
            .strip_prefix("core.")
            .and_then(|n| n.strip_suffix(".ns_per_decision"))
        {
            if let Some(i) = mss_core::Algorithm::ALL
                .iter()
                .position(|a| a.name().eq_ignore_ascii_case(alg))
            {
                return per_pass(&|b| ratio(b.decide_ns[i] as f64, b.decisions[i] as f64));
            }
        }
        match name {
            "sim.self_s" => per_pass(&|b| b.self_s("simulate")),
            "sim.events" => events as f64,
            "sim.ns_per_event" => per_pass(&|b| ratio(b.self_s("simulate") * 1e9, events as f64)),
            "sim.callbacks" => c.sim.callbacks as f64,
            "sim.callbacks_elided" => c.sim.callbacks_elided as f64,
            "sim.view_recomputes" => c.sim.view_recomputes as f64,
            "sim.estimator_updates" => c.sim.estimator_updates as f64,
            "sim.failures" => c.sim.failures as f64,
            "sim.tasks_lost" => c.sim.tasks_lost as f64,
            "sim.peak_live_slots" => c.peak_live_slots as f64,
            "sim.peak_resident_slots" => c.peak_resident_slots as f64,
            "core.decide_s" => per_pass(&|b| b.decide_ns.iter().sum::<u64>() as f64 * 1e-9),
            "core.decisions" => decisions as f64,
            "core.ns_per_decision" => {
                per_pass(&|b| ratio(b.decide_ns.iter().sum::<u64>() as f64, decisions as f64))
            }
            "kernel.queries" => c.kernel.queries as f64,
            "kernel.rebuilds" => c.kernel.rebuilds as f64,
            "kernel.replayed" => c.kernel.replayed as f64,
            "kernel.scans" => c.kernel.scans as f64,
            "kernel.hit_ratio" => c.kernel.hit_ratio().unwrap_or(0.0),
            "workload.trace.pull_s" => per_pass(&|b| b.pull_ns as f64 * 1e-9),
            "workload.trace.pulls" => b0.pulls as f64,
            "sweep.materialize_s" => per_pass(&|b| b.incl_s("materialize")),
            "sweep.materializations" => c.materializations as f64,
            "workload.platform_s" => per_pass(&|b| b.self_s("platform")),
            "workload.arrivals_s" => per_pass(&|b| b.self_s("arrivals")),
            "workload.perturb_s" => per_pass(&|b| b.self_s("perturb")),
            "scenario.compile_s" => per_pass(&|b| b.self_s("compile")),
            "opt.bounds_s" => per_pass(&|b| b.self_s("bounds")),
            "sweep.group_s" => per_pass(&|b| b.self_s("group")),
            "sweep.batches" => c.batches as f64,
            "sweep.batch_reuse_ratio" if c.executed > 0 => {
                1.0 - c.materializations as f64 / c.executed as f64
            }
            "sweep.key_s" => per_pass(&|b| b.self_s("keys")),
            "sweep.keys" => c.keys as f64,
            "sweep.store.append_s" => per_pass(&|b| b.self_s("store.append")),
            "sweep.store.appends" => c.store_appends as f64,
            "sweep.store.bytes" => c.store_bytes as f64,
            "sweep.store.load_s" => per_pass(&|b| b.self_s("store.load")),
            "sweep.store.records" => c.store_records as f64,
            "sweep.store.hit_ratio" => ratio(c.store_hits as f64, c.store_lookups as f64),
            "sweep.agg_s" => per_pass(&|b| b.self_s("agg")),
            "sweep.agg.rows" => c.agg_rows as f64,
            "trace.harness_s" => per_pass(&|b| b.harness_ns() as f64 * 1e-9),
            "trace.overhead" => overhead,
            _ => 0.0,
        }
    };
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, value(name), unit))
        .collect()
}
