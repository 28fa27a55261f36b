//! # mss-sweep — parallel, cacheable scenario-sweep orchestration
//!
//! The experiment engine the lab runs on. A sweep is described by a
//! [`SweepSpec`] (TOML/JSON): the cartesian grid over platform recipes,
//! task counts, arrival processes, perturbations, replicate seeds and
//! algorithms. The engine:
//!
//! 1. **expands** the grid into independent [`Cell`]s with content-derived
//!    per-cell seeds ([`SweepSpec::expand`]);
//! 2. **executes** cells across threads, costliest batch first off one
//!    shared cursor ([`exec::parallel_map_costed`]), *instance-major*:
//!    consecutive cells that differ only in algorithm share one
//!    materialized platform, task stream, compiled timeline, and set of
//!    certified lower bounds ([`batch`]) — results are bit-identical for
//!    any thread count and any batch grouping because each cell stays a
//!    pure function of itself;
//! 3. **caches** completed cells in a sharded JSONL [`ResultStore`] keyed
//!    by content hash, so re-runs skip finished work and interrupted
//!    sweeps resume (torn shard lines are detected and re-run);
//! 4. **aggregates** metrics (mean/min/max/std/CI95 of objectives, ratios
//!    against certified lower bounds, normalization to a baseline
//!    algorithm) in deterministic order ([`agg::aggregate`]).
//!
//! ```
//! use mss_sweep::{run_cells, SweepConfig, SweepSpec};
//!
//! let spec: SweepSpec = mss_sweep::spec_from_toml(r#"
//!     name = "doc"
//!     seed = 7
//!     tasks = [30]
//!     algorithms = ["SRPT", "LS"]
//!     [[platforms]]
//!     kind = "class"
//!     class = "het"
//!     count = 2
//!     slaves = 3
//!     [[arrivals]]
//!     kind = "bag"
//! "#).unwrap();
//! let cells = spec.expand().unwrap();
//! assert_eq!(cells.len(), 4);
//! let config = SweepConfig { threads: 2, ..SweepConfig::default() };
//! let outcome = run_cells(cells, &config);
//! assert_eq!(outcome.executed, 4);
//! let rows = outcome.aggregate(Some(mss_core::Algorithm::Srpt));
//! assert_eq!(rows.len(), 2);
//! ```
//!
//! ## Information-tier grids
//!
//! The `information` key crosses the grid with the scheduler's
//! [`InfoTier`](mss_core::InfoTier) (see `examples/oblivious_sweep.toml`
//! for the full algorithm × heterogeneity × information walkthrough).
//! Tiers of one grid point share their seeds, so every tier faces the
//! identical instances and the per-point baseline normalization compares
//! them head-to-head; sub-clairvoyant cells get their own aggregation
//! groups (labelled `… | info=<tier> | …`):
//!
//! ```
//! use mss_core::InfoTier;
//! use mss_sweep::{run_cells, SweepConfig, SweepSpec};
//!
//! let spec: SweepSpec = mss_sweep::spec_from_toml(r#"
//!     name = "tiers"
//!     seed = 7
//!     tasks = [30]
//!     algorithms = ["LS"]
//!     information = ["clairvoyant", "speed-oblivious"]
//!     [[platforms]]
//!     kind = "class"
//!     class = "het"
//!     count = 1
//!     slaves = 3
//!     [[arrivals]]
//!     kind = "bag"
//! "#).unwrap();
//! let cells = spec.expand().unwrap();
//! assert_eq!(cells.len(), 2);
//! // Same instance, different knowledge: seeds agree, tiers differ.
//! assert_eq!(cells[0].task_seed, cells[1].task_seed);
//! assert_eq!(cells[0].information, InfoTier::Clairvoyant);
//! assert_eq!(cells[1].information, InfoTier::SpeedOblivious);
//! let config = SweepConfig { threads: 1, ..SweepConfig::default() };
//! let outcome = run_cells(cells, &config);
//! // Withdrawing knowledge cannot beat the certified lower bound.
//! assert!(outcome.metrics.iter().all(|m| m.ratio_makespan >= 1.0 - 1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod cell;
pub mod exec;
pub mod run_metrics;
pub mod spec;
pub mod store;
pub mod toml_lite;

use mss_scenario::{ScenarioError, ScenarioSpec};
use std::path::{Path, PathBuf};

pub use agg::{
    aggregate, aggregate_metrics, summarize, AggregateRow, HistSummary, MetricsRow, Summary,
};
pub use batch::{
    batch_cost, estimated_cell_events, group_instances, run_batch, split_batches, BatchWorker,
    Observe, SamplerCache, DEFAULT_SPLIT_EVENTS,
};
pub use cell::{
    AbortKind, Cell, CellError, CellMetrics, MaterializedInstance, PerturbCell, PlatformCell,
    ScenarioCell,
};
pub use exec::{default_threads, parallel_map, parallel_map_costed};
pub use mss_obs::{StoreStats, SweepMetrics, WorkerMetrics};
pub use run_metrics::{CellRunMetrics, HistogramData};
pub use spec::{ArrivalAxis, PerturbAxis, PlatformAxis, ScenarioAxis, SpecError, SweepSpec};
pub use store::{cell_key, ResultStore, StoreWriter, CODE_VERSION_SALT};

/// How a sweep executes.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker threads (1 = sequential). The aggregated output is
    /// bit-identical for any value.
    pub threads: usize,
    /// Result-store directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Show a live progress line on stderr (additionally gated on stderr
    /// being a terminal and no CI environment — see [`mss_obs::Progress`]).
    /// Purely cosmetic: results are unaffected.
    pub progress: bool,
    /// What cells are run with: nothing (the default, the zero-cost
    /// uninstrumented hot path), counting probes whose engine event
    /// counters aggregate into [`SweepMetrics::counters`] (the `ms-lab
    /// profile` path), or a [`mss_obs::MetricsProbe`] so every `Ok` result
    /// carries a [`CellRunMetrics`] telemetry payload and worker histograms
    /// merge into [`SweepMetrics::hists`] (the `ms-lab metrics` path; cached
    /// records without a payload are re-run). Results are bit-identical in
    /// every mode (probes are observers only).
    pub observe: Observe,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: default_threads(64),
            cache_dir: None,
            progress: false,
            observe: Observe::Off,
        }
    }
}

/// A completed sweep: cells, their metrics (parallel arrays in expansion
/// order), and cache accounting.
pub struct SweepOutcome {
    /// The expanded cells, in deterministic order.
    pub cells: Vec<Cell>,
    /// Metrics per cell (same order as `cells`).
    pub metrics: Vec<CellMetrics>,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the result store.
    pub cached: usize,
    /// Corrupt/truncated store lines that were dropped (their cells were
    /// re-run and counted under `executed`).
    pub dropped: usize,
    /// Execution accounting: batches, reuse ratio, per-worker timelines,
    /// store I/O (see [`SweepMetrics`]).
    pub stats: SweepMetrics,
}

impl SweepOutcome {
    /// Aggregates the outcome (see [`agg::aggregate`]).
    pub fn aggregate(&self, baseline: Option<mss_core::Algorithm>) -> Vec<AggregateRow> {
        aggregate(&self.cells, &self.metrics, baseline)
    }
}

/// A sweep executed through the non-panicking API: per-cell results in
/// expansion order, including error-carrying cells (e.g. budget aborts of
/// fault-oblivious algorithms under failures).
pub struct CheckedOutcome {
    /// One result per input cell, in input order.
    pub results: Vec<Result<CellMetrics, CellError>>,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the result store.
    pub cached: usize,
    /// Corrupt/truncated store lines that were dropped.
    pub dropped: usize,
    /// Execution accounting: batches, reuse ratio, per-worker timelines,
    /// store I/O (see [`SweepMetrics`]).
    pub stats: SweepMetrics,
}

/// Worker store-writers flush once more than this many bytes are buffered
/// (and always at drain), so tiny batches coalesce into fewer appends
/// while big results reach disk — and crash resumability — promptly.
const WORKER_FLUSH_FLOOR: usize = 32 << 10;

/// Executes cells under `config` without panicking on cell errors: every
/// slot of `results` carries that cell's own outcome, bit-identical to a
/// per-cell [`Cell::try_run_in`] for any thread count.
///
/// This is the engine behind [`run_cells`]. Execution is **instance-major**
/// (see [`batch`]): not-yet-cached cells are grouped into maximal
/// consecutive same-instance batches, each batch materializes its
/// platform/task-streams/timeline/bounds once, and each free worker
/// thread takes the costliest batch left. Both completed cells
/// and tagged aborts enter the store, so resumed sweeps skip
/// known-aborting cells instead of re-running them.
///
/// # Panics
/// Panics if the cache directory cannot be created, read or written.
pub fn try_run_cells(cells: &[Cell], config: &SweepConfig) -> CheckedOutcome {
    let epoch = std::time::Instant::now();
    let mut store_secs = 0.0f64;
    let (store, known, dropped) = match &config.cache_dir {
        Some(dir) => {
            let t0 = std::time::Instant::now();
            let store = ResultStore::open(dir).expect("open sweep result store");
            let loaded = store.load().expect("load sweep result store");
            store_secs += t0.elapsed().as_secs_f64();
            (Some(store), loaded.results, loaded.dropped)
        }
        None => (None, std::collections::HashMap::new(), 0),
    };
    // Content keys are only needed to talk to the store; an uncached sweep
    // skips their serialization cost entirely.
    let keys: Option<Vec<String>> = store.as_ref().map(|_| cells.iter().map(cell_key).collect());

    // Indices still to run, in expansion order. A metrics-collecting sweep
    // treats cached Ok records without a telemetry payload as missing:
    // the cell re-runs and its payload-carrying line, appended later in
    // the shard, wins on the next load.
    let usable = |r: &Result<CellMetrics, CellError>| {
        config.observe != Observe::Metrics || !matches!(r, Ok(m) if m.run_metrics.is_none())
    };
    let missing: Vec<usize> = match &keys {
        Some(keys) => (0..cells.len())
            .filter(|&i| !known.get(&keys[i]).is_some_and(&usable))
            .collect(),
        None => (0..cells.len()).collect(),
    };

    // Instance-major fan-out: each work item is one batch of consecutive
    // same-instance cells (batches above DEFAULT_SPLIT_EVENTS pre-split
    // into same-instance sub-units by the event cost model); each worker
    // thread owns one BatchWorker (the reused SimWorkspace + memoized
    // sampler streams) and takes the costliest batch left off one shared
    // cursor. Batch results are slotted back by index, so output order —
    // and every bit of it — is independent of thread count, of the
    // grouping, and of the cost model (contract #14).
    let batches = split_batches(
        cells,
        &missing,
        group_instances(cells, &missing),
        DEFAULT_SPLIT_EVENTS,
    );
    let progress = mss_obs::Progress::new(missing.len(), config.progress);
    // Workers persist their own results as they go: each scratch holds a
    // per-worker StoreWriter (private serialization buffers, per-shard
    // flush locks), so the store never serializes the sweep behind one
    // mutex and an interrupted run keeps every batch already flushed.
    let (fresh, workers) = parallel_map_costed(
        &batches,
        config.threads,
        |_, b| batch_cost(cells, &missing, b),
        || {
            let mut w = BatchWorker::with_epoch(epoch);
            w.observe = config.observe;
            (w, store.as_ref().map(|s| s.writer()))
        },
        |(w, writer), _, b| {
            let mut out = Vec::with_capacity(b.len());
            batch::run_batch(cells, &missing, b.clone(), w, &mut out);
            if let (Some(writer), Some(keys)) = (writer.as_mut(), keys.as_ref()) {
                let t0 = std::time::Instant::now();
                for (k, r) in b.clone().zip(&out) {
                    writer.push(&keys[missing[k]], r);
                }
                writer
                    .flush_over(WORKER_FLUSH_FLOOR)
                    .expect("append sweep results");
                w.metrics.store_secs += t0.elapsed().as_secs_f64();
            }
            for _ in 0..out.len() {
                progress.tick();
            }
            out
        },
        |(mut w, writer)| {
            if let Some(mut writer) = writer {
                let t0 = std::time::Instant::now();
                writer.flush().expect("append sweep results");
                w.metrics.store_secs += t0.elapsed().as_secs_f64();
            }
            w.metrics
        },
    );
    progress.finish();
    // Batches partition `missing` in order, so the flattened results align
    // one-to-one with `missing`.
    let flat: Vec<Result<CellMetrics, CellError>> = fresh.into_iter().flatten().collect();
    debug_assert_eq!(flat.len(), missing.len());

    let mut stats = SweepMetrics {
        cells: cells.len() as u64,
        cached: (cells.len() - missing.len()) as u64,
        ..SweepMetrics::default()
    };
    for w in workers {
        stats.absorb_worker(w);
    }
    if let Some(store) = &store {
        stats.store = store.stats();
    }
    stats.store_secs += store_secs;
    stats.wall_secs = epoch.elapsed().as_secs_f64();

    let mut flat_iter = flat.into_iter();
    let mut missing_iter = missing.iter().peekable();
    let results = (0..cells.len())
        .map(|i| {
            if missing_iter.peek() == Some(&&i) {
                missing_iter.next();
                flat_iter.next().expect("one result per missing cell")
            } else {
                let keys = keys.as_ref().expect("cached cells imply a store");
                known[&keys[i]].clone()
            }
        })
        .collect();

    CheckedOutcome {
        results,
        executed: missing.len(),
        cached: cells.len() - missing.len(),
        dropped,
        stats,
    }
}

/// Executes a list of cells under `config` (the engine behind both the lab
/// experiments and `ms-lab sweep`).
///
/// # Panics
/// Panics if the cache directory cannot be created, read or written, or if a
/// cell fails (use [`try_run_cells`] to receive failures as values).
pub fn run_cells(cells: Vec<Cell>, config: &SweepConfig) -> SweepOutcome {
    let checked = try_run_cells(&cells, config);
    let metrics = checked
        .results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    SweepOutcome {
        executed: checked.executed,
        cached: checked.cached,
        dropped: checked.dropped,
        stats: checked.stats,
        cells,
        metrics,
    }
}

/// Expands and executes a spec.
pub fn run_spec(spec: &SweepSpec, config: &SweepConfig) -> Result<SweepOutcome, SpecError> {
    Ok(run_cells(spec.expand()?, config))
}

/// Parses a spec from TOML (see `examples/sweep_grid.toml` for the
/// schema). An unknown or repeated key is a located error rather than
/// silently ignored: the spec types deny unknown fields.
pub fn spec_from_toml(input: &str) -> Result<SweepSpec, SpecError> {
    read(input, false).map_err(SpecError)
}

/// Parses a spec from JSON (same schema and strict-key rules as TOML).
pub fn spec_from_json(input: &str) -> Result<SweepSpec, SpecError> {
    read(input, true).map_err(SpecError)
}

/// Parses a spec file (`.json` is JSON, anything else TOML); errors name
/// the file.
pub fn spec_from_path(path: &Path) -> Result<SweepSpec, SpecError> {
    read_path(path).map_err(SpecError)
}

/// Parses and validates a standalone scenario file (see
/// `examples/failure_scenario.toml`; `.json` is JSON, anything else
/// TOML), with the strict-key rules of a sweep spec; errors name the file.
pub fn scenario_from_path(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let spec: ScenarioSpec = read_path(path).map_err(ScenarioError)?;
    spec.validate()
        .map_err(|e| ScenarioError(format!("{}: {}", path.display(), e.0)))?;
    Ok(spec)
}

/// The one reader of spec and scenario files: the TOML or JSON value tree,
/// deserialized by `T`'s derive, which holds the schema.
fn read<T: serde::Deserialize>(input: &str, json: bool) -> Result<T, String> {
    let value = if json {
        serde_json::parse_value(input)
    } else {
        toml_lite::parse(input)
    };
    value
        .and_then(|v| T::from_value(&v))
        .map_err(|e| e.to_string())
}

/// [`read`] on a file, dispatching on its `.json` extension.
fn read_path<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    read(&body, json).map_err(|e| format!("{}: {e}", path.display()))
}
