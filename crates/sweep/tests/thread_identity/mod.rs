//! The one thread-count identity check of the sweep executor (contract
//! #14), shared by the test binaries that run grids through it:
//! `batch_equivalence.rs` (generated specs, budget aborts, telemetry grids
//! and the split threshold) and `sweep_properties.rs` (the sweep contract
//! grids).

use mss_core::Algorithm;
use mss_sweep::{
    aggregate, group_instances, split_batches, try_run_cells, Cell, CellError, CellMetrics,
    Observe, SweepConfig, DEFAULT_SPLIT_EVENTS,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique store directories across the concurrently running tests of this
/// binary.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mss-thread-identity-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// All store records by shard file, each shard's lines sorted. Contract
/// #14 fixes the record *bytes* and each shard's line multiset at any
/// thread count; intra-shard line *order* is
/// scheduling-dependent under concurrency, which is why this sorts before
/// comparing.
fn sorted_shard_lines(dir: &Path) -> BTreeMap<String, Vec<String>> {
    let mut shards = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("store dir exists") {
        let entry = entry.expect("read store dir entry");
        let name = entry.file_name().into_string().expect("utf-8 shard name");
        if !name.ends_with(".jsonl") {
            continue;
        }
        let body = std::fs::read_to_string(entry.path()).expect("read shard");
        let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
        lines.sort_unstable();
        shards.insert(name, lines);
    }
    shards
}

/// Bit-exact comparison of two per-cell outcomes (`==` on the f64 metrics
/// is exact; error messages must also agree verbatim).
fn assert_results_match(
    cells: &[Cell],
    got: &[Result<CellMetrics, CellError>],
    want: &[Result<CellMetrics, CellError>],
    label: &str,
) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g, w,
            "{label}: slot {i} ({} on {:?}) diverged",
            cells[i].algorithm, cells[i].platform
        );
    }
}

/// Per-cell results with the telemetry payload dropped: the scalars the
/// uninstrumented per-cell oracle produces.
fn scalars(results: &[Result<CellMetrics, CellError>]) -> Vec<Result<CellMetrics, CellError>> {
    results
        .iter()
        .map(|r| {
            r.clone().map(|m| CellMetrics {
                run_metrics: None,
                ..m
            })
        })
        .collect()
}

/// The aggregate JSON of a run's completed cells: the bytes a report
/// would contain.
fn aggregate_bytes(cells: &[Cell], results: &[Result<CellMetrics, CellError>]) -> String {
    let (done, metrics): (Vec<Cell>, Vec<CellMetrics>) = cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| Some((c.clone(), r.as_ref().ok()?.clone())))
        .unzip();
    serde_json::to_string_pretty(&aggregate(&done, &metrics, Some(Algorithm::Srpt))).unwrap()
}

/// Every completed cell's telemetry payload, serialized to its store
/// bytes (`None` where the run collected none).
fn payload_bytes(results: &[Result<CellMetrics, CellError>]) -> Vec<Option<String>> {
    results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|m| {
            m.run_metrics
                .as_ref()
                .map(|p| serde_json::to_string(p).unwrap())
        })
        .collect()
}

/// The one thread-count identity check. Runs `cells` at 1, 2, 4 and 8
/// threads and at `default_threads(64)` (duplicates dropped), each
/// uncached and into a fresh store, and checks every run against the
/// per-cell oracle and against the 1-thread run:
///
/// * per-cell results are bit-exact and errors match verbatim;
/// * every cell executes, and the batches are exactly the grid's instance
///   groups split at [`DEFAULT_SPLIT_EVENTS`], each materialized once —
///   which makes `batch_reuse_ratio()` exact;
/// * the aggregate JSON and, with `collect_metrics`, every telemetry
///   payload are byte-identical;
/// * the store's per-shard sorted record lines are identical.
///
/// Returns the 1-thread run's results, which every other run matches.
pub fn assert_thread_count_identity(
    cells: &[Cell],
    collect_metrics: bool,
) -> Vec<Result<CellMetrics, CellError>> {
    // Oracle: every cell alone, in its own right, through the unbatched
    // per-cell path (one warm workspace, like the historical executor).
    let mut ws = mss_core::SimWorkspace::new();
    let oracle: Vec<Result<CellMetrics, CellError>> =
        cells.iter().map(|c| c.try_run_in(&mut ws)).collect();
    let all: Vec<usize> = (0..cells.len()).collect();
    let batches = split_batches(
        cells,
        &all,
        group_instances(cells, &all),
        DEFAULT_SPLIT_EVENTS,
    )
    .len() as u64;

    let mut threads = vec![1, 2, 4, 8, mss_sweep::default_threads(64)];
    threads.sort_unstable();
    threads.dedup();
    let mut reference = None;
    let mut store_reference = None;
    for threads in threads {
        for dir in [None, Some(fresh_store_dir())] {
            let label = format!(
                "{threads} threads, {}",
                if dir.is_some() {
                    "fresh store"
                } else {
                    "uncached"
                }
            );
            let outcome = try_run_cells(
                cells,
                &SweepConfig {
                    threads,
                    cache_dir: dir.clone(),
                    observe: if collect_metrics {
                        Observe::Metrics
                    } else {
                        Observe::Off
                    },
                    ..SweepConfig::default()
                },
            );
            assert_eq!(outcome.executed, cells.len(), "{label}: executed");
            assert_eq!(outcome.stats.batches, batches, "{label}: batches");
            assert_eq!(
                outcome.stats.materializations, batches,
                "{label}: materializations"
            );
            assert_results_match(cells, &scalars(&outcome.results), &oracle, &label);
            let payloads = payload_bytes(&outcome.results);
            assert!(
                payloads.iter().all(|p| p.is_some() == collect_metrics),
                "{label}: payloads collected iff asked for"
            );
            let bytes = (aggregate_bytes(cells, &outcome.results), payloads);
            match &reference {
                None => reference = Some((bytes, outcome.results)),
                Some((want, _)) => {
                    assert!(bytes.0 == want.0, "{label}: aggregate bytes diverged");
                    assert!(bytes.1 == want.1, "{label}: payload bytes diverged");
                }
            }
            if let Some(dir) = dir {
                let lines = sorted_shard_lines(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                match &store_reference {
                    None => store_reference = Some(lines),
                    Some(want) => assert!(&lines == want, "{label}: store lines diverged"),
                }
            }
        }
    }
    reference.expect("at least one thread count").1
}
