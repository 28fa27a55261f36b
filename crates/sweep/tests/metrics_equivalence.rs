//! Contract #12, end to end: a metrics-collecting sweep produces
//! bit-identical telemetry for any thread count, and the payloads survive
//! the result store exactly.

use mss_sweep::{spec_from_toml, try_run_cells, SweepConfig, SweepSpec};
use std::path::PathBuf;

fn spec(seed: u64) -> SweepSpec {
    spec_from_toml(&format!(
        r#"
        name = "metrics-equivalence"
        seed = {seed}
        tasks = [30]
        algorithms = ["all"]

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = 3
        slaves = 4

        [[arrivals]]
        kind = "bag"

        [[arrivals]]
        kind = "poisson"
        load = 0.9
        "#
    ))
    .unwrap()
}

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        threads,
        cache_dir: None,
        progress: false,
        count_events: false,
        collect_metrics: true,
        split_events: mss_sweep::DEFAULT_SPLIT_EVENTS,
    }
}

/// Serializes every per-cell payload to its exact store bytes.
fn payload_bytes(spec: &SweepSpec, threads: usize) -> Vec<String> {
    let cells = spec.expand().unwrap();
    let outcome = try_run_cells(&cells, &config(threads));
    outcome
        .results
        .iter()
        .map(|r| {
            let m = r.as_ref().expect("static grid completes");
            let payload = m.run_metrics.as_ref().expect("payload collected");
            serde_json::to_string(payload).unwrap()
        })
        .collect()
}

#[test]
fn payloads_bit_identical_across_thread_counts() {
    for seed in [7u64, 42] {
        let spec = spec(seed);
        let one = payload_bytes(&spec, 1);
        let two = payload_bytes(&spec, 2);
        let max = payload_bytes(&spec, mss_sweep::default_threads(64));
        assert!(!one.is_empty());
        assert_eq!(one, two, "seed {seed}: 1 vs 2 threads");
        assert_eq!(one, max, "seed {seed}: 1 vs max threads");
    }
}

#[test]
fn payloads_survive_the_store_and_worker_hists_match_cell_sums() {
    let spec = spec(11);
    let cells = spec.expand().unwrap();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mss-metrics-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SweepConfig {
        cache_dir: Some(dir.clone()),
        ..config(2)
    };

    let first = try_run_cells(&cells, &cfg);
    assert_eq!(first.executed, cells.len());
    // Worker-merged flow histograms carry exactly one sample per task.
    let total_tasks: u64 = cells.iter().map(|c| c.tasks as u64).sum();
    assert_eq!(first.stats.hists.flow.count(), total_tasks);

    // A warm re-run serves every payload from the store, byte-identically.
    let second = try_run_cells(&cells, &cfg);
    assert_eq!(second.executed, 0, "warm store serves all cells");
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            a.as_ref().unwrap().run_metrics,
            b.as_ref().unwrap().run_metrics
        );
    }

    // A plain sweep against the same warm store must not be poisoned by
    // the payload-carrying records — and must not re-run anything.
    let plain = try_run_cells(
        &cells,
        &SweepConfig {
            collect_metrics: false,
            ..cfg.clone()
        },
    );
    assert_eq!(plain.executed, 0);
    for (a, b) in first.results.iter().zip(&plain.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn payload_less_cache_entries_rerun_under_collect_metrics() {
    let spec = spec(23);
    let cells = spec.expand().unwrap();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mss-metrics-upgrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plain_cfg = SweepConfig {
        cache_dir: Some(dir.clone()),
        ..config(2)
    };
    let plain_cfg = SweepConfig {
        collect_metrics: false,
        ..plain_cfg
    };

    // Seed the store with payload-less records…
    let plain = try_run_cells(&cells, &plain_cfg);
    assert_eq!(plain.executed, cells.len());
    // …then ask for telemetry: every cell re-runs and upgrades its record.
    let upgraded = try_run_cells(
        &cells,
        &SweepConfig {
            collect_metrics: true,
            ..plain_cfg.clone()
        },
    );
    assert_eq!(
        upgraded.executed,
        cells.len(),
        "payload-less records re-run"
    );
    for (a, b) in plain.results.iter().zip(&upgraded.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert!(b.run_metrics.is_some());
    }
    // The upgraded records now satisfy a third telemetry run from cache.
    let warm = try_run_cells(
        &cells,
        &SweepConfig {
            collect_metrics: true,
            ..plain_cfg
        },
    );
    assert_eq!(warm.executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
