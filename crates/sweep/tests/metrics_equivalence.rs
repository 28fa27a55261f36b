//! Contract #12, end to end: telemetry payloads survive the result store
//! exactly, worker histograms merge to the per-cell sums, and payload-less
//! cache entries re-run under `Observe::Metrics`. Their thread-count
//! identity is checked by `batch_equivalence.rs`.

use mss_sweep::{spec_from_toml, try_run_cells, Observe, SweepConfig, SweepSpec};
use std::path::PathBuf;

fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        seed,
        ..spec_from_toml(include_str!("grids/metrics.toml")).unwrap()
    }
}

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        threads,
        cache_dir: None,
        progress: false,
        observe: Observe::Metrics,
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
            observe: Observe::Off,
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
        observe: Observe::Off,
        ..plain_cfg
    };

    // Seed the store with payload-less records…
    let plain = try_run_cells(&cells, &plain_cfg);
    assert_eq!(plain.executed, cells.len());
    // …then ask for telemetry: every cell re-runs and upgrades its record.
    let upgraded = try_run_cells(
        &cells,
        &SweepConfig {
            observe: Observe::Metrics,
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
            observe: Observe::Metrics,
            ..plain_cfg
        },
    );
    assert_eq!(warm.executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
