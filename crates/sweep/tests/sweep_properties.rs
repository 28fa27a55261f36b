//! The sweep subsystem's contract, as stated in the roadmap:
//!
//! * same spec + same seeds ⇒ byte-identical aggregated results at 1
//!   thread vs N threads;
//! * a second run against a warm store executes zero cells;
//! * a truncated shard file is detected and only the affected cell re-runs,
//!   once: its re-run record does not join the torn line.
//!
//! The thread-count clause runs through the shared identity check,
//! `thread_identity/mod.rs` (contract #14).

mod thread_identity;

use mss_core::Algorithm;
use mss_sweep::{run_spec, spec_from_toml, SweepConfig, SweepSpec};
use std::path::PathBuf;
use thread_identity::assert_thread_count_identity;

/// A 2-class × 4-platform × 2-arrival × 7-algorithm grid: 112 cells, all
/// small enough to keep the test fast.
fn spec() -> SweepSpec {
    spec_from_toml(
        r#"
        name = "contract"
        seed = 42
        replicates = 1
        tasks = [40]
        algorithms = ["all"]

        [[platforms]]
        kind = "class"
        class = "comm-homogeneous"
        count = 4
        slaves = 4

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = 4
        slaves = 4

        [[arrivals]]
        kind = "bag"

        [[arrivals]]
        kind = "poisson"
        load = 0.9
        "#,
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mss-sweep-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serializes aggregates to the exact bytes a report would contain.
fn aggregate_bytes(outcome: &mss_sweep::SweepOutcome) -> String {
    serde_json::to_string_pretty(&outcome.aggregate(Some(Algorithm::Srpt))).unwrap()
}

/// The grid's results, aggregate bytes and store lines are identical at
/// 1, 2, 4, 8 threads and the machine's default.
#[test]
fn hundred_plus_cells_bit_identical_across_thread_counts() {
    let cells = spec().expand().unwrap();
    assert!(cells.len() >= 100, "grid must be ≥ 100 cells");
    let results = assert_thread_count_identity(&cells, false);
    assert!(results.iter().all(Result::is_ok), "static grid completes");
}

#[test]
fn second_run_completes_entirely_from_cache() {
    let dir = temp_dir("cache");
    let spec = spec();
    let config = SweepConfig {
        threads: 4,
        cache_dir: Some(dir.clone()),
        ..SweepConfig::default()
    };

    let first = run_spec(&spec, &config).unwrap();
    assert_eq!(first.cached, 0);
    assert_eq!(first.executed, spec.expand().unwrap().len());

    let second = run_spec(&spec, &config).unwrap();
    assert_eq!(second.executed, 0, "warm cache must execute zero cells");
    assert_eq!(second.cached, first.executed);
    assert_eq!(aggregate_bytes(&second), aggregate_bytes(&first));

    // A different spec seed misses the cache entirely.
    let mut reseeded = spec.clone();
    reseeded.seed = 43;
    let third = run_spec(&reseeded, &config).unwrap();
    assert_eq!(third.cached, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_shard_reruns_only_the_torn_cells() {
    let dir = temp_dir("torn");
    let spec = spec();
    let config = SweepConfig {
        threads: 4,
        cache_dir: Some(dir.clone()),
        ..SweepConfig::default()
    };
    let first = run_spec(&spec, &config).unwrap();
    let reference = aggregate_bytes(&first);

    // Tear the tail off one shard, as an interrupted append would.
    let shard = (0..16)
        .map(|s| dir.join(format!("shard_{s:02x}.jsonl")))
        .find(|p| p.exists() && std::fs::metadata(p).unwrap().len() > 40)
        .expect("a populated shard");
    let body = std::fs::read_to_string(&shard).unwrap();
    std::fs::write(&shard, &body[..body.len() - 20]).unwrap();

    let resumed = run_spec(&spec, &config).unwrap();
    assert_eq!(resumed.dropped, 1, "exactly one torn record detected");
    assert_eq!(resumed.executed, 1, "only the torn cell re-runs");
    assert_eq!(resumed.cached, first.executed - 1);
    assert_eq!(
        aggregate_bytes(&resumed),
        reference,
        "resume must reproduce the original aggregates"
    );

    // The resume cut the torn bytes before appending the re-run record, so
    // that record is a line of its own and nothing is dropped any more.
    let again = run_spec(&spec, &config).unwrap();
    assert_eq!(again.executed, 0, "the re-run record loads");
    assert_eq!(again.dropped, 0, "the torn bytes are gone");
    assert_eq!(aggregate_bytes(&again), reference);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_specs_are_equivalent_to_toml() {
    let toml_spec = spec();
    let json = serde_json::to_string(&toml_spec).unwrap();
    let json_spec = mss_sweep::spec_from_json(&json).unwrap();
    assert_eq!(json_spec, toml_spec);
    assert_eq!(json_spec.expand().unwrap(), toml_spec.expand().unwrap());
}

/// A small grid with a dynamic (Poisson failures + drift) scenario axis:
/// the determinism and caching contracts must extend to faulty platforms.
fn faulty_spec() -> SweepSpec {
    spec_from_toml(
        r#"
        name = "contract-faults"
        seed = 7
        replicates = 2
        tasks = [30]
        algorithms = ["SRPT", "LS", "SLJFWC"]

        [[platforms]]
        kind = "class"
        class = "het"
        count = 2
        slaves = 4

        [[arrivals]]
        kind = "bag"

        [[scenarios]]
        kind = "static"

        [[scenarios]]
        kind = "dynamic"
        horizon = 400.0
        min_up = 1

        [[scenarios.generators]]
        kind = "poisson-failures"
        mtbf = 40.0
        repair_mean = 8.0

        [[scenarios.generators]]
        kind = "speed-drift"
        step = 20.0
        sigma = 0.3
        "#,
    )
    .unwrap()
}

#[test]
fn scenario_grids_are_bit_identical_across_thread_counts() {
    let cells = faulty_spec().expand().unwrap();
    assert_eq!(cells.len(), 2 * 2 * 2 * 3, "platforms×scenarios×reps×algs");
    assert!(cells.iter().filter(|c| c.scenario.is_some()).count() == cells.len() / 2);
    let results = assert_thread_count_identity(&cells, false);
    assert!(results.iter().all(Result::is_ok), "faulty grid completes");
}

#[test]
fn scenario_cells_hit_the_cache_and_failures_change_the_key() {
    let dir = temp_dir("faulty-cache");
    let spec = faulty_spec();
    let config = SweepConfig {
        threads: 4,
        cache_dir: Some(dir.clone()),
        ..SweepConfig::default()
    };
    let first = run_spec(&spec, &config).unwrap();
    assert_eq!(first.cached, 0);
    let second = run_spec(&spec, &config).unwrap();
    assert_eq!(second.executed, 0, "scenario cells must be cacheable");

    // The static and dynamic halves of the grid must never share cache
    // keys: the scenario is part of the cell identity.
    let cells = spec.expand().unwrap();
    let static_keys: std::collections::HashSet<String> = cells
        .iter()
        .filter(|c| c.scenario.is_none())
        .map(mss_sweep::cell_key)
        .collect();
    let dynamic_keys: std::collections::HashSet<String> = cells
        .iter()
        .filter(|c| c.scenario.is_some())
        .map(mss_sweep::cell_key)
        .collect();
    assert!(static_keys.is_disjoint(&dynamic_keys));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_keys_in_specs_are_rejected() {
    // Top-level typo.
    let err = spec_from_toml("name = \"x\"\nseed = 1\nreplicas = 2").unwrap_err();
    assert!(err.to_string().contains("replicas"), "{err}");
    // Nested typo inside an axis entry.
    let err = spec_from_toml(
        r#"
        name = "x"
        seed = 1
        tasks = [10]
        algorithms = ["all"]
        [[platforms]]
        kind = "class"
        class = "het"
        slave = 5
        [[arrivals]]
        kind = "bag"
        "#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("`slave`"), "{err}");
    assert!(err.to_string().contains("platforms[0]"), "{err}");
    // JSON goes through the same validation.
    let err = mss_sweep::spec_from_json(r#"{"name":"x","sede":1}"#).unwrap_err();
    assert!(err.to_string().contains("sede"), "{err}");
}
