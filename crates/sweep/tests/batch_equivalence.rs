//! Property: **instance-major batched execution is observationally pure**.
//!
//! For arbitrary sweep specs — algorithms × platforms × arrivals ×
//! perturbations × scenarios — the batched executor ([`try_run_cells`])
//! must produce, at every thread count, exactly the per-cell results of
//! running each cell alone ([`Cell::try_run_in`]), bit for bit. This
//! includes error-carrying cells: a budget abort (e.g. a fault-oblivious
//! algorithm livelocking against a permanently down slave) must land in
//! the aborting cell's own result slot and nowhere else.

use mss_scenario::{EventSpec, GeneratorSpec};
use mss_sweep::{
    group_instances, split_batches, try_run_cells, Cell, CellError, CellMetrics, ScenarioAxis,
    SweepConfig, SweepMetrics, SweepSpec, DEFAULT_SPLIT_EVENTS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique store directories across the concurrently running tests of this
/// binary.
static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mss-batch-eq-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// All store records by shard file, each shard's lines sorted. Contract
/// #14 fixes the record *bytes* and each shard's line multiset at any
/// thread count and split threshold; intra-shard line *order* is
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

fn algorithms(picks: &[usize]) -> Vec<String> {
    const NAMES: [&str; 7] = ["SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"];
    picks.iter().map(|&i| NAMES[i % 7].to_string()).collect()
}

fn arb_platform_axis() -> impl Strategy<Value = mss_sweep::PlatformAxis> {
    prop_oneof![
        // Random-class platforms: the sampler-stream (memoized) path.
        (0usize..4, 1usize..4, 2usize..5).prop_map(|(class, count, slaves)| {
            mss_sweep::PlatformAxis {
                kind: "class".into(),
                class: Some(["homogeneous", "comm", "comp", "het"][class].into()),
                count: Some(count),
                slaves: Some(slaves),
                axis: None,
                levels: None,
                families: None,
                c: None,
                p: None,
            }
        }),
        // Heterogeneity families at arbitrary degrees.
        (0usize..3, 0.0f64..=1.0, 1u64..3, 2usize..4).prop_map(|(axis, level, fams, slaves)| {
            mss_sweep::PlatformAxis {
                kind: "heterogeneity".into(),
                class: None,
                count: None,
                slaves: Some(slaves),
                axis: Some(["links", "speeds", "both"][axis].into()),
                levels: Some(vec![0.0, level]),
                families: Some(fams),
                c: None,
                p: None,
            }
        }),
        // An explicit platform.
        proptest::collection::vec((0.05f64..1.0, 0.2f64..4.0), 1..4).prop_map(|specs| {
            let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
            mss_sweep::PlatformAxis {
                kind: "explicit".into(),
                class: None,
                count: None,
                slaves: None,
                axis: None,
                levels: None,
                families: None,
                c: Some(c),
                p: Some(p),
            }
        }),
    ]
}

fn arb_arrival_axis() -> impl Strategy<Value = mss_sweep::ArrivalAxis> {
    prop_oneof![
        Just(mss_sweep::ArrivalAxis {
            kind: "bag".into(),
            load: None,
        }),
        (0.5f64..1.2).prop_map(|load| mss_sweep::ArrivalAxis {
            kind: "stream".into(),
            load: Some(load),
        }),
        (0.5f64..1.2).prop_map(|load| mss_sweep::ArrivalAxis {
            kind: "poisson".into(),
            load: Some(load),
        }),
    ]
}

fn arb_perturbations() -> impl Strategy<Value = Option<Vec<mss_sweep::PerturbAxis>>> {
    proptest::option::of((0usize..2, 0.0f64..0.3).prop_map(|(mode, delta)| {
        vec![mss_sweep::PerturbAxis {
            mode: ["linear", "matrix"][mode].into(),
            delta: Some(delta),
        }]
    }))
}

/// An optional information-tier axis: cells of every tier must batch with
/// their clairvoyant siblings (they share the instance) and still come
/// back bit-identical to solo execution.
fn arb_information() -> impl Strategy<Value = Option<Vec<String>>> {
    proptest::option::of(
        proptest::collection::vec(0usize..3, 1..4).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| ["clairvoyant", "speed-oblivious", "non-clairvoyant"][i].to_string())
                .collect()
        }),
    )
}

fn arb_static_spec() -> impl Strategy<Value = SweepSpec> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(0usize..7, 1..4),
        proptest::collection::vec(arb_platform_axis(), 1..3),
        proptest::collection::vec(arb_arrival_axis(), 1..3),
        arb_perturbations(),
        arb_information(),
        1usize..25,
        1u64..3,
    )
        .prop_map(
            |(seed, algs, platforms, arrivals, perturbations, information, tasks, replicates)| {
                SweepSpec {
                    name: "batch-equivalence".into(),
                    seed,
                    replicates: Some(replicates),
                    tasks: vec![tasks],
                    algorithms: algorithms(&algs),
                    platforms,
                    arrivals,
                    perturbations,
                    scenarios: None,
                    information,
                }
            },
        )
}

/// A scenario axis set containing the static model, a fault-aware dynamic
/// scenario, and — when `with_plain` — a fault-*oblivious* one with a
/// permanently failing slave, whose cells legitimately abort on the step
/// budget for most algorithms.
fn scenario_axes(with_plain: bool) -> Vec<ScenarioAxis> {
    let mut axes = vec![
        ScenarioAxis {
            kind: "static".into(),
            fault: None,
            name: None,
            horizon: None,
            min_up: None,
            events: None,
            generators: None,
        },
        ScenarioAxis {
            kind: "dynamic".into(),
            fault: Some("redispatch".into()),
            name: None,
            horizon: Some(200.0),
            min_up: Some(1),
            events: None,
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(20.0),
                repair_mean: Some(5.0),
                ..GeneratorSpec::default()
            }]),
        },
    ];
    if with_plain {
        axes.push(ScenarioAxis {
            kind: "dynamic".into(),
            fault: Some("plain".into()),
            name: Some("perma-fail".into()),
            horizon: None,
            min_up: Some(1),
            events: Some(vec![EventSpec {
                at: 0.01,
                slave: 0,
                kind: "fail".into(),
                factor: None,
            }]),
            generators: None,
        });
    }
    axes
}

fn arb_scenario_spec() -> impl Strategy<Value = SweepSpec> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(0usize..7, 1..3),
        (0usize..4, 1usize..3),
        2usize..6,
        (0u32..2).prop_map(|b| b == 1),
    )
        .prop_map(
            |(seed, algs, (class, count), tasks, with_plain)| SweepSpec {
                name: "batch-equivalence-scenarios".into(),
                seed,
                replicates: Some(1),
                tasks: vec![tasks],
                algorithms: algorithms(&algs),
                platforms: vec![mss_sweep::PlatformAxis {
                    kind: "class".into(),
                    class: Some(["homogeneous", "comm", "comp", "het"][class].into()),
                    count: Some(count),
                    slaves: Some(3),
                    axis: None,
                    levels: None,
                    families: None,
                    c: None,
                    p: None,
                }],
                arrivals: vec![mss_sweep::ArrivalAxis {
                    kind: "bag".into(),
                    load: None,
                }],
                perturbations: None,
                scenarios: Some(scenario_axes(with_plain)),
                information: None,
            },
        )
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

/// Every executed batch materializes its instance exactly once, and the
/// batches are exactly the split instance groups of the grid — which
/// makes `batch_reuse_ratio()` exact.
fn assert_one_materialization_per_batch(cells: &[Cell], stats: &SweepMetrics, split_events: u64) {
    let all: Vec<usize> = (0..cells.len()).collect();
    let batches = split_batches(cells, &all, group_instances(cells, &all), split_events).len();
    assert_eq!(stats.batches, batches as u64, "split {split_events}");
    assert_eq!(
        stats.materializations, batches as u64,
        "split {split_events}"
    );
}

fn check_spec(spec: &SweepSpec) {
    let cells = spec.expand().expect("generated spec expands");
    // Oracle: every cell alone, in its own right, through the unbatched
    // per-cell path (one warm workspace, like the historical executor).
    let mut ws = mss_core::SimWorkspace::new();
    let oracle: Vec<Result<CellMetrics, CellError>> =
        cells.iter().map(|c| c.try_run_in(&mut ws)).collect();

    for threads in [1, 2, mss_sweep::default_threads(64)] {
        let outcome = try_run_cells(
            &cells,
            &SweepConfig {
                threads,
                cache_dir: None,
                ..SweepConfig::default()
            },
        );
        assert_eq!(outcome.executed, cells.len());
        assert_one_materialization_per_batch(&cells, &outcome.stats, DEFAULT_SPLIT_EVENTS);
        assert_results_match(
            &cells,
            &outcome.results,
            &oracle,
            &format!("{} threads", threads),
        );
    }

    // Forced splitting with a live store: a 1-event threshold chops every
    // batch into single-cell sub-units, so sub-batch re-materialization
    // and work stealing are exercised even on tiny grids — results must
    // still be bit-identical, and the store's record bytes (per-shard
    // sorted line multisets) must be invariant across thread counts too.
    let mut store_baseline: Option<BTreeMap<String, Vec<String>>> = None;
    for threads in [1, 2, mss_sweep::default_threads(64)] {
        let dir = fresh_store_dir();
        let outcome = try_run_cells(
            &cells,
            &SweepConfig {
                threads,
                cache_dir: Some(dir.clone()),
                split_events: 1,
                ..SweepConfig::default()
            },
        );
        assert_eq!(outcome.executed, cells.len(), "fresh store: all execute");
        assert_one_materialization_per_batch(&cells, &outcome.stats, 1);
        assert_results_match(
            &cells,
            &outcome.results,
            &oracle,
            &format!("forced split, {} threads", threads),
        );
        let lines = sorted_shard_lines(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match &store_baseline {
            None => store_baseline = Some(lines),
            Some(base) => assert_eq!(
                &lines, base,
                "store record bytes diverged at {threads} threads (forced split)"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary static grids: batched == per-cell at 1, 2, and max threads.
    #[test]
    fn batched_execution_is_bit_identical_for_static_grids(spec in arb_static_spec()) {
        check_spec(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Grids with dynamic-platform scenarios, including fault-oblivious
    /// cells that abort on the step budget: every error lands in its own
    /// slot, and every other slot is bit-identical to per-cell execution.
    #[test]
    fn batched_execution_slots_errors_correctly(spec in arb_scenario_spec()) {
        check_spec(&spec);
    }
}

/// Deterministic pin of the error-slotting contract (independent of
/// proptest generation): with the universally preferred slave permanently
/// failed, fault-*oblivious* cells abort on the step budget while the
/// fault-aware (redispatch) cells of the same grid complete — and the
/// batched executor reproduces exactly that per-slot pattern.
#[test]
fn plain_budget_aborts_land_in_their_slots() {
    let fail_fast_slave = |fault: &str| ScenarioAxis {
        kind: "dynamic".into(),
        fault: Some(fault.into()),
        name: None,
        horizon: None,
        min_up: Some(1),
        events: Some(vec![EventSpec {
            at: 0.05,
            slave: 0,
            kind: "fail".into(),
            factor: None,
        }]),
        generators: None,
    };
    let spec = SweepSpec {
        name: "error-slots".into(),
        seed: 9,
        replicates: Some(1),
        tasks: vec![3],
        algorithms: vec!["SRPT".into(), "LS".into()],
        platforms: vec![mss_sweep::PlatformAxis {
            kind: "explicit".into(),
            class: None,
            count: None,
            slaves: None,
            axis: None,
            levels: None,
            families: None,
            // Slave 0 is both the cheapest link and the fastest CPU, so
            // every fault-oblivious heuristic keeps feeding it once down.
            c: Some(vec![0.1, 0.1]),
            p: Some(vec![1.0, 5.0]),
        }],
        arrivals: vec![mss_sweep::ArrivalAxis {
            kind: "bag".into(),
            load: None,
        }],
        perturbations: None,
        scenarios: Some(vec![
            fail_fast_slave("plain"),
            fail_fast_slave("redispatch"),
        ]),
        information: None,
    };
    let cells = spec.expand().unwrap();
    assert_eq!(cells.len(), 4, "2 scenarios × 2 algorithms");

    for threads in [1, 2, 8] {
        let outcome = try_run_cells(
            &cells,
            &SweepConfig {
                threads,
                cache_dir: None,
                ..SweepConfig::default()
            },
        );
        // Slots 0–1: plain SRPT/LS abort with the legacy message shape.
        for (slot, name) in [(0, "SRPT"), (1, "LS")] {
            let err = outcome.results[slot].as_ref().unwrap_err();
            assert!(
                err.message.contains(&format!("{name} failed"))
                    && err.message.contains("step budget")
                    && err.kind == mss_sweep::AbortKind::BudgetExhausted,
                "slot {slot} at {threads} threads: {err}"
            );
        }
        // Slots 2–3: the fault-aware twins complete and bit-match their
        // solo runs despite sharing a batch worker with the aborts.
        for slot in [2, 3] {
            let solo = cells[slot].try_run_in(&mut mss_core::SimWorkspace::new());
            assert_eq!(outcome.results[slot], solo, "slot {slot}");
            assert!(outcome.results[slot].is_ok(), "slot {slot}");
        }
    }
}
