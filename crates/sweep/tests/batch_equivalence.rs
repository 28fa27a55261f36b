//! Property: **instance-major batched execution is observationally pure,
//! at every thread count** (contracts #9 and #14).
//!
//! For arbitrary sweep specs — algorithms × platforms × arrivals ×
//! perturbations × scenarios — the batched executor ([`try_run_cells`])
//! must produce, at every thread count, exactly the per-cell results of
//! running each cell alone ([`Cell::try_run_in`]), bit for bit. This
//! includes error-carrying cells: a budget abort (e.g. a fault-oblivious
//! algorithm livelocking against a permanently down slave) must land in
//! the aborting cell's own result slot and nowhere else.
//!
//! Every grid goes through one check, [`assert_thread_count_identity`]
//! (`thread_identity/mod.rs`, which `sweep_properties.rs` also runs on the
//! sweep contract grids): the grid runs at 1, 2, 4 and 8 threads and at
//! the machine's default, uncached and into a fresh result store, and each
//! run must match the per-cell oracle and the 1-thread run in results,
//! batch accounting, aggregate bytes, telemetry payload bytes and store
//! record lines.

mod thread_identity;

use mss_scenario::{EventSpec, GeneratorSpec};
use mss_sweep::{
    group_instances, spec_from_toml, split_batches, ScenarioAxis, SweepSpec, DEFAULT_SPLIT_EVENTS,
};
use proptest::prelude::*;
use thread_identity::assert_thread_count_identity;

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

fn check_spec(spec: &SweepSpec) {
    let cells = spec.expand().expect("generated spec expands");
    assert_thread_count_identity(&cells, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary static grids: batched == per-cell at every thread count.
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

    // Every thread count reproduces these results (the identity check), so
    // the slot pattern below holds at each of them.
    let results = assert_thread_count_identity(&cells, false);
    // Slots 0–1: plain SRPT/LS abort with the legacy message shape.
    for (slot, name) in [(0, "SRPT"), (1, "LS")] {
        let err = results[slot].as_ref().unwrap_err();
        assert!(
            err.message.contains(&format!("{name} failed"))
                && err.message.contains("step budget")
                && err.kind == mss_sweep::AbortKind::BudgetExhausted,
            "slot {slot}: {err}"
        );
    }
    // Slots 2–3: the fault-aware twins complete and bit-match their solo
    // runs despite sharing a batch worker with the aborts.
    for slot in [2, 3] {
        let solo = cells[slot].try_run_in(&mut mss_core::SimWorkspace::new());
        assert_eq!(results[slot], solo, "slot {slot}");
        assert!(results[slot].is_ok(), "slot {slot}");
    }
}

/// Telemetry payloads are byte-identical for any thread count (contract
/// #12), and collecting them leaves every scalar result bit-identical. The
/// grid is shared with `metrics_equivalence.rs`.
#[test]
fn metrics_collecting_grids_are_thread_count_identical() {
    for seed in [7u64, 42] {
        let spec = SweepSpec {
            seed,
            ..spec_from_toml(include_str!("grids/metrics.toml")).unwrap()
        };
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 7 * 3 * 2, "seed {seed}");
        let results = assert_thread_count_identity(&cells, true);
        assert!(results.iter().all(Result::is_ok), "seed {seed}: completes");
    }
}

/// A batch that crosses the real split threshold: 7 algorithms × 12,500
/// tasks is 7 × 37,516 = 262,612 estimated events, above
/// `DEFAULT_SPLIT_EVENTS` = 2¹⁸ = 262,144, so the one instance runs as two
/// sub-batches of 6 + 1 cells, each materialized once — and every thread
/// count still reproduces the per-cell results.
#[test]
fn a_batch_above_the_split_threshold_splits_and_stays_identical() {
    let cells = spec_from_toml(
        r#"
        name = "split-threshold"
        seed = 3
        tasks = [12500]
        algorithms = ["all"]

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = 1
        slaves = 5

        [[arrivals]]
        kind = "bag"
        "#,
    )
    .unwrap()
    .expand()
    .unwrap();
    assert_eq!(cells.len(), 7);
    let all: Vec<usize> = (0..cells.len()).collect();
    assert_eq!(
        split_batches(
            &cells,
            &all,
            group_instances(&cells, &all),
            DEFAULT_SPLIT_EVENTS
        ),
        vec![0..6, 6..7],
        "one instance group, split once"
    );
    assert_thread_count_identity(&cells, false);
}
