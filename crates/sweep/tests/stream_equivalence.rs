//! Property: **a lazily generated task stream is its materialized
//! instance** (contract #13, source half).
//!
//! The engine has one input, a pulled task source, so streaming is pure
//! exactly when the sources agree. For arbitrary sweep specs — platforms ×
//! arrivals × perturbations × scenarios × information tiers, all seven
//! heuristics plain and `Redispatch`-wrapped — pulling each cell's tasks
//! lazily from a seeded [`GeneratedSource`] must be indistinguishable from
//! pulling the cell's materialized instance (`ArrivalProcess::generate` +
//! `Perturbation::apply`, as [`Cell::materialize`] builds it) through a
//! [`SliceSource`]:
//!
//! * **traces** — the engine's full per-task [`Trace`](mss_core::Trace)
//!   agrees record for record (and error-for-error on aborting cells);
//! * **digests** — a [`DigestProbe`] hashing the entire engine event
//!   stream sees the same sequence.
//!
//! Thread-count and batch-split invariance of the sweep is proven once,
//! by `batch_equivalence.rs`.

use mss_core::{SimWorkspace, Simulation, SliceSource};
use mss_obs::DigestProbe;
use mss_scenario::{EventSpec, GeneratorSpec};
use mss_sweep::{Cell, ScenarioAxis, SweepSpec};
use mss_workload::{GeneratedSource, Perturbation};
use proptest::prelude::*;

fn algorithms(picks: &[usize]) -> Vec<String> {
    const NAMES: [&str; 7] = ["SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"];
    picks.iter().map(|&i| NAMES[i % 7].to_string()).collect()
}

fn arb_platform_axis() -> impl Strategy<Value = mss_sweep::PlatformAxis> {
    prop_oneof![
        (0usize..4, 1usize..3, 2usize..5).prop_map(|(class, count, slaves)| {
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

fn arb_information() -> impl Strategy<Value = Option<Vec<String>>> {
    proptest::option::of(
        proptest::collection::vec(0usize..3, 1..3).prop_map(|picks| {
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
                    name: "stream-equivalence".into(),
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

/// Scenario axes: the static model, a fault-aware (`Redispatch`) dynamic
/// scenario, and — when `with_plain` — a fault-*oblivious* one with a
/// permanently failing slave whose cells legitimately abort, so the
/// stream feed must reproduce the abort byte for byte too.
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
                name: "stream-equivalence-scenarios".into(),
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
                    kind: "poisson".into(),
                    load: Some(0.9),
                }],
                perturbations: None,
                scenarios: Some(scenario_axes(with_plain)),
                information: None,
            },
        )
}

/// The cell's task stream (arrivals plus its optional size perturbation),
/// generated lazily from the same seeds [`Cell::materialize`] uses.
fn source(cell: &Cell, platform: &mss_core::Platform) -> GeneratedSource {
    let s = GeneratedSource::new(cell.arrival, cell.tasks, platform, cell.task_seed);
    match &cell.perturbation {
        Some(p) => s.with_perturbation(
            Perturbation {
                delta: p.delta,
                comm_exponent: p.comm_exponent,
                comp_exponent: p.comp_exponent,
            },
            p.seed,
        ),
        None => s,
    }
}

/// Per-cell trace- and digest-level comparison: the run over the
/// materialized slice against the run over the generated stream, probe
/// hashes included.
fn check_spec(spec: &SweepSpec) {
    let cells = spec.expand().expect("generated spec expands");
    let mut ws = SimWorkspace::new();
    for cell in &cells {
        let mat = cell.materialize();
        let cfg = cell.sim_config(&mat);
        let tasks = mat.perturbed.as_deref().unwrap_or(&mat.nominal);
        let mut digest_slice = DigestProbe::new();
        let mut sched = cell.build_scheduler();
        let trace_slice = Simulation::new(&mat.platform, &cfg)
            .timeline(&mat.timeline)
            .workspace(&mut ws)
            .probe(&mut digest_slice)
            .trace(SliceSource::new(tasks), sched.as_mut());

        let mut digest_stream = DigestProbe::new();
        let mut sched = cell.build_scheduler();
        let trace_stream = Simulation::new(&mat.platform, &cfg)
            .timeline(&mat.timeline)
            .workspace(&mut ws)
            .probe(&mut digest_stream)
            .trace(&mut source(cell, &mat.platform), sched.as_mut());

        let label = format!("{} on {:?}", cell.algorithm, cell.platform);
        match (trace_slice, trace_stream) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: trace diverged"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{label}: abort diverged")
            }
            (a, b) => panic!("{label}: outcome kind diverged: {a:?} vs {b:?}"),
        }
        // The digest hashes every probe hook in order — equal digests mean
        // the generated stream drove the identical event stream.
        assert_eq!(
            digest_slice.digest(),
            digest_stream.digest(),
            "{label}: digest"
        );
        assert_eq!(
            digest_slice.events(),
            digest_stream.events(),
            "{label}: events"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary static grids (perturbations × information tiers × all
    /// seven heuristics): the generated stream reproduces the
    /// materialized instance's traces and digests.
    #[test]
    fn streamed_equals_materialized(spec in arb_static_spec()) {
        check_spec(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Grids with dynamic-platform scenarios — `Redispatch`-wrapped cells
    /// and fault-oblivious cells that abort on the step budget: the
    /// generated stream reproduces completions and aborts alike.
    #[test]
    fn streamed_equals_materialized_under_scenarios(spec in arb_scenario_spec()) {
        check_spec(&spec);
    }
}
