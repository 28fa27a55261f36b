//! Information-model properties.
//!
//! 1. **The `Clairvoyant` tier is the pre-refactor view path, bit for
//!    bit.** An oracle wrapper recomputes, at every delivered callback,
//!    each facade accessor the pre-refactor `SimView` exposed — nominal
//!    platform values, the cached per-slave ready estimate, the historical
//!    completion-estimate formula `max(link_free + c_j, ready_j) + p_j` —
//!    and asserts bitwise equality with what the tier-filtering facade
//!    answers. Run over arbitrary instances *including fault/drift
//!    timelines*, for all seven paper heuristics (plain and
//!    `Redispatch`-wrapped), wrapped and unwrapped runs must also agree
//!    exactly (including errors).
//! 2. **Learned estimates converge to the true per-task times on a static
//!    platform.** With exact task sizes every observed duration *is* the
//!    nominal value, so the running means must match it to float-sum
//!    accuracy on every slave that received work.

use mss_core::{Algorithm, Redispatch};
use mss_sim::{
    bag_of_tasks, simulate, Decision, InfoTier, OnlineScheduler, Platform, PlatformEvent,
    PlatformEventKind, SchedulerEvent, SimConfig, SimView, Simulation, SlaveId, SliceSource,
    TaskArrival, Time, Timeline,
};
use proptest::prelude::*;

/// Forwards every call to the inner scheduler, but first asserts that the
/// clairvoyant facade's answers are bitwise those of the pre-refactor view
/// path (recomputed here from the raw platform and cached slave views).
struct LegacyOracle<S> {
    inner: S,
}

impl<S: OnlineScheduler> OnlineScheduler for LegacyOracle<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, view: &SimView<'_>) {
        self.inner.init(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        assert_eq!(view.info_tier(), InfoTier::Clairvoyant);
        let platform = view.platform(); // not gated at Clairvoyant
        assert_eq!(view.num_slaves(), platform.num_slaves());
        let link_free = view.link_free_at();
        for j in view.slave_ids() {
            // Believed values are the nominal ones, bit for bit.
            assert_eq!(view.believed_c(j).to_bits(), platform.c(j).to_bits());
            assert_eq!(view.believed_p(j).to_bits(), platform.p(j).to_bits());
            // The facade's ready estimate is the cached slave-view field.
            let slave = view.slave(j);
            assert_eq!(
                view.ready_estimate(j).as_f64().to_bits(),
                slave.ready_estimate.as_f64().to_bits()
            );
            // The historical completion-estimate formula, recomputed.
            let legacy = (link_free + platform.c(j)).max(slave.ready_estimate) + platform.p(j);
            assert_eq!(
                view.completion_estimate(j).as_f64().to_bits(),
                legacy.as_f64().to_bits(),
                "slave {j:?}: completion estimate diverged from the legacy formula"
            );
        }
        self.inner.on_event(view, event)
    }

    fn poll_driven(&self) -> bool {
        self.inner.poll_driven()
    }

    fn min_tier(&self) -> InfoTier {
        self.inner.min_tier()
    }
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 1..6).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..20.0, 0.9f64..1.1, 0.9f64..1.1), 1..25).prop_map(|mut ts| {
        // The engine takes a release-ordered stream: the drawn tasks, in
        // release order.
        ts.sort_by(|a, b| a.0.total_cmp(&b.0));
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new(r),
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}

/// Crash/recover pairs plus speed drift (out-of-range slave indices are
/// deliberately kept: the engine must ignore them).
fn arb_timeline() -> impl Strategy<Value = Timeline> {
    proptest::collection::vec((0usize..8, 0.0f64..25.0, 0.1f64..10.0, 0.25f64..3.0), 0..5).prop_map(
        |faults| {
            let mut events = Vec::new();
            for &(j, at, up_after, factor) in &faults {
                events.push(PlatformEvent {
                    time: Time::new(at),
                    slave: SlaveId(j),
                    kind: PlatformEventKind::Fail,
                });
                events.push(PlatformEvent {
                    time: Time::new(at + up_after),
                    slave: SlaveId(j),
                    kind: PlatformEventKind::Recover,
                });
                events.push(PlatformEvent {
                    time: Time::new(at / 2.0),
                    slave: SlaveId(j),
                    kind: PlatformEventKind::SetSpeedFactor(factor),
                });
            }
            Timeline::new(events)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1 (see module docs): for arbitrary specs — fault/drift
    /// timelines included — every paper heuristic, plain and
    /// redispatch-wrapped, behaves under the clairvoyant facade exactly as
    /// under the pre-refactor view semantics, and the oracle wrapper never
    /// observes a facade answer diverging from the legacy recomputation.
    #[test]
    fn clairvoyant_tier_is_bit_identical_to_the_legacy_view_path(
        platform in arb_platform(),
        tasks in arb_tasks(),
        timeline in arb_timeline(),
    ) {
        // Fault-oblivious heuristics may livelock against a down slave; a
        // tight budget turns that into a deterministic error, which both
        // runs must then report identically.
        let cfg = SimConfig { max_steps: 100_000, ..SimConfig::default() };
        for a in Algorithm::ALL {
            let plain = Simulation::new(&platform, &cfg)
                .timeline(&timeline)
                .trace(SliceSource::new(&tasks), &mut a.build());
            let oracled = Simulation::new(&platform, &cfg)
                .timeline(&timeline)
                .trace(SliceSource::new(&tasks), &mut LegacyOracle { inner: a.build() });
            prop_assert_eq!(&plain, &oracled, "{} diverged under the oracle", a);

            let wrapped = Simulation::new(&platform, &cfg)
                .timeline(&timeline)
                .trace(SliceSource::new(&tasks), &mut Redispatch::wrap(a));
            let wrapped_oracled = Simulation::new(&platform, &cfg)
                .timeline(&timeline)
                .trace(SliceSource::new(&tasks), &mut LegacyOracle { inner: Redispatch::wrap(a) });
            prop_assert_eq!(&wrapped, &wrapped_oracled, "{}+RD diverged", a);
        }
    }
}

/// Captures the final believed values per slave while delegating to RR
/// (whose demand-driven ring spreads work over every slave).
struct EstimateProbe<S> {
    inner: S,
    seen: Vec<(f64, f64, usize, usize)>,
}

impl<S: OnlineScheduler> OnlineScheduler for EstimateProbe<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, view: &SimView<'_>) {
        self.inner.init(view);
    }
    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        self.seen.clear();
        for j in view.slave_ids() {
            let e = view.slave_estimate(j);
            self.seen.push((
                view.believed_c(j),
                view.believed_p(j),
                e.c_observations(),
                e.p_observations(),
            ));
        }
        self.inner.on_event(view, event)
    }
    fn min_tier(&self) -> InfoTier {
        self.inner.min_tier()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 2 (see module docs): on a static platform with exact task
    /// sizes, the speed-oblivious estimators converge to the true
    /// effective per-task times on every slave that received work.
    #[test]
    fn estimates_converge_to_true_speeds_on_static_platforms(
        platform in arb_platform(),
        tasks_per_slave in 3usize..8,
    ) {
        let n = platform.num_slaves() * tasks_per_slave;
        let cfg = SimConfig { info: InfoTier::SpeedOblivious, ..SimConfig::default() };
        // Cyclic dispatch guarantees the first round touches every slave,
        // so every estimator gets at least one observation.
        let mut probe = EstimateProbe {
            inner: mss_core::RoundRobin::new(
                mss_core::RrOrder::SumCp,
                mss_core::RrDispatch::Cyclic,
                1,
            ),
            seen: Vec::new(),
        };
        simulate(&platform, &bag_of_tasks(n), &cfg, &mut probe).expect("RR completes");

        let mut observed_slaves = 0;
        for (j, &(c_hat, p_hat, c_obs, p_obs)) in probe.seen.iter().enumerate() {
            let j = SlaveId(j);
            if c_obs > 0 {
                prop_assert!(
                    (c_hat - platform.c(j)).abs() <= 1e-9 * platform.c(j).max(1.0),
                    "slave {j:?}: learned c {} vs true {}", c_hat, platform.c(j));
            }
            if p_obs > 0 {
                observed_slaves += 1;
                prop_assert!(
                    (p_hat - platform.p(j)).abs() <= 1e-9 * platform.p(j).max(1.0),
                    "slave {j:?}: learned p {} vs true {}", p_hat, platform.p(j));
            }
        }
        // RR's first round touches every slave, so everything was observed.
        prop_assert_eq!(observed_slaves, platform.num_slaves());
    }
}

#[test]
fn engine_refuses_underinformed_runs() {
    /// A scheduler that (defaultly) declares it needs clairvoyance.
    struct NeedsEverything;
    impl OnlineScheduler for NeedsEverything {
        fn name(&self) -> String {
            "needs-everything".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            match (view.link_idle(), view.pending_tasks().first()) {
                (true, Some(&task)) => Decision::Send {
                    task,
                    slave: SlaveId(0),
                },
                _ => Decision::Idle,
            }
        }
    }
    let platform = Platform::from_vectors(&[1.0], &[2.0]);
    let cfg = SimConfig {
        info: InfoTier::SpeedOblivious,
        ..SimConfig::default()
    };
    let err = simulate(&platform, &bag_of_tasks(2), &cfg, &mut NeedsEverything).unwrap_err();
    assert!(
        matches!(
            err,
            mss_sim::SimError::InsufficientInformation {
                granted: InfoTier::SpeedOblivious,
                required: InfoTier::Clairvoyant,
            }
        ),
        "{err:?}"
    );
    // At its declared tier the same scheduler runs.
    simulate(
        &platform,
        &bag_of_tasks(2),
        &SimConfig::default(),
        &mut NeedsEverything,
    )
    .unwrap();
}

#[test]
fn all_paper_heuristics_complete_at_every_tier() {
    let platform = Platform::from_vectors(&[0.4, 1.0, 0.2], &[2.0, 5.0, 7.0]);
    let tasks = bag_of_tasks(25);
    for tier in InfoTier::ALL {
        for a in Algorithm::ALL {
            let cfg = SimConfig {
                horizon_hint: Some(tasks.len()),
                info: tier,
                ..SimConfig::default()
            };
            let trace = simulate(&platform, &tasks, &cfg, &mut a.build())
                .unwrap_or_else(|e| panic!("{a} at {tier}: {e}"));
            assert_eq!(trace.len(), tasks.len());
            assert!(
                mss_sim::validate(&trace, &platform).is_empty(),
                "{a} at {tier}"
            );
        }
    }
}
