//! Two contracts of the decision path, property-tested end to end across
//! platform shapes, arrival patterns, information tiers, fault/drift
//! timelines and Redispatch wrapping:
//!
//! * **Kernels.** Every kernel-backed heuristic produces
//!   **bit-identical traces** to its linear-scan reference, also under
//!   scheduler reuse across runs (the sweep regime). The tree is forced
//!   on with `with_tree_threshold(0)` so even tiny random platforms
//!   exercise the incremental path rather than the small-`m` scan
//!   fallback.
//! * **Callback elision.** Every paper heuristic is poll-driven and keeps
//!   the promise that lets the engine skip callbacks: a run that elides
//!   them equals, as a whole `Result`, a run that delivers every one
//!   through [`EveryCallback`], which asserts the promise on each.
//!
//! CI runs this file in release too, so both hold in both builds.

use mss_core::{
    Algorithm, Decision, Platform, PlatformEvent, PlatformEventKind, Redispatch, RoundRobin,
    SchedulerEvent, SimConfig, SimView, Simulation, SliceSource, Srpt, TaskArrival, Time, Timeline,
    Trace,
};
use mss_sim::{chunked_argmin, scan_argmin, InfoTier, OnlineScheduler, SlaveId};
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    // 1..40 slaves spans both sides of every chunk boundary (8 lanes) and
    // forces non-trivial trees (padding leaves, single-leaf trees).
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 1..40).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

/// A release in `[0, 25)`: on the integer grid about half the time, so
/// several tasks share an instant and their notifications form one batch.
fn arb_release() -> impl Strategy<Value = f64> {
    prop_oneof![(0u8..25).prop_map(f64::from), 0.0f64..25.0]
}

/// A size multiplier: exactly nominal about half the time, so events land
/// at their predicted instants, otherwise perturbed by up to ±10 %.
fn arb_size() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), 0.9f64..1.1]
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((arb_release(), arb_size(), arb_size()), 1..30).prop_map(|mut ts| {
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

fn arb_tier() -> impl Strategy<Value = InfoTier> {
    prop_oneof![
        Just(InfoTier::Clairvoyant),
        Just(InfoTier::SpeedOblivious),
        Just(InfoTier::NonClairvoyant),
    ]
}

/// One raw entry of a fault/drift plan; `kind_sel % 3` picks
/// crash-and-recover, link drift, or speed drift. The slave index is a
/// free selector, reduced modulo the platform size when the timeline is
/// materialized (the vendored proptest has no `prop_flat_map`, so the
/// plan cannot depend on the drawn platform).
type FaultPlanEntry = (u8, usize, f64, f64);

fn arb_fault_plan() -> impl Strategy<Value = Vec<FaultPlanEntry>> {
    proptest::collection::vec((0u8..3, 0usize..64, 0.0f64..30.0, 0.5f64..8.0), 0..4)
}

/// Materializes a plan against a concrete platform size. Crashes never
/// target slave 0 and always recover, so Redispatch-wrapped runs stay
/// live on any platform.
fn build_timeline(plan: &[FaultPlanEntry], m: usize) -> Timeline {
    let mut events = Vec::new();
    for &(kind_sel, slave_sel, t, x) in plan {
        match kind_sel % 3 {
            0 if m >= 2 => {
                let j = SlaveId(1 + slave_sel % (m - 1));
                events.push(PlatformEvent {
                    time: Time::new(t),
                    slave: j,
                    kind: PlatformEventKind::Fail,
                });
                events.push(PlatformEvent {
                    time: Time::new(t + x),
                    slave: j,
                    kind: PlatformEventKind::Recover,
                });
            }
            1 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetLinkFactor(0.25 * x), // 0.125..2.0
            }),
            2 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetSpeedFactor(0.25 * x),
            }),
            _ => {}
        }
    }
    Timeline::new(events)
}

/// The kernel-backed / scan-reference scheduler pairs under test. The
/// tree-indexable heuristics are forced onto the tree; the closure-key
/// heuristics (LS, SLJF, SLJFWC) share `chunked_argmin`, whose scan
/// equivalence is proven separately below.
fn kernel_scan_pairs() -> Vec<(Box<dyn OnlineScheduler>, Box<dyn OnlineScheduler>)> {
    vec![
        (
            Box::new(Srpt::new().with_tree_threshold(0)),
            Box::new(Srpt::scan_reference()),
        ),
        (
            Box::new(RoundRobin::rr().with_tree_threshold(0)),
            Box::new(RoundRobin::rr().with_scan_kernel()),
        ),
        (
            Box::new(RoundRobin::rrc().with_tree_threshold(0)),
            Box::new(RoundRobin::rrc().with_scan_kernel()),
        ),
        (
            Box::new(RoundRobin::rrp().with_tree_threshold(0)),
            Box::new(RoundRobin::rrp().with_scan_kernel()),
        ),
    ]
}

/// Delivers every callback to the wrapped scheduler, since it does not
/// declare itself poll-driven, and asserts the poll-driven promise on each
/// one: the answer is never a `WakeAt`, and it is `Idle` whenever the port
/// is busy or nothing is pending. The promise's other half, that those
/// callbacks change no state, shows as a run through this wrapper
/// differing from the elided run.
struct EveryCallback<S>(S);

impl<S: OnlineScheduler> OnlineScheduler for EveryCallback<S> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn init(&mut self, view: &SimView<'_>) {
        self.0.init(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        let quiet = !view.link_idle() || view.pending_tasks().is_empty();
        let decision = self.0.on_event(view, event);
        let at = view.now();
        assert!(
            !matches!(decision, Decision::WakeAt(_)),
            "{}: a poll-driven scheduler answered {decision:?} to {event:?} at {at}",
            self.0.name()
        );
        assert!(
            !quiet || decision == Decision::Idle,
            "{}: answered {decision:?} to {event:?} at {at} with the port busy or nothing pending",
            self.0.name()
        );
        decision
    }

    fn min_tier(&self) -> InfoTier {
        self.0.min_tier()
    }
}

fn run(
    sched: &mut dyn OnlineScheduler,
    platform: &Platform,
    tasks: &[TaskArrival],
    timeline: &Timeline,
    tier: InfoTier,
) -> Result<Trace, mss_sim::SimError> {
    let cfg = SimConfig {
        horizon_hint: Some(tasks.len()),
        info: tier,
        ..SimConfig::default()
    };
    Simulation::new(platform, &cfg)
        .timeline(timeline)
        .trace(SliceSource::new(tasks), sched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunked 8-lane argmin is the historical sequential scan, bit
    /// for bit, on arbitrary key arrays (duplicates, infinities, lane
    /// boundaries).
    #[test]
    fn chunked_argmin_is_scan_argmin(
        keys in proptest::collection::vec(
            prop_oneof![
                (0.0f64..100.0).prop_map(|k| (k * 4.0).floor()), // force duplicates
                Just(f64::INFINITY),
            ],
            0..70,
        ),
    ) {
        prop_assert_eq!(
            chunked_argmin(keys.len(), |j| keys[j]),
            scan_argmin(keys.len(), |j| keys[j]),
            "winner diverges on {keys:?}"
        );
    }

    /// Static platforms, every information tier: tree-backed decisions
    /// are trace-identical to the linear scan.
    #[test]
    fn kernel_matches_scan_static(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        for (mut kernel, mut scan) in kernel_scan_pairs() {
            let a = run(kernel.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("kernel run completes");
            let b = run(scan.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier)
                .expect("scan run completes");
            prop_assert_eq!(a, b, "{} diverged from its scan reference", kernel.name());
        }
    }

    /// Fault + drift timelines (Redispatch-wrapped for liveness): the
    /// kernel replays crash/recovery/drift invalidations from the touch
    /// journal and still matches the scan bit for bit.
    #[test]
    fn kernel_matches_scan_under_faults(
        platform in arb_platform(),
        plan in arb_fault_plan(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        let timeline = build_timeline(&plan, platform.num_slaves());
        for (kernel, scan) in kernel_scan_pairs() {
            let mut kernel = Redispatch::new(kernel);
            let mut scan = Redispatch::new(scan);
            let a = run(&mut kernel, &platform, &tasks, &timeline, tier)
                .expect("wrapped kernel run completes");
            let b = run(&mut scan, &platform, &tasks, &timeline, tier)
                .expect("wrapped scan run completes");
            prop_assert_eq!(a, b, "{} diverged under faults", kernel.name());
        }
    }

    /// The sweep regime: one scheduler instance reused across *different*
    /// instances must behave exactly like fresh instances each time — the
    /// journal's run nonce forces a rebuild at every workspace reset, so
    /// nothing leaks from the previous run's tree.
    #[test]
    fn scheduler_reuse_across_runs_is_fresh(
        platform_a in arb_platform(),
        platform_b in arb_platform(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        for (mut reused, _) in kernel_scan_pairs() {
            let first = run(reused.as_mut(), &platform_a, &tasks, &Timeline::EMPTY, tier)
                .expect("first run completes");
            let second = run(reused.as_mut(), &platform_b, &tasks, &Timeline::EMPTY, tier)
                .expect("reused run completes");
            let (mut fresh, _) = kernel_scan_pairs()
                .into_iter()
                .find(|(k, _)| k.name() == reused.name())
                .expect("same pair exists");
            let fresh_first = run(fresh.as_mut(), &platform_a, &tasks, &Timeline::EMPTY, tier)
                .expect("fresh first run completes");
            let fresh_second = run(fresh.as_mut(), &platform_b, &tasks, &Timeline::EMPTY, tier)
                .expect("fresh second run completes");
            prop_assert_eq!(first, fresh_first);
            prop_assert_eq!(second, fresh_second, "{} leaked state across runs", reused.name());
        }
    }

    /// Static platforms, every information tier: each paper heuristic
    /// declares itself poll-driven, and its elided run equals its run
    /// with every callback delivered.
    #[test]
    fn elided_callbacks_match_delivered_static(
        platform in arb_platform(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        for a in Algorithm::ALL {
            let mut elided = a.build();
            prop_assert!(elided.poll_driven(), "{} is not poll-driven", a);
            let e = run(elided.as_mut(), &platform, &tasks, &Timeline::EMPTY, tier);
            let d = run(&mut EveryCallback(a.build()), &platform, &tasks, &Timeline::EMPTY, tier);
            prop_assert_eq!(e, d, "{} scheduled differently with every callback delivered", a);
        }
    }

    /// Fault + drift timelines, Redispatch-wrapped for liveness: the same
    /// equality, for each wrapped paper heuristic.
    #[test]
    fn elided_callbacks_match_delivered_under_faults(
        platform in arb_platform(),
        plan in arb_fault_plan(),
        tasks in arb_tasks(),
        tier in arb_tier(),
    ) {
        let timeline = build_timeline(&plan, platform.num_slaves());
        for a in Algorithm::ALL {
            let mut elided = Redispatch::wrap(a);
            prop_assert!(elided.poll_driven(), "{} is not poll-driven", elided.name());
            let e = run(&mut elided, &platform, &tasks, &timeline, tier);
            let d = run(&mut EveryCallback(Redispatch::wrap(a)), &platform, &tasks, &timeline, tier);
            prop_assert_eq!(e, d, "{}+RD scheduled differently with every callback delivered", a);
        }
    }
}
