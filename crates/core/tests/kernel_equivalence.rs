//! Two contracts of the decision path, property-tested end to end across
//! platform shapes, arrival patterns, information tiers, fault/drift
//! timelines and Redispatch wrapping:
//!
//! * **Kernels.** Every kernel-backed heuristic produces
//!   **bit-identical traces** to its linear-scan reference, also under
//!   scheduler reuse across runs (the sweep regime). The tree is forced
//!   on with `with_tree_threshold(0)` so even tiny random platforms
//!   exercise the incremental path rather than the small-`m` scan
//!   fallback; `with_tree_threshold(usize::MAX)` forces the scan. A NaN
//!   key panics through the scan, through a tree rebuild and through a
//!   tree replay.
//! * **Callback elision.** Every paper heuristic is poll-driven and keeps
//!   the promise that lets the engine skip callbacks: a run that elides
//!   them equals, as a whole `Result`, a run that delivers every one
//!   through [`EveryCallback`], which asserts the promise on each.
//! * **One-pass argmin.** List Scheduling's `SimView::earliest_completion`
//!   (also the tail of SLJF and SLJFWC) picks the `scan_argmin` winner
//!   over `SimView::completion_estimate` on every view, at every tier.
//!
//! CI runs this file in release too, so both hold in both builds.

mod support;

use mss_core::{
    Algorithm, Decision, Platform, Redispatch, RoundRobin, SchedulerEvent, SimConfig, SimView,
    Simulation, SliceSource, Srpt, TaskArrival, Time, Timeline, Trace,
};
use mss_sim::{scan_argmin, IncrementalArgmin, InfoTier, OnlineScheduler, SlaveId, ViewState};
use proptest::prelude::*;
use support::{arb_fault_plan, arb_platform, arb_tasks, build_timeline};

fn arb_tier() -> impl Strategy<Value = InfoTier> {
    prop_oneof![
        Just(InfoTier::Clairvoyant),
        Just(InfoTier::SpeedOblivious),
        Just(InfoTier::NonClairvoyant),
    ]
}

/// The kernel-backed / scan-reference scheduler pairs under test. The
/// tree-indexable heuristics are forced onto the tree, their references
/// onto `scan_argmin`. LS, SLJF and SLJFWC decide by
/// `SimView::earliest_completion`, whose scan equivalence is proven
/// separately below.
fn kernel_scan_pairs() -> Vec<(Box<dyn OnlineScheduler>, Box<dyn OnlineScheduler>)> {
    const SCAN: usize = usize::MAX;
    vec![
        (
            Box::new(Srpt::new().with_tree_threshold(0)),
            Box::new(Srpt::new().with_tree_threshold(SCAN)),
        ),
        (
            Box::new(RoundRobin::rr().with_tree_threshold(0)),
            Box::new(RoundRobin::rr().with_tree_threshold(SCAN)),
        ),
        (
            Box::new(RoundRobin::rrc().with_tree_threshold(0)),
            Box::new(RoundRobin::rrc().with_tree_threshold(SCAN)),
        ),
        (
            Box::new(RoundRobin::rrp().with_tree_threshold(0)),
            Box::new(RoundRobin::rrp().with_tree_threshold(SCAN)),
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

/// A platform on a coarse grid (`c ∈ {0.5, 1, 1.5}`, `p ∈ {1, …, 4}`), so
/// slaves often tie on their completion keys.
fn arb_grid_platform() -> impl Strategy<Value = Platform> {
    proptest::collection::vec((1u8..4, 1u8..5), 1..20).prop_map(|specs| {
        let c: Vec<f64> = specs.iter().map(|&(c, _)| 0.5 * f64::from(c)).collect();
        let p: Vec<f64> = specs.iter().map(|&(_, p)| f64::from(p)).collect();
        Platform::from_vectors(&c, &p)
    })
}

/// One slave's row of an owned view: outstanding count, ready column (on
/// the half-integer grid, read only when busy), availability, and the
/// learned per-task times and computing start the lower tiers read.
type OwnedRow = (usize, u8, bool, (u8, u8, Option<u8>));

fn arb_owned_rows() -> impl Strategy<Value = Vec<OwnedRow>> {
    proptest::collection::vec(
        (
            0usize..3,
            0u8..40,
            prop_oneof![Just(true), Just(true), Just(false)],
            (1u8..4, 1u8..5, proptest::option::of(0u8..20)),
        ),
        1..20,
    )
}

/// The `scan_argmin` winner over `completion_estimate`: the reference
/// `SimView::earliest_completion` must match.
fn scan_earliest_completion(view: &SimView<'_>) -> SlaveId {
    SlaveId(scan_argmin(view.num_slaves(), |j| {
        view.completion_estimate(SlaveId(j)).as_f64()
    }))
}

/// Asserts, at every callback and before deferring to the wrapped
/// scheduler, that `earliest_completion` is the scan winner. It does not
/// declare itself poll-driven, so it checks every view of the run.
struct EarliestCompletionCheck<S>(S);

impl<S: OnlineScheduler> OnlineScheduler for EarliestCompletionCheck<S> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn init(&mut self, view: &SimView<'_>) {
        self.0.init(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        assert_eq!(
            view.earliest_completion(),
            scan_earliest_completion(view),
            "at {} ({event:?})",
            view.now()
        );
        self.0.on_event(view, event)
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

/// A NaN ready estimate makes `earliest_completion` panic in every build,
/// as `completion_estimate` does (`Time::new` rejects NaN); a NaN key
/// never silently loses the race.
#[test]
#[should_panic(expected = "NaN")]
fn a_nan_ready_estimate_panics() {
    let mut state = ViewState::new(Platform::from_vectors(&[1.0, 1.0], &[2.0, 2.0]), 0, None);
    state.slaves.outstanding[1] = 1;
    state.slaves.ready_estimate[1] = f64::NAN;
    state.view().earliest_completion();
}

/// Below `Clairvoyant`, a NaN learned link time makes the key itself NaN,
/// and the pass panics too.
#[test]
#[should_panic(expected = "NaN")]
fn a_nan_learned_rate_panics() {
    let mut state = ViewState::new(Platform::from_vectors(&[1.0, 1.0], &[2.0, 2.0]), 0, None);
    state.tier = InfoTier::SpeedOblivious;
    state.estimates.observe_send(1, f64::NAN);
    state.view().earliest_completion();
}

/// A NaN key panics through `scan_argmin` in every build, wherever it
/// sits in the pass; it never silently loses every compare.
#[test]
#[should_panic(expected = "scan_argmin: NaN")]
fn a_nan_key_panics_in_the_scan() {
    scan_argmin(3, |j| if j == 1 { f64::NAN } else { 1.0 });
}

/// SRPT's fastest-slave dispatch on a tree-forced kernel whose key turns
/// NaN from decision `poisoned_from` on: from the first, the NaN reaches
/// the tree through its rebuild; from the second, through the replay of
/// the slave the first send touched.
struct NanKeyFrom {
    kernel: IncrementalArgmin,
    decisions: usize,
    poisoned_from: usize,
}

impl OnlineScheduler for NanKeyFrom {
    fn name(&self) -> String {
        "nan-key".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        if !view.link_idle() {
            return Decision::Idle;
        }
        let poisoned = self.decisions >= self.poisoned_from;
        self.decisions += 1;
        let slave = self.kernel.argmin(view, |j| {
            if poisoned {
                f64::NAN
            } else {
                view.believed_p(SlaveId(j))
            }
        });
        Decision::Send { task, slave }
    }
}

fn run_nan_keyed(poisoned_from: usize) {
    let platform = Platform::from_vectors(&[1.0, 1.0, 1.0], &[2.0, 3.0, 4.0]);
    let tasks = mss_core::bag_of_tasks(4);
    let mut sched = NanKeyFrom {
        kernel: IncrementalArgmin::new().with_threshold(0),
        decisions: 0,
        poisoned_from,
    };
    let _ = run(
        &mut sched,
        &platform,
        &tasks,
        &Timeline::EMPTY,
        InfoTier::Clairvoyant,
    );
}

#[test]
#[should_panic(expected = "ArgminTree::rebuild: NaN")]
fn a_nan_key_panics_in_a_tree_rebuild() {
    run_nan_keyed(0);
}

#[test]
#[should_panic(expected = "ArgminTree::update: NaN")]
fn a_nan_key_panics_in_a_tree_replay() {
    run_nan_keyed(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        plan in arb_fault_plan(0..3),
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
        plan in arb_fault_plan(0..3),
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

    /// LS's one-pass argmin is the scan winner over `completion_estimate`
    /// at every tier: on every view of Redispatch-wrapped LS runs on grid
    /// platforms (ties), with failures (down rows), idle slaves, and
    /// perturbed sizes and drift (busy rows on time and overdue; the runs
    /// at `Clairvoyant`, the tier whose views answer overdue rows, and on
    /// the tasks released as one bag, for long queues); and on owned views
    /// drawn row by row, whose idle rows carry stale columns.
    #[test]
    fn earliest_completion_is_scan_argmin(
        platform in arb_grid_platform(),
        plan in arb_fault_plan(0..3),
        tasks in arb_tasks(),
        tier in arb_tier(),
        rows in arb_owned_rows(),
        clock in (0u8..40, 0u8..4),
    ) {
        let timeline = build_timeline(&plan, platform.num_slaves());
        let bag: Vec<TaskArrival> = tasks
            .iter()
            .map(|&t| TaskArrival { release: Time::ZERO, ..t })
            .collect();
        for tasks in [&tasks, &bag] {
            for tier in [InfoTier::Clairvoyant, tier] {
                let mut checked =
                    EarliestCompletionCheck(Redispatch::wrap(Algorithm::ListScheduling));
                run(&mut checked, &platform, tasks, &timeline, tier)
                    .expect("checked run completes");
            }
        }

        let c: Vec<f64> = rows.iter().map(|r| 0.5 * f64::from(r.3 .0)).collect();
        let p: Vec<f64> = rows.iter().map(|r| f64::from(r.3 .1)).collect();
        let mut state = ViewState::new(Platform::from_vectors(&c, &p), 0, None);
        state.now = Time::new(0.5 * f64::from(clock.0));
        state.link_busy_until = Time::new(0.5 * f64::from(clock.0 + clock.1));
        for (j, &(outstanding, ready, up, (cj, pj, start))) in rows.iter().enumerate() {
            state.slaves.outstanding[j] = outstanding;
            state.slaves.ready_estimate[j] = 0.5 * f64::from(ready);
            state.slaves.available[j] = up;
            state.estimates.observe_send(j, 0.5 * f64::from(cj));
            state.estimates.observe_compute(j, f64::from(pj));
            if let Some(at) = start {
                state.estimates.begin_compute(j, 0.5 * f64::from(at));
            }
        }
        for tier in [InfoTier::Clairvoyant, InfoTier::SpeedOblivious, InfoTier::NonClairvoyant] {
            state.tier = tier;
            let view = state.view();
            prop_assert_eq!(view.earliest_completion(), scan_earliest_completion(&view));
        }
    }
}
