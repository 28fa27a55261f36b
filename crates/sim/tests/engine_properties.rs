//! Engine-level property tests: whatever a (well-formed) scheduler does,
//! the resulting trace satisfies every model invariant, and the objective
//! folds agree with a straightforward recomputation; whatever breaks the
//! input contract is a located error.

mod support;

use mss_core::Algorithm;
use mss_sim::{
    bag_of_tasks, simulate, validate, Decision, OnlineScheduler, Platform, PlatformEvent,
    PlatformEventKind, SchedulerEvent, SimConfig, SimError, SimView, SimWorkspace, Simulation,
    SlaveId, SliceSource, TaskArrival, TaskId, TaskSource, Time, Timeline,
};
use proptest::prelude::*;
use support::{arb_platform, arb_tasks, TapeScheduler};

/// One way to break the engine's input contract at one task.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// Release this much earlier than the previous task's (the first
    /// task goes negative instead).
    Decrease(f64),
    /// An infinite release.
    InfiniteRelease,
    /// This communication-size multiplier.
    SizeC(f64),
    /// This computation-size multiplier.
    SizeP(f64),
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    let bad_size = || prop_oneof![Just(0.0), Just(f64::INFINITY), Just(f64::NAN), -5.0f64..0.0];
    prop_oneof![
        (0.001f64..5.0).prop_map(Corruption::Decrease),
        Just(Corruption::InfiniteRelease),
        bad_size().prop_map(Corruption::SizeC),
        bad_size().prop_map(Corruption::SizeP),
    ]
}

/// A non-slice source over a task list (pulled through `&mut dyn`).
struct Replay {
    tasks: Vec<TaskArrival>,
    next: usize,
}

impl TaskSource for Replay {
    fn next_task(&mut self) -> Option<TaskArrival> {
        let t = self.tasks.get(self.next).copied();
        self.next += 1;
        t
    }
    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks.len())
    }
    fn reset(&mut self) {
        self.next = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_schedulers_yield_valid_traces(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched)
            .expect("tape scheduler always progresses");
        let violations = validate(&trace, &platform);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
        prop_assert_eq!(trace.len(), tasks.len());
    }

    #[test]
    fn objectives_match_recomputation(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched).unwrap();

        let mut makespan: f64 = 0.0;
        let mut max_flow: f64 = 0.0;
        let mut sum_flow = 0.0;
        for r in trace.records() {
            makespan = makespan.max(r.compute_end.as_f64());
            max_flow = max_flow.max(r.compute_end - r.release);
            sum_flow += r.compute_end - r.release;
        }
        prop_assert!((trace.makespan() - makespan).abs() < 1e-9);
        prop_assert!((trace.max_flow() - max_flow).abs() < 1e-9);
        prop_assert!((trace.sum_flow() - sum_flow).abs() < 1e-6);
    }

    #[test]
    fn flow_lower_bound_per_task(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        // Each task's flow is at least c_j·size_c + p_j·size_p on its slave.
        let mut sched = TapeScheduler::new(tape);
        let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut sched).unwrap();
        for r in trace.records() {
            let lb = platform.c(r.slave) * r.size_c + platform.p(r.slave) * r.size_p;
            prop_assert!(r.flow() >= lb - 1e-9,
                "task {:?} flow {} below lower bound {}", r.task, r.flow(), lb);
        }
    }

    #[test]
    fn bag_of_tasks_all_released_at_zero(n in 1usize..50) {
        let tasks = bag_of_tasks(n);
        prop_assert_eq!(tasks.len(), n);
        prop_assert!(tasks.iter().all(|t| t.release == Time::ZERO));
    }

    /// The incremental slave-view cache and the workspace reuse are
    /// observationally transparent under arbitrary event sequences.
    ///
    /// Two layers of checking: (1) this is a debug build, so the engine's
    /// internal oracle re-derives every cached `SlaveView` from scratch
    /// before each scheduler callback and asserts *bitwise* equality with
    /// the incrementally maintained one — any divergence panics the run;
    /// (2) the same scenario simulated on a fresh workspace, on a reused
    /// (dirty) workspace, and through the plain allocating entry point must
    /// produce identical results, including identical errors.
    #[test]
    fn incremental_views_and_workspace_reuse_are_exact(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        tape in proptest::collection::vec(0u32..1000, 8..64),
        faults in proptest::collection::vec(
            (0usize..8, 0.0f64..25.0, 0.1f64..10.0, 0.25f64..3.0, 0.25f64..3.0), 0..5),
    ) {
        // Crash/recover pairs plus speed and link drift on pseudo-random
        // slaves (indices past the platform are deliberately kept: the
        // engine must ignore them). Link factors above 1 make in-flight
        // heads arrive after their predicted `avail`, so the oracle also
        // sees views that expire on a late send. Nominal-size tasks are
        // billed on time on undrifted slaves, where the cached estimate is
        // kept, and off time on drifted ones, where it must be refolded.
        // Tape schedulers may gamble on down slaves forever, so a tight
        // step budget turns livelocks into a (deterministic) error.
        let mut events = Vec::new();
        for &(j, at, up_after, factor, link) in &faults {
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
            events.push(PlatformEvent {
                time: Time::new(at / 3.0),
                slave: SlaveId(j),
                kind: PlatformEventKind::SetLinkFactor(link),
            });
        }
        let timeline = Timeline::new(events);
        let cfg = SimConfig { max_steps: 100_000, ..SimConfig::default() };

        let mut ws = SimWorkspace::new();
        let fresh_ws = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .workspace(&mut ws)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape.clone()));
        let reused_ws = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .workspace(&mut ws)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape.clone()));
        let plain = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape));

        prop_assert_eq!(&fresh_ws, &reused_ws);
        prop_assert_eq!(&fresh_ws, &plain);
        if let Ok(trace) = fresh_ws {
            let violations = validate(&trace, &platform);
            prop_assert!(violations.is_empty(), "violations: {violations:?}");
            prop_assert_eq!(trace.len(), tasks.len());
        }
    }

    /// A decreasing or non-finite release and a non-finite or
    /// non-positive size are each a `SimError::InvalidTask` naming the
    /// first offending task — through a slice or another source, for a
    /// trace or the objectives alone — never a panic.
    #[test]
    fn invalid_arrivals_are_located_errors(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        at in 0usize..25,
        corruption in arb_corruption(),
        tape in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let k = at % tasks.len();
        let mut bad = tasks.clone();
        match corruption {
            Corruption::Decrease(d) => {
                let prev = if k == 0 { 0.0 } else { bad[k - 1].release.as_f64() };
                bad[k].release = Time::new(prev - d);
            }
            Corruption::InfiniteRelease => bad[k].release = Time::new(f64::INFINITY),
            Corruption::SizeC(v) => bad[k].size_c = v,
            Corruption::SizeP(v) => bad[k].size_p = v,
        }
        let cfg = SimConfig::default();
        let mut replay = Replay { tasks: bad.clone(), next: 0 };
        let runs = [
            Simulation::new(&platform, &cfg)
                .trace(SliceSource::new(&bad), &mut TapeScheduler::new(tape.clone()))
                .map(|_| ()),
            Simulation::new(&platform, &cfg)
                .objectives(SliceSource::new(&bad), &mut TapeScheduler::new(tape.clone()))
                .map(|_| ()),
            Simulation::new(&platform, &cfg)
                .trace(&mut replay as &mut dyn TaskSource, &mut TapeScheduler::new(tape.clone()))
                .map(|_| ()),
            {
                replay.reset();
                Simulation::new(&platform, &cfg)
                    .objectives(&mut replay as &mut dyn TaskSource, &mut TapeScheduler::new(tape))
                    .map(|_| ())
            },
        ];
        for (i, run) in runs.into_iter().enumerate() {
            match run {
                Err(SimError::InvalidTask { task, reason }) => {
                    prop_assert_eq!(task, TaskId(k), "run {}: {}", i, reason);
                }
                other => prop_assert!(false, "run {}: expected InvalidTask at T{}, got {:?}", i, k, other),
            }
        }
    }
}

/// Sends the oldest pending task to the lowest-index slave that is idle
/// and up, and logs every callback with its answer.
#[derive(Default)]
struct FirstIdle {
    log: Vec<String>,
}

impl OnlineScheduler for FirstIdle {
    fn name(&self) -> String {
        "first-idle".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
        let idle = view
            .slave_ids()
            .find(|&j| view.slave_idle(j) && view.slave_available(j));
        let decision = match (view.link_idle(), view.pending_tasks().first(), idle) {
            (true, Some(&task), Some(slave)) => Decision::Send { task, slave },
            _ => Decision::Idle,
        };
        self.log
            .push(format!("{} {e:?} -> {decision:?}", view.now()));
        decision
    }
}

/// The callback log of [`FirstIdle`] on c = (1, 1), p = (10, 10), three
/// tasks at 0, with `slave` failing at 1.5 and recovering at 20.
fn failure_log(slave: usize) -> Vec<String> {
    let platform = Platform::from_vectors(&[1.0, 1.0], &[10.0, 10.0]);
    let at = |time: f64, kind| PlatformEvent {
        time: Time::new(time),
        slave: SlaveId(slave),
        kind,
    };
    let timeline = Timeline::new(vec![
        at(1.5, PlatformEventKind::Fail),
        at(20.0, PlatformEventKind::Recover),
    ]);
    let tasks = bag_of_tasks(3);
    let mut sched = FirstIdle::default();
    let trace = Simulation::new(&platform, &SimConfig::default())
        .timeline(&timeline)
        .trace(SliceSource::new(&tasks), &mut sched)
        .expect("every task completes once the slave recovers");
    assert!(validate(&trace, &platform).is_empty());
    sched.log
}

/// An event voided by a failure still pops at its instant and opens a
/// batch there, so the scheduler is polled then. P1 fails while computing
/// T0 (due at 11): the voided computation still yields `PortIdle` at 11.
/// P2 fails while T1 is in flight to it (due at 2): the aborted send still
/// yields `PortIdle` at 2.
#[test]
fn voided_events_still_pop_at_their_instant() {
    assert_eq!(
        failure_log(0),
        [
            "0.000000 Released(T0) -> Send { task: T0, slave: P1 }",
            "0.000000 Released(T1) -> Idle",
            "0.000000 Released(T2) -> Idle",
            "1.000000 SendCompleted(T0, P1) -> Send { task: T1, slave: P2 }",
            "1.500000 SlaveFailed(P1) -> Idle",
            "2.000000 SendCompleted(T1, P2) -> Idle",
            "2.000000 PortIdle -> Idle",
            "11.000000 PortIdle -> Idle",
            "12.000000 ComputeCompleted(T1, P2) -> Send { task: T2, slave: P2 }",
            "13.000000 SendCompleted(T2, P2) -> Idle",
            "13.000000 PortIdle -> Idle",
            "20.000000 SlaveRecovered(P1) -> Send { task: T0, slave: P1 }",
            "21.000000 SendCompleted(T0, P1) -> Idle",
            "23.000000 ComputeCompleted(T2, P2) -> Idle",
            "31.000000 ComputeCompleted(T0, P1) -> Idle",
        ]
    );
    assert_eq!(
        failure_log(1),
        [
            "0.000000 Released(T0) -> Send { task: T0, slave: P1 }",
            "0.000000 Released(T1) -> Idle",
            "0.000000 Released(T2) -> Idle",
            "1.000000 SendCompleted(T0, P1) -> Send { task: T1, slave: P2 }",
            "1.500000 SlaveFailed(P2) -> Idle",
            "1.500000 PortIdle -> Idle",
            "2.000000 PortIdle -> Idle",
            "11.000000 ComputeCompleted(T0, P1) -> Send { task: T2, slave: P1 }",
            "12.000000 SendCompleted(T2, P1) -> Idle",
            "12.000000 PortIdle -> Idle",
            "20.000000 SlaveRecovered(P2) -> Send { task: T1, slave: P2 }",
            "21.000000 SendCompleted(T1, P2) -> Idle",
            "22.000000 ComputeCompleted(T2, P1) -> Idle",
            "31.000000 ComputeCompleted(T1, P2) -> Idle",
        ]
    );
}

/// A send holds the port for at least one representable instant, even
/// when the clock absorbs the transfer (`now + c·size == now`): on
/// c = (1e-20, 1e-20), p = (1, 1) with three tasks released at t = 1,
/// every paper heuristic completes, the trace validates, and the sends
/// are serial, each ending strictly after it starts.
#[test]
fn absorbed_transfers_still_occupy_the_port() {
    let platform = Platform::from_vectors(&[1e-20, 1e-20], &[1.0, 1.0]);
    let tasks = vec![TaskArrival::at(1.0); 3];
    for algorithm in Algorithm::ALL {
        let trace = simulate(
            &platform,
            &tasks,
            &SimConfig::with_horizon(tasks.len()),
            &mut algorithm.build(),
        )
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        assert_eq!(trace.len(), tasks.len(), "{algorithm}");
        assert!(validate(&trace, &platform).is_empty(), "{algorithm}");
        let mut sends: Vec<_> = trace
            .records()
            .iter()
            .map(|r| (r.send_start, r.send_end))
            .collect();
        sends.sort();
        for &(start, end) in &sends {
            assert!(
                end > start,
                "{algorithm}: send [{start:?}, {end:?}] is empty"
            );
        }
        for w in sends.windows(2) {
            assert!(w[1].0 >= w[0].1, "{algorithm}: sends overlap: {sends:?}");
        }
        if algorithm == Algorithm::Srpt {
            // The ulps the absorbed sends hold the port for move the
            // makespan one ulp past 3.
            assert_eq!(trace.makespan(), 3.0000000000000004);
        }
    }
}
