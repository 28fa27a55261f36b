//! Engine-level property tests: whatever a (well-formed) scheduler does,
//! the resulting trace satisfies every model invariant, and the objective
//! folds agree with a straightforward recomputation; whatever breaks the
//! input contract is a located error.

mod support;

use mss_sim::{
    bag_of_tasks, simulate, validate, PlatformEvent, PlatformEventKind, SimConfig, SimError,
    SimWorkspace, Simulation, SlaveId, SliceSource, TaskArrival, TaskId, TaskSource, Time,
    Timeline,
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
