//! Counters-consistency: the two probe implementations agree with each
//! other and with the trace on a deterministic failure scenario.
//!
//! [`RunCounters`] tallies hook firings; [`TraceRecorder`] turns the same
//! firings into spans and markers. Both observe one run of a fault-aware
//! greedy under scripted slave failures, so every cross-check below is exact:
//! span counts must equal counter totals, markers must equal
//! failure/recovery/loss counts, and the send ledger must balance.

use mss_sim::{
    bag_of_tasks, Decision, MarkerKind, MetricsProbe, OnlineScheduler, Platform, PlatformEvent,
    PlatformEventKind, RunCounters, SchedulerEvent, SimConfig, SimView, SimWorkspace, Simulation,
    SlaveId, SliceSource, SpanKind, Time, Timeline, TraceRecorder,
};

/// Fault-aware greedy: oldest pending task to the *available* slave with
/// the earliest completion estimate (idles when every slave is down).
struct Greedy;

impl OnlineScheduler for Greedy {
    fn name(&self) -> String {
        "greedy".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let Some(best) = view.available_slaves().min_by(|&a, &b| {
            view.completion_estimate(a)
                .partial_cmp(&view.completion_estimate(b))
                .unwrap()
        }) else {
            return Decision::Idle;
        };
        Decision::Send { task, slave: best }
    }

    fn poll_driven(&self) -> bool {
        true
    }
}

#[test]
fn trace_spans_match_counter_totals() {
    let platform = Platform::from_vectors(&[0.2, 0.5, 0.9], &[1.0, 2.0, 3.0]);
    let n = 60;
    let tasks = bag_of_tasks(n);
    let cfg = SimConfig::with_horizon(n);
    // Scripted outage: slave 0 (the fastest) dies mid-run and comes back,
    // so the run exercises failure, task loss/re-release, and recovery.
    let timeline = Timeline::new(vec![
        PlatformEvent {
            time: Time::new(5.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Fail,
        },
        PlatformEvent {
            time: Time::new(9.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Recover,
        },
    ]);

    let mut ws = SimWorkspace::new();
    let mut probe = (RunCounters::new(), TraceRecorder::new());
    let trace = Simulation::new(&platform, &cfg)
        .timeline(&timeline)
        .workspace(&mut ws)
        .probe(&mut probe)
        .trace(SliceSource::new(&tasks), &mut Greedy)
        .expect("failure scenario completes");
    let (c, mut rec) = probe;
    rec.finalize(rec.end_time());

    // The run actually went through the outage.
    assert_eq!(trace.len(), n);
    assert_eq!(c.failures, 1);
    assert_eq!(c.recoveries, 1);

    // Send ledger balances and matches the recorder span by span.
    assert_eq!(c.sends_started, c.sends_delivered + c.sends_lost);
    let sends = span_count(&rec, SpanKind::Send);
    assert_eq!(sends as u64, c.sends_started);

    // Every task computes to completion exactly once; interrupted computes
    // (the outage's casualties) appear as truncated spans.
    assert_eq!(c.computes_completed, n as u64);
    let computes = rec
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compute)
        .count() as u64;
    assert_eq!(computes, c.computes_started);
    let completed = rec
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Compute && s.completed)
        .count() as u64;
    assert_eq!(completed, c.computes_completed);

    // Markers mirror the failure counters one to one.
    assert_eq!(marker_count(&rec, MarkerKind::Fail), c.failures);
    assert_eq!(marker_count(&rec, MarkerKind::Recover), c.recoveries);
    assert_eq!(marker_count(&rec, MarkerKind::TaskLost), c.tasks_lost);
    assert_eq!(span_count(&rec, SpanKind::Down) as u64, c.failures);

    // The scheduler heard about the run: every callback was either
    // delivered or (for this poll-driven scheduler) provably elidable.
    assert!(c.callbacks + c.callbacks_elided > 0);
    assert!(c.events() > 3 * n as u64, "outage adds events beyond 3n");
}

/// One slave (`c = 1`, `p = 3`) fails at t = 0.5 while the only task is
/// in flight to it and recovers at t = 2, when the task is sent again: it
/// arrives at 3 and completes at 6. The aborted send ends at the failure
/// in every probe: the ledger balances, the recorder closes its span once
/// and marks one loss, and the port counts as free from then on.
#[test]
fn a_send_aborted_by_a_failure_ends_in_every_probe() {
    let platform = Platform::from_vectors(&[1.0], &[3.0]);
    let tasks = bag_of_tasks(1);
    let timeline = Timeline::new(vec![
        PlatformEvent {
            time: Time::new(0.5),
            slave: SlaveId(0),
            kind: PlatformEventKind::Fail,
        },
        PlatformEvent {
            time: Time::new(2.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Recover,
        },
    ]);
    let mut probe = (
        RunCounters::new(),
        (TraceRecorder::new(), MetricsProbe::new()),
    );
    let trace = Simulation::new(&platform, &SimConfig::default())
        .timeline(&timeline)
        .probe(&mut probe)
        .trace(SliceSource::new(&tasks), &mut Greedy)
        .expect("outage scenario completes");
    assert_eq!(trace.makespan(), 6.0);
    let (c, (mut rec, mut metrics)) = probe;

    assert_eq!(
        (c.sends_started, c.sends_delivered, c.sends_lost),
        (2, 1, 1)
    );
    assert_eq!((c.failures, c.tasks_lost), (1, 1));

    rec.finalize(6.0);
    let sends: Vec<(f64, f64, bool)> = rec
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Send)
        .map(|s| (s.start, s.end, s.completed))
        .collect();
    assert_eq!(sends, [(0.0, 0.5, false), (2.0, 3.0, true)]);
    assert_eq!(marker_count(&rec, MarkerKind::TaskLost), 1);
    let in_flight: Vec<u64> = rec.inflight_samples.iter().map(|&(_, n)| n).collect();
    assert_eq!(in_flight, [1, 0, 1, 0]);

    // Blocked while its sends occupy the port (0–0.5, 2–3), idle in between.
    let m = metrics.finish(6.0);
    assert_eq!(m.busy_secs[0], 3.0);
    assert_eq!(m.blocked_secs[0], 1.5);
    assert_eq!(m.idle_secs[0], 1.5);
    assert_eq!(m.recv_secs[0], 1.5);
}

/// Sends the oldest pending task to slave 0 whenever the port is idle,
/// blind to failures.
struct Oblivious;

impl OnlineScheduler for Oblivious {
    fn name(&self) -> String {
        "oblivious".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        match view.pending_tasks().first() {
            Some(&task) if view.link_idle() => Decision::Send {
                task,
                slave: SlaveId(0),
            },
            _ => Decision::Idle,
        }
    }
}

/// A send that arrives at a slave already down is lost on arrival: the
/// engine returns its task to the master's queue with no `task_lost`, so
/// each probe counts it back itself. One slave (`c = 1`, `p = 1`), down
/// from t = 0 to 1.5, and two tasks released at 0: task 0 is sent at 0 and
/// lost at 1, task 1 is sent at 1 and delivered at 2, and task 0 is sent
/// again at 2. The master's queue holds 2 tasks, then 1 from t = 0, 2
/// again at t = 1 and 1 at once, and none from t = 2: `∫ depth dt = 2`,
/// with a maximum of 2.
#[test]
fn a_send_lost_on_arrival_returns_to_the_queue_in_every_probe() {
    let platform = Platform::from_vectors(&[1.0], &[1.0]);
    let tasks = bag_of_tasks(2);
    let timeline = Timeline::new(vec![
        PlatformEvent {
            time: Time::new(0.0),
            slave: SlaveId(0),
            kind: PlatformEventKind::Fail,
        },
        PlatformEvent {
            time: Time::new(1.5),
            slave: SlaveId(0),
            kind: PlatformEventKind::Recover,
        },
    ]);
    let mut probe = (
        RunCounters::new(),
        (TraceRecorder::new(), MetricsProbe::new()),
    );
    let trace = Simulation::new(&platform, &SimConfig::default())
        .timeline(&timeline)
        .probe(&mut probe)
        .trace(SliceSource::new(&tasks), &mut Oblivious)
        .expect("outage scenario completes");
    assert_eq!(trace.makespan(), 4.0);
    let (c, (rec, mut metrics)) = probe;

    assert_eq!(
        (c.sends_started, c.sends_delivered, c.sends_lost),
        (3, 2, 1)
    );
    assert_eq!((c.failures, c.tasks_lost), (1, 0));
    assert_eq!(marker_count(&rec, MarkerKind::TaskLost), 1);
    assert_eq!(
        rec.queue_samples,
        [(0.0, 1), (0.0, 2), (0.0, 1), (1.0, 2), (1.0, 1), (2.0, 0)]
    );

    let m = metrics.finish(4.0);
    assert_eq!(m.queue_depth_secs, 2.0);
    assert_eq!(m.queue_max, 2);
}

/// A static bag on the 5-slave reference platform (`c = 0.1 … 0.9`,
/// `p = 1 … 5`), where the greedy above is List Scheduling. Every task
/// crosses four engine boundaries and raises three scheduler events (its
/// release, its send's delivery, its completion); the engine delivers n
/// callbacks and elides 2n, so the elided share is exactly 2/3. Views are
/// refreshed only for delivered callbacks, the same in every build, so
/// their recompute count is exact too; nominal sizes on a static platform
/// never refold a view.
#[test]
fn static_list_scheduling_counts_are_exact() {
    let platform = Platform::from_vectors(&[0.1, 0.3, 0.5, 0.7, 0.9], &[1.0, 2.0, 3.0, 4.0, 5.0]);
    for (n, view_recomputes) in [(500u64, 816u64), (2_000, 3_272)] {
        let tasks = bag_of_tasks(n as usize);
        let mut c = RunCounters::new();
        let trace = Simulation::new(&platform, &SimConfig::with_horizon(n as usize))
            .probe(&mut c)
            .trace(SliceSource::new(&tasks), &mut Greedy)
            .expect("static reference run completes");
        assert_eq!(trace.len() as u64, n);
        for (name, count) in [
            ("sends_started", c.sends_started),
            ("sends_delivered", c.sends_delivered),
            ("computes_started", c.computes_started),
            ("computes_completed", c.computes_completed),
            ("callbacks", c.callbacks),
        ] {
            assert_eq!(count, n, "{name} at n = {n}: {c:?}");
        }
        assert_eq!(c.events(), 4 * n, "n = {n}: {c:?}");
        assert_eq!(c.callbacks_elided, 2 * n, "n = {n}: {c:?}");
        assert_eq!(c.view_recomputes, view_recomputes, "n = {n}: {c:?}");
        assert_eq!(c.view_refolds, 0, "n = {n}: {c:?}");
    }
}

fn span_count(rec: &TraceRecorder, kind: SpanKind) -> usize {
    rec.spans.iter().filter(|s| s.kind == kind).count()
}

fn marker_count(rec: &TraceRecorder, kind: MarkerKind) -> u64 {
    rec.markers.iter().filter(|m| m.kind == kind).count() as u64
}
