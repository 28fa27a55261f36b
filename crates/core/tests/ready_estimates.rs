//! The view's nominal ready estimates, re-derived from the run's trace.
//!
//! A [`Recorder`] wraps a paper heuristic and logs, at every callback it
//! sees, `ready_estimate(j)` for every slave, and the wrapped scheduler's
//! own sends, in order. After the run each logged value is re-derived
//! from the [`Trace`] and the nominal platform by the fold the engine
//! documents, `t ← max(t, avail) + p_j` from `t = now` over the slave's
//! outstanding tasks in send order, where a task's `avail` is
//!
//! | task state at `now` | its `avail` in the fold |
//! |---|---|
//! | received | `send_end` |
//! | in flight | `send_start + c_j` |
//! | computing head | the anchor `compute_start + p_j` (`t = max(anchor, now)`) |
//!
//! and every value must match bit for bit. The runs are at `Clairvoyant`
//! with ±10 % perturbed sizes and link and speed drift and no failures, so
//! busy rows go overdue (the clock passes their anchor before the late
//! event fires) and the view answers them by the fold from `now`. The
//! engine's debug oracle checks the same thing from the inside; CI runs
//! this file in release too, where that oracle is compiled out.

mod support;

use mss_core::{
    Algorithm, Decision, Platform, PlatformEvent, PlatformEventKind, SchedulerEvent, SimConfig,
    SimView, Simulation, SliceSource, TaskArrival, TaskId, Time, Timeline, Trace,
};
use mss_sim::{InfoTier, OnlineScheduler, SlaveId};
use proptest::prelude::*;
use support::{arb_fault_plan, arb_platform, arb_tasks, build_timeline};

/// The heuristics whose decisions read ready estimates or are served by
/// the engine's views: LS (and through it SLJFWC's tail), SRPT and SLJFWC.
const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::ListScheduling,
    Algorithm::Srpt,
    Algorithm::Sljfwc,
];

/// One entry of a recorded run, in the order the scheduler saw it.
enum Entry {
    /// `ready_estimate(slave)` as the view answered it at `now`.
    Read { now: f64, slave: usize, ready: f64 },
    /// A send the wrapped scheduler decided.
    Send { task: TaskId, slave: SlaveId },
}

/// Logs every ready estimate it reads and every send it passes on. With
/// `every_callback` it does not declare itself poll-driven, so it reads
/// at every callback of the run; otherwise it elides what the wrapped
/// heuristic elides.
struct Recorder {
    inner: Box<dyn OnlineScheduler>,
    every_callback: bool,
    log: Vec<Entry>,
}

impl OnlineScheduler for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, view: &SimView<'_>) {
        self.inner.init(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        let now = view.now().as_f64();
        for j in view.slave_ids() {
            let ready = view.ready_estimate(j).as_f64();
            self.log.push(Entry::Read {
                now,
                slave: j.0,
                ready,
            });
        }
        let decision = self.inner.on_event(view, event);
        if let Decision::Send { task, slave } = decision {
            self.log.push(Entry::Send { task, slave });
        }
        decision
    }

    fn poll_driven(&self) -> bool {
        !self.every_callback && self.inner.poll_driven()
    }

    fn min_tier(&self) -> InfoTier {
        self.inner.min_tier()
    }
}

/// Reads of overdue rows, by what their fold from `now` has to replay.
#[derive(Debug, Default)]
struct Overdue {
    /// Overdue reads with received tasks queued behind the head.
    queued: u64,
    /// Overdue reads whose in-flight arrival is later than the fold before
    /// it, so its `max` moves the estimate.
    late_in_flight: u64,
}

/// Re-derives every logged read from `trace` and checks it bit for bit;
/// returns what the overdue reads covered.
fn check_reads(log: &[Entry], trace: &Trace, platform: &Platform) -> Result<Overdue, String> {
    let mut sent: Vec<Vec<TaskId>> = vec![Vec::new(); platform.num_slaves()];
    let mut overdue = Overdue::default();
    for entry in log {
        let (now, slave, ready) = match *entry {
            Entry::Send { task, slave } => {
                sent[slave.0].push(task);
                continue;
            }
            Entry::Read { now, slave, ready } => (now, slave, ready),
        };
        let (c, p) = (platform.c(SlaveId(slave)), platform.p(SlaveId(slave)));
        let mut t = now;
        // Whether the clock has passed the head's anchor: its nominal end
        // when it computes, its nominal arrival when it is in flight.
        let mut late = None;
        let mut queued = 0;
        let mut late_in_flight = false;
        for &task in &sent[slave] {
            let r = trace.record(task);
            if r.compute_end.as_f64() <= now {
                continue; // completed
            }
            if r.compute_start.as_f64() <= now {
                let anchor = r.compute_start.as_f64() + p;
                late = Some(now > anchor);
                t = anchor.max(now);
            } else if r.send_end.as_f64() <= now {
                queued += 1;
                t = t.max(r.send_end.as_f64()) + p;
            } else {
                let avail = r.send_start.as_f64() + c;
                late = late.or(Some(now > avail));
                late_in_flight = avail > t;
                t = t.max(avail) + p;
            }
        }
        if ready.to_bits() != t.to_bits() {
            return Err(format!(
                "slave {slave} at {now}: the view read {ready}, the trace folds to {t}"
            ));
        }
        if late == Some(true) {
            overdue.queued += u64::from(queued > 0);
            overdue.late_in_flight += u64::from(late_in_flight);
        }
    }
    Ok(overdue)
}

/// Runs `algorithm` under a recorder and checks every read; also checks the
/// run's trace equals the unwrapped heuristic's.
fn recorded_run(
    algorithm: Algorithm,
    every_callback: bool,
    platform: &Platform,
    tasks: &[TaskArrival],
    timeline: &Timeline,
) -> Result<Overdue, String> {
    let config = SimConfig::with_horizon(tasks.len());
    let mut recorder = Recorder {
        inner: algorithm.build(),
        every_callback,
        log: Vec::new(),
    };
    let trace = Simulation::new(platform, &config)
        .timeline(timeline)
        .trace(SliceSource::new(tasks), &mut recorder)
        .map_err(|e| format!("{algorithm}: {e}"))?;
    let bare = Simulation::new(platform, &config)
        .timeline(timeline)
        .trace(SliceSource::new(tasks), &mut algorithm.build())
        .map_err(|e| format!("{algorithm}: {e}"))?;
    if trace != bare {
        return Err(format!("{algorithm}: recording changed the run"));
    }
    check_reads(&recorder.log, &trace, platform).map_err(|e| format!("{algorithm}: {e}"))
}

/// A 5-slave stream whose load falls from above the fleet's throughput to
/// below it, every size perturbed by up to ±10 %, one slave's link and two
/// slaves' speeds drifting: the three heuristics read overdue rows that
/// must replay queued tasks, and overdue rows whose in-flight arrival is
/// still ahead (read while the port is busy, so only with every callback
/// delivered).
#[test]
fn every_read_matches_its_fold_and_overdue_rows_are_read() {
    let platform = Platform::from_vectors(&[0.3, 0.6, 0.9, 1.2, 1.5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
    // A fixed linear congruential stream of multipliers in [0.9, 1.1).
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut size = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        0.9 + 0.2 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    // A hundred tasks each 0.4 s, 0.6 s and 0.9 s apart: queues build up,
    // then drain.
    let mut release = 0.0;
    let tasks: Vec<TaskArrival> = [0.4, 0.6, 0.9]
        .into_iter()
        .flat_map(|gap| std::iter::repeat_n(gap, 100))
        .map(|gap| {
            release += gap;
            TaskArrival {
                release: Time::new(release),
                size_c: size(),
                size_p: size(),
            }
        })
        .collect();
    let drift = |time: f64, slave: usize, kind| PlatformEvent {
        time: Time::new(time),
        slave: SlaveId(slave),
        kind,
    };
    let timeline = Timeline::new(vec![
        drift(15.0, 1, PlatformEventKind::SetLinkFactor(1.5)),
        drift(30.0, 2, PlatformEventKind::SetSpeedFactor(1.3)),
        drift(60.0, 4, PlatformEventKind::SetSpeedFactor(2.0)),
        drift(100.0, 1, PlatformEventKind::SetLinkFactor(0.8)),
    ]);
    let mut overdue = Overdue::default();
    for algorithm in ALGORITHMS {
        for every_callback in [false, true] {
            let o = recorded_run(algorithm, every_callback, &platform, &tasks, &timeline)
                .unwrap_or_else(|e| panic!("{e}"));
            overdue.queued += o.queued;
            overdue.late_in_flight += o.late_in_flight;
        }
    }
    assert!(overdue.queued > 0, "{overdue:?}");
    assert!(overdue.late_in_flight > 0, "{overdue:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random platforms and streams with nominal or ±10 % sizes, under
    /// link and speed drift: every read matches its fold, whether the
    /// recorder elides what the heuristic elides or reads every callback.
    #[test]
    fn every_read_matches_its_fold_under_drift(
        platform in arb_platform(),
        plan in arb_fault_plan(1..3),
        tasks in arb_tasks(),
    ) {
        let timeline = build_timeline(&plan, platform.num_slaves());
        for algorithm in ALGORITHMS {
            for every_callback in [false, true] {
                let checked = recorded_run(algorithm, every_callback, &platform, &tasks, &timeline);
                prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
            }
        }
    }
}
