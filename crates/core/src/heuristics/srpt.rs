//! SRPT — the paper's dynamic baseline (§4.1, algorithm 1).
//!
//! > "it sends a task to the fastest free slave; if no slave is currently
//! > free, it waits for the first slave to finish its task, and then sends
//! > it a new one."
//!
//! With identical tasks and no preemption this is all that remains of
//! Shortest Remaining Processing Time. The defining property is that it
//! never queues work on a busy slave: a slave therefore always sits idle
//! while its next task is being transferred, which is why the static
//! heuristics (which overlap communication with computation) beat it —
//! Figure 1(a).

use crate::heuristics::util::oldest_pending;
use mss_sim::{
    Decision, IncrementalArgmin, InfoTier, OnlineScheduler, SchedulerEvent, SimView, SlaveId,
};

/// The SRPT heuristic. Observationally stateless — decisions depend only
/// on the current view — but it carries an [`IncrementalArgmin`] decision
/// kernel, so "fastest free slave" is answered sublinearly in the slave
/// count: SRPT's key (`believed_p` if idle, `+∞` otherwise) is a pure
/// function of journaled per-slave state, exactly what the tournament
/// tree can index. The winner is bit-identical to the historical linear
/// scan at every slave count.
///
/// Tier-portable: "fastest" is read through
/// [`SimView::believed_p`], so below [`InfoTier::Clairvoyant`] SRPT ranks
/// slaves by their learned computation rates (all equal under the prior)
/// and sharpens as completions are observed.
#[derive(Clone, Debug, Default)]
pub struct Srpt {
    kernel: IncrementalArgmin,
}

impl Srpt {
    /// A kernel-backed SRPT (the production configuration).
    pub fn new() -> Self {
        Srpt::default()
    }

    /// Overrides the kernel's small-`m` scan threshold (tests force the
    /// tree on tiny platforms with a threshold of 0, and the linear scan
    /// at any size with `usize::MAX`).
    pub fn with_tree_threshold(mut self, threshold: usize) -> Self {
        self.kernel = IncrementalArgmin::new().with_threshold(threshold);
        self
    }
}

impl OnlineScheduler for Srpt {
    fn name(&self) -> String {
        "SRPT".into()
    }

    fn init(&mut self, _view: &SimView<'_>) {
        // The kernel also detects run changes by journal nonce; the
        // explicit drop just makes reuse across harnesses airtight.
        self.kernel.invalidate();
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(task) = oldest_pending(view) else {
            return Decision::Idle;
        };
        // Fastest *free* slave; a slave is free when it has no outstanding
        // work at all (not computing, nothing queued, nothing in flight).
        // Allocation-free kernel query (ties go to the lowest index); when
        // no slave is free, wait for the next completion event — the engine
        // will call again.
        let slave = self.kernel.argmin(view, |j| {
            let j = SlaveId(j);
            if view.slave_idle(j) {
                view.believed_p(j)
            } else {
                f64::INFINITY
            }
        });
        if view.slave_idle(slave) {
            Decision::Send { task, slave }
        } else {
            Decision::Idle
        }
    }

    fn poll_driven(&self) -> bool {
        true // acts only on (idle port, pending task); kernel sync happens
             // after those guards, so elided callbacks observe no state change
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant // lives on believed values at any tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig, SlaveId, TaskId};

    #[test]
    fn sends_to_fastest_free_slave_first() {
        // p = (3, 7): the first task must go to P1, the second to P2
        // (P1 is busy by then), the third waits for P1 to finish.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Srpt::new(),
        )
        .unwrap();
        assert!(validate(&trace, &pf).is_empty());
        assert_eq!(trace.record(TaskId(0)).slave, SlaveId(0));
        assert_eq!(trace.record(TaskId(1)).slave, SlaveId(1));
        // Task 2: P1 finishes its first task at 1+3=4, so the send starts at 4.
        let r2 = trace.record(TaskId(2));
        assert_eq!(r2.slave, SlaveId(0));
        assert_eq!(r2.send_start.as_f64(), 4.0);
    }

    #[test]
    fn never_queues_on_busy_slaves() {
        let pf = Platform::from_vectors(&[0.5, 0.5, 0.5], &[2.0, 2.0, 2.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(9),
            &SimConfig::default(),
            &mut Srpt::new(),
        )
        .unwrap();
        // Each task's compute starts exactly when its send ends: the target
        // slave was idle when the send started (0.5s earlier) and stays idle.
        for r in trace.records() {
            assert_eq!(
                r.compute_start, r.send_end,
                "SRPT target slave must be idle on receipt"
            );
        }
    }

    #[test]
    fn no_overlap_penalty_visible_in_makespan() {
        // One slave: SRPT serializes c+p per task: makespan = n(c+p).
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::default(),
            &mut Srpt::new(),
        )
        .unwrap();
        assert!((trace.makespan() - 4.0 * 4.0).abs() < 1e-9);
    }
}
