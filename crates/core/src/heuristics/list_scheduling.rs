//! LS — List Scheduling (§4.1, algorithm 2), "the static version of SRPT".
//!
//! > "It uses its knowledge of the system and sends a task as soon as
//! > possible to the slave that would finish it first, according to the
//! > current load estimation (the number of tasks already waiting for
//! > execution on the slave)."
//!
//! LS is eager: whenever the port is idle and a task is pending, it sends it
//! to the slave minimizing the estimated completion time
//! `max(link_free + c_j, ready_j) + p_j`. On fully homogeneous platforms
//! this is the provably optimal FIFO strategy of the paper's introduction
//! (verified against the exhaustive optimum in `mss-opt`'s tests).

use crate::heuristics::util::oldest_pending;
use mss_sim::{Decision, InfoTier, OnlineScheduler, SchedulerEvent, SimView};

/// The List Scheduling heuristic. Stateless.
///
/// Tier-portable: [`SimView::earliest_completion`] minimizes
/// [`SimView::completion_estimate`], which dispatches on the view's
/// information tier, so below `Clairvoyant` LS minimizes the same formula
/// over learned per-slave rates instead of nominal values.
#[derive(Clone, Copy, Debug, Default)]
pub struct ListScheduling;

impl OnlineScheduler for ListScheduling {
    fn name(&self) -> String {
        "LS".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _event: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(task) = oldest_pending(view) else {
            return Decision::Idle;
        };
        Decision::Send {
            task,
            slave: view.earliest_completion(),
        }
    }

    fn poll_driven(&self) -> bool {
        true // stateless; acts only on (idle port, pending task)
    }

    fn min_tier(&self) -> InfoTier {
        InfoTier::NonClairvoyant // the tier-dispatched estimate suffices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig, SlaveId, TaskId};

    #[test]
    fn overlaps_communication_with_computation() {
        // One slave, c=1, p=3: LS pipelines sends; makespan = c + n·p.
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::default(),
            &mut ListScheduling,
        )
        .unwrap();
        assert!((trace.makespan() - (1.0 + 4.0 * 3.0)).abs() < 1e-9);
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn prefers_earliest_finisher() {
        // p = (3, 7), c = 1, two tasks: both go to P1
        // (finish estimates: P1 then P1-queued beats P2).
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(2),
            &SimConfig::default(),
            &mut ListScheduling,
        )
        .unwrap();
        assert_eq!(trace.record(TaskId(0)).slave, SlaveId(0));
        // Task 1: est P1 = max(2·c, c+p1)+p1 = 4+3 = 7; est P2 = 2c+p2 = 9.
        assert_eq!(trace.record(TaskId(1)).slave, SlaveId(0));
        assert!((trace.makespan() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn accounts_for_communication_costs() {
        // Same speeds, very different links: LS must prefer the cheap link.
        let pf = Platform::from_vectors(&[0.1, 5.0], &[1.0, 1.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut ListScheduling,
        )
        .unwrap();
        let counts = trace.counts_per_slave(2);
        assert_eq!(counts[1], 0, "expensive link should be avoided entirely");
    }

    #[test]
    fn beats_srpt_on_homogeneous_platforms() {
        use crate::heuristics::srpt::Srpt;
        let pf = Platform::homogeneous(3, 0.5, 2.0);
        let tasks = bag_of_tasks(30);
        let ls = simulate(&pf, &tasks, &SimConfig::default(), &mut ListScheduling).unwrap();
        let srpt = simulate(&pf, &tasks, &SimConfig::default(), &mut Srpt::new()).unwrap();
        assert!(
            ls.makespan() < srpt.makespan(),
            "LS {} should beat SRPT {} (Figure 1a)",
            ls.makespan(),
            srpt.makespan()
        );
    }
}
