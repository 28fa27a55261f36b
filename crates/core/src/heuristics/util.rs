//! Small shared helpers for heuristic implementations.

use mss_sim::SimView;

/// The oldest pending task (FIFO by release then id), if any.
pub(crate) fn oldest_pending(view: &SimView<'_>) -> Option<mss_sim::TaskId> {
    view.pending_tasks().first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{
        bag_of_tasks, simulate, Decision, OnlineScheduler, Platform, SchedulerEvent, SimConfig,
        SimView, SlaveId, TaskId,
    };

    /// Exercises the helper from inside a scheduler callback.
    struct HelperProbe;

    impl OnlineScheduler for HelperProbe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            match (view.link_idle(), oldest_pending(view)) {
                (true, Some(task)) => {
                    assert_eq!(Some(&task), view.pending_tasks().first(), "FIFO head");
                    Decision::Send {
                        task,
                        slave: SlaveId(0),
                    }
                }
                _ => Decision::Idle,
            }
        }
    }

    #[test]
    fn helpers_pick_expected_slaves() {
        let pf = Platform::from_vectors(&[2.0, 1.0], &[3.0, 7.0]);
        let trace = simulate(
            &pf,
            &bag_of_tasks(2),
            &SimConfig::default(),
            &mut HelperProbe,
        )
        .expect("probe completes");
        assert_eq!(trace.counts_per_slave(2), vec![2, 0]);
        assert!(trace.record(TaskId(0)).send_start < trace.record(TaskId(1)).send_start);
    }
}
