//! Per-run event counters: a [`Probe`] that tallies every engine boundary.

use crate::probe::Probe;

/// Event counts of one (or several merged) simulation runs.
///
/// A plain field-per-kind tally — incrementing is a single add, so counting
/// a run costs a few percent, not a reshape of the hot path. Counters from
/// per-worker probes [`merge`](RunCounters::merge) associatively, so
/// parallel sweeps aggregate thread-locally and combine at join without
/// ordering sensitivity.
///
/// # Examples
/// ```
/// use mss_obs::{Probe, RunCounters};
///
/// let mut c = RunCounters::default();
/// // The engine drives the hooks; shown here by hand:
/// c.send_start(0.0, 0, 1);
/// c.send_complete(0.3, 0, 1, true);
/// c.compute_start(0.3, 0, 1);
/// c.compute_complete(1.3, 0, 1);
/// c.callback(1.3);
/// c.callback_elided(1.3);
/// assert_eq!(c.sends_started, 1);
/// assert_eq!(c.events(), 4);
/// assert_eq!(c.elided_callback_ratio(), 0.5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Sends that started occupying the port.
    pub sends_started: u64,
    /// Sends that released the port with the task delivered.
    pub sends_delivered: u64,
    /// Sends that released the port undelivered: lost on arrival at a
    /// failed slave, or aborted in flight when their slave failed.
    pub sends_lost: u64,
    /// Computations started.
    pub computes_started: u64,
    /// Computations completed.
    pub computes_completed: u64,
    /// Scheduler callbacks delivered.
    pub callbacks: u64,
    /// Scheduler callbacks elided under the `poll_driven` contract.
    pub callbacks_elided: u64,
    /// Cached slave views brought up to date (one per touched view at a
    /// refresh; most keep their cached ready estimate).
    pub view_recomputes: u64,
    /// Recomputed views that folded the slave's whole queue because an
    /// off-time event moved their estimate (perturbed sizes or drift
    /// only).
    pub view_refolds: u64,
    /// Learned-estimate observations absorbed (sub-clairvoyant tiers only).
    pub estimator_updates: u64,
    /// Slave failures applied.
    pub failures: u64,
    /// Slave recoveries applied.
    pub recoveries: u64,
    /// Tasks lost to failures and re-released.
    pub tasks_lost: u64,
    /// Runs aborted on an exhausted step budget.
    pub budget_aborts: u64,
}

impl RunCounters {
    /// A zeroed tally.
    pub fn new() -> Self {
        RunCounters::default()
    }

    /// Total *engine events* counted: sends and computes at both boundaries,
    /// plus platform failures/recoveries. (Callbacks, view recomputes and
    /// estimator updates are engine *work*, not events, and are excluded.)
    pub fn events(&self) -> u64 {
        self.sends_started
            + self.sends_delivered
            + self.sends_lost
            + self.computes_started
            + self.computes_completed
            + self.failures
            + self.recoveries
    }

    /// Fraction of scheduler callbacks the `poll_driven` contract elided:
    /// `elided / (delivered + elided)`, `0.0` when no callbacks occurred.
    pub fn elided_callback_ratio(&self) -> f64 {
        let total = self.callbacks + self.callbacks_elided;
        if total == 0 {
            0.0
        } else {
            self.callbacks_elided as f64 / total as f64
        }
    }

    /// Adds another tally into this one (associative and commutative — the
    /// merge order of per-worker counters cannot change the total).
    pub fn merge(&mut self, other: &RunCounters) {
        self.sends_started += other.sends_started;
        self.sends_delivered += other.sends_delivered;
        self.sends_lost += other.sends_lost;
        self.computes_started += other.computes_started;
        self.computes_completed += other.computes_completed;
        self.callbacks += other.callbacks;
        self.callbacks_elided += other.callbacks_elided;
        self.view_recomputes += other.view_recomputes;
        self.view_refolds += other.view_refolds;
        self.estimator_updates += other.estimator_updates;
        self.failures += other.failures;
        self.recoveries += other.recoveries;
        self.tasks_lost += other.tasks_lost;
        self.budget_aborts += other.budget_aborts;
    }
}

impl Probe for RunCounters {
    fn send_start(&mut self, _now: f64, _task: usize, _slave: usize) {
        self.sends_started += 1;
    }
    fn send_complete(&mut self, _now: f64, _task: usize, _slave: usize, delivered: bool) {
        if delivered {
            self.sends_delivered += 1;
        } else {
            self.sends_lost += 1;
        }
    }
    fn compute_start(&mut self, _now: f64, _task: usize, _slave: usize) {
        self.computes_started += 1;
    }
    fn compute_complete(&mut self, _now: f64, _task: usize, _slave: usize) {
        self.computes_completed += 1;
    }
    fn callback(&mut self, _now: f64) {
        self.callbacks += 1;
    }
    fn callback_elided(&mut self, _now: f64) {
        self.callbacks_elided += 1;
    }
    fn view_recompute(&mut self, _now: f64, _slave: usize) {
        self.view_recomputes += 1;
    }
    fn view_refolded(&mut self, _now: f64, _slave: usize) {
        self.view_refolds += 1;
    }
    fn estimator_update(&mut self, _now: f64, _slave: usize) {
        self.estimator_updates += 1;
    }
    fn slave_failed(&mut self, _now: f64, _slave: usize) {
        self.failures += 1;
    }
    fn slave_recovered(&mut self, _now: f64, _slave: usize) {
        self.recoveries += 1;
    }
    fn task_lost(&mut self, _now: f64, _task: usize, _slave: usize) {
        self.tasks_lost += 1;
    }
    fn budget_abort(&mut self, _now: f64, _steps: u64) {
        self.budget_aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ratios() {
        let mut c = RunCounters::new();
        c.send_start(0.0, 0, 0);
        c.send_complete(1.0, 0, 0, true);
        c.send_start(1.0, 1, 1);
        c.send_complete(2.0, 1, 1, false);
        c.compute_start(1.0, 0, 0);
        c.compute_complete(3.0, 0, 0);
        c.callback(1.0);
        c.callback(2.0);
        c.callback_elided(3.0);
        c.slave_failed(2.0, 1);
        c.task_lost(2.0, 1, 1);
        c.slave_recovered(4.0, 1);
        assert_eq!(c.sends_started, 2);
        assert_eq!(c.sends_delivered, 1);
        assert_eq!(c.sends_lost, 1);
        assert_eq!(c.events(), 2 + 1 + 1 + 1 + 1 + 1 + 1);
        assert!((c.elided_callback_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut a = RunCounters::new();
        a.callback(0.0);
        a.send_start(0.0, 0, 0);
        let mut b = RunCounters::new();
        b.callback_elided(0.0);
        b.view_recompute(0.0, 2);
        b.view_refolded(0.0, 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.callbacks, 1);
        assert_eq!(ab.callbacks_elided, 1);
        assert_eq!(ab.view_recomputes, 1);
        assert_eq!(ab.view_refolds, 1);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(RunCounters::new().elided_callback_ratio(), 0.0);
    }
}
