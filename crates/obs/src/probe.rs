//! The [`Probe`] trait: the engine's instrumentation boundary.
//!
//! The simulator is generic over a `P: Probe` and invokes a hook at every
//! engine boundary. All hooks have empty default bodies, so the default
//! [`NoopProbe`] monomorphizes to *nothing* — the instrumented engine with
//! probes disabled is instruction-for-instruction the uninstrumented one,
//! which is how the zero-allocation contract and the artifact byte-identity
//! hold verbatim (see `docs/ARCHITECTURE.md`, contract #11).
//!
//! Hooks deliberately speak in raw `usize`/`f64` so this crate depends on
//! nothing: `task`/`slave` are the engine's dense indices (`TaskId.0`,
//! `SlaveId.0`) and `now` is simulation seconds.

/// Engine instrumentation hooks. Every method defaults to a no-op; a probe
/// overrides only what it wants to observe. Probes are observers **only**:
/// the engine's behavior must be independent of what a probe does (the
/// purity half of contract #11), which holds structurally because no hook
/// returns anything the engine reads.
///
/// # Examples
/// ```
/// use mss_obs::Probe;
///
/// /// Counts completed computations.
/// #[derive(Default)]
/// struct Completions(u64);
///
/// impl Probe for Completions {
///     fn compute_complete(&mut self, _now: f64, _task: usize, _slave: usize) {
///         self.0 += 1;
///     }
/// }
///
/// let mut p = Completions::default();
/// // The engine drives the hooks; shown here by hand:
/// p.compute_start(0.5, 0, 1);
/// p.compute_complete(2.0, 0, 1);
/// assert_eq!(p.0, 1);
/// ```
#[allow(unused_variables)]
pub trait Probe {
    /// `task` was released: its arrival event dispatched and the task
    /// entered the master's pending queue. Fires for initial releases and
    /// never for failure re-releases (those fire [`task_lost`]).
    ///
    /// [`task_lost`]: Probe::task_lost
    fn task_released(&mut self, now: f64, task: usize) {}
    /// A send of `task` towards `slave` started occupying the port.
    fn send_start(&mut self, now: f64, task: usize, slave: usize) {}
    /// The send of `task` to `slave` released the port; every
    /// [`send_start`](Probe::send_start) ends here exactly once. `delivered`
    /// is `false` when the task arrived at a failed slave and was lost (it
    /// re-enters the master's pending queue), or when `slave` failed while
    /// the task was in flight: that send ends before
    /// [`slave_failed`](Probe::slave_failed), and [`task_lost`] follows.
    ///
    /// [`task_lost`]: Probe::task_lost
    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {}
    /// `slave` started computing `task`.
    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {}
    /// `slave` finished computing `task`.
    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {}
    /// A scheduler callback is about to be delivered.
    fn callback(&mut self, now: f64) {}
    /// A scheduler callback was elided under the `poll_driven` contract
    /// (the scheduler promised to answer `Idle` with no state change).
    fn callback_elided(&mut self, now: f64) {}
    /// The cached view of `slave` was brought up to date after an event
    /// touched it. Its ready estimate is kept across on-time events and
    /// refolded from scratch only after off-time ones (see
    /// [`view_refolded`](Probe::view_refolded)); a row whose anchor the
    /// clock has passed is answered by the view, not recomputed. Fires the
    /// same way in debug and release builds: views are refreshed only for
    /// delivered callbacks.
    fn view_recompute(&mut self, now: f64, slave: usize) {}
    /// The view of `slave` just recomputed could not keep its cached ready
    /// estimate and folded the slave's whole queue: an arrival or completion
    /// billed away from its predicted instant changed the queue. Only
    /// perturbed sizes and drift cause that, so it never fires on
    /// nominal-size, drift-free runs.
    fn view_refolded(&mut self, now: f64, slave: usize) {}
    /// A learned rate estimate of `slave` absorbed an observation
    /// (sub-clairvoyant information tiers only).
    fn estimator_update(&mut self, now: f64, slave: usize) {}
    /// `slave` failed.
    fn slave_failed(&mut self, now: f64, slave: usize) {}
    /// `slave` recovered (restarts empty).
    fn slave_recovered(&mut self, now: f64, slave: usize) {}
    /// `task` was lost to the failure of `slave` (queued, computing, or in
    /// flight) and re-released to the master's pending queue.
    fn task_lost(&mut self, now: f64, task: usize, slave: usize) {}
    /// The run aborted: the step budget of `max_steps` was exhausted after
    /// `steps` charged steps.
    fn budget_abort(&mut self, now: f64, steps: u64) {}
    /// The scheduler answered a (non-elided) callback. The decision is
    /// flattened into the dependency-free encoding `(tag, a, b)`:
    ///
    /// | decision    | `tag` | `a`    | `b`              |
    /// |-------------|-------|--------|------------------|
    /// | `Idle`      | 0     | 0      | 0                |
    /// | `Send`      | 1     | task   | slave            |
    /// | `WakeAt(t)` | 2     | 0      | `t.to_bits()`    |
    ///
    /// An elided callback has no answer and reports none. Fires
    /// identically in debug and release builds, so decision streams (and
    /// digests of them) are build-invariant.
    fn decision(&mut self, now: f64, tag: u8, a: usize, b: u64) {}
}

/// The default probe: observes nothing, compiles to nothing.
///
/// A unit struct using every default hook body — after monomorphization the
/// probed engine contains no trace of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Probes compose: `(A, B)` forwards every hook to both members, so e.g. a
/// counter and a trace recorder can observe one run together.
impl<A: Probe, B: Probe> Probe for (A, B) {
    fn task_released(&mut self, now: f64, task: usize) {
        self.0.task_released(now, task);
        self.1.task_released(now, task);
    }
    fn send_start(&mut self, now: f64, task: usize, slave: usize) {
        self.0.send_start(now, task, slave);
        self.1.send_start(now, task, slave);
    }
    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {
        self.0.send_complete(now, task, slave, delivered);
        self.1.send_complete(now, task, slave, delivered);
    }
    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {
        self.0.compute_start(now, task, slave);
        self.1.compute_start(now, task, slave);
    }
    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {
        self.0.compute_complete(now, task, slave);
        self.1.compute_complete(now, task, slave);
    }
    fn callback(&mut self, now: f64) {
        self.0.callback(now);
        self.1.callback(now);
    }
    fn callback_elided(&mut self, now: f64) {
        self.0.callback_elided(now);
        self.1.callback_elided(now);
    }
    fn view_recompute(&mut self, now: f64, slave: usize) {
        self.0.view_recompute(now, slave);
        self.1.view_recompute(now, slave);
    }
    fn view_refolded(&mut self, now: f64, slave: usize) {
        self.0.view_refolded(now, slave);
        self.1.view_refolded(now, slave);
    }
    fn estimator_update(&mut self, now: f64, slave: usize) {
        self.0.estimator_update(now, slave);
        self.1.estimator_update(now, slave);
    }
    fn slave_failed(&mut self, now: f64, slave: usize) {
        self.0.slave_failed(now, slave);
        self.1.slave_failed(now, slave);
    }
    fn slave_recovered(&mut self, now: f64, slave: usize) {
        self.0.slave_recovered(now, slave);
        self.1.slave_recovered(now, slave);
    }
    fn task_lost(&mut self, now: f64, task: usize, slave: usize) {
        self.0.task_lost(now, task, slave);
        self.1.task_lost(now, task, slave);
    }
    fn budget_abort(&mut self, now: f64, steps: u64) {
        self.0.budget_abort(now, steps);
        self.1.budget_abort(now, steps);
    }
    fn decision(&mut self, now: f64, tag: u8, a: usize, b: u64) {
        self.0.decision(now, tag, a, b);
        self.1.decision(now, tag, a, b);
    }
}

/// A mutable reference is itself a probe (forwards to the referent), so a
/// caller can keep ownership while handing the engine `&mut probe`.
impl<P: Probe> Probe for &mut P {
    fn task_released(&mut self, now: f64, task: usize) {
        (**self).task_released(now, task);
    }
    fn send_start(&mut self, now: f64, task: usize, slave: usize) {
        (**self).send_start(now, task, slave);
    }
    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {
        (**self).send_complete(now, task, slave, delivered);
    }
    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {
        (**self).compute_start(now, task, slave);
    }
    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {
        (**self).compute_complete(now, task, slave);
    }
    fn callback(&mut self, now: f64) {
        (**self).callback(now);
    }
    fn callback_elided(&mut self, now: f64) {
        (**self).callback_elided(now);
    }
    fn view_recompute(&mut self, now: f64, slave: usize) {
        (**self).view_recompute(now, slave);
    }
    fn view_refolded(&mut self, now: f64, slave: usize) {
        (**self).view_refolded(now, slave);
    }
    fn estimator_update(&mut self, now: f64, slave: usize) {
        (**self).estimator_update(now, slave);
    }
    fn slave_failed(&mut self, now: f64, slave: usize) {
        (**self).slave_failed(now, slave);
    }
    fn slave_recovered(&mut self, now: f64, slave: usize) {
        (**self).slave_recovered(now, slave);
    }
    fn task_lost(&mut self, now: f64, task: usize, slave: usize) {
        (**self).task_lost(now, task, slave);
    }
    fn budget_abort(&mut self, now: f64, steps: u64) {
        (**self).budget_abort(now, steps);
    }
    fn decision(&mut self, now: f64, tag: u8, a: usize, b: u64) {
        (**self).decision(now, tag, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountAll(u64);
    impl Probe for CountAll {
        fn send_start(&mut self, _now: f64, _task: usize, _slave: usize) {
            self.0 += 1;
        }
        fn callback(&mut self, _now: f64) {
            self.0 += 1;
        }
    }

    #[test]
    fn noop_probe_accepts_every_hook() {
        let mut p = NoopProbe;
        p.task_released(0.0, 0);
        p.send_start(0.0, 0, 0);
        p.send_complete(1.0, 0, 0, true);
        p.compute_start(1.0, 0, 0);
        p.compute_complete(2.0, 0, 0);
        p.callback(2.0);
        p.callback_elided(2.0);
        p.view_recompute(2.0, 0);
        p.view_refolded(2.0, 0);
        p.estimator_update(2.0, 0);
        p.slave_failed(3.0, 0);
        p.slave_recovered(4.0, 0);
        p.task_lost(3.0, 0, 0);
        p.budget_abort(5.0, 100);
        p.decision(5.0, 1, 0, 0);
    }

    #[test]
    fn tuple_probe_forwards_to_both() {
        let mut pair = (CountAll::default(), CountAll::default());
        pair.send_start(0.0, 1, 2);
        pair.callback(1.0);
        pair.compute_start(1.0, 1, 2); // default: counted by neither
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
    }

    #[test]
    fn mut_ref_probe_forwards() {
        let mut p = CountAll::default();
        {
            let r = &mut (&mut p);
            r.send_start(0.0, 0, 0);
            r.callback(0.0);
        }
        assert_eq!(p.0, 2);
    }
}
