//! [`MetricsProbe`]: distributional run telemetry from the probe seam.
//!
//! The paper's objectives (makespan, max-flow) are *extremes* of per-task
//! flow times; this probe records the whole distribution plus where each
//! slave's wall-clock went, using only the existing [`Probe`] hooks — the
//! unprobed engine is untouched, so the zero-allocation and byte-identity
//! contracts keep holding verbatim.
//!
//! Everything that crosses a nondeterministic merge boundary (worker
//! threads finishing in arbitrary order) is a [`Histogram`] — exactly
//! mergeable, see [`crate::hist`]. Per-run floating-point accumulators
//! (utilization seconds, queue-depth integral) stay inside one run, which
//! is single-threaded and deterministic; merging *runs* is the caller's
//! job and must happen in a deterministic order (the sweep merges in cell
//! index order).
//!
//! # What is measured
//!
//! * **Per-task durations**, each one histogram sample at task
//!   completion: `flow` (release → compute done), `wait` (release → last
//!   send start), `transfer` (last send start → delivery), `compute`
//!   (compute start → done).
//! * **Per-slave utilization seconds**, a piecewise-constant partition of
//!   the run: `busy` (computing), `blocked` (not computing while the
//!   master's one port is occupied — the paper's contention term), `idle`
//!   (the rest; downtime counts as idle). A separate `recv` track records
//!   seconds the port spent sending *to this slave* (overlaps `busy` of
//!   others, so it is not part of the partition).
//! * **Master queue depth**, time-weighted: `∫ depth dt` plus the max.
//!   Depth rises at release and failure re-release, falls at send start.

use crate::hist::Histogram;
use crate::probe::Probe;

/// The four per-task duration histograms of a run (or of many merged
/// runs). Merging is exact and order-insensitive, so worker threads can
/// fold these in completion order without breaking determinism.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunHistograms {
    /// Release → compute completion.
    pub flow: Histogram,
    /// Release → last send start (master queue wait).
    pub wait: Histogram,
    /// Last send start → delivery (port occupancy per delivered task).
    pub transfer: Histogram,
    /// Compute start → completion.
    pub compute: Histogram,
}

impl RunHistograms {
    /// Merges another set into this one (exact, associative,
    /// commutative).
    pub fn merge(&mut self, other: &RunHistograms) {
        self.flow.merge(&other.flow);
        self.wait.merge(&other.wait);
        self.transfer.merge(&other.transfer);
        self.compute.merge(&other.compute);
    }

    /// True if no samples were recorded in any histogram.
    pub fn is_empty(&self) -> bool {
        self.flow.is_empty()
            && self.wait.is_empty()
            && self.transfer.is_empty()
            && self.compute.is_empty()
    }

    /// Clears all four histograms in place, keeping their allocations.
    pub fn clear(&mut self) {
        self.flow.clear();
        self.wait.clear();
        self.transfer.clear();
        self.compute.clear();
    }
}

/// The finished telemetry of one run, produced by
/// [`MetricsProbe::finish`].
///
/// Per-slave vectors are indexed by the engine's dense slave index. The
/// floating-point fields are exact for a single run; merging several
/// `RunMetrics` adds `f64`s and is therefore only deterministic if the
/// caller merges in a deterministic order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Completed tasks (flow histogram samples).
    pub tasks: u64,
    /// Accounted duration: the `end` passed to [`MetricsProbe::finish`].
    pub duration: f64,
    /// Per-task duration histograms.
    pub hists: RunHistograms,
    /// Seconds each slave spent computing.
    pub busy_secs: Vec<f64>,
    /// Seconds each slave spent not computing while the port was busy.
    pub blocked_secs: Vec<f64>,
    /// Seconds each slave spent neither computing nor port-blocked.
    pub idle_secs: Vec<f64>,
    /// Seconds the port spent sending to each slave (not a partition).
    pub recv_secs: Vec<f64>,
    /// Time-weighted master queue depth: `∫ depth dt`.
    pub queue_depth_secs: f64,
    /// Maximum master queue depth observed.
    pub queue_max: u64,
}

impl RunMetrics {
    /// Time-weighted mean master queue depth over the run.
    pub fn queue_mean(&self) -> f64 {
        if self.duration > 0.0 {
            self.queue_depth_secs / self.duration
        } else {
            0.0
        }
    }

    /// Busy fraction of slave `j` in `[0, 1]`.
    pub fn busy_fraction(&self, j: usize) -> f64 {
        fraction(self.busy_secs.get(j).copied().unwrap_or(0.0), self.duration)
    }

    /// Merges another run's metrics into this one. Histogram and integer
    /// parts are exact; `f64` sums make the result order-sensitive, so
    /// callers must merge in a deterministic order (e.g. cell index
    /// order) to preserve the thread-count-independence contract.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.tasks += other.tasks;
        self.duration += other.duration;
        self.hists.merge(&other.hists);
        add_secs(&mut self.busy_secs, &other.busy_secs);
        add_secs(&mut self.blocked_secs, &other.blocked_secs);
        add_secs(&mut self.idle_secs, &other.idle_secs);
        add_secs(&mut self.recv_secs, &other.recv_secs);
        self.queue_depth_secs += other.queue_depth_secs;
        self.queue_max = self.queue_max.max(other.queue_max);
    }
}

/// `num / den` clamped into `[0, 1]` (guards the partition's float dust).
pub fn fraction(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        (num / den).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

fn add_secs(into: &mut Vec<f64>, from: &[f64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0.0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += *b;
    }
}

/// Sentinel for "timestamp not recorded".
const UNSET: f64 = f64::NEG_INFINITY;

/// Minimum finalized prefix before the per-task window compacts (matches
/// the engine's own slot-recycling threshold; keeps compaction amortized
/// O(1) without shuffling tiny runs).
const COMPACT_MIN: usize = 64;

/// A probe deriving [`RunMetrics`] from one engine run.
///
/// Reusable across runs via [`reset`](Self::reset) (allocations are
/// retained, the sweep's batch workers keep one per thread). Attach for a
/// full run: the accounting assumes it sees every hook from time zero.
#[derive(Clone, Debug, Default)]
pub struct MetricsProbe {
    hists: RunHistograms,
    /// Per-task release / last-send-start / last-compute-start times.
    /// These are a *window*: slot `i` belongs to task `base + i`, and
    /// finalized slots are recycled so streamed million-task runs never
    /// build a full task table (the probe contract does not assume one).
    released: Vec<f64>,
    sent_at: Vec<f64>,
    started_at: Vec<f64>,
    /// Which window slots are finalized (eligible for recycling). Lost
    /// tasks stay live — they will be re-released and complete later.
    done: Vec<bool>,
    /// Task id of window slot 0.
    base: usize,
    /// Cached length of the finalized prefix (amortizes the compaction
    /// scan).
    dead_prefix: usize,
    /// High-water mark of the window length across the run.
    peak_slots: usize,
    /// Per-slave state and accumulators.
    computing: Vec<bool>,
    /// Down between `slave_failed` and `slave_recovered`.
    down: Vec<bool>,
    busy: Vec<f64>,
    blocked: Vec<f64>,
    idle: Vec<f64>,
    recv: Vec<f64>,
    /// Slave the port is currently sending to (`usize::MAX` = port free).
    port_to: usize,
    /// Master queue depth accounting.
    depth: u64,
    depth_max: u64,
    depth_secs: f64,
    /// Last accounting instant.
    last: f64,
    tasks: u64,
}

impl MetricsProbe {
    /// A fresh probe.
    pub fn new() -> Self {
        Self {
            port_to: usize::MAX,
            ..Self::default()
        }
    }

    /// Declares the platform size up front so time is attributed to every
    /// slave from t=0, not from its first hook. Call after
    /// [`reset`](Self::reset), before the run; harmless to skip for
    /// slaves that end up touched by an early hook anyway.
    pub fn preallocate(&mut self, slaves: usize) {
        if slaves > 0 {
            self.ensure_slave(slaves - 1);
        }
    }

    /// Clears all state for the next run, keeping allocations.
    pub fn reset(&mut self) {
        self.hists.clear();
        self.released.clear();
        self.sent_at.clear();
        self.started_at.clear();
        self.done.clear();
        self.base = 0;
        self.dead_prefix = 0;
        self.peak_slots = 0;
        self.computing.clear();
        self.down.clear();
        self.busy.clear();
        self.blocked.clear();
        self.idle.clear();
        self.recv.clear();
        self.port_to = usize::MAX;
        self.depth = 0;
        self.depth_max = 0;
        self.depth_secs = 0.0;
        self.last = 0.0;
        self.tasks = 0;
    }

    /// Closes the accounting at `end` (normally the run's makespan) and
    /// returns the finished metrics. The probe itself is left ready for
    /// [`reset`](Self::reset).
    pub fn finish(&mut self, end: f64) -> RunMetrics {
        self.advance(end);
        RunMetrics {
            tasks: self.tasks,
            duration: end.max(0.0),
            hists: self.hists.clone(),
            busy_secs: self.busy.clone(),
            blocked_secs: self.blocked.clone(),
            idle_secs: self.idle.clone(),
            recv_secs: self.recv.clone(),
            queue_depth_secs: self.depth_secs,
            queue_max: self.depth_max,
        }
    }

    /// Attributes the interval since the last hook to the current state.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last;
        if dt > 0.0 {
            let port_busy = self.port_to != usize::MAX;
            for j in 0..self.computing.len() {
                if self.computing[j] {
                    self.busy[j] += dt;
                } else if port_busy {
                    self.blocked[j] += dt;
                } else {
                    self.idle[j] += dt;
                }
            }
            if port_busy {
                if let Some(r) = self.recv.get_mut(self.port_to) {
                    *r += dt;
                }
            }
            self.depth_secs += self.depth as f64 * dt;
            self.last = now;
        }
    }

    /// Window slot of task `t` (hooks never reference recycled tasks: only
    /// finalized slots are recycled, and a finalized task emits no further
    /// hooks).
    fn slot(&self, t: usize) -> usize {
        debug_assert!(t >= self.base, "hook for a recycled task slot");
        t - self.base
    }

    /// High-water mark of live per-task window slots across the run — the
    /// quantity the bounded-memory contract caps at O(slaves +
    /// outstanding) for streamed runs.
    pub fn peak_task_slots(&self) -> usize {
        self.peak_slots
    }

    fn ensure_task(&mut self, t: usize) {
        let slot = self.slot(t);
        if self.released.len() <= slot {
            let n = slot + 1;
            self.released.resize(n, UNSET);
            self.sent_at.resize(n, UNSET);
            self.started_at.resize(n, UNSET);
            self.done.resize(n, false);
            self.peak_slots = self.peak_slots.max(n);
        }
    }

    /// Recycles the finalized window prefix once it dominates the live
    /// tail (same policy as the engine's task-slot window).
    fn recycle(&mut self) {
        while self.dead_prefix < self.done.len() && self.done[self.dead_prefix] {
            self.dead_prefix += 1;
        }
        let dead = self.dead_prefix;
        let live = self.done.len() - dead;
        if dead >= COMPACT_MIN && dead >= live {
            self.released.drain(..dead);
            self.sent_at.drain(..dead);
            self.started_at.drain(..dead);
            self.done.drain(..dead);
            self.base += dead;
            self.dead_prefix = 0;
        }
    }

    fn ensure_slave(&mut self, j: usize) {
        if self.computing.len() <= j {
            let n = j + 1;
            self.computing.resize(n, false);
            self.down.resize(n, false);
            self.busy.resize(n, 0.0);
            self.blocked.resize(n, 0.0);
            self.idle.resize(n, 0.0);
            self.recv.resize(n, 0.0);
        }
    }

    fn bump_depth(&mut self) {
        self.depth += 1;
        self.depth_max = self.depth_max.max(self.depth);
    }
}

impl Probe for MetricsProbe {
    fn task_released(&mut self, now: f64, task: usize) {
        self.advance(now);
        self.ensure_task(task);
        let slot = self.slot(task);
        self.released[slot] = now;
        self.bump_depth();
    }

    fn send_start(&mut self, now: f64, task: usize, slave: usize) {
        self.advance(now);
        self.ensure_task(task);
        self.ensure_slave(slave);
        let slot = self.slot(task);
        self.sent_at[slot] = now;
        self.port_to = slave;
        self.depth = self.depth.saturating_sub(1);
    }

    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {
        self.advance(now);
        self.ensure_slave(slave);
        self.port_to = usize::MAX;
        if delivered {
            self.ensure_task(task);
            let sent = self.sent_at[self.slot(task)];
            if sent != UNSET {
                self.hists.transfer.observe(now - sent);
            }
        } else if self.down[slave] {
            // Lost on arrival at a slave already down: the task re-enters
            // the master's pending queue with no `task_lost`. A send
            // aborted by its slave's failure ends before `slave_failed`,
            // and the `task_lost` that follows counts it back.
            self.bump_depth();
        }
    }

    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {
        self.advance(now);
        self.ensure_task(task);
        self.ensure_slave(slave);
        let slot = self.slot(task);
        self.started_at[slot] = now;
        self.computing[slave] = true;
    }

    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {
        self.advance(now);
        self.ensure_task(task);
        self.ensure_slave(slave);
        self.computing[slave] = false;
        // Read the slot before finalizing it — recycling may shift it.
        let slot = self.slot(task);
        let (rel, sent, started) = (
            self.released[slot],
            self.sent_at[slot],
            self.started_at[slot],
        );
        if started != UNSET {
            self.hists.compute.observe(now - started);
        }
        if rel != UNSET {
            self.hists.flow.observe(now - rel);
            if sent != UNSET {
                self.hists.wait.observe(sent - rel);
            }
        }
        self.tasks += 1;
        self.done[slot] = true;
        self.recycle();
    }

    fn slave_failed(&mut self, now: f64, slave: usize) {
        self.advance(now);
        self.ensure_slave(slave);
        self.computing[slave] = false;
        self.down[slave] = true;
    }

    fn task_lost(&mut self, now: f64, task: usize, _slave: usize) {
        self.advance(now);
        self.ensure_task(task);
        // The task re-enters the master's pending queue.
        self.bump_depth();
    }

    fn slave_recovered(&mut self, now: f64, slave: usize) {
        self.advance(now);
        self.ensure_slave(slave);
        self.down[slave] = false;
    }

    fn budget_abort(&mut self, now: f64, _steps: u64) {
        self.advance(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the probe through a two-slave scenario by hand:
    ///
    /// ```text
    /// t=0   release task 0, task 1
    /// t=0   send 0 → slave 0      (1s transfer)
    /// t=1   compute 0 on slave 0  (3s)
    /// t=1   send 1 → slave 1      (2s transfer)
    /// t=3   compute 1 on slave 1  (1s)
    /// t=4   both complete
    /// ```
    fn scripted() -> (MetricsProbe, RunMetrics) {
        let mut p = MetricsProbe::new();
        p.preallocate(2);
        p.task_released(0.0, 0);
        p.task_released(0.0, 1);
        p.send_start(0.0, 0, 0);
        p.send_complete(1.0, 0, 0, true);
        p.compute_start(1.0, 0, 0);
        p.send_start(1.0, 1, 1);
        p.send_complete(3.0, 1, 1, true);
        p.compute_start(3.0, 1, 1);
        p.compute_complete(4.0, 0, 0);
        p.compute_complete(4.0, 1, 1);
        let m = p.finish(4.0);
        (p, m)
    }

    #[test]
    fn flow_wait_transfer_compute_are_recorded() {
        let (_, m) = scripted();
        assert_eq!(m.tasks, 2);
        assert_eq!(m.hists.flow.count(), 2);
        assert_eq!(m.hists.flow.max(), 4.0); // both finish at t=4
        assert_eq!(m.hists.transfer.min(), 1.0);
        assert_eq!(m.hists.transfer.max(), 2.0);
        assert_eq!(m.hists.wait.min(), 0.0); // task 0 sent at release
        assert_eq!(m.hists.wait.max(), 1.0); // task 1 waited 1s
        assert_eq!(m.hists.compute.min(), 1.0);
        assert_eq!(m.hists.compute.max(), 3.0);
    }

    #[test]
    fn utilization_partitions_the_run() {
        let (_, m) = scripted();
        assert_eq!(m.duration, 4.0);
        for j in 0..2 {
            let total = m.busy_secs[j] + m.blocked_secs[j] + m.idle_secs[j];
            assert!((total - 4.0).abs() < 1e-12, "slave {j} partition {total}");
        }
        // Slave 0 computes 1..4 → 3s busy; blocked 0..1 (port busy).
        assert_eq!(m.busy_secs[0], 3.0);
        assert_eq!(m.blocked_secs[0], 1.0);
        // Slave 1: blocked 0..1 (port to 0) and 1..3 (port to itself while
        // not yet computing), computing 3..4.
        assert_eq!(m.busy_secs[1], 1.0);
        assert_eq!(m.blocked_secs[1], 3.0);
        assert_eq!(m.recv_secs[1], 2.0);
        assert_eq!(m.busy_fraction(0), 0.75);
    }

    #[test]
    fn queue_depth_is_time_weighted() {
        let (_, m) = scripted();
        // Depth: 2 at t=0 (instantaneously), 1 on send of task 0 at t=0,
        // 0 from t=1. Integral = 1·(1-0) = 1.
        assert_eq!(m.queue_max, 2);
        assert_eq!(m.queue_depth_secs, 1.0);
        assert_eq!(m.queue_mean(), 0.25);
    }

    #[test]
    fn reset_reuses_cleanly() {
        let (mut p, first) = scripted();
        p.reset();
        p.task_released(0.0, 0);
        p.send_start(0.0, 0, 0);
        p.send_complete(1.0, 0, 0, true);
        p.compute_start(1.0, 0, 0);
        p.compute_complete(4.0, 0, 0);
        let second = p.finish(4.0);
        assert_eq!(second.tasks, 1);
        assert_eq!(second.hists.flow.count(), 1);
        assert_ne!(first, second);
        // A fresh probe driven the same way agrees exactly.
        let mut q = MetricsProbe::new();
        q.task_released(0.0, 0);
        q.send_start(0.0, 0, 0);
        q.send_complete(1.0, 0, 0, true);
        q.compute_start(1.0, 0, 0);
        q.compute_complete(4.0, 0, 0);
        assert_eq!(q.finish(4.0), second);
    }

    #[test]
    fn window_recycles_finalized_slots() {
        let mut p = MetricsProbe::new();
        p.preallocate(1);
        for t in 0..1000usize {
            let t0 = t as f64;
            p.task_released(t0, t);
            p.send_start(t0, t, 0);
            p.send_complete(t0 + 0.1, t, 0, true);
            p.compute_start(t0 + 0.1, t, 0);
            p.compute_complete(t0 + 0.5, t, 0);
        }
        let m = p.finish(1000.0);
        assert_eq!(m.tasks, 1000);
        assert_eq!(m.hists.flow.count(), 1000);
        // One task in flight at a time: the window must stay near the
        // compaction threshold, not grow with the task count.
        assert!(
            p.peak_task_slots() <= 2 * COMPACT_MIN,
            "peak {} slots for 1000 sequential tasks",
            p.peak_task_slots()
        );
    }

    #[test]
    fn merge_is_deterministic_in_order() {
        let (_, a) = scripted();
        let (_, b) = scripted();
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.tasks, 4);
        assert_eq!(ab.duration, 8.0);
        assert_eq!(ab.hists.flow.count(), 4);
        assert_eq!(ab.queue_max, 2);
    }
}
