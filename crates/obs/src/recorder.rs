//! [`TraceRecorder`]: a [`Probe`] that captures a run as timeline spans and
//! exports it as a Chrome trace.

use crate::chrome::ChromeTrace;
use crate::probe::Probe;

/// What a [`Span`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The port transferring a task to the slave.
    Send,
    /// The slave computing a task.
    Compute,
    /// The slave failed (downtime).
    Down,
}

/// One closed interval on a slave's timeline, in simulation seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// What the interval covers.
    pub kind: SpanKind,
    /// Task id, for `Send`/`Compute` spans (`usize::MAX` for downtime).
    pub task: usize,
    /// Slave id.
    pub slave: usize,
    /// Start instant, simulation seconds.
    pub start: f64,
    /// End instant, simulation seconds.
    pub end: f64,
    /// `false` when the interval was cut short (a lost send, a computation
    /// killed by a failure) rather than completing.
    pub completed: bool,
}

/// An instant marker on a slave's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Marker {
    /// Marker label (`"fail"`, `"recover"`, `"task N lost"`…).
    pub kind: MarkerKind,
    /// Task id for task markers, `usize::MAX` otherwise.
    pub task: usize,
    /// Slave id.
    pub slave: usize,
    /// Instant, simulation seconds.
    pub at: f64,
}

/// What a [`Marker`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkerKind {
    /// The slave failed.
    Fail,
    /// The slave recovered.
    Recover,
    /// A task was lost (failure or lost-on-arrival send).
    TaskLost,
}

#[derive(Clone, Copy, Debug, Default)]
struct OpenSlot {
    task: usize,
    start: f64,
    open: bool,
}

/// Records a simulation run as per-slave send/compute/downtime spans plus
/// failure/recovery/loss markers, for Chrome-trace export (see
/// [`TraceRecorder::to_chrome`]) or programmatic inspection.
///
/// Tracks are laid out so spans on one track never overlap (the model
/// guarantees it: the port is serial per slave, computes are serial, and
/// downtime alternates with uptime), which is the nesting property trace
/// viewers need.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    /// Closed spans, in closing order.
    pub spans: Vec<Span>,
    /// Instant markers, in order.
    pub markers: Vec<Marker>,
    /// `(instant, depth)` samples of the master's pending-queue depth:
    /// one sample per change (release, send start, failure re-release).
    /// Rendered as a `"ph":"C"` counter track by [`to_chrome`].
    ///
    /// [`to_chrome`]: TraceRecorder::to_chrome
    pub queue_samples: Vec<(f64, u64)>,
    /// `(instant, count)` samples of in-flight sends (0 or 1 — the master
    /// has one port; the track makes port occupancy legible at a glance).
    pub inflight_samples: Vec<(f64, u64)>,
    open_send: Vec<OpenSlot>,
    open_compute: Vec<OpenSlot>,
    down_since: Vec<OpenSlot>,
    queue_depth: u64,
    inflight: u64,
    end: f64,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    fn ensure(&mut self, slave: usize) {
        if self.open_send.len() <= slave {
            let n = slave + 1;
            self.open_send.resize(n, OpenSlot::default());
            self.open_compute.resize(n, OpenSlot::default());
            self.down_since.resize(n, OpenSlot::default());
        }
    }

    fn observe(&mut self, now: f64) {
        if now > self.end {
            self.end = now;
        }
    }

    /// Number of slaves that appeared in any hook.
    pub fn num_slaves(&self) -> usize {
        self.open_send.len()
    }

    fn sample_queue(&mut self, now: f64) {
        self.queue_samples.push((now, self.queue_depth));
    }

    fn sample_inflight(&mut self, now: f64) {
        self.inflight_samples.push((now, self.inflight));
    }

    /// Latest instant observed by any hook (a lower bound on the makespan).
    pub fn end_time(&self) -> f64 {
        self.end
    }

    /// Closes every still-open span at `end` (e.g. a slave down at the end
    /// of the run) and returns the recorder ready for export. Call once
    /// after the run; reusing the recorder afterwards is not supported.
    pub fn finalize(&mut self, end: f64) {
        self.observe(end);
        let end = self.end;
        for j in 0..self.open_send.len() {
            if self.open_send[j].open {
                let s = std::mem::take(&mut self.open_send[j]);
                self.push_span(SpanKind::Send, s.task, j, s.start, end, false);
            }
            if self.open_compute[j].open {
                let s = std::mem::take(&mut self.open_compute[j]);
                self.push_span(SpanKind::Compute, s.task, j, s.start, end, false);
            }
            if self.down_since[j].open {
                let s = std::mem::take(&mut self.down_since[j]);
                self.push_span(SpanKind::Down, usize::MAX, j, s.start, end, false);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        kind: SpanKind,
        task: usize,
        slave: usize,
        start: f64,
        end: f64,
        completed: bool,
    ) {
        self.spans.push(Span {
            kind,
            task,
            slave,
            start,
            end,
            completed,
        });
    }

    /// Exports the run as a Chrome trace: per slave `j`, track `3j` holds
    /// send spans, `3j+1` compute spans, and `3j+2` downtime spans with the
    /// failure/recovery/loss markers; two process-wide `"ph":"C"` counter
    /// tracks chart the master queue depth and in-flight sends.
    /// `seconds_per_us` scales simulation seconds to trace microseconds;
    /// `1e6` renders one simulated second as one viewer second.
    pub fn to_chrome(&self, process: &str, us_per_sec: f64) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        let pid = 1;
        t.process_name(pid, process);
        for j in 0..self.num_slaves() {
            t.thread_name(pid, (3 * j) as u64, &format!("P{j} send"));
            t.thread_name(pid, (3 * j + 1) as u64, &format!("P{j} compute"));
            t.thread_name(pid, (3 * j + 2) as u64, &format!("P{j} state"));
        }
        for s in &self.spans {
            let (tid, name, cat) = match s.kind {
                SpanKind::Send => (
                    3 * s.slave,
                    format!(
                        "send task {}{}",
                        s.task,
                        if s.completed { "" } else { " (aborted)" }
                    ),
                    "send",
                ),
                SpanKind::Compute => (
                    3 * s.slave + 1,
                    format!(
                        "compute task {}{}",
                        s.task,
                        if s.completed { "" } else { " (killed)" }
                    ),
                    "compute",
                ),
                SpanKind::Down => (3 * s.slave + 2, "down".to_string(), "platform"),
            };
            t.complete(
                pid,
                tid as u64,
                &name,
                cat,
                s.start * us_per_sec,
                (s.end - s.start) * us_per_sec,
            );
        }
        for m in &self.markers {
            let tid = (3 * m.slave + 2) as u64;
            let name = match m.kind {
                MarkerKind::Fail => "fail".to_string(),
                MarkerKind::Recover => "recover".to_string(),
                MarkerKind::TaskLost => format!("task {} lost", m.task),
            };
            t.instant(pid, tid, &name, "platform", m.at * us_per_sec);
        }
        for &(at, depth) in &self.queue_samples {
            t.counter(
                pid,
                "master queue depth",
                "depth",
                at * us_per_sec,
                depth as f64,
            );
        }
        for &(at, n) in &self.inflight_samples {
            t.counter(pid, "in-flight sends", "sends", at * us_per_sec, n as f64);
        }
        t
    }
}

impl Probe for TraceRecorder {
    fn task_released(&mut self, now: f64, task: usize) {
        let _ = task;
        self.observe(now);
        self.queue_depth += 1;
        self.sample_queue(now);
    }

    fn send_start(&mut self, now: f64, task: usize, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        self.queue_depth = self.queue_depth.saturating_sub(1);
        self.sample_queue(now);
        self.inflight += 1;
        self.sample_inflight(now);
        self.open_send[slave] = OpenSlot {
            task,
            start: now,
            open: true,
        };
    }

    fn send_complete(&mut self, now: f64, task: usize, slave: usize, delivered: bool) {
        self.ensure(slave);
        self.observe(now);
        self.inflight = self.inflight.saturating_sub(1);
        self.sample_inflight(now);
        if self.open_send[slave].open && self.open_send[slave].task == task {
            let s = std::mem::take(&mut self.open_send[slave]);
            self.push_span(SpanKind::Send, task, slave, s.start, now, delivered);
        }
        // A send that ends at a slave already down was lost on arrival: its
        // task re-enters the master's queue with no `task_lost`. One
        // aborted by its slave's failure ends before `slave_failed`, and
        // the `task_lost` that follows marks it and counts it back.
        if !delivered && self.down_since[slave].open {
            self.markers.push(Marker {
                kind: MarkerKind::TaskLost,
                task,
                slave,
                at: now,
            });
            self.queue_depth += 1;
            self.sample_queue(now);
        }
    }

    fn compute_start(&mut self, now: f64, task: usize, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        self.open_compute[slave] = OpenSlot {
            task,
            start: now,
            open: true,
        };
    }

    fn compute_complete(&mut self, now: f64, task: usize, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        if self.open_compute[slave].open && self.open_compute[slave].task == task {
            let s = std::mem::take(&mut self.open_compute[slave]);
            self.push_span(SpanKind::Compute, task, slave, s.start, now, true);
        }
    }

    fn slave_failed(&mut self, now: f64, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        self.down_since[slave] = OpenSlot {
            task: usize::MAX,
            start: now,
            open: true,
        };
        self.markers.push(Marker {
            kind: MarkerKind::Fail,
            task: usize::MAX,
            slave,
            at: now,
        });
    }

    fn slave_recovered(&mut self, now: f64, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        if self.down_since[slave].open {
            let s = std::mem::take(&mut self.down_since[slave]);
            self.push_span(SpanKind::Down, usize::MAX, slave, s.start, now, true);
        }
        self.markers.push(Marker {
            kind: MarkerKind::Recover,
            task: usize::MAX,
            slave,
            at: now,
        });
    }

    fn task_lost(&mut self, now: f64, task: usize, slave: usize) {
        self.ensure(slave);
        self.observe(now);
        // The lost task re-enters the master's pending queue.
        self.queue_depth += 1;
        self.sample_queue(now);
        // A failure kills whatever the lost task was doing on the slave:
        // close its computation (if it was computing) as incomplete. A
        // transfer in flight was already closed by its `send_complete`.
        if self.open_compute[slave].open && self.open_compute[slave].task == task {
            let s = std::mem::take(&mut self.open_compute[slave]);
            self.push_span(SpanKind::Compute, task, slave, s.start, now, false);
        }
        self.markers.push(Marker {
            kind: MarkerKind::TaskLost,
            task,
            slave,
            at: now,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_send_compute_lifecycle() {
        let mut r = TraceRecorder::new();
        r.send_start(0.0, 0, 1);
        r.send_complete(0.5, 0, 1, true);
        r.compute_start(0.5, 0, 1);
        r.compute_complete(2.5, 0, 1);
        r.finalize(2.5);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].kind, SpanKind::Send);
        assert_eq!(r.spans[1].kind, SpanKind::Compute);
        assert!(r.spans.iter().all(|s| s.completed));
        assert_eq!(r.end_time(), 2.5);
    }

    #[test]
    fn failure_closes_compute_and_opens_downtime() {
        let mut r = TraceRecorder::new();
        r.send_start(0.0, 7, 0);
        r.send_complete(1.0, 7, 0, true);
        r.compute_start(1.0, 7, 0);
        r.slave_failed(1.5, 0);
        r.task_lost(1.5, 7, 0);
        r.slave_recovered(3.0, 0);
        r.finalize(4.0);
        let kinds: Vec<SpanKind> = r.spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Down));
        let compute = r
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Compute)
            .unwrap();
        assert!(!compute.completed);
        assert_eq!(compute.end, 1.5);
        assert_eq!(r.markers.len(), 3); // fail, task lost, recover
    }

    #[test]
    fn lost_on_arrival_send_is_marked() {
        let mut r = TraceRecorder::new();
        r.slave_failed(0.0, 2);
        r.send_start(0.1, 3, 2);
        r.send_complete(0.6, 3, 2, false);
        r.finalize(1.0);
        let send = r.spans.iter().find(|s| s.kind == SpanKind::Send).unwrap();
        assert!(!send.completed);
        assert!(r
            .markers
            .iter()
            .any(|m| m.kind == MarkerKind::TaskLost && m.task == 3));
    }

    #[test]
    fn aborted_send_is_closed_and_marked_once() {
        // The engine's order when a slave fails with a send to it in
        // flight: the send ends undelivered, then the failure and the loss.
        let mut r = TraceRecorder::new();
        r.task_released(0.0, 4);
        r.send_start(0.0, 4, 1);
        r.send_complete(0.4, 4, 1, false);
        r.slave_failed(0.4, 1);
        r.task_lost(0.4, 4, 1);
        r.finalize(1.0);
        let send = r.spans.iter().find(|s| s.kind == SpanKind::Send).unwrap();
        assert!(!send.completed);
        assert_eq!(send.end, 0.4);
        let lost = r.markers.iter().filter(|m| m.kind == MarkerKind::TaskLost);
        assert_eq!(lost.count(), 1);
        let sends: Vec<u64> = r.inflight_samples.iter().map(|&(_, n)| n).collect();
        assert_eq!(sends, [1, 0]);
    }

    #[test]
    fn queue_and_inflight_counters_track_hooks() {
        let mut r = TraceRecorder::new();
        r.task_released(0.0, 0);
        r.task_released(0.0, 1);
        r.send_start(0.5, 0, 1);
        r.send_complete(1.0, 0, 1, true);
        r.slave_failed(1.2, 1);
        r.task_lost(1.2, 0, 1);
        r.finalize(2.0);
        // Depth: 1, 2 (releases), 1 (send), 2 (loss re-release).
        let depths: Vec<u64> = r.queue_samples.iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, [1, 2, 1, 2]);
        // In-flight: 1 at send start, 0 at completion.
        let sends: Vec<u64> = r.inflight_samples.iter().map(|&(_, n)| n).collect();
        assert_eq!(sends, [1, 0]);
        let s = r.to_chrome("run", 1e6).render();
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("master queue depth"));
        assert!(s.contains("in-flight sends"));
        assert!(s.contains("\"args\":{\"depth\":2}"));
    }

    #[test]
    fn chrome_export_has_tracks_and_markers() {
        let mut r = TraceRecorder::new();
        r.send_start(0.0, 0, 1);
        r.send_complete(0.5, 0, 1, true);
        r.compute_start(0.5, 0, 1);
        r.slave_failed(0.7, 1);
        r.task_lost(0.7, 0, 1);
        r.finalize(1.0);
        let t = r.to_chrome("run", 1e6);
        let s = t.render();
        assert!(s.contains("P1 send"));
        assert!(s.contains("P1 compute"));
        assert!(s.contains("P1 state"));
        assert!(s.contains("compute task 0 (killed)"));
        assert!(s.contains("\"ph\":\"i\""));
    }
}
