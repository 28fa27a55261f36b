//! The outside-in layer trace.
//!
//! Nothing inside the library crates is instrumented. The traced passes
//! call each layer's public functions themselves and wrap every call in a
//! span; the scheduler and the task source are wrapped in forwarding
//! adapters ([`Timed`], [`TimedSource`]) whose per-call times are summed
//! into [`Totals`] instead of being recorded as spans. A layer's self time
//! is its spans' time minus their children's (and minus the decision and
//! pull time summed inside them).

use mss_core::{
    Algorithm, Decision, InfoTier, OnlineScheduler, RunCounters, SchedulerEvent, SimView,
    TaskArrival, TaskSource,
};
use mss_obs::{ChromeTrace, KernelStats};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Per-call totals the forwarding wrappers add into: scheduler decision
/// time per algorithm, and task-source pull time.
#[derive(Debug, Default)]
pub struct Totals {
    decide_ns: [Cell<u64>; 7],
    decisions: [Cell<u64>; 7],
    pull_ns: Cell<u64>,
    pulls: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

impl Totals {
    /// Decision time per algorithm, in [`Algorithm::ALL`] order (ns).
    pub fn decide_ns(&self) -> [u64; 7] {
        std::array::from_fn(|i| self.decide_ns[i].get())
    }

    /// `on_event` calls per algorithm, in [`Algorithm::ALL`] order.
    pub fn decisions(&self) -> [u64; 7] {
        std::array::from_fn(|i| self.decisions[i].get())
    }

    /// Total task-source pull time (ns).
    pub fn pull_ns(&self) -> u64 {
        self.pull_ns.get()
    }

    /// Total task-source pulls.
    pub fn pulls(&self) -> u64 {
        self.pulls.get()
    }

    /// Everything the wrappers timed so far (ns): the part of a span's
    /// time that belongs to the scheduler or the source, not the span.
    fn inner_ns(&self) -> u64 {
        self.decide_ns.iter().map(Cell::get).sum::<u64>() + self.pull_ns.get()
    }

    fn reset(&self) {
        for c in self.decide_ns.iter().chain(&self.decisions) {
            c.set(0);
        }
        self.pull_ns.set(0);
        self.pulls.set(0);
    }
}

/// A forwarding [`OnlineScheduler`] that times `init` and `on_event` into
/// [`Totals`]. Every other method forwards unchanged, so runs through it
/// are bit-identical to runs through the inner scheduler.
pub struct Timed<S> {
    inner: S,
    slot: usize,
    totals: Rc<Totals>,
}

impl<S: OnlineScheduler> Timed<S> {
    /// Wraps `inner`, which runs `algorithm` (possibly under a wrapper
    /// such as `Redispatch`).
    pub fn new(inner: S, algorithm: Algorithm, totals: Rc<Totals>) -> Self {
        Timed {
            inner,
            slot: algorithm as usize,
            totals,
        }
    }
}

impl<S: OnlineScheduler> OnlineScheduler for Timed<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, view: &SimView<'_>) {
        let t0 = Instant::now();
        self.inner.init(view);
        add(&self.totals.decide_ns[self.slot], nanos(t0));
    }

    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.on_event(view, event);
        add(&self.totals.decide_ns[self.slot], nanos(t0));
        add(&self.totals.decisions[self.slot], 1);
        decision
    }

    fn poll_driven(&self) -> bool {
        self.inner.poll_driven()
    }

    fn min_tier(&self) -> InfoTier {
        self.inner.min_tier()
    }
}

/// A forwarding [`TaskSource`] that times and counts `next_task`.
pub struct TimedSource<'a, S: TaskSource> {
    inner: &'a mut S,
    totals: Rc<Totals>,
}

impl<'a, S: TaskSource> TimedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S, totals: Rc<Totals>) -> Self {
        TimedSource { inner, totals }
    }
}

impl<S: TaskSource> TaskSource for TimedSource<'_, S> {
    fn next_task(&mut self) -> Option<TaskArrival> {
        let t0 = Instant::now();
        let task = self.inner.next_task();
        add(&self.totals.pull_ns, nanos(t0));
        add(&self.totals.pulls, 1);
        task
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Work counts of one traced pass, gathered at the layer boundaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Engine events and work, from a counting probe on every run.
    pub sim: RunCounters,
    /// Highest live task-slot count of any streamed run.
    pub peak_live_slots: u64,
    /// Highest resident task-slot count of any streamed run.
    pub peak_resident_slots: u64,
    /// Decision-kernel activity during the pass.
    pub kernel: KernelStats,
    /// Instances materialized.
    pub materializations: u64,
    /// Same-instance batches executed.
    pub batches: u64,
    /// Cells simulated (not served from a store).
    pub executed: u64,
    /// Cell content keys computed.
    pub keys: u64,
    /// Store append operations (file writes).
    pub store_appends: u64,
    /// Bytes appended to the store.
    pub store_bytes: u64,
    /// Records loaded from the store.
    pub store_records: u64,
    /// Cells looked up by the resuming (warm) run.
    pub store_lookups: u64,
    /// Lookups the store served.
    pub store_hits: u64,
    /// Aggregate rows produced.
    pub agg_rows: u64,
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call or harness step the span covers.
    pub name: &'static str,
    /// Shared by a batch and everything inside it.
    pub id: u64,
    /// Index of the enclosing span within the pass.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Wrapper-timed ns (decisions, pulls) inside the span.
    inner: u64,
}

/// Span names whose self time is the harness's own, not a layer's.
pub const HARNESS_SPANS: [&str; 5] = ["pass", "batch", "cell", "run", "replay"];

/// Self time per span name for one pass, plus the wrapper totals.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// The pass span's duration (ns).
    pub total_ns: u64,
    /// Self time per span name (ns).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Inclusive time per span name (ns).
    pub incl_ns: BTreeMap<&'static str, u64>,
    /// Scheduler decision time per algorithm (ns).
    pub decide_ns: [u64; 7],
    /// Scheduler decisions per algorithm.
    pub decisions: [u64; 7],
    /// Task-source pull time (ns).
    pub pull_ns: u64,
    /// Task-source pulls.
    pub pulls: u64,
}

impl Breakdown {
    /// Self time of `name` in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Inclusive time of `name` in seconds.
    pub fn incl_s(&self, name: &str) -> f64 {
        self.incl_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// The harness's own time (ns): self time of the harness spans.
    pub fn harness_ns(&self) -> u64 {
        HARNESS_SPANS
            .iter()
            .filter_map(|n| self.self_ns.get(n))
            .sum()
    }
}

/// Records the spans of traced passes.
pub struct Recorder {
    epoch: Instant,
    /// The wrappers' shared totals.
    pub totals: Rc<Totals>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_id: u64,
    /// Spans of the first passes, kept for the Chrome trace.
    kept: Vec<Span>,
    keep_passes: usize,
    passes: usize,
}

impl Recorder {
    /// A recorder that keeps the spans of its first `keep_passes` passes
    /// for export.
    pub fn new(keep_passes: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            totals: Rc::new(Totals::default()),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            kept: Vec::new(),
            keep_passes,
            passes: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, fresh_id: bool) -> usize {
        let parent = self.stack.last().copied();
        let id = match parent {
            Some(p) if !fresh_id => self.spans[p].id,
            _ => {
                self.next_id += 1;
                self.next_id
            }
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: 0,
            end: 0,
            inner: self.totals.inner_ns(),
        });
        self.stack.push(idx);
        self.spans[idx].start = self.now();
        idx
    }

    fn close(&mut self, idx: usize) {
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let span = &mut self.spans[idx];
        span.end = end;
        span.inner = self.totals.inner_ns() - span.inner;
    }

    /// Runs `f` inside a span named `name` that shares its parent's id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.open(name, false);
        let r = f(self);
        self.close(idx);
        r
    }

    /// Runs `f` inside a span named `name` with a fresh id (a pass or a
    /// batch: everything inside shares this id).
    pub fn span_new<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.open(name, true);
        let r = f(self);
        self.close(idx);
        r
    }

    /// Runs one pass `f` under a root `pass` span and returns its result
    /// with the pass's [`Breakdown`]. Fails if the spans do not nest or the
    /// self times do not add up to the pass time.
    pub fn pass<R>(
        &mut self,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> Result<(R, Breakdown), String> {
        assert!(self.stack.is_empty() && self.spans.is_empty());
        self.totals.reset();
        let r = self.span_new("pass", f);
        let breakdown = self.breakdown();
        self.passes += 1;
        let spans = std::mem::take(&mut self.spans);
        if self.passes <= self.keep_passes {
            let base = self.kept.len();
            self.kept.extend(spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Ok((r, breakdown?))
    }

    /// Self times of the finished pass, with the consistency checks.
    fn breakdown(&self) -> Result<Breakdown, String> {
        let spans = &self.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_inner = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span `{}` lies outside its parent `{}`",
                        s.name, parent.name
                    ));
                }
                child_ns[p] += s.end - s.start;
                child_inner[p] += s.inner;
            }
        }
        let mut b = Breakdown {
            total_ns: spans[0].end - spans[0].start,
            decide_ns: self.totals.decide_ns(),
            decisions: self.totals.decisions(),
            pull_ns: self.totals.pull_ns(),
            pulls: self.totals.pulls(),
            ..Breakdown::default()
        };
        let mut accounted = 0u64;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let own_inner = s.inner.checked_sub(child_inner[i]).ok_or_else(|| {
                format!(
                    "span `{}` holds less wrapper time than its children",
                    s.name
                )
            })?;
            let own = dur
                .checked_sub(child_ns[i] + own_inner)
                .ok_or_else(|| format!("span `{}`'s children overlap or overrun it", s.name))?;
            *b.self_ns.entry(s.name).or_default() += own;
            *b.incl_ns.entry(s.name).or_default() += dur;
            accounted += own;
        }
        accounted += spans[0].inner;
        if accounted != b.total_ns {
            return Err(format!(
                "layer self times add up to {accounted} ns, the pass took {} ns",
                b.total_ns
            ));
        }
        Ok(b)
    }

    /// Renders the kept passes as Chrome-trace JSON (open it in Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, &format!("benchmark {workload}"));
        trace.thread_name(1, 1, "worker 0");
        for s in &self.kept {
            trace.complete(
                1,
                1,
                &format!("{} #{}", s.name, s.id),
                layer_of(s.name),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
            );
        }
        trace.render()
    }
}

/// The layer a span name belongs to (the Chrome-trace category).
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "simulate" => "sim",
        "platform" | "arrivals" | "perturb" | "compile" | "bounds" | "materialize" => "instance",
        "group" | "keys" | "store.load" | "store.append" | "agg" => "sweep",
        _ => "harness",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_and_ids_follow_batches() {
        let mut rec = Recorder::new(1);
        let ((), b) = rec
            .pass(|rec| {
                rec.span_new("batch", |rec| {
                    rec.span("materialize", |rec| rec.span("bounds", |_| ()));
                    rec.span("cell", |rec| rec.span("simulate", |_| ()));
                });
            })
            .unwrap();
        let parts: u64 = b.self_ns.values().sum();
        assert_eq!(parts, b.total_ns);
        assert_eq!(rec.kept.len(), 6);
        let batch_id = rec.kept[1].id;
        assert_ne!(batch_id, rec.kept[0].id);
        assert!(rec.kept[2..].iter().all(|s| s.id == batch_id));
        assert!(rec.chrome_trace("t").contains("\"cat\":\"sim\""));
    }
}
