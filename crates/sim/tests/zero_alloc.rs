//! Steady-state allocation contract of the engine hot path.
//!
//! A counting global allocator measures heap allocations during a full
//! simulation on a *warm* [`SimWorkspace`]: the event loop itself must not
//! allocate at all — the only permitted allocations of a run are the
//! returned [`Trace`]'s record vector. That holds on a faulty platform
//! too, where failures void heap entries and abort sends. A 100k-task
//! streamed run must also keep its live task-slot peak within `16·m + 64`
//! (contract #13). CI runs this file in release as well.
//!
//! This file deliberately contains a single `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use mss_core::{Algorithm, Redispatch};
use mss_sim::{
    bag_of_tasks, Decision, IncrementalArgmin, NoopProbe, OnlineScheduler, Platform, PlatformEvent,
    PlatformEventKind, RunCounters, SchedulerEvent, SimConfig, SimView, SimWorkspace, Simulation,
    SlaveId, SliceSource, TaskArrival, TaskSource, Time, Timeline, Trace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator, counting every allocation.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation-free greedy scheduler: oldest pending task to the slave with
/// the earliest nominal completion estimate.
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
        let mut best = SlaveId(0);
        for j in 1..view.num_slaves() {
            if view.completion_estimate(SlaveId(j)) < view.completion_estimate(best) {
                best = SlaveId(j);
            }
        }
        Decision::Send { task, slave: best }
    }
}

/// SRPT-shaped scheduler on the incremental decision kernel, with the
/// tree forced on (threshold 0): after the warm-up run sized the
/// tournament tree, syncing from the touch journal and answering argmin
/// queries must not allocate.
struct KernelGreedy {
    kernel: IncrementalArgmin,
}

impl OnlineScheduler for KernelGreedy {
    fn name(&self) -> String {
        "kernel-greedy".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
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
}

/// Allocation-free uniform arrival stream computed on the fly — no backing
/// task vector exists anywhere in the process.
struct UniformSource {
    n: usize,
    gap: f64,
    next: usize,
}

impl TaskSource for UniformSource {
    fn next_task(&mut self) -> Option<TaskArrival> {
        if self.next == self.n {
            return None;
        }
        let t = TaskArrival::at(self.next as f64 * self.gap);
        self.next += 1;
        Some(t)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.n)
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[test]
fn steady_state_events_allocate_nothing() {
    let platform = Platform::from_vectors(&[0.2, 0.5, 0.9], &[1.0, 2.0, 3.0]);
    let n = 400;
    let tasks = bag_of_tasks(n);
    let cfg = SimConfig::with_horizon(n);
    let mut ws = SimWorkspace::new();

    // Warm-up run sizes every workspace buffer.
    let warm: Trace = Simulation::new(&platform, &cfg)
        .workspace(&mut ws)
        .trace(SliceSource::new(&tasks), &mut Greedy)
        .unwrap();
    assert_eq!(warm.len(), n);

    let before = ALLOCS.load(Ordering::SeqCst);
    let trace = Simulation::new(&platform, &cfg)
        .workspace(&mut ws)
        .trace(SliceSource::new(&tasks), &mut Greedy)
        .unwrap();
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(trace, warm, "warm rerun must be bit-identical");

    // The run processed 3n events (release, send-complete, compute-complete
    // per task) plus hundreds of scheduler polls. The only allocation we
    // accept is the returned trace's record vector (plus minuscule slack
    // for Trace plumbing); any per-event allocation would show up as
    // hundreds of counts here.
    assert!(
        during <= 4,
        "expected an allocation-free event loop, counted {during} allocations \
         over {} events (≈{:.3} per event)",
        3 * n,
        during as f64 / (3 * n) as f64
    );

    // The disabled-instrumentation path must uphold the same contract: a
    // probed run with [`NoopProbe`] monomorphizes every hook away, so it
    // allocates exactly as little as the uninstrumented entry point — and
    // returns bit-identical results.
    let before = ALLOCS.load(Ordering::SeqCst);
    let probed = Simulation::new(&platform, &cfg)
        .workspace(&mut ws)
        .probe(&mut NoopProbe)
        .trace(SliceSource::new(&tasks), &mut Greedy)
        .unwrap();
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(probed, warm, "NoopProbe run must be bit-identical");
    assert!(
        during <= 4,
        "expected the probe-disabled hot path to stay allocation-free, \
         counted {during} allocations over {} events",
        3 * n
    );

    // Bounded-memory streaming contract (#13): a 100k-task streamed run on
    // the same warm workspace keeps its live task-slot high-water mark at
    // O(slaves + outstanding) — independent of the instance size — and the
    // steady-state event loop stays allocation-free. The stream's inter-
    // arrival gap (1.0) sits below the platform's aggregate service rate
    // (Σ 1/p ≈ 1.83/s), so the outstanding set stays small.
    let big = 100_000;
    let mut source = UniformSource {
        n: big,
        gap: 1.0,
        next: 0,
    };
    let scfg = SimConfig::with_horizon(big);
    // Warm-up sizes the (bounded) streaming window and recycler.
    let warm_stats = Simulation::new(&platform, &scfg)
        .workspace(&mut ws)
        .objectives(&mut source, &mut Greedy)
        .unwrap();
    source.reset();
    let before = ALLOCS.load(Ordering::SeqCst);
    let stats = Simulation::new(&platform, &scfg)
        .workspace(&mut ws)
        .objectives(&mut source, &mut Greedy)
        .unwrap();
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(stats.tasks, big);
    assert_eq!(
        stats.objectives.makespan.to_bits(),
        warm_stats.objectives.makespan.to_bits(),
        "warm streamed rerun must be bit-identical"
    );
    // Concrete bound: a handful of slots per slave for in-flight work plus
    // the small stable queue the sub-critical load sustains. 100k tasks
    // must never push the window anywhere near the instance size.
    let cap = 16 * platform.num_slaves() + 64;
    assert!(
        stats.peak_live_slots <= cap,
        "live task-slot high-water mark {} exceeds O(slaves + outstanding) cap {cap}",
        stats.peak_live_slots
    );
    assert!(
        stats.peak_resident_slots <= 2 * cap + 128,
        "resident slots {} exceed the recycler's compaction envelope",
        stats.peak_resident_slots
    );
    assert!(
        during <= 4,
        "expected the streamed event loop to stay allocation-free, \
         counted {during} allocations over {} events",
        3 * big
    );

    // Decision-kernel steady state (contract #15): with the tournament
    // tree forced on, a warm rerun — tree rebuild at the new run nonce,
    // journal replays, and an argmin query per decision — allocates
    // nothing. The tree's backing vectors were sized by the warm-up and
    // the platform size is unchanged, so `rebuild` only rewrites them.
    let mut kernel_sched = KernelGreedy {
        kernel: IncrementalArgmin::new().with_threshold(0),
    };
    let kernel_warm: Trace = Simulation::new(&platform, &cfg)
        .workspace(&mut ws)
        .trace(SliceSource::new(&tasks), &mut kernel_sched)
        .unwrap();
    assert_eq!(kernel_warm.len(), n);
    let before = ALLOCS.load(Ordering::SeqCst);
    let kernel_trace = Simulation::new(&platform, &cfg)
        .workspace(&mut ws)
        .trace(SliceSource::new(&tasks), &mut kernel_sched)
        .unwrap();
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        kernel_trace, kernel_warm,
        "warm kernel rerun must be bit-identical"
    );
    assert!(
        during <= 4,
        "expected the kernel-backed event loop to stay allocation-free, \
         counted {during} allocations over {} events",
        3 * n
    );

    // Faulty steady state: 150 fail/recover pairs and link drift on
    // m = 8, 2,000 perturbed tasks, Redispatch-wrapped LS. Failures void
    // computations and abort sends in flight, so the heap carries dead
    // entries that still pop at their instants; a warm rerun of the
    // objectives allocates nothing at all.
    let (platform, tasks, timeline) = faulty_instance();
    let cfg = SimConfig::with_horizon(tasks.len());
    let mut sched = Redispatch::wrap(Algorithm::ListScheduling);
    let mut counters = RunCounters::new();
    let warm = Simulation::new(&platform, &cfg)
        .timeline(&timeline)
        .workspace(&mut ws)
        .probe(&mut counters)
        .objectives(SliceSource::new(&tasks), &mut sched)
        .unwrap();
    assert!(counters.sends_lost > 0, "no send was lost: {counters:?}");
    assert!(counters.tasks_lost > 0, "no task was lost: {counters:?}");
    let mut rerun_counters = RunCounters::new();
    let before = ALLOCS.load(Ordering::SeqCst);
    let rerun = Simulation::new(&platform, &cfg)
        .timeline(&timeline)
        .workspace(&mut ws)
        .probe(&mut rerun_counters)
        .objectives(SliceSource::new(&tasks), &mut sched)
        .unwrap();
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(rerun, warm, "warm faulty rerun must be bit-identical");
    assert_eq!(
        rerun_counters, counters,
        "warm faulty rerun must count the same"
    );
    assert_eq!(
        during,
        0,
        "expected the faulty event loop to allocate nothing, counted {during} \
         allocations over {} events",
        counters.events()
    );
}

/// Eight slaves, 2,000 tasks with sizes perturbed within ±10 % arriving
/// every 0.25 s, and a timeline of 150 fail/recover pairs (each slave down
/// for 2 s at a time) beside link drift.
fn faulty_instance() -> (Platform, Vec<TaskArrival>, Timeline) {
    let platform = Platform::from_vectors(
        &[0.1, 0.15, 0.2, 0.3, 0.12, 0.25, 0.18, 0.4],
        &[1.0, 2.0, 1.5, 3.0, 2.5, 1.2, 4.0, 2.0],
    );
    let wobble = |i: usize, k: usize| 0.9 + 0.2 * ((i * k % 97) as f64 / 96.0);
    let tasks = (0..2000)
        .map(|i| TaskArrival {
            release: Time::new(i as f64 * 0.25),
            size_c: wobble(i, 31),
            size_p: wobble(i, 53),
        })
        .collect();
    let event = |time: f64, j: usize, kind| PlatformEvent {
        time: Time::new(time),
        slave: SlaveId(j),
        kind,
    };
    let mut events = Vec::new();
    for k in 0..150 {
        let (at, j) = (3.0 * k as f64 + 0.5, k * 3 % 8);
        events.push(event(at, j, PlatformEventKind::Fail));
        events.push(event(at + 2.0, j, PlatformEventKind::Recover));
        let factor = PlatformEventKind::SetLinkFactor(wobble(k, 7) + 0.2);
        events.push(event(at + 1.0, k % 8, factor));
    }
    (platform, tasks, Timeline::new(events))
}
