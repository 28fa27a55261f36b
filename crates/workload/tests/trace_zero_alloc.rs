//! Allocation contract of trace replay: a warm CSV replay allocates once
//! per pass, never per pull.
//!
//! A counting global allocator measures heap allocations while a 1k-task
//! and a 10k-task CSV trace are each replayed through a warm streamed run
//! (`Simulation::objectives` on a warm `SimWorkspace`, under an
//! allocation-free scheduler). Set-up per pass may allocate (today it
//! does not: the source rewinds the file it keeps open); a pull must
//! allocate nothing, so both replays count the same. JSONL pulls build a
//! `serde_json` value per line and are not covered. CI runs this file in
//! release as well.
//!
//! This file deliberately contains a single `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use mss_core::{
    Decision, OnlineScheduler, Platform, SchedulerEvent, SimConfig, SimView, SimWorkspace,
    Simulation, SlaveId, TaskSource,
};
use mss_workload::TraceSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
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

/// Writes an `n`-task CSV trace: one release a second, sizes within ±6 %.
fn write_trace(path: &Path, n: usize) {
    let mut body = String::from("release,size_c,size_p\n");
    for i in 0..n {
        let c = 1.0 + (i % 7) as f64 * 0.01;
        let p = 1.0 - (i % 5) as f64 * 0.015;
        writeln!(body, "{},{c},{p}", i as f64).unwrap();
    }
    std::fs::write(path, body).expect("write trace");
}

/// Allocations of a warm replay of `path`: the trace is opened and
/// replayed once to warm the source and a fresh workspace, then reset and
/// replayed again under the counter.
fn warm_replay_allocations(platform: &Platform, path: &Path) -> usize {
    let mut source = TraceSource::open(path).expect("open trace");
    let n = source.len();
    let cfg = SimConfig::with_horizon(n);
    let mut ws = SimWorkspace::new();
    let warm = Simulation::new(platform, &cfg)
        .workspace(&mut ws)
        .objectives(&mut source, &mut Greedy)
        .expect("warm-up replay");
    source.reset();
    let before = ALLOCS.load(Ordering::SeqCst);
    let stats = Simulation::new(platform, &cfg)
        .workspace(&mut ws)
        .objectives(&mut source, &mut Greedy)
        .expect("counted replay");
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(stats.tasks, n);
    assert_eq!(
        stats.objectives.sum_flow.to_bits(),
        warm.objectives.sum_flow.to_bits(),
        "a warm replay is bit-identical"
    );
    during
}

#[test]
fn warm_csv_replay_allocates_per_pass_not_per_pull() {
    // Aggregate service rate Σ 1/p ≈ 1.83/s against one release a second:
    // the outstanding set stays small, so the engine's window is bounded.
    let platform = Platform::from_vectors(&[0.2, 0.5, 0.9], &[1.0, 2.0, 3.0]);
    let dir = std::env::temp_dir().join(format!("mss-trace-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let small = dir.join("1k.csv");
    let large = dir.join("10k.csv");
    write_trace(&small, 1_000);
    write_trace(&large, 10_000);
    let per_small = warm_replay_allocations(&platform, &small);
    let per_large = warm_replay_allocations(&platform, &large);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        per_small, per_large,
        "a warm replay must allocate the same for 1k and 10k pulls (counted {per_small} \
         and {per_large}): a pull allocates"
    );
    assert!(
        per_large <= 4,
        "a warm replay's set-up should be a handful of allocations, counted {per_large}"
    );
}
