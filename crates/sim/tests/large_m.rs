//! Large-`m` gate: the engine and the decision kernel at 10,000 slaves.
//!
//! A streamed run on a 10k-slave platform must (a) complete within the
//! engine's step budget, (b) keep the bounded-memory contract's resident
//! task-slot window independent of the instance size, and (c) serve its
//! decisions from the tournament tree. A linear-scan twin of the same run
//! then pins the kernel's sublinear work as exact key-evaluation counts:
//! the two runs agree bit for bit, and the scan evaluates at least 3×
//! the keys the tree does. CI also runs this file in release.

use mss_obs::KernelStats;
use mss_sim::{
    Decision, IncrementalArgmin, OnlineScheduler, Platform, SchedulerEvent, SimConfig, SimView,
    Simulation, SlaveId, StreamStats, TaskArrival, TaskSource,
};

/// SRPT on the incremental kernel (the shape `mss-core`'s production SRPT
/// uses; re-implemented here because `mss-sim` cannot depend on it).
struct KernelSrpt {
    kernel: IncrementalArgmin,
    /// Calls of the argmin key: the kernel's work, counted exactly.
    evaluations: u64,
}

impl OnlineScheduler for KernelSrpt {
    fn name(&self) -> String {
        "kernel-srpt".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() {
            return Decision::Idle;
        }
        let Some(&task) = view.pending_tasks().first() else {
            return Decision::Idle;
        };
        let evaluations = &mut self.evaluations;
        let slave = self.kernel.argmin(view, |j| {
            *evaluations += 1;
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
        true
    }
}

/// Arrival stream computed on the fly; nothing scales with the instance.
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

/// One streamed SRPT run of `n` tasks on `platform` through `kernel`:
/// the run's stats, the kernel tallies and the key evaluations.
fn run(
    platform: &Platform,
    n: usize,
    kernel: IncrementalArgmin,
) -> (StreamStats, KernelStats, u64) {
    // ~2k tasks streamed fast enough that many slaves cycle busy/idle but
    // the one-port master never backlogs unboundedly (gap > min c).
    let source = UniformSource {
        n,
        gap: 0.01,
        next: 0,
    };
    let cfg = SimConfig {
        horizon_hint: Some(n),
        // Tight step budget: ~3 events per task plus scheduler polls. A
        // regression to per-event O(m) rescans would not trip this (the
        // budget counts steps, not work), but a wake-loop bug would.
        max_steps: 40 * n,
        ..SimConfig::default()
    };
    let mut sched = KernelSrpt {
        kernel,
        evaluations: 0,
    };
    mss_obs::kernel_stats_reset();
    let stats = Simulation::new(platform, &cfg)
        .objectives(source, &mut sched)
        .expect("10k-slave streamed run completes within the step budget");
    (stats, mss_obs::kernel_stats_snapshot(), sched.evaluations)
}

#[test]
fn ten_thousand_slaves_streamed_within_budget() {
    let m = 10_000;
    let c: Vec<f64> = (0..m).map(|j| 0.001 + 1e-5 * (j % 97) as f64).collect();
    let p: Vec<f64> = (0..m).map(|j| 2.0 + 0.03 * (j % 89) as f64).collect();
    let platform = Platform::from_vectors(&c, &p);
    let n = 2_000;

    let (stats, k, tree_evals) = run(&platform, n, IncrementalArgmin::new());
    assert_eq!(stats.tasks, n);
    assert!(stats.objectives.makespan > 0.0);

    // Bounded memory: resident task slots scale with outstanding work,
    // not with m or n (SRPT keeps at most one outstanding task per slave,
    // and the 0.01 gap keeps the pending queue shallow).
    assert!(
        stats.peak_live_slots <= 4 * n.min(m),
        "live task-slot peak {} is not bounded by outstanding work",
        stats.peak_live_slots
    );
    assert!(stats.peak_resident_slots >= stats.peak_live_slots);

    // The decisions were tree-served: at m = 10k every query must go
    // through the tournament tree (threshold is 64), with exactly one
    // rebuild (first sync of the run) and zero scan fallbacks. The
    // rebuild evaluates every key once and each replayed journal entry
    // one more. Both builds run the same engine path, so the replay
    // count is exact in either.
    assert!(k.queries > 0, "kernel never queried: {k:?}");
    assert_eq!(k.scans, 0, "scan fallback used at m = 10k: {k:?}");
    assert_eq!(k.rebuilds, 1, "expected exactly one rebuild: {k:?}");
    assert_eq!(k.replayed, 3_795, "{k:?}");
    assert_eq!(tree_evals, m as u64 + k.replayed, "{k:?}");
    assert_eq!(tree_evals, 13_795);

    // The linear-scan twin: same decisions, same bits, m keys a decision.
    let scan = IncrementalArgmin::new().with_threshold(usize::MAX);
    let (scan_stats, s, scan_evals) = run(&platform, n, scan);
    assert_eq!(scan_stats.objectives, stats.objectives, "kernel ≢ scan");
    assert_eq!(s.scans, k.queries, "decision counts differ: {s:?} vs {k:?}");
    assert_eq!(scan_evals, s.scans * m as u64, "{s:?}");
    // The sublinear-dispatch floor, on work rather than wall time.
    assert!(
        scan_evals >= 3 * tree_evals,
        "tree evaluated {tree_evals} keys, scan {scan_evals}: below the 3× floor"
    );
}
