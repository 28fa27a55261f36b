//! Thread-local tallies of decision-kernel activity.
//!
//! The sublinear decision kernels (`mss_sim::kernel`) run *inside*
//! schedulers, which have no probe handle — so their instrumentation is a
//! set of plain thread-local counters instead of `Probe` hooks. Recording
//! is a handful of `Cell` adds per decision (no atomics, no allocation,
//! no branches on a feature flag), and reading is explicit: harnesses
//! call [`kernel_stats_reset`] before a measured region and
//! [`kernel_stats_snapshot`] after it.
//!
//! The counters are diagnostics only: nothing in any engine or scheduler
//! reads them back, so they cannot influence results (the instrumentation
//! purity contract).

use std::cell::Cell;

/// Counts of decision-kernel work performed on this thread since the last
/// [`kernel_stats_reset`]. Mergeable across threads by field-wise addition
/// ([`KernelStats::merge`]), like `SweepMetrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Tree-backed argmin queries answered from the tournament-tree root
    /// (O(1) after sync).
    pub queries: u64,
    /// Full O(m) tree rebuilds (first use, run change, platform-size
    /// change, or a journal lag past the ring capacity).
    pub rebuilds: u64,
    /// Journal entries replayed incrementally (one O(log m) leaf update
    /// each).
    pub replayed: u64,
    /// Decisions answered by the linear-scan fallback, `scan_argmin`
    /// (below the tree threshold, or on views without a touch journal).
    pub scans: u64,
}

impl KernelStats {
    /// Field-wise accumulation, for folding per-thread tallies into one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.queries += other.queries;
        self.rebuilds += other.rebuilds;
        self.replayed += other.replayed;
        self.scans += other.scans;
    }

    /// Fraction of tree-backed queries that needed no rebuild — the
    /// kernel "hit" ratio. `None` until a tree query has run.
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.queries == 0 {
            return None;
        }
        Some((self.queries - self.rebuilds.min(self.queries)) as f64 / self.queries as f64)
    }
}

thread_local! {
    static STATS: Cell<KernelStats> = const { Cell::new(KernelStats {
        queries: 0,
        rebuilds: 0,
        replayed: 0,
        scans: 0,
    }) };
}

/// Current tallies for this thread.
pub fn kernel_stats_snapshot() -> KernelStats {
    STATS.with(Cell::get)
}

/// Zeroes this thread's tallies and returns the values they held.
pub fn kernel_stats_reset() -> KernelStats {
    STATS.with(|s| s.replace(KernelStats::default()))
}

/// Records one tree-backed query. Called by the kernel, not by harnesses.
#[inline]
pub fn record_kernel_query() {
    STATS.with(|s| {
        let mut v = s.get();
        v.queries += 1;
        s.set(v);
    });
}

/// Records one full tree rebuild.
#[inline]
pub fn record_kernel_rebuild() {
    STATS.with(|s| {
        let mut v = s.get();
        v.rebuilds += 1;
        s.set(v);
    });
}

/// Records `n` journal entries replayed into the tree.
#[inline]
pub fn record_kernel_replayed(n: u64) {
    STATS.with(|s| {
        let mut v = s.get();
        v.replayed += n;
        s.set(v);
    });
}

/// Records one linear-scan fallback decision.
#[inline]
pub fn record_kernel_scan() {
    STATS.with(|s| {
        let mut v = s.get();
        v.scans += 1;
        s.set(v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        kernel_stats_reset();
        record_kernel_query();
        record_kernel_query();
        record_kernel_rebuild();
        record_kernel_replayed(5);
        record_kernel_scan();
        let s = kernel_stats_snapshot();
        assert_eq!(
            s,
            KernelStats {
                queries: 2,
                rebuilds: 1,
                replayed: 5,
                scans: 1
            }
        );
        assert_eq!(s.hit_ratio(), Some(0.5));
        let prev = kernel_stats_reset();
        assert_eq!(prev, s);
        assert_eq!(kernel_stats_snapshot(), KernelStats::default());
        assert_eq!(KernelStats::default().hit_ratio(), None);
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = KernelStats {
            queries: 1,
            rebuilds: 2,
            replayed: 3,
            scans: 4,
        };
        let b = KernelStats {
            queries: 10,
            rebuilds: 20,
            replayed: 30,
            scans: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            KernelStats {
                queries: 11,
                rebuilds: 22,
                replayed: 33,
                scans: 44
            }
        );
    }
}
