//! Sublinear decision kernels: incremental argmin over the SoA slave state.
//!
//! Every paper heuristic reduces to repeated *argmin* decisions over
//! per-slave keys (SRPT's fastest idle slave, List Scheduling's earliest
//! estimated completion, Round Robin's first eligible ring slot). The
//! historical implementation re-scans all `m` slaves on every decision;
//! this module makes those decisions sublinear in `m` while staying
//! **bit-identical** to the linear scan:
//!
//! * [`scan_argmin`] — the sequential scan (strict `<` keeps the lowest
//!   index): the reference every other argmin is proven against, and the
//!   answer wherever the tree does not pay (small `m`, views without a
//!   touch journal, keys that cannot be cached);
//! * a tournament tree (segment tree of min, ties broken by lowest slave
//!   index) over materialized keys: O(log m) per updated leaf, O(1)
//!   queries from the root;
//! * the engine's one touch log: the ring of event-touched slaves that
//!   drives the engine's own view refresh and tells a kernel *which*
//!   leaves can have changed since it last synced;
//! * [`IncrementalArgmin`] — the scheduler-facing kernel combining all of
//!   the above: it replays the journal suffix into the tree (or rebuilds
//!   on a run/platform change or journal overflow) and answers from the
//!   root. Below [`TREE_THRESHOLD`] slaves, or on views without a journal
//!   (owned [`ViewState`](crate::ViewState)s), it answers by
//!   [`scan_argmin`].
//!
//! # The bit-identity argument
//!
//! The sequential scan keeps the first strictly smaller key, so its
//! winner is the minimum of the lexicographic pairs `(key_j, j)`. Each
//! tree node holds the lexicographic minimum of a subset of those pairs,
//! and combining subsets loses nothing — min is associative — so the
//! root is the scan's pair, hence the same `SlaveId`, with **no**
//! rounding anywhere (comparisons only). This is what lets kernel-backed
//! heuristics claim observational purity (ARCHITECTURE contract #15):
//! traces, digests and artifacts are byte-identical to the scan-based
//! heuristics they replace.
//!
//! A NaN key would lose every compare and silently mis-order dispatch, so
//! every argmin here panics on one, in every build: the scan checks its
//! whole pass once, the tree each key it stores.
//!
//! # Keys a tree can index
//!
//! The tree caches keys, so a key must be a pure function of state whose
//! changes are journaled — per-slave believed rates, queue lengths,
//! availability (SRPT, RR eligibility). Keys that depend on `now` or the
//! shared port change for *all* slaves between decisions and must not be
//! cached: List Scheduling's completion estimate is minimized in one dense
//! pass over the view's columns
//! ([`SimView::earliest_completion`](crate::SimView::earliest_completion),
//! the same winner as [`scan_argmin`]), and other such keys (Redispatch's
//! availability-filtered completion estimate) use [`scan_argmin`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::platform::SlaveId;
use crate::view::SimView;
use mss_obs::kernel_stats::{
    record_kernel_query, record_kernel_rebuild, record_kernel_replayed, record_kernel_scan,
};

/// Below this many slaves the tree bookkeeping costs more than it saves
/// and [`IncrementalArgmin`] answers by [`scan_argmin`] instead. Tests
/// force the tree at small `m` via [`IncrementalArgmin::with_threshold`],
/// and the scan at any `m` with a threshold of `usize::MAX`.
pub const TREE_THRESHOLD: usize = 64;

/// Monotone source of per-run nonces ([`TouchJournal::run`]): process-wide
/// so a scheduler reused against *any* other workspace (sweep workers
/// hand schedulers and workspaces around independently) can never mistake
/// a new run's journal for a continuation of the one it synced against.
static RUN_NONCE: AtomicU64 = AtomicU64::new(1);

/// The sequential argmin: one pass, strict `<`, so the lowest index wins
/// ties; all-infinite keys yield index 0. This is the reference the tree
/// is proven against, and the kernel's answer below its threshold.
///
/// # Panics
/// If any key is NaN, in every build (checked once, after the pass).
pub fn scan_argmin<F: FnMut(usize) -> f64>(m: usize, mut key: F) -> usize {
    let mut best = f64::INFINITY;
    let mut arg = 0usize;
    let mut nan = false;
    for j in 0..m {
        let k = key(j);
        nan |= k.is_nan();
        if k < best {
            best = k;
            arg = j;
        }
    }
    assert!(!nan, "scan_argmin: NaN key among {m} slaves");
    arg
}

/// Ring journal of event-touched slaves: the engine's one touch log,
/// maintained inside its workspace and handed to [`IncrementalArgmin`]
/// through [`SimView::touch_journal`](crate::SimView::touch_journal).
///
/// Every engine event that can change a slave's observable state (sends,
/// completions, failures, recoveries, estimate updates) appends the slave
/// index — deduplicated per refresh cycle, so a batch touches each slave
/// at most once. A run opens with one entry per slave (every cached view
/// starts stale). The engine's view refresh recomputes exactly the
/// entries appended since its previous refresh, and decision kernels
/// replay the entries since their own last sync. `epoch` counts appends
/// over the whole run; the ring holds the most recent `capacity` entries,
/// so a kernel whose lag exceeds the capacity simply rebuilds (correct
/// either way — for a kernel the journal is a performance hint, never a
/// source of truth).
#[derive(Debug, Default)]
pub(crate) struct TouchJournal {
    run: u64,
    epoch: u64,
    ring: Vec<u32>,
}

impl TouchJournal {
    /// Re-arms the journal for a fresh run over `m` slaves: new run
    /// nonce, epoch zero, ring sized to a power of two that comfortably
    /// covers a full between-decisions event burst (O(m)).
    pub(crate) fn reset(&mut self, m: usize) {
        self.run = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
        self.epoch = 0;
        let cap = (2 * m + 64).next_power_of_two();
        if self.ring.len() != cap {
            self.ring.clear();
            self.ring.resize(cap, 0);
        }
    }

    /// Appends a touched slave index.
    #[inline]
    pub(crate) fn touch(&mut self, j: u32) {
        let mask = self.ring.len() - 1;
        self.ring[(self.epoch as usize) & mask] = j;
        self.epoch += 1;
    }

    /// Nonce of the run this journal describes — unique process-wide, so
    /// comparing it against a previously synced nonce is a sound "same
    /// run?" test even for schedulers migrating between workspaces.
    pub(crate) fn run(&self) -> u64 {
        self.run
    }

    /// Total touches appended this run.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of most-recent entries the ring retains.
    pub(crate) fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The touch appended at absolute epoch `e`. Meaningful only for
    /// `e` within `capacity` of [`TouchJournal::epoch`].
    #[inline]
    pub(crate) fn entry(&self, e: u64) -> u32 {
        self.ring[(e as usize) & (self.ring.len() - 1)]
    }
}

/// Tournament tree of lexicographic `(key, slave index)` minima: a
/// power-of-two segment tree whose padding leaves hold `(+∞, u32::MAX)`
/// so they can never win against a real slave. Updates bubble a changed
/// leaf to the root in O(log m); the winner is read from the root in
/// O(1). Comparisons never round, so the root is exactly the
/// [`scan_argmin`] winner over the same keys.
#[derive(Debug, Default, Clone)]
pub(crate) struct ArgminTree {
    /// Node keys, 1-based heap layout (`key[1]` is the root, leaves at
    /// `p2..p2 + m`).
    key: Vec<f64>,
    /// Winning slave index per node (`u32::MAX` on padding).
    idx: Vec<u32>,
    m: usize,
    p2: usize,
}

impl ArgminTree {
    /// Number of leaves (slaves) currently indexed.
    pub(crate) fn len(&self) -> usize {
        self.m
    }

    #[inline]
    fn better(ka: f64, ia: u32, kb: f64, ib: u32) -> bool {
        // Is (kb, ib) lexicographically smaller than (ka, ia)?
        kb < ka || (kb == ka && ib < ia)
    }

    /// Re-keys every slave from `key` and rebuilds all internal nodes:
    /// O(m). Reuses node storage across runs of the same size.
    ///
    /// # Panics
    /// If any key is NaN, in every build.
    pub(crate) fn rebuild<F: FnMut(usize) -> f64>(&mut self, m: usize, key: &mut F) {
        let p2 = m.next_power_of_two().max(1);
        if self.p2 != p2 {
            self.key.clear();
            self.key.resize(2 * p2, f64::INFINITY);
            self.idx.clear();
            self.idx.resize(2 * p2, u32::MAX);
            self.p2 = p2;
        }
        self.m = m;
        let mut nan = false;
        for j in 0..m {
            let k = key(j);
            nan |= k.is_nan();
            self.key[p2 + j] = k;
            self.idx[p2 + j] = j as u32;
        }
        assert!(!nan, "ArgminTree::rebuild: NaN key among {m} slaves");
        for j in m..p2 {
            self.key[p2 + j] = f64::INFINITY;
            self.idx[p2 + j] = u32::MAX;
        }
        for i in (1..p2).rev() {
            let (lk, li) = (self.key[2 * i], self.idx[2 * i]);
            let (rk, ri) = (self.key[2 * i + 1], self.idx[2 * i + 1]);
            if Self::better(lk, li, rk, ri) {
                self.key[i] = rk;
                self.idx[i] = ri;
            } else {
                self.key[i] = lk;
                self.idx[i] = li;
            }
        }
    }

    /// Updates slave `j`'s key and bubbles the change to the root,
    /// stopping as soon as a node is unaffected: O(log m) worst case.
    ///
    /// # Panics
    /// If `k` is NaN, in every build.
    pub(crate) fn update(&mut self, j: usize, k: f64) {
        assert!(!k.is_nan(), "ArgminTree::update: NaN key for slave {j}");
        debug_assert!(j < self.m, "update of slave {j} past tree size {}", self.m);
        let mut i = self.p2 + j;
        if self.key[i].to_bits() == k.to_bits() {
            return;
        }
        self.key[i] = k;
        while i > 1 {
            i /= 2;
            let (lk, li) = (self.key[2 * i], self.idx[2 * i]);
            let (rk, ri) = (self.key[2 * i + 1], self.idx[2 * i + 1]);
            let (nk, ni) = if Self::better(lk, li, rk, ri) {
                (rk, ri)
            } else {
                (lk, li)
            };
            if self.key[i].to_bits() == nk.to_bits() && self.idx[i] == ni {
                break;
            }
            self.key[i] = nk;
            self.idx[i] = ni;
        }
    }

    /// The winning slave index — the [`scan_argmin`] answer over the
    /// current keys (index 0 when every key is `+∞`, like the scan).
    pub(crate) fn winner(&self) -> usize {
        debug_assert!(self.m > 0, "winner() on an empty tree");
        let i = self.idx[1];
        if i == u32::MAX {
            0
        } else {
            i as usize
        }
    }
}

/// The scheduler-facing decision kernel: an argmin over per-slave keys
/// that is sublinear in `m` on engine-backed views at or above its
/// threshold (a tournament tree synced from the engine's touch journal),
/// answers by [`scan_argmin`] otherwise, and is bit-identical to
/// [`scan_argmin`] always. A NaN key panics either way, in every build.
///
/// One kernel indexes **one key family**: the keys it caches are only
/// re-derived for journaled slaves, so calling [`IncrementalArgmin::argmin`]
/// with closures that disagree about un-touched slaves is a logic error.
/// If an external input to the key family changes wholesale (e.g. Round
/// Robin re-sorting its ring), call [`IncrementalArgmin::invalidate`].
#[derive(Debug, Clone)]
pub struct IncrementalArgmin {
    tree: ArgminTree,
    synced_run: u64,
    synced_epoch: u64,
    live: bool,
    threshold: usize,
}

impl Default for IncrementalArgmin {
    fn default() -> Self {
        IncrementalArgmin::new()
    }
}

impl IncrementalArgmin {
    /// A tree-backed kernel with the default small-`m` scan threshold.
    pub fn new() -> Self {
        IncrementalArgmin {
            tree: ArgminTree::default(),
            synced_run: 0,
            synced_epoch: 0,
            live: false,
            threshold: TREE_THRESHOLD,
        }
    }

    /// Overrides [`TREE_THRESHOLD`]: tests force the tree at tiny `m`
    /// with a threshold of 0, and the [`scan_argmin`] reference at any
    /// `m` with `usize::MAX`.
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold;
        self
    }

    /// Forgets all cached keys; the next decision rebuilds. Call after
    /// wholesale changes to the key family's external inputs.
    pub fn invalidate(&mut self) {
        self.live = false;
    }

    /// The slave minimizing `key`, resolving ties toward the lowest
    /// index — exactly the [`scan_argmin`] winner. Sublinear when the
    /// tree is engaged; [`scan_argmin`] itself otherwise.
    ///
    /// # Panics
    /// If a key it evaluates is NaN, in every build.
    pub fn argmin<F: FnMut(usize) -> f64>(&mut self, view: &SimView<'_>, mut key: F) -> SlaveId {
        let m = view.num_slaves();
        let journal = match view.touch_journal() {
            Some(j) if m >= self.threshold => j,
            _ => {
                record_kernel_scan();
                return SlaveId(scan_argmin(m, key));
            }
        };
        if !self.live
            || journal.run() != self.synced_run
            || m != self.tree.len()
            || journal.epoch() - self.synced_epoch > journal.capacity() as u64
        {
            self.tree.rebuild(m, &mut key);
            record_kernel_rebuild();
        } else if journal.epoch() > self.synced_epoch {
            for e in self.synced_epoch..journal.epoch() {
                let j = journal.entry(e) as usize;
                self.tree.update(j, key(j));
            }
            record_kernel_replayed(journal.epoch() - self.synced_epoch);
        }
        self.live = true;
        self.synced_run = journal.run();
        self.synced_epoch = journal.epoch();
        record_kernel_query();
        SlaveId(self.tree.winner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_tracks_scan_through_updates() {
        let mut keys: Vec<f64> = (0..37).map(|i| ((i * 29) % 17) as f64).collect();
        let mut tree = ArgminTree::default();
        tree.rebuild(keys.len(), &mut |j| keys[j]);
        assert_eq!(tree.winner(), scan_argmin(keys.len(), |j| keys[j]));
        // A deterministic walk of updates, including ties and infinities.
        for step in 0..200usize {
            let j = (step * 13) % keys.len();
            let k = match step % 4 {
                0 => f64::INFINITY,
                1 => 0.0,
                2 => ((step * 31) % 23) as f64,
                _ => keys[(step * 7) % keys.len()],
            };
            keys[j] = k;
            tree.update(j, k);
            assert_eq!(
                tree.winner(),
                scan_argmin(keys.len(), |j| keys[j]),
                "step {step}: keys {keys:?}"
            );
        }
    }

    #[test]
    fn all_infinite_keys_pick_slave_zero_everywhere() {
        let m = 9;
        let mut tree = ArgminTree::default();
        tree.rebuild(m, &mut |_| f64::INFINITY);
        assert_eq!(tree.winner(), 0);
        assert_eq!(scan_argmin(m, |_| f64::INFINITY), 0);
    }

    #[test]
    fn journal_ring_wraps_and_renumbers_runs() {
        let mut j = TouchJournal::default();
        j.reset(2);
        let first_run = j.run();
        let cap = j.capacity();
        assert!(cap >= 4 && cap.is_power_of_two());
        for i in 0..(cap as u64 + 3) {
            j.touch((i % 5) as u32);
        }
        assert_eq!(j.epoch(), cap as u64 + 3);
        // The most recent `cap` entries are retrievable.
        for e in j.epoch() - cap as u64..j.epoch() {
            assert_eq!(j.entry(e), (e % 5) as u32);
        }
        j.reset(2);
        assert_ne!(j.run(), first_run);
        assert_eq!(j.epoch(), 0);
    }
}
