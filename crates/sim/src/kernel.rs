//! Sublinear decision kernels: incremental argmin over the SoA slave state.
//!
//! Every paper heuristic reduces to repeated *argmin* decisions over
//! per-slave keys (SRPT's fastest idle slave, List Scheduling's earliest
//! estimated completion, Round Robin's first eligible ring slot). The
//! historical implementation re-scans all `m` slaves on every decision;
//! this module makes those decisions sublinear in `m` while staying
//! **bit-identical** to the linear scan:
//!
//! * [`scan_argmin`] — the historical sequential scan (strict `<` keeps
//!   the lowest index), kept as the executable reference;
//! * [`chunked_argmin`] — the same winner computed in 8 independent lanes
//!   and combined by an exact lexicographic `(key, index)` reduction. No
//!   arithmetic is performed on keys, only comparisons, so the winner is
//!   *exactly* the sequential scan's winner. Below one lane width it *is*
//!   the sequential scan (at the paper's m = 5 the lanes would only add a
//!   tail loop and a reduction);
//! * [`ArgminTree`] — a tournament tree (segment tree of min, ties broken
//!   by lowest slave index) over materialized keys: O(log m) per updated
//!   leaf, O(1) queries from the root;
//! * [`TouchJournal`] — the engine's one touch log: the ring of
//!   event-touched slaves that drives the engine's own view refresh and
//!   tells a kernel *which* leaves can have changed since it last synced;
//! * [`IncrementalArgmin`] — the scheduler-facing kernel combining all of
//!   the above: it replays the journal suffix into the tree (or rebuilds
//!   on a run/platform change or journal overflow) and answers from the
//!   root. Below [`TREE_THRESHOLD`] slaves, or on views without a journal
//!   (owned [`ViewState`](crate::ViewState)s), it falls back to the
//!   chunked scan.
//!
//! # The bit-identity argument
//!
//! The sequential scan keeps the first strictly smaller key, so its
//! winner is the minimum of the lexicographic pairs `(key_j, j)`. Lane
//! minima and tree nodes each hold the lexicographic minimum of a subset
//! of those pairs, and combining subsets loses nothing — min is
//! associative — so every strategy yields the same pair, hence the same
//! `SlaveId`, with **no** rounding anywhere (comparisons only). This is
//! what lets kernel-backed heuristics claim observational purity
//! (ARCHITECTURE contract #15): traces, digests and artifacts are
//! byte-identical to the scan-based heuristics they replace.
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
//! availability-filtered completion estimate) use the chunked scan.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::platform::SlaveId;
use crate::view::SimView;
use mss_obs::kernel_stats::{
    record_kernel_query, record_kernel_rebuild, record_kernel_replayed, record_kernel_scan,
};

/// Below this many slaves the tree bookkeeping costs more than it saves
/// and [`IncrementalArgmin`] answers by [`chunked_argmin`] instead. Tests
/// force the tree at small `m` via [`IncrementalArgmin::with_threshold`].
pub const TREE_THRESHOLD: usize = 64;

/// Monotone source of per-run nonces ([`TouchJournal::run`]): process-wide
/// so a scheduler reused against *any* other workspace (sweep workers
/// hand schedulers and workspaces around independently) can never mistake
/// a new run's journal for a continuation of the one it synced against.
static RUN_NONCE: AtomicU64 = AtomicU64::new(1);

/// The historical argmin: one sequential pass, strict `<`, so the lowest
/// index wins ties; all-infinite keys yield index 0. Keys must not be NaN
/// (debug-asserted). This is the executable reference the kernels are
/// proven against — production paths use [`chunked_argmin`] or the tree.
pub fn scan_argmin<F: FnMut(usize) -> f64>(m: usize, mut key: F) -> usize {
    let mut best = f64::INFINITY;
    let mut arg = 0usize;
    for j in 0..m {
        let k = key(j);
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
        if k < best {
            best = k;
            arg = j;
        }
    }
    arg
}

/// Exact chunked argmin: 8 independent lanes each keep the lexicographic
/// `(key, index)` minimum of their stripe, combined by one final exact
/// reduction. Same winner as [`scan_argmin`], bit for bit (comparisons
/// only, no arithmetic on keys); the dense stripes keep the hot loop free
/// of the single serial `best` dependency the sequential scan carries.
/// With fewer slaves than lanes there is no stripe to run, so it answers
/// by [`scan_argmin`] directly.
pub fn chunked_argmin<F: FnMut(usize) -> f64>(m: usize, mut key: F) -> usize {
    const LANES: usize = 8;
    if m < LANES {
        return scan_argmin(m, key);
    }
    let mut lane_key = [f64::INFINITY; LANES];
    let mut lane_idx = [usize::MAX; LANES];
    let mut base = 0usize;
    while base + LANES <= m {
        for l in 0..LANES {
            let j = base + l;
            let k = key(j);
            debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
            if k < lane_key[l] {
                lane_key[l] = k;
                lane_idx[l] = j;
            }
        }
        base += LANES;
    }
    for (l, j) in (base..m).enumerate() {
        let k = key(j);
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
        if k < lane_key[l] {
            lane_key[l] = k;
            lane_idx[l] = j;
        }
    }
    // Lexicographic (key, index) reduction over the lanes. A lane's index
    // is MAX iff it never saw a finite-beating key; if every lane is MAX
    // the scan's answer is index 0.
    let mut bk = f64::INFINITY;
    let mut bi = usize::MAX;
    for l in 0..LANES {
        if lane_key[l] < bk || (lane_key[l] == bk && lane_idx[l] < bi) {
            bk = lane_key[l];
            bi = lane_idx[l];
        }
    }
    if bi == usize::MAX {
        0
    } else {
        bi
    }
}

/// Ring journal of event-touched slaves: the engine's one touch log,
/// maintained inside its workspace and exposed to schedulers through
/// [`SimView::touch_journal`](crate::SimView::touch_journal).
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
pub struct TouchJournal {
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
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Total touches appended this run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of most-recent entries the ring retains.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// The touch appended at absolute epoch `e`. Meaningful only for
    /// `e` within `capacity` of [`TouchJournal::epoch`].
    #[inline]
    pub fn entry(&self, e: u64) -> u32 {
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
pub struct ArgminTree {
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
    pub fn len(&self) -> usize {
        self.m
    }

    /// `true` before the first rebuild.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    #[inline]
    fn better(ka: f64, ia: u32, kb: f64, ib: u32) -> bool {
        // Is (kb, ib) lexicographically smaller than (ka, ia)?
        kb < ka || (kb == ka && ib < ia)
    }

    /// Re-keys every slave from `key` and rebuilds all internal nodes:
    /// O(m). Reuses node storage across runs of the same size.
    pub fn rebuild<F: FnMut(usize) -> f64>(&mut self, m: usize, key: &mut F) {
        let p2 = m.next_power_of_two().max(1);
        if self.p2 != p2 {
            self.key.clear();
            self.key.resize(2 * p2, f64::INFINITY);
            self.idx.clear();
            self.idx.resize(2 * p2, u32::MAX);
            self.p2 = p2;
        }
        self.m = m;
        for j in 0..m {
            let k = key(j);
            debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
            self.key[p2 + j] = k;
            self.idx[p2 + j] = j as u32;
        }
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
    pub fn update(&mut self, j: usize, k: f64) {
        debug_assert!(!k.is_nan(), "argmin key for slave {j} is NaN");
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
    pub fn winner(&self) -> usize {
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
/// that is sublinear in `m` when the view carries a [`TouchJournal`] and
/// bit-identical to [`scan_argmin`] always.
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
    scan_only: bool,
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
            scan_only: false,
            threshold: TREE_THRESHOLD,
        }
    }

    /// The linear-scan reference kernel: every decision is answered by
    /// [`chunked_argmin`], never the tree. Equivalence proptests and the
    /// large-`m` work-count test use it as the historical path.
    pub fn scan_reference() -> Self {
        IncrementalArgmin {
            scan_only: true,
            ..IncrementalArgmin::new()
        }
    }

    /// Overrides [`TREE_THRESHOLD`] (tests force the tree at tiny `m`
    /// with a threshold of 0).
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
    /// tree is engaged; an exact chunked scan otherwise.
    pub fn argmin<F: FnMut(usize) -> f64>(&mut self, view: &SimView<'_>, mut key: F) -> SlaveId {
        let m = view.num_slaves();
        let journal = match view.touch_journal() {
            Some(j) if !self.scan_only && m >= self.threshold => j,
            _ => {
                record_kernel_scan();
                return SlaveId(chunked_argmin(m, key));
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
    fn chunked_matches_scan_on_awkward_shapes() {
        // Every m across the scan fallback and the first lane boundaries,
        // with ties and both infinities: key of slave j among m.
        const INF: f64 = f64::INFINITY;
        let shapes: [fn(usize, usize) -> f64; 7] = [
            |_, _| 4.0,
            |_, _| INF,
            |_, _| -INF,
            |_, j| ((j * 7) % 3) as f64,
            |m, j| if j + 1 == m { -INF } else { INF },
            |_, j| [INF, -INF, 1.0, -INF][j % 4],
            |m, j| if j % 5 == 2 { -1.0 } else { (m - j) as f64 },
        ];
        for m in 1..=17usize {
            for (s, key) in shapes.iter().enumerate() {
                let keys: Vec<f64> = (0..m).map(|j| key(m, j)).collect();
                assert_eq!(
                    chunked_argmin(m, |j| keys[j]),
                    scan_argmin(m, |j| keys[j]),
                    "m = {m}, shape {s}: keys {keys:?}"
                );
            }
        }
        // Duplicate minima, infinities, lane boundaries, tiny m.
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![3.0],
            vec![f64::INFINITY],
            vec![f64::INFINITY; 17],
            vec![2.0, 1.0, 1.0, 5.0],
            (0..64).map(|i| ((i * 7) % 13) as f64).collect(),
            (0..65).map(|i| ((i * 11) % 5) as f64).collect(),
            (0..100)
                .map(|i| if i % 9 == 0 { f64::INFINITY } else { 4.0 })
                .collect(),
        ];
        for keys in cases {
            let m = keys.len();
            if m == 0 {
                continue;
            }
            assert_eq!(
                chunked_argmin(m, |j| keys[j]),
                scan_argmin(m, |j| keys[j]),
                "keys {keys:?}"
            );
        }
    }

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
        assert_eq!(chunked_argmin(m, |_| f64::INFINITY), 0);
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
