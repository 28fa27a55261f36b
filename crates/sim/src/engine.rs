//! The discrete-event engine.
//!
//! A [`Simulation`] runs one on-line scheduler over one task stream on one
//! platform and returns the full [`Trace`] ([`Simulation::trace`]) or the
//! objective values alone ([`Simulation::objectives`]); [`simulate`] is its
//! one-line form for a task slice. The engine owns the two scarce
//! resources of the model and enforces them *by construction*:
//!
//! * the master's **one port** — a single link state; a send can only
//!   start when the port is idle, and occupies it for `c_j · size_c` seconds
//!   (at least one representable instant, even where the clock absorbs a
//!   tiny transfer), so at most one send is ever in flight;
//! * each slave's **serial execution** — a slave computes the tasks it has
//!   received one at a time, FIFO, each for `p_j · size_p` seconds.
//!
//! # One input: a pulled task stream
//!
//! In the paper's on-line model the master learns of task `i` only at its
//! release `r_i`, so the engine's only input is a [`TaskSource`] pulled in
//! release order, one task of lookahead ahead of the clock. A slice reaches
//! it through [`SliceSource`]. Each pulled arrival is checked once: its
//! release must be finite, non-negative and no earlier than the previous
//! one, and both size multipliers finite and positive; a violation is a
//! [`SimError::InvalidTask`] naming the task, never a panic, and so is a
//! pull the source itself fails ([`TaskSource::error`]). Tasks get
//! dense ids in pull order and enter a window of task slots on release;
//! [`Simulation::objectives`] retires each slot once its record is folded
//! into the objectives, so a run's memory tracks its in-flight tasks, not
//! the instance size, while [`Simulation::trace`] keeps every slot to
//! build the trace.
//!
//! Determinism: events are processed in `(time, insertion sequence)` order
//! and all simultaneous events are applied and delivered to the scheduler
//! before any decision is taken, so a deterministic scheduler always sees
//! the same history — the adversary games rely on this to replay prefixes.
//!
//! An optional platform-event [`Timeline`] (slave failures, recoveries,
//! link/speed drift — see [`crate::events`]) is merged into the same event
//! order after the task releases, so the determinism contract extends
//! unchanged to dynamic platforms, and an empty timeline is bit-for-bit
//! the static engine.
//!
//! # The zero-allocation hot path
//!
//! The event loop performs **no heap allocation in steady state**: every
//! buffer it touches lives in a [`SimWorkspace`] that is sized once and
//! reused, both across the events of one run and — through
//! [`Simulation::workspace`] — across runs (the sweep executor keeps one
//! workspace per worker thread). Three mechanisms make this possible:
//!
//! * **incrementally maintained slave views** — the [`SlaveView`] handed to
//!   the scheduler is cached per slave and recomputed only when an event
//!   touched that slave. One touch log serves both the views and the
//!   decision kernels: every touch is one entry in the workspace's
//!   [`TouchJournal`] ring (a per-slave dirty flag deduplicates them), and
//!   a refresh walks the entries since the previous refresh. A recompute
//!   keeps the cached ready estimate unless an off-time event moved it: a
//!   send extends it in O(1) by the fold's last step, an on-time arrival or
//!   completion leaves it unchanged, and only an early or late one refolds
//!   the slave's queue — so on nominal-size, drift-free runs no queue is
//!   ever refolded. The estimate depends on the clock only once the clock
//!   has passed the row's anchor (the computing task's nominal end, or the
//!   in-flight head's nominal arrival), which only an event billed late
//!   allows; the view answers such an *overdue* row itself, by the fold
//!   from `now` over facts each recompute records
//!   (`Engine::recompute_view`), and an on-time row by its cached column
//!   after one compare. Idle slaves — whose fold is `now` itself — are
//!   answered lazily too, so a refresh touches only the slaves that
//!   actually changed: O(touched · log m) per callback, not O(m). Kept,
//!   extended, refolded or answered from `now`, the estimate is the *same
//!   sequential float arithmetic* as a from-scratch evaluation, so cached
//!   and fresh views are bit-identical — a `debug_assertions` oracle
//!   re-derives every view from scratch after each refresh and asserts
//!   bitwise equality;
//! * **an indexed task-slot window** — pending-membership checks in
//!   [`Decision::Send`] validation are O(1) lookups of the task's slot
//!   instead of a scan of the pending queue, and the pending queue itself
//!   is a ring buffer (front pops — the common case for every paper
//!   heuristic — are O(1) and move no memory);
//! * **a lean one-port event queue** — the runtime heap holds 24-byte
//!   `(time, seq, slot)` entries for computation ends and wake-ups. An
//!   entry names a slave (or a marker), never a task: the engine's own
//!   state names the task and decides whether the entry is still live, so a
//!   failure voids entries without any side set. The port's one live send
//!   never enters the heap; it sits in its own slot, due when the port
//!   frees. The heap and the notification buffers are pre-sized and
//!   reused, so pushes in steady state never grow capacity.
//!
//! The determinism contract above is unaffected: this module's refactor is
//! observationally transparent (fig1a–d/fig2/table1 artifacts are
//! byte-identical to the pre-refactor engine, enforced by the lab's
//! regression suite).

use crate::events::{PlatformEventKind, Timeline};
use crate::info::{InfoTier, SlaveEstimates};
use crate::kernel::TouchJournal;
use crate::platform::{Platform, SlaveId};
use crate::scheduler::{Decision, OnlineScheduler, SchedulerEvent};
use crate::source::{SliceSource, TaskSource};
use crate::task::{TaskArrival, TaskId};
use crate::time::Time;
use crate::trace::{TaskRecord, Trace};
use crate::view::{nominal_ready_row, ReadyAnchors, SimView, SlaveViews};
use mss_obs::{NoopProbe, Probe};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// If `Some(n)`, schedulers are told the instance will contain `n` tasks
    /// in total (the knowledge the paper grants SLJF/SLJFWC). `None` for the
    /// pure on-line setting.
    pub horizon_hint: Option<usize>,
    /// Hard cap on processed events + scheduler polls, to turn scheduler
    /// bugs (e.g. busy wake loops) into errors instead of hangs.
    pub max_steps: usize,
    /// Information tier the scheduler's views filter at (see
    /// [`InfoTier`]). `Clairvoyant` — the default — is the paper's fully
    /// informed setting and is bit-identical to the historical engine;
    /// below it the engine additionally maintains the per-slave learned
    /// rate estimates the filtered views answer from.
    pub info: InfoTier,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon_hint: None,
            max_steps: 10_000_000,
            info: InfoTier::Clairvoyant,
        }
    }
}

impl SimConfig {
    /// Config that reveals the total task count to the scheduler.
    pub fn with_horizon(n: usize) -> Self {
        SimConfig {
            horizon_hint: Some(n),
            ..SimConfig::default()
        }
    }
}

/// Why a simulation could not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// No events remain, the port is idle, tasks are unfinished, and the
    /// scheduler keeps answering [`Decision::Idle`].
    Stalled {
        /// Time at which the simulation stalled.
        at: Time,
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks in the instance.
        total: usize,
    },
    /// The scheduler returned a decision that violates the model.
    InvalidDecision {
        /// Time of the offending decision.
        at: Time,
        /// Human-readable explanation.
        reason: String,
    },
    /// `max_steps` exhausted (runaway wake loop or gigantic instance).
    BudgetExhausted {
        /// The configured step budget.
        max_steps: usize,
    },
    /// The run's [`InfoTier`] grants less information than the scheduler
    /// declared it needs to stay live ([`OnlineScheduler::min_tier`]);
    /// refused before the first event.
    InsufficientInformation {
        /// The tier the run was configured with.
        granted: InfoTier,
        /// The scheduler's declared minimum tier.
        required: InfoTier,
    },
    /// A pulled arrival broke the input contract: its release is not
    /// finite, is negative or decreases below the previous release, or a
    /// size multiplier is not finite and positive. Or the source failed
    /// the pull and ended early ([`TaskSource::error`]); a trace then
    /// names the file and line it could not read. Raised when the task is
    /// pulled, before it is released.
    InvalidTask {
        /// The offending task (its index in pull order).
        task: TaskId,
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                at,
                completed,
                total,
            } => write!(
                f,
                "simulation stalled at {at}: {completed}/{total} tasks completed and the scheduler idles"
            ),
            SimError::InvalidDecision { at, reason } => {
                write!(f, "invalid scheduler decision at {at}: {reason}")
            }
            SimError::BudgetExhausted { max_steps } => {
                write!(f, "step budget of {max_steps} exhausted")
            }
            SimError::InsufficientInformation { granted, required } => write!(
                f,
                "information tier `{granted}` is below the scheduler's declared minimum `{required}`"
            ),
            SimError::InvalidTask { task, reason } => write!(f, "invalid task {task}: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Internal event kinds. `Platform(i)` indexes into the run's [`Timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Release(TaskId),
    SendComplete(TaskId, SlaveId),
    ComputeComplete(TaskId, SlaveId),
    Platform(usize),
    Wake,
}

/// One entry of the runtime event heap. It names no task: the engine's
/// state does, and decides whether the entry is still live when it pops
/// ([`Engine::pop_next`]). `slot` is `j` for slave `j`'s computation end,
/// [`WAKE`] for a wake-up, or [`VOID`] for a send a failure aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapItem {
    time: Time,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<HeapItem>() <= 24);

/// [`HeapItem::slot`] of a wake-up: always live.
const WAKE: u32 = u32::MAX;
/// [`HeapItem::slot`] of a send aborted by its slave's failure: never live,
/// but it still pops at the send's old end.
const VOID: u32 = u32::MAX - 1;

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One task outstanding at (or in flight towards) a slave.
#[derive(Clone, Copy, Debug)]
struct OutTask {
    id: TaskId,
    /// Predicted (or, once observed, actual) time the slave has the task.
    avail: f64,
}

#[derive(Clone, Debug, Default)]
struct SlaveRt {
    /// Sent-and-not-completed tasks, in send order. Index 0 is the one
    /// currently computing when `computing` is `Some`.
    outstanding: VecDeque<OutTask>,
    /// Received tasks waiting to compute (subset of `outstanding`).
    queue: VecDeque<TaskId>,
    /// Task currently computing, if any.
    computing: Option<TaskId>,
    /// Sequence number of the current computation's heap entry. A popped
    /// entry `(j, seq)` is live iff `computing` is `Some` and this equals
    /// `seq`: a failure or a later computation leaves the entry dead.
    compute_seq: u64,
    /// Predicted end of the current computation (nominal size).
    cur_pred_end: f64,
    /// Billed end of the current computation: when its `ComputeComplete`
    /// fires. Later than `cur_pred_end` only under perturbed sizes or
    /// speed drift.
    cur_end: f64,
    /// `true` while the slave is failed (scenario timelines only).
    down: bool,
    completed: usize,
}

impl SlaveRt {
    /// Clears per-run state while keeping buffer capacity.
    fn reset(&mut self) {
        self.outstanding.clear();
        self.queue.clear();
        self.computing = None;
        self.compute_seq = 0;
        self.cur_pred_end = 0.0;
        self.cur_end = 0.0;
        self.down = false;
        self.completed = 0;
    }
}

/// One task's slot in the workspace window: the arrival pulled from the
/// source (its release sits in the parallel `releases` column), the task's
/// lifecycle phase, and the partial record its [`TaskRecord`] is built
/// from.
#[derive(Clone, Copy, Debug)]
struct PartialRecord {
    phase: TaskPhase,
    /// Actual size multipliers, as pulled from the source.
    size_c: f64,
    size_p: f64,
    send_start: f64,
    send_end: f64,
    compute_start: f64,
    compute_end: f64,
    /// Billed multipliers of the successful attempt: the task's actual size
    /// times the drift factor in force when the phase started.
    billed_c: f64,
    billed_p: f64,
    slave: usize,
}

impl PartialRecord {
    /// The slot of a task released just now.
    fn released(arr: TaskArrival) -> Self {
        PartialRecord {
            phase: TaskPhase::Pending,
            size_c: arr.size_c,
            size_p: arr.size_p,
            send_start: 0.0,
            send_end: 0.0,
            compute_start: 0.0,
            compute_end: 0.0,
            billed_c: 0.0,
            billed_p: 0.0,
            slave: 0,
        }
    }
}

/// Lifecycle phase of a released task, kept in its slot — what makes
/// pending-membership checks O(1) (no scan of the pending queue). A task
/// that has not been released yet has no slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskPhase {
    /// Released and waiting at the master (member of the pending queue).
    Pending,
    /// Sent (or in flight) to a slave.
    Assigned,
    /// Computation completed.
    Done,
}

/// Reusable simulation buffers — the allocation arena of the engine.
///
/// A workspace owns every growable structure the event loop touches: the
/// runtime event heap (computation ends, wake-ups and aborted sends; the
/// port's one live send is kept by the engine, not here), per-slave
/// runtime queues, the pending ring buffer, the task slot window, the
/// incrementally maintained [`SlaveViews`] column cache with the anchors
/// its busy rows are answered by, and the touch-journal ring that is
/// both the views' dirty list and the decision kernels' change log. A run
/// re-initializes it and the loop then runs allocation-free in steady
/// state; reusing one workspace across runs ([`Simulation::workspace`], as
/// the `mss-sweep` executor does per worker thread) also skips the sizing.
///
/// Results are bit-identical whether a workspace is fresh or reused — every
/// field is re-initialized per run.
///
/// # Examples
/// ```
/// use mss_sim::{Simulation, SimConfig, SimWorkspace, SliceSource, Platform, bag_of_tasks};
/// use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
///
/// struct FirstSlave;
/// impl OnlineScheduler for FirstSlave {
///     fn name(&self) -> String { "first".into() }
///     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
///         match (view.link_idle(), view.pending_tasks().first()) {
///             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
///             _ => Decision::Idle,
///         }
///     }
/// }
///
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let config = SimConfig::default();
/// let tasks = bag_of_tasks(5);
/// let mut ws = SimWorkspace::new();
/// // Buffers warmed by the first run are reused by the second.
/// let a = Simulation::new(&platform, &config).workspace(&mut ws)
///     .trace(SliceSource::new(&tasks), &mut FirstSlave).unwrap();
/// let b = Simulation::new(&platform, &config).workspace(&mut ws)
///     .trace(SliceSource::new(&tasks), &mut FirstSlave).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    heap: BinaryHeap<Reverse<HeapItem>>,
    slaves: Vec<SlaveRt>,
    /// Current drift factors; effective `c_j`/`p_j` is nominal × factor.
    link_factor: Vec<f64>,
    speed_factor: Vec<f64>,
    /// Released, unassigned tasks in FIFO order. A ring buffer so that the
    /// dominant removal pattern (the oldest task) is O(1); kept contiguous
    /// so `SimView::pending_tasks` can hand out a plain slice.
    pending: VecDeque<TaskId>,
    /// The task slot window: slot `i` holds task `window_start + i`. A
    /// task's slot is appended when it is released; bounded-memory runs
    /// recycle the finalized prefix.
    records: Vec<PartialRecord>,
    /// Release times, parallel to `records` (the dense column
    /// [`SimView::release_time`] reads).
    releases: Vec<Time>,
    /// First task id resident in the slot window. Stays `0` in runs that
    /// keep every slot (trace builds); advanced by slot recycling in
    /// bounded-memory runs.
    window_start: usize,
    /// Cached per-slave observable state, maintained incrementally —
    /// column-major ([`SlaveViews`]), so scheduler-side argmin scans read
    /// dense same-typed columns.
    views: SlaveViews,
    /// Per-slave anchors, queued counts and in-flight arrivals, written at
    /// every recompute: what lets a view answer a busy row whose anchor the
    /// clock has passed without the engine refolding it (see
    /// [`Engine::recompute_view`]).
    anchors: ReadyAnchors,
    /// Set when an event touched the slave since its view was cached: its
    /// touch sits in `journal` past the engine's `refreshed` cursor.
    view_dirty: Vec<bool>,
    /// Set when an off-time event changed the slave's queue: an arrival or
    /// completion billed away from its predicted instant, or a task lost on
    /// arrival. The next recompute then folds the queue from scratch instead
    /// of keeping `views.ready_estimate[j]` (see [`Engine::recompute_view`]).
    view_refold: Vec<bool>,
    /// The one touch log: every `clean → dirty` transition of a slave's
    /// view appends its index. `refresh_views` recomputes the entries
    /// appended since its previous call; the scheduler-side decision
    /// kernels (see [`crate::kernel`]) replay the same entries through
    /// [`SimView::touch_journal`]. The dirty flag deduplicates, so at
    /// most `m` entries build up between refreshes — well within the
    /// ring's capacity.
    journal: TouchJournal,
    /// Per-slave learned rate estimates (the observable raw material of
    /// the sub-clairvoyant information tiers). Maintained only when the
    /// run's tier is below `Clairvoyant`; at `Clairvoyant` the hot path
    /// never touches them, so the historical engine is unchanged bit for
    /// bit. Column-major ([`SlaveEstimates`]) with memoized believed
    /// rates, so sub-clairvoyant argmin scans are dense `f64` reads.
    estimates: SlaveEstimates,
    /// Per-batch notification buffer (reused across batches).
    notifications: Vec<SchedulerEvent>,
    /// Scratch for tasks lost to a slave failure.
    lost: Vec<TaskId>,
    /// Timeline event indices, stably sorted by `(time, index)` (the
    /// historical order of their heap entries, which carried sequence
    /// numbers `n..n+k`).
    timeline_order: Vec<u32>,
}

impl SimWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Slot index of task `t` in the window.
    #[inline]
    fn slot(&self, t: TaskId) -> usize {
        t.0 - self.window_start
    }

    /// Re-initializes every buffer for a run over `platform`, keeping
    /// capacity from previous runs. The slot window starts empty and grows
    /// as tasks are released.
    fn reset(&mut self, platform: &Platform, timeline: &Timeline) {
        let m = platform.num_slaves();
        // Heap entries name a slave by a `u32` slot below the two markers.
        assert!(
            m <= VOID as usize,
            "{m} slaves do not fit the event heap's slave slots"
        );
        self.heap.clear();
        // Releases and timeline events are streamed from their sorted
        // sources, and the port's live send has its own slot; the heap only
        // holds computation ends (one live per slave, plus those a failure
        // voided), aborted sends and a few wakes.
        self.heap.reserve(m + 8);
        self.timeline_order.clear();
        self.timeline_order
            .extend(0..timeline.events().len() as u32);
        let tl = timeline.events();
        if !tl.windows(2).all(|w| w[0].time <= w[1].time) {
            self.timeline_order
                .sort_unstable_by_key(|&i| (tl[i as usize].time, i));
        }
        self.records.clear();
        self.releases.clear();
        self.window_start = 0;
        for s in &mut self.slaves {
            s.reset();
        }
        if self.slaves.len() > m {
            self.slaves.truncate(m);
        } else {
            self.slaves.resize_with(m, SlaveRt::default);
        }
        self.link_factor.clear();
        self.link_factor.resize(m, 1.0);
        self.speed_factor.clear();
        self.speed_factor.resize(m, 1.0);
        self.pending.clear();
        self.views.reset(m);
        self.anchors.reset(m);
        self.view_dirty.clear();
        self.view_dirty.resize(m, true);
        self.view_refold.clear();
        self.view_refold.resize(m, false);
        // Every view starts dirty, so the log opens with one touch per
        // slave; the first refresh recomputes them all.
        self.journal.reset(m);
        for j in 0..m as u32 {
            self.journal.touch(j);
        }
        self.estimates.reset(m);
        self.notifications.clear();
        self.lost.clear();
    }
}

/// Recycle slots only once at least this many lead the window: keeps the
/// compaction memmove amortized O(1) per task without letting tiny windows
/// thrash.
const COMPACT_MIN: usize = 64;

/// The engine's input: pulls a [`TaskSource`] one task ahead of the
/// releases, checks each arrival once as it is pulled, and appends its
/// slot to the workspace window on release.
///
/// In `recycle` mode it also finalizes completed records in id order as
/// they complete — folding the three objectives with the arithmetic (and
/// fold order) of [`Trace::makespan`], [`Trace::max_flow`] and
/// [`Trace::sum_flow`] — and compacts the window at batch ends, so a run's
/// resident slot count stays proportional to the number of *in-flight*
/// tasks, not the instance size.
struct StreamFeed<S> {
    source: S,
    /// The next arrival, already pulled and checked; `None` once the
    /// source is exhausted.
    next: Option<TaskArrival>,
    /// Id of the next arrival (== tasks released so far).
    next_id: usize,
    /// Greatest release pulled so far (releases must not decrease).
    last_release: f64,
    /// `false` retains every slot (trace builds); `true` recycles.
    recycle: bool,
    /// First task id not yet folded into the objective accumulators.
    finalize_cursor: usize,
    /// Set when the current batch advanced `finalize_cursor`.
    finalized: bool,
    makespan: f64,
    max_flow: f64,
    sum_flow: f64,
    peak_live: usize,
    peak_resident: usize,
}

impl<S: TaskSource> StreamFeed<S> {
    fn new(source: S, recycle: bool) -> Self {
        StreamFeed {
            source,
            next: None,
            next_id: 0,
            last_release: 0.0,
            recycle,
            finalize_cursor: 0,
            finalized: false,
            makespan: 0.0,
            max_flow: 0.0,
            sum_flow: 0.0,
            peak_live: 0,
            peak_resident: 0,
        }
    }

    /// Pulls the first arrival; called once, before the first event.
    fn start(&mut self) -> Result<(), SimError> {
        self.next = self.pull()?;
        Ok(())
    }

    /// Pulls the arrival of task `next_id`, checking its input contract.
    /// A source that ends on a failed pull ([`TaskSource::error`]) ends
    /// the run.
    #[inline]
    fn pull(&mut self) -> Result<Option<TaskArrival>, SimError> {
        let Some(arr) = self.source.next_task() else {
            return match self.source.error() {
                None => Ok(None),
                Some(reason) => Err(self.source_failed(reason)),
            };
        };
        let r = arr.release.as_f64();
        // One fused test for the common case; `NaN` fails every comparison
        // and lands in `reject`.
        let valid = r >= self.last_release
            && r < f64::INFINITY
            && arr.size_c > 0.0
            && arr.size_c < f64::INFINITY
            && arr.size_p > 0.0
            && arr.size_p < f64::INFINITY;
        if !valid {
            return Err(self.reject(arr));
        }
        self.last_release = r;
        Ok(Some(arr))
    }

    /// The [`SimError::InvalidTask`] of a pull the source failed, with
    /// the source's located reason.
    #[cold]
    fn source_failed(&self, reason: &str) -> SimError {
        SimError::InvalidTask {
            task: TaskId(self.next_id),
            reason: reason.to_owned(),
        }
    }

    /// The [`SimError::InvalidTask`] of an arrival that failed the check
    /// in [`StreamFeed::pull`].
    #[cold]
    fn reject(&self, arr: TaskArrival) -> SimError {
        let r = arr.release.as_f64();
        let reason = if !(r.is_finite() && r >= 0.0) {
            format!("release {r} is not a finite, non-negative time")
        } else if r < self.last_release {
            format!(
                "release {r} decreases below the previous release {}; a task source \
                 must yield non-decreasing releases",
                self.last_release
            )
        } else {
            format!(
                "size multipliers ({}, {}) must be finite and positive",
                arr.size_c, arr.size_p
            )
        };
        SimError::InvalidTask {
            task: TaskId(self.next_id),
            reason,
        }
    }

    /// Release time of the next unreleased task, if any.
    #[inline]
    fn next_release(&self) -> Option<Time> {
        self.next.as_ref().map(|a| a.release)
    }

    /// Releases the next task — only called when
    /// [`StreamFeed::next_release`] is `Some` — appending its slot to the
    /// window, and pulls the one after it.
    #[inline]
    fn pop_release(&mut self, ws: &mut SimWorkspace) -> Result<TaskId, SimError> {
        let arr = self.next.expect("pop_release with a next arrival");
        let t = TaskId(self.next_id);
        self.next_id += 1;
        ws.records.push(PartialRecord::released(arr));
        ws.releases.push(arr.release);
        self.peak_resident = self.peak_resident.max(ws.records.len());
        let live = ws.records.len() - (self.finalize_cursor - ws.window_start);
        self.peak_live = self.peak_live.max(live);
        self.next = self.pull()?;
        Ok(t)
    }

    /// `true` once the run is over: the source is exhausted and every
    /// pulled task has completed.
    #[inline]
    fn is_complete(&self, completed: usize) -> bool {
        self.next.is_none() && completed >= self.next_id
    }

    /// Folds the completed prefix of the window into the objectives, in
    /// id order: the same values, in the same fold order, as the trace's
    /// objective folds, so the accumulated objectives are bit-identical to
    /// them. Called by a recycling run when the task at the cursor
    /// completes.
    fn finalize(&mut self, ws: &SimWorkspace) {
        loop {
            let slot = self.finalize_cursor - ws.window_start;
            match ws.records.get(slot) {
                Some(r) if r.phase == TaskPhase::Done => {
                    let flow = r.compute_end - ws.releases[slot].as_f64();
                    self.makespan = self.makespan.max(r.compute_end);
                    self.max_flow = self.max_flow.max(flow);
                    self.sum_flow += flow;
                    self.finalize_cursor += 1;
                }
                _ => break,
            }
        }
        self.finalized = true;
    }

    /// End-of-batch housekeeping of a recycling run: recycles the
    /// finalized slots once they dominate the window — amortized O(1) per
    /// task, allocation-free (`drain` keeps capacity), and the window
    /// length stays within 2× the live count + the threshold. Only a batch
    /// that finalized a task can newly satisfy that condition (pushes only
    /// add live slots), so the others skip the check.
    #[inline]
    fn maintain(&mut self, ws: &mut SimWorkspace) {
        if !self.finalized {
            return;
        }
        self.finalized = false;
        let dead = self.finalize_cursor - ws.window_start;
        let live = ws.records.len() - dead;
        if dead >= COMPACT_MIN && dead >= live {
            ws.records.drain(..dead);
            ws.releases.drain(..dead);
            ws.window_start += dead;
        }
    }

    /// The result of a finished recycling run.
    fn stats(&self) -> StreamStats {
        debug_assert_eq!(self.finalize_cursor, self.next_id, "every record folded");
        StreamStats {
            objectives: RunObjectives {
                makespan: self.makespan,
                max_flow: self.max_flow,
                sum_flow: self.sum_flow,
            },
            tasks: self.next_id,
            peak_live_slots: self.peak_live,
            peak_resident_slots: self.peak_resident,
        }
    }
}

struct Engine<'a, P: Probe, S: TaskSource> {
    platform: &'a Platform,
    feed: &'a mut StreamFeed<S>,
    config: &'a SimConfig,
    timeline: &'a Timeline,
    ws: &'a mut SimWorkspace,
    /// Instrumentation hooks. Monomorphized: with the default [`NoopProbe`]
    /// every hook call is an empty inlined body and the engine compiles to
    /// exactly the unprobed code (contract #11).
    probe: &'a mut P,
    clock: Time,
    /// Next sequence number of a runtime event (heap entry or send).
    seq: u64,
    link_busy_until: Time,
    /// The send currently occupying the port, with its sequence number:
    /// the event queue's send slot, due at `link_busy_until`. The one port
    /// holds at most one send, so it never enters the heap.
    in_flight: Option<(TaskId, SlaveId, u64)>,
    completed_count: usize,
    steps: usize,
    /// `true` iff the run's tier is below `Clairvoyant` and the engine
    /// therefore maintains the learned per-slave estimates.
    learning: bool,
    /// Bumped on every absorbed observation (stays 0 when not learning).
    estimate_version: u64,
    /// Next entry of `ws.timeline_order` to stream.
    timeline_cursor: usize,
    /// Journal epoch up to which `refresh_views` has recomputed views.
    refreshed: u64,
}

impl<'a, P: Probe, S: TaskSource> Engine<'a, P, S> {
    fn new(
        platform: &'a Platform,
        feed: &'a mut StreamFeed<S>,
        config: &'a SimConfig,
        timeline: &'a Timeline,
        ws: &'a mut SimWorkspace,
        probe: &'a mut P,
    ) -> Self {
        ws.reset(platform, timeline);
        // Releases own no sequence numbers; only the relative order of
        // runtime seqs is observable (the release > timeline > runtime tie
        // priority is resolved structurally by `pop_next`), so runtime
        // events — heap entries and sends — count on from the timeline's.
        let seq = timeline.events().len() as u64;
        Engine {
            platform,
            feed,
            config,
            timeline,
            ws,
            probe,
            clock: Time::ZERO,
            seq,
            link_busy_until: Time::ZERO,
            in_flight: None,
            completed_count: 0,
            steps: 0,
            learning: config.info != InfoTier::Clairvoyant,
            estimate_version: 0,
            timeline_cursor: 0,
            refreshed: 0,
        }
    }

    /// Pops the next event across the three sources (release stream,
    /// timeline stream, runtime events) in `(time, seq)` order; `None` when
    /// all are exhausted. With `at = Some(t)`, only an event at exactly `t`
    /// is popped (the batch-draining mode). Returns `(event, time)`.
    ///
    /// The runtime events are the port's live send, kept in its own slot
    /// (`in_flight`, due at `link_busy_until`), and the heap, whichever is
    /// first in `(time, seq)` order. A heap entry names no task, and the
    /// engine's state decides whether it is live: a computation entry
    /// `(j, seq)` is iff slave `j` is still computing under that `seq`, a
    /// wake-up always is, and a send a failure aborted never is. A dead
    /// entry still pops at its instant, as `None` — it opens a batch there,
    /// so the scheduler is polled then — and the caller skips it.
    ///
    /// Time ties resolve by the historical sequence layout without any seq
    /// arithmetic: releases beat timeline events, which beat runtime
    /// events; within the streams their order is already the seq order, and
    /// the runtime events compare `(time, seq)`. Fails when the next pulled
    /// arrival breaks the input contract.
    fn pop_next(&mut self, at: Option<Time>) -> Result<Option<(Option<Event>, Time)>, SimError> {
        let release_t = self.feed.next_release();
        // Batch-drain fast path: while draining the batch at time `a`, no
        // source can hold anything earlier than `a`, and a release at `a`
        // beats every same-time candidate (it has the smallest seq) — so it
        // pops without consulting the other two sources at all. This makes
        // a bag-of-tasks release flood a straight cursor walk.
        if let (Some(a), Some(rt)) = (at, release_t) {
            if rt == a {
                let t = self.feed.pop_release(self.ws)?;
                return Ok(Some((Some(Event::Release(t)), rt)));
            }
        }
        let timeline_t = self
            .ws
            .timeline_order
            .get(self.timeline_cursor)
            .map(|&i| self.timeline.events()[i as usize].time);
        let top = self
            .ws
            .heap
            .peek()
            .map(|&Reverse(item)| (item.time, item.seq));
        let send = self
            .in_flight
            .map(|(_, _, seq)| (self.link_busy_until, seq));
        let (runtime_t, send_first) = match (send, top) {
            (Some(s), Some(h)) if h < s => (Some(h.0), false),
            (Some(s), _) => (Some(s.0), true),
            (None, h) => (h.map(|h| h.0), false),
        };

        if let Some(rt) = release_t {
            if timeline_t.is_none_or(|t| rt <= t) && runtime_t.is_none_or(|t| rt <= t) {
                if at.is_some_and(|a| rt != a) {
                    return Ok(None);
                }
                let t = self.feed.pop_release(self.ws)?;
                return Ok(Some((Some(Event::Release(t)), rt)));
            }
        }
        if let Some(tt) = timeline_t {
            if runtime_t.is_none_or(|t| tt <= t) {
                if at.is_some_and(|a| tt != a) {
                    return Ok(None);
                }
                let i = self.ws.timeline_order[self.timeline_cursor];
                self.timeline_cursor += 1;
                return Ok(Some((Some(Event::Platform(i as usize)), tt)));
            }
        }
        let Some(ht) = runtime_t else {
            return Ok(None);
        };
        if at.is_some_and(|a| ht != a) {
            return Ok(None);
        }
        if send_first {
            let (t, j, _) = self.in_flight.take().expect("the send slot was just read");
            return Ok(Some((Some(Event::SendComplete(t, j)), ht)));
        }
        let Reverse(item) = self.ws.heap.pop().expect("heap top just peeked");
        let event = match item.slot {
            WAKE => Some(Event::Wake),
            VOID => None,
            j => {
                let rt = &self.ws.slaves[j as usize];
                rt.computing
                    .filter(|_| rt.compute_seq == item.seq)
                    .map(|t| Event::ComputeComplete(t, SlaveId(j as usize)))
            }
        };
        Ok(Some((event, ht)))
    }

    /// Draws the next runtime sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Pushes a heap entry for `slot` at `time` under a fresh sequence
    /// number, and returns that number.
    fn push(&mut self, time: Time, slot: u32) -> u64 {
        let seq = self.next_seq();
        self.ws.heap.push(Reverse(HeapItem { time, seq, slot }));
        seq
    }

    /// Returns a lost task to the master's pending queue and clears the
    /// partial record of its failed attempt (its release time survives).
    fn lose_task(&mut self, t: TaskId) {
        let slot = self.ws.slot(t);
        let r = &mut self.ws.records[slot];
        r.phase = TaskPhase::Pending;
        r.send_start = 0.0;
        r.send_end = 0.0;
        r.compute_start = 0.0;
        r.slave = 0;
        self.ws.pending.push_back(t);
    }

    /// Brings the cached view of slave `j` up to date after an event
    /// touched it.
    ///
    /// The nominal ready estimate is the sequential fold
    /// `t ← max(t, avail_k) + p` over the outstanding tasks, anchored at
    /// `max(cur_pred_end, now)` (computing) or `now` (otherwise) — the same
    /// arithmetic, in the same order, as a from-scratch evaluation, so the
    /// cache is bitwise transparent. `now` only enters the fold through its
    /// first `max`: as long as the clock has not passed that anchor (the
    /// predicted end of the current computation, or the arrival instant of
    /// the in-flight head), the folded value is independent of `now`; an
    /// idle slave's estimate is `now` itself.
    ///
    /// So the cached estimate is kept, not refolded, while the clock has not
    /// passed the anchor: the events that change the queue maintain it. A
    /// send extends it by the fold's own last step ([`Engine::execute_send`]);
    /// an arrival at its predicted `avail`, or a completion at its
    /// `cur_pred_end`, leaves every float operation of the fold unchanged.
    /// Only an off-time arrival or completion, or a task lost on arrival,
    /// flags the slave in `view_refold` for one full fold here.
    ///
    /// The clock passes an anchor untouched only when the anchor's event is
    /// billed later than its nominal instant (perturbed sizes or drift).
    /// Such an *overdue* row is not refolded at all: the recompute records
    /// the anchor, the received tasks queued behind the computing head and
    /// the in-flight arrival ([`ReadyAnchors`]), and the view answers the
    /// row by the fold from `now` until the late event fires — which is
    /// off-time, so it refolds.
    fn recompute_view(&mut self, j: usize) {
        let now = self.clock.as_f64();
        self.probe.view_recompute(now, j);
        self.ws.view_dirty[j] = false;
        let refold = std::mem::take(&mut self.ws.view_refold[j]);
        let ws = &mut *self.ws;
        let rt = &ws.slaves[j];
        if let Some(head) = rt.outstanding.front() {
            let computing = rt.computing.is_some();
            // The send in flight to this slave, if any, is its last
            // outstanding task; a busy slave that is not computing has
            // nothing else.
            let in_flight = match self.in_flight {
                Some((t, s, _)) if s.0 == j => rt.outstanding.back().filter(|o| o.id == t),
                _ => None,
            };
            debug_assert!(
                computing || (rt.outstanding.len() == 1 && in_flight.is_some()),
                "slave {j}: a busy, non-computing slave's head is in flight"
            );
            ws.anchors.anchor[j] = if computing {
                rt.cur_pred_end
            } else {
                head.avail
            };
            ws.anchors.queued[j] = rt.queue.len();
            ws.anchors.in_flight[j] = in_flight.map(|o| o.avail);
            if refold {
                self.probe.view_refolded(now, j);
                let p = self.platform.p(SlaveId(j));
                let mut t = now;
                for (k, ot) in rt.outstanding.iter().enumerate() {
                    if k == 0 && computing {
                        // Master's best guess for the current task: its
                        // predicted end, but never before "now".
                        t = rt.cur_pred_end.max(now);
                    } else {
                        t = t.max(ot.avail) + p;
                    }
                }
                ws.views.ready_estimate[j] = t;
            }
        } else {
            // Idle: the fold is `now` itself and the view answers it
            // lazily (`SimView` substitutes `now` for idle rows, so the
            // stored column is never read), and the row is never overdue.
            ws.anchors.anchor[j] = f64::INFINITY;
        }
        ws.views.outstanding[j] = rt.outstanding.len();
        ws.views.completed[j] = rt.completed;
        ws.views.available[j] = !rt.down;
    }

    /// Marks slave `j`'s cached view stale after an event touched it: one
    /// journal entry, read by the next refresh and by the scheduler-side
    /// decision kernels. The dirty flag makes re-marking within one
    /// refresh cycle free (and keeps the journal deduplicated per cycle,
    /// which is sound because kernels only sync at scheduler callbacks,
    /// which only run on fully refreshed views).
    #[inline]
    fn mark_view_dirty(&mut self, j: usize) {
        if !self.ws.view_dirty[j] {
            self.ws.view_dirty[j] = true;
            self.ws.journal.touch(j as u32);
        }
    }

    /// Brings every cached slave view up to date and makes the pending ring
    /// contiguous, so [`Engine::view`] is a pure borrow. Called before every
    /// scheduler callback. Only the slaves an event touched are
    /// recomputed: a row the clock has made overdue is answered by the view.
    fn refresh_views(&mut self) {
        if !self.ws.pending.as_slices().1.is_empty() {
            self.ws.pending.make_contiguous();
        }
        // Event-touched slaves: the journal entries since the last refresh.
        // Recomputing appends nothing, so the bound is fixed up front.
        let touched = self.ws.journal.epoch();
        debug_assert!(touched - self.refreshed <= self.ws.journal.capacity() as u64);
        for e in self.refreshed..touched {
            let j = self.ws.journal.entry(e);
            self.recompute_view(j as usize);
        }
        self.refreshed = touched;
        #[cfg(debug_assertions)]
        self.assert_views_match_fresh();
    }

    /// Debug oracle: every slave's ready estimate, as the view answers it,
    /// must be bit-identical to a from-scratch fold (the contract
    /// `recompute_view` documents), and no view may be left dirty.
    #[cfg(debug_assertions)]
    fn assert_views_match_fresh(&self) {
        let now = self.clock.as_f64();
        let view = self.view();
        for (j, rt) in self.ws.slaves.iter().enumerate() {
            let p = self.platform.p(SlaveId(j));
            let mut t = now;
            for (k, ot) in rt.outstanding.iter().enumerate() {
                if k == 0 && rt.computing.is_some() {
                    t = rt.cur_pred_end.max(now);
                } else {
                    t = t.max(ot.avail) + p;
                }
            }
            assert!(!self.ws.view_dirty[j], "slave {j}: view left dirty");
            // Idle rows are answered with `now` and overdue rows by the fold
            // from `now`; the *effective* value must match either way.
            let effective = view.nominal_ready(SlaveId(j)).as_f64();
            assert_eq!(
                effective.to_bits(),
                t.to_bits(),
                "slave {j}: view estimate {effective} != fresh {t} at t={now}"
            );
            let v = &self.ws.views;
            assert_eq!(v.outstanding[j], rt.outstanding.len(), "slave {j} count");
            assert_eq!(v.completed[j], rt.completed, "slave {j} completed");
            assert_eq!(v.available[j], !rt.down, "slave {j} availability");
        }
    }

    fn view(&self) -> SimView<'_> {
        let (pending, wrapped) = self.ws.pending.as_slices();
        debug_assert!(wrapped.is_empty(), "refresh_views keeps pending contiguous");
        SimView {
            now: self.clock,
            platform: self.platform,
            tier: self.config.info,
            link_busy_until: self.link_busy_until,
            slaves: &self.ws.views,
            estimates: &self.ws.estimates,
            estimate_version: self.estimate_version,
            pending,
            releases: &self.ws.releases,
            release_base: self.ws.window_start,
            horizon: self.config.horizon_hint,
            released_count: self.feed.next_id,
            completed_count: self.completed_count,
            journal: Some(&self.ws.journal),
            anchors: Some(&self.ws.anchors),
        }
    }

    fn apply(&mut self, event: Event) -> Option<SchedulerEvent> {
        let now = self.clock.as_f64();
        match event {
            Event::Release(t) => {
                // The feed appended the task's slot, already pending.
                self.ws.pending.push_back(t);
                self.probe.task_released(now, t.0);
                Some(SchedulerEvent::Released(t))
            }
            Event::SendComplete(t, j) => {
                // `pop_next` took the send out of its slot: the port is free.
                let slot = self.ws.slot(t);
                self.mark_view_dirty(j.0);
                if self.learning {
                    // The master owns the port: the transfer's duration is
                    // its own observation (valid even when the destination
                    // turned out to be down — the port was occupied).
                    let duration = now - self.ws.records[slot].send_start;
                    self.ws.estimates.observe_send(j.0, duration);
                    self.estimate_version += 1;
                    self.probe.estimator_update(now, j.0);
                }
                let rt = &mut self.ws.slaves[j.0];
                if rt.down {
                    // Arrived at a failed slave: the transfer is wasted and
                    // the task returns to the pending queue.
                    let pos = rt
                        .outstanding
                        .iter()
                        .position(|o| o.id == t)
                        .expect("in-flight task must be outstanding");
                    rt.outstanding.remove(pos);
                    self.ws.view_refold[j.0] = true;
                    self.lose_task(t);
                    self.probe.send_complete(now, t.0, j.0, false);
                    return Some(SchedulerEvent::SendCompleted(t, j));
                }
                self.ws.records[slot].send_end = now;
                // The slave now actually has the task. Sends are serial on
                // the one port, so the arriving task is the most recent push.
                // Arriving at its predicted `avail` leaves the fold as it
                // was (an arrival that starts the computation predicts its
                // end at `now + p`, the fold's own step); any other instant
                // moves it.
                if let Some(ot) = rt.outstanding.iter_mut().rev().find(|o| o.id == t) {
                    if ot.avail != now {
                        ot.avail = now;
                        self.ws.view_refold[j.0] = true;
                    }
                }
                self.probe.send_complete(now, t.0, j.0, true);
                if rt.computing.is_none() {
                    self.start_compute(t, j);
                } else {
                    rt.queue.push_back(t);
                }
                Some(SchedulerEvent::SendCompleted(t, j))
            }
            Event::ComputeComplete(t, j) => {
                let slot = self.ws.slot(t);
                if self.learning {
                    // Computes are FIFO, so the master can date the start
                    // of this computation from its own observations (the
                    // later of the task's arrival and the previous
                    // completion) — which is exactly what the engine
                    // recorded in `compute_start`.
                    let duration = now - self.ws.records[slot].compute_start;
                    self.ws.estimates.observe_compute(j.0, duration);
                    self.ws.estimates.end_compute(j.0);
                    self.estimate_version += 1;
                    self.probe.estimator_update(now, j.0);
                }
                self.probe.compute_complete(now, t.0, j.0);
                self.ws.records[slot].compute_end = now;
                self.ws.records[slot].phase = TaskPhase::Done;
                self.completed_count += 1;
                if self.feed.recycle && t.0 == self.feed.finalize_cursor {
                    self.feed.finalize(self.ws);
                }
                self.mark_view_dirty(j.0);
                let rt = &mut self.ws.slaves[j.0];
                // Completing at the predicted end leaves the remaining fold
                // steps as they were; early or late, the fold moves.
                if rt.cur_end != rt.cur_pred_end {
                    self.ws.view_refold[j.0] = true;
                }
                rt.computing = None;
                rt.completed += 1;
                // Computes are FIFO: the finished task is the head.
                let head = rt
                    .outstanding
                    .pop_front()
                    .expect("completed task must be outstanding");
                debug_assert_eq!(head.id, t);
                if let Some(next) = rt.queue.pop_front() {
                    self.start_compute(next, j);
                }
                Some(SchedulerEvent::ComputeCompleted(t, j))
            }
            Event::Platform(i) => self.apply_platform_event(i),
            Event::Wake => Some(SchedulerEvent::Wake),
        }
    }

    fn apply_platform_event(&mut self, i: usize) -> Option<SchedulerEvent> {
        let e = self.timeline.events()[i];
        let j = e.slave;
        if j.0 >= self.platform.num_slaves() {
            return None; // scenario written for a larger platform: ignore
        }
        match e.kind {
            PlatformEventKind::Fail => {
                if self.ws.slaves[j.0].down {
                    return None;
                }
                // Abort a transfer in flight towards the failing slave: the
                // port frees immediately and its completion is voided — a
                // dead heap entry at its old end, which still pops there.
                // The send ends undelivered here; its task is lost below.
                if let Some((t, target, seq)) = self.in_flight {
                    if target == j {
                        self.ws.heap.push(Reverse(HeapItem {
                            time: self.link_busy_until,
                            seq,
                            slot: VOID,
                        }));
                        self.link_busy_until = self.clock;
                        self.in_flight = None;
                        self.probe
                            .send_complete(self.clock.as_f64(), t.0, j.0, false);
                    }
                }
                self.mark_view_dirty(j.0);
                if self.learning {
                    // The master observed the failure: whatever was
                    // computing is gone (no duration is learned from it).
                    self.ws.estimates.end_compute(j.0);
                }
                let ws = &mut *self.ws;
                let rt = &mut ws.slaves[j.0];
                rt.down = true;
                // No longer computing: the computation's heap entry is dead.
                rt.computing = None;
                rt.queue.clear();
                ws.lost.clear();
                ws.lost.extend(rt.outstanding.drain(..).map(|o| o.id));
                self.probe.slave_failed(self.clock.as_f64(), j.0);
                // Lost tasks re-enter `pending` in their send order, so the
                // re-release order is deterministic and observable.
                for k in 0..self.ws.lost.len() {
                    let t = self.ws.lost[k];
                    self.lose_task(t);
                    self.probe.task_lost(self.clock.as_f64(), t.0, j.0);
                }
                Some(SchedulerEvent::SlaveFailed(j))
            }
            PlatformEventKind::Recover => {
                if !self.ws.slaves[j.0].down {
                    return None;
                }
                // The slave restarts empty. A transfer still in flight (the
                // master gambled on the recovery) stays in `outstanding` and
                // is delivered normally at its send-complete.
                self.ws.slaves[j.0].down = false;
                self.mark_view_dirty(j.0);
                self.probe.slave_recovered(self.clock.as_f64(), j.0);
                Some(SchedulerEvent::SlaveRecovered(j))
            }
            PlatformEventKind::SetLinkFactor(f) => {
                self.ws.link_factor[j.0] = f;
                None // drift is invisible: schedulers stay speed-oblivious
            }
            PlatformEventKind::SetSpeedFactor(f) => {
                self.ws.speed_factor[j.0] = f;
                None
            }
        }
    }

    fn start_compute(&mut self, t: TaskId, j: SlaveId) {
        let now = self.clock.as_f64();
        self.probe.compute_start(now, t.0, j.0);
        // Billed at the *effective* speed in force when the computation
        // starts; the nominal estimate below is what schedulers see. With
        // a factor of exactly 1.0 the arithmetic is bit-identical to the
        // static engine.
        let slot = self.ws.slot(t);
        let billed_p = self.ws.speed_factor[j.0] * self.ws.records[slot].size_p;
        let actual = self.platform.p(j) * billed_p;
        self.ws.records[slot].compute_start = now;
        self.ws.records[slot].billed_p = billed_p;
        let end = Time::new(now + actual);
        let seq = self.push(end, j.0 as u32);
        self.mark_view_dirty(j.0);
        if self.learning {
            // Observable: with FIFO computes, a computation starts exactly
            // when the engine starts one.
            self.ws.estimates.begin_compute(j.0, now);
        }
        let rt = &mut self.ws.slaves[j.0];
        rt.computing = Some(t);
        rt.compute_seq = seq;
        rt.cur_pred_end = now + self.platform.p(j); // nominal estimate
        rt.cur_end = end.as_f64();
        // The head of `outstanding` must be the task that starts computing:
        // sends are FIFO per slave and computes are FIFO, so this holds.
        debug_assert_eq!(rt.outstanding.front().map(|o| o.id), Some(t));
    }

    fn execute_send(&mut self, t: TaskId, j: SlaveId) -> Result<(), SimError> {
        let now = self.clock;
        if self.link_busy_until > now {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!(
                    "send of {t} while the port is busy until {}",
                    self.link_busy_until
                ),
            });
        }
        // O(1) membership check through the task's slot (no queue scan);
        // an out-of-range id — an unreleased task, or a recycled slot,
        // which was necessarily `Done` — takes the same error.
        let pending =
            t.0.checked_sub(self.ws.window_start)
                .and_then(|s| self.ws.records.get(s))
                .is_some_and(|r| r.phase == TaskPhase::Pending);
        if !pending {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!(
                    "send of {t} which is not pending (unreleased, or already assigned)"
                ),
            });
        }
        if j.0 >= self.platform.num_slaves() {
            return Err(SimError::InvalidDecision {
                at: now,
                reason: format!("send of {t} to unknown slave index {}", j.0),
            });
        }
        // Every paper heuristic dispatches the oldest pending task, so the
        // O(1) front pop is the hot path; cherry-picks fall back to a scan.
        if self.ws.pending.front() == Some(&t) {
            self.ws.pending.pop_front();
        } else {
            let pos = self
                .ws
                .pending
                .iter()
                .position(|&x| x == t)
                .expect("task in Pending phase is in the pending queue");
            self.ws.pending.remove(pos);
        }
        let slot = self.ws.slot(t);
        let r = &mut self.ws.records[slot];
        r.phase = TaskPhase::Assigned;
        let billed_c = self.ws.link_factor[j.0] * r.size_c;
        let actual_c = self.platform.c(j) * billed_c;
        let nominal_c = self.platform.c(j);
        r.send_start = now.as_f64();
        r.billed_c = billed_c;
        r.slave = j.0;
        // A send holds the port for at least one representable instant:
        // where the clock absorbs the transfer (`now + actual_c == now`),
        // the port would otherwise read idle at once and a second send
        // start while this one is still in flight.
        let end = now + actual_c;
        self.link_busy_until = if end == now {
            Time::new(end.as_f64().next_up())
        } else {
            end
        };
        self.mark_view_dirty(j.0);
        // Extend the estimate by the fold's last step, from the value the
        // scheduler has just read in this slave's refreshed view: `now` for
        // an idle slave, the fold from `now` for an overdue one, the cached
        // column otherwise.
        let avail = now.as_f64() + nominal_c;
        let p = self.platform.p(j);
        let ws = &mut *self.ws;
        let rt = &mut ws.slaves[j.0];
        let ready = nominal_ready_row(
            Some(&ws.anchors),
            j.0,
            rt.outstanding.len(),
            ws.views.ready_estimate[j.0],
            now.as_f64(),
            p,
        );
        ws.views.ready_estimate[j.0] = ready.max(avail) + p;
        rt.outstanding.push_back(OutTask { id: t, avail });
        // The send takes the port's slot, not a heap entry, under a
        // sequence number from the same counter, so ties keep their order.
        let seq = self.next_seq();
        self.in_flight = Some((t, j, seq));
        self.probe.send_start(now.as_f64(), t.0, j.0);
        Ok(())
    }

    /// Acts on a [`Decision::WakeAt`]: schedules the wake-up and returns
    /// `true` if `t` is in the future; a wake in the past (or now) is an
    /// idle answer and returns `false`. A non-finite `t` is an invalid
    /// decision: the clock would otherwise jump to infinity and every
    /// later record with it.
    fn wake_at(&mut self, t: Time) -> Result<bool, SimError> {
        if !t.as_f64().is_finite() {
            return Err(SimError::InvalidDecision {
                at: self.clock,
                reason: format!("wake-up at non-finite time {t}"),
            });
        }
        let future = t > self.clock;
        if future {
            self.push(t, WAKE);
        }
        Ok(future)
    }

    /// Charges `k` steps against the step budget; past it, the run aborts
    /// (reported to the probe) with [`SimError::BudgetExhausted`].
    fn charge_steps(&mut self, k: usize) -> Result<(), SimError> {
        self.steps += k;
        if self.steps > self.config.max_steps {
            self.probe
                .budget_abort(self.clock.as_f64(), self.steps as u64);
            Err(SimError::BudgetExhausted {
                max_steps: self.config.max_steps,
            })
        } else {
            Ok(())
        }
    }
}

/// Storage of the default (empty) timeline a [`Simulation`] borrows.
static NO_EVENTS: Timeline = Timeline::EMPTY;

/// One engine run, configured step by step: platform and configuration
/// in; optionally a platform-event [`Timeline`], a reusable
/// [`SimWorkspace`] and an instrumentation [`Probe`]; then
/// [`Simulation::trace`] or [`Simulation::objectives`] pulls the tasks
/// through the scheduler.
///
/// The scheduler sees nominal task sizes; the engine bills actual
/// (possibly perturbed) ones. A run fails if an arrival breaks the input
/// contract ([`SimError::InvalidTask`]), or if the scheduler stalls,
/// produces an invalid decision, or exhausts the step budget.
///
/// Every option is transparent: a reused workspace, a probe, and an empty
/// timeline each leave the result bit-identical to the plain run.
///
/// # Examples
/// ```
/// use mss_sim::{Simulation, SimConfig, SimWorkspace, SliceSource, Platform, Timeline,
///               bag_of_tasks};
/// use mss_obs::RunCounters;
/// # use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
/// # struct FirstSlave;
/// # impl OnlineScheduler for FirstSlave {
/// #     fn name(&self) -> String { "first".into() }
/// #     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
/// #         match (view.link_idle(), view.pending_tasks().first()) {
/// #             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
/// #             _ => Decision::Idle,
/// #         }
/// #     }
/// # }
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let config = SimConfig::default();
/// let tasks = bag_of_tasks(3);
/// let mut ws = SimWorkspace::new();
/// let mut counters = RunCounters::new();
/// let trace = Simulation::new(&platform, &config)
///     .timeline(&Timeline::EMPTY)
///     .workspace(&mut ws)
///     .probe(&mut counters)
///     .trace(SliceSource::new(&tasks), &mut FirstSlave)
///     .unwrap();
/// assert_eq!(trace.makespan(), 7.0);
/// assert_eq!(counters.sends_delivered, 3);
///
/// // The objectives alone, in memory bounded by the in-flight tasks.
/// let stats = Simulation::new(&platform, &config)
///     .objectives(SliceSource::new(&tasks), &mut FirstSlave)
///     .unwrap();
/// assert_eq!(stats.objectives.makespan, trace.makespan());
/// assert_eq!(stats.tasks, 3);
/// ```
pub struct Simulation<'a, P = NoopProbe> {
    platform: &'a Platform,
    config: &'a SimConfig,
    timeline: &'a Timeline,
    workspace: Option<&'a mut SimWorkspace>,
    probe: P,
}

impl<'a> Simulation<'a> {
    /// A run of `platform` under `config`: static (empty timeline), in a
    /// fresh workspace, unprobed.
    pub fn new(platform: &'a Platform, config: &'a SimConfig) -> Self {
        Simulation {
            platform,
            config,
            timeline: &NO_EVENTS,
            workspace: None,
            probe: NoopProbe,
        }
    }
}

impl<'a, P: Probe> Simulation<'a, P> {
    /// Runs over a *dynamic* platform: `timeline` scripts slave failures,
    /// recoveries, and link/speed drift (see [`crate::events`]).
    ///
    /// Tasks on a failing slave are lost and re-enter the pending queue;
    /// sends to a down slave are permitted (the master may be
    /// fault-oblivious or gamble on a recovery) but are lost on arrival
    /// while the slave is down. An empty timeline is the static run, bit
    /// for bit.
    pub fn timeline(self, timeline: &'a Timeline) -> Self {
        Simulation { timeline, ..self }
    }

    /// Runs inside caller-provided buffers, so repeated runs (a sweep, a
    /// benchmark loop) allocate nothing once the workspace is warm.
    pub fn workspace(self, ws: &'a mut SimWorkspace) -> Self {
        Simulation {
            workspace: Some(ws),
            ..self
        }
    }

    /// Attaches an instrumentation [`Probe`] observing every engine
    /// boundary (see [`mss_obs::Probe`] for the hook catalogue); pass
    /// `&mut probe` to read it afterwards.
    ///
    /// The probe is an observer only: the result (or error) is
    /// bit-identical to the unprobed run. With [`NoopProbe`] the
    /// monomorphized engine *is* the unprobed engine, instruction for
    /// instruction. Hooks receive task *ids*: in a bounded-memory run a
    /// probe must not assume it can index a task table of the instance
    /// size (contract #13).
    pub fn probe<Q: Probe>(self, probe: Q) -> Simulation<'a, Q> {
        Simulation {
            platform: self.platform,
            config: self.config,
            timeline: self.timeline,
            workspace: self.workspace,
            probe,
        }
    }

    /// Runs `scheduler` over the tasks pulled from `tasks` and returns the
    /// full [`Trace`]. A trace is per-task output, so this keeps every
    /// task's slot: memory grows with the instance.
    pub fn trace(
        self,
        tasks: impl TaskSource,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Trace, SimError> {
        self.run(tasks, scheduler, false, |ws, _| trace_from(ws))
    }

    /// Runs `scheduler` over the tasks pulled from `tasks` and returns the
    /// objectives plus the slot-window telemetry, recycling each task's
    /// slot once its record is folded — without ever holding the instance
    /// in memory. Peak resident memory is O(slaves + outstanding tasks),
    /// so a million-task stream runs in a working set of a few hundred
    /// slots.
    ///
    /// The objectives are bit-identical to [`Trace::makespan`],
    /// [`Trace::max_flow`] and [`Trace::sum_flow`] of the same run's
    /// trace: finalization folds each record in task-id order with the
    /// same float arithmetic.
    pub fn objectives(
        self,
        tasks: impl TaskSource,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<StreamStats, SimError> {
        self.run(tasks, scheduler, true, |_, feed| feed.stats())
    }

    fn run<S: TaskSource, R>(
        mut self,
        tasks: S,
        scheduler: &mut dyn OnlineScheduler,
        recycle: bool,
        finish: impl FnOnce(&SimWorkspace, &StreamFeed<S>) -> R,
    ) -> Result<R, SimError> {
        let mut fresh = None;
        let ws = match self.workspace {
            Some(ws) => ws,
            None => fresh.insert(SimWorkspace::new()),
        };
        let mut feed = StreamFeed::new(tasks, recycle);
        drive(
            ws,
            self.platform,
            &mut feed,
            self.config,
            self.timeline,
            scheduler,
            &mut self.probe,
        )?;
        Ok(finish(ws, &feed))
    }
}

/// Runs `scheduler` on `tasks` over `platform` and returns the trace: the
/// one-line form of [`Simulation::trace`] over a [`SliceSource`].
///
/// # Examples
/// ```
/// use mss_sim::{simulate, SimConfig, Platform, bag_of_tasks};
/// use mss_sim::{Decision, OnlineScheduler, SchedulerEvent, SimView, SlaveId};
///
/// /// Sends every pending task to slave 0 as soon as the port is free.
/// struct FirstSlave;
/// impl OnlineScheduler for FirstSlave {
///     fn name(&self) -> String { "first".into() }
///     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
///         match (view.link_idle(), view.pending_tasks().first()) {
///             (true, Some(&task)) => Decision::Send { task, slave: SlaveId(0) },
///             _ => Decision::Idle,
///         }
///     }
/// }
///
/// // One slave with c = 1, p = 2: three tasks pipeline to makespan 1 + 3·2.
/// let platform = Platform::from_vectors(&[1.0], &[2.0]);
/// let trace = simulate(&platform, &bag_of_tasks(3), &SimConfig::default(),
///                      &mut FirstSlave).unwrap();
/// assert_eq!(trace.makespan(), 7.0);
/// ```
pub fn simulate(
    platform: &Platform,
    tasks: &[TaskArrival],
    config: &SimConfig,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<Trace, SimError> {
    Simulation::new(platform, config).trace(SliceSource::new(tasks), scheduler)
}

/// [`Simulation::objectives`] over a borrowed source, in `ws`, over
/// `timeline`.
pub fn simulate_streamed_objectives_in(
    ws: &mut SimWorkspace,
    platform: &Platform,
    source: &mut dyn TaskSource,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<StreamStats, SimError> {
    Simulation::new(platform, config)
        .timeline(timeline)
        .workspace(ws)
        .objectives(source, scheduler)
}

/// [`simulate_streamed_objectives_in`] with an instrumentation [`Probe`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_streamed_objectives_with_probe_in<P: Probe>(
    ws: &mut SimWorkspace,
    platform: &Platform,
    source: &mut dyn TaskSource,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
    probe: &mut P,
) -> Result<StreamStats, SimError> {
    Simulation::new(platform, config)
        .timeline(timeline)
        .workspace(ws)
        .probe(probe)
        .objectives(source, scheduler)
}

/// The objective values of one completed run.
///
/// Folded from the engine's internal records with the *same folds, in the
/// same order,* as [`Trace::makespan`], [`Trace::max_flow`] and
/// [`Trace::sum_flow`], so the numbers are bit-identical to going through
/// a [`Trace`] — without materializing one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunObjectives {
    /// Makespan `max C_i` (0 for an empty run).
    pub makespan: f64,
    /// Maximum response time `max (C_i − r_i)`.
    pub max_flow: f64,
    /// Sum of response times `Σ (C_i − r_i)`.
    pub sum_flow: f64,
}

/// Result of [`Simulation::objectives`]: the objective values plus the
/// memory telemetry the bounded-memory contract is stated in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamStats {
    /// The run's objectives — bit-identical to the objective folds of the
    /// same run's [`Trace`].
    pub objectives: RunObjectives,
    /// Tasks pulled from the source (the instance size).
    pub tasks: usize,
    /// High-water mark of *live* task slots: released tasks whose record
    /// had not yet been finalized. This is what the bounded-memory
    /// contract bounds by O(slaves + outstanding), independent of the
    /// instance size.
    pub peak_live_slots: usize,
    /// High-water mark of *resident* task slots (live + finalized slots
    /// not yet recycled). Stays within 2× the live peak plus the
    /// compaction threshold.
    pub peak_resident_slots: usize,
}

/// Builds the [`Trace`] out of a driven workspace that kept every slot.
fn trace_from(ws: &SimWorkspace) -> Trace {
    debug_assert_eq!(ws.window_start, 0, "a trace run keeps every slot");
    let records = ws
        .records
        .iter()
        .zip(&ws.releases)
        .enumerate()
        .map(|(i, (r, &release))| {
            debug_assert_eq!(r.phase, TaskPhase::Done);
            TaskRecord {
                task: TaskId(i),
                release,
                slave: SlaveId(r.slave),
                send_start: Time::new(r.send_start),
                send_end: Time::new(r.send_end),
                compute_start: Time::new(r.compute_start),
                compute_end: Time::new(r.compute_end),
                size_c: r.billed_c,
                size_p: r.billed_p,
            }
        })
        .collect();
    Trace::new(records)
}

/// Reports a scheduler's callback answer through the probe seam, in the
/// dependency-free `(tag, a, b)` encoding documented on
/// [`Probe::decision`]. Called for every delivered callback; an elided
/// callback has no answer to report.
fn probe_decision<P: Probe>(probe: &mut P, now: f64, decision: &Decision) {
    match decision {
        Decision::Idle => probe.decision(now, 0, 0, 0),
        Decision::Send { task, slave } => probe.decision(now, 1, task.0, slave.0 as u64),
        Decision::WakeAt(t) => probe.decision(now, 2, 0, t.as_f64().to_bits()),
    }
}

/// Runs the event loop to completion, leaving the run's records in `ws`.
fn drive<P: Probe, S: TaskSource>(
    ws: &mut SimWorkspace,
    platform: &Platform,
    feed: &mut StreamFeed<S>,
    config: &SimConfig,
    timeline: &Timeline,
    scheduler: &mut dyn OnlineScheduler,
    probe: &mut P,
) -> Result<(), SimError> {
    // Capability check before anything runs: a scheduler must never see a
    // view weaker than the tier it declared it stays live under.
    if config.info < scheduler.min_tier() {
        return Err(SimError::InsufficientInformation {
            granted: config.info,
            required: scheduler.min_tier(),
        });
    }
    feed.start()?;
    let mut engine = Engine::new(platform, feed, config, timeline, ws, probe);
    // Poll-driven schedulers promise to answer Idle (with no state change)
    // whenever the port is busy or nothing is pending, so those
    // notification callbacks are elided, in every build. The engine takes
    // the promise on trust; `mss-core`'s `kernel_equivalence.rs` holds the
    // paper heuristics to it against runs that deliver every callback.
    let poll_driven = scheduler.poll_driven();

    engine.refresh_views();
    scheduler.init(&engine.view());

    while !engine.feed.is_complete(engine.completed_count) {
        engine.charge_steps(1)?;

        let Some((first_event, first_time)) = engine.pop_next(None)? else {
            // Nothing scheduled: give the scheduler one last chance to act.
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), SchedulerEvent::PortIdle);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => engine.execute_send(task, slave)?,
                Decision::WakeAt(t) if engine.wake_at(t)? => {}
                _ => {
                    return Err(SimError::Stalled {
                        at: engine.clock,
                        completed: engine.completed_count,
                        // A stall implies the stream is exhausted: every
                        // task of the instance has been pulled.
                        total: engine.feed.next_id,
                    });
                }
            }
            continue;
        };

        // Apply the whole batch of simultaneous events first, so the
        // scheduler always decides on a fully settled state (the head of
        // the batch is already popped; drain the rest at the same time).
        engine.clock = first_time;
        engine.ws.notifications.clear();
        let mut next = Some(first_event);
        let mut batch_steps = 0usize;
        while let Some(event) = next {
            // A voided entry (`None`) opens the batch but applies nothing.
            if let Some(event) = event {
                batch_steps += 1;
                if let Some(n) = engine.apply(event) {
                    engine.ws.notifications.push(n);
                }
            }
            next = engine.pop_next(Some(first_time))?.map(|(e, _)| e);
        }
        // Budget accounting is batched: one add + one check per batch
        // instead of per event. A budget crossing mid-batch surfaces as the
        // same `BudgetExhausted` error before any callback of the batch is
        // delivered — errored runs return nothing else, so the relaxation
        // is unobservable.
        engine.charge_steps(batch_steps)?;

        // Deliver notifications; each may carry a decision. (Decisions can
        // change engine state, never extend this batch's notifications.)
        for i in 0..engine.ws.notifications.len() {
            if poll_driven
                && (engine.link_busy_until > engine.clock || engine.ws.pending.is_empty())
            {
                // The poll-driven contract makes this callback a no-op.
                engine.probe.callback_elided(engine.clock.as_f64());
                continue;
            }
            let n = engine.ws.notifications[i];
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), n);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => engine.execute_send(task, slave)?,
                Decision::WakeAt(t) => {
                    engine.wake_at(t)?;
                }
                Decision::Idle => {}
            }
        }

        // Poll while the port is idle and the scheduler keeps acting.
        loop {
            engine.charge_steps(1)?;
            if engine.link_busy_until > engine.clock || engine.ws.pending.is_empty() {
                break;
            }
            engine.refresh_views();
            engine.probe.callback(engine.clock.as_f64());
            let decision = scheduler.on_event(&engine.view(), SchedulerEvent::PortIdle);
            probe_decision(&mut *engine.probe, engine.clock.as_f64(), &decision);
            match decision {
                Decision::Send { task, slave } => engine.execute_send(task, slave)?,
                Decision::WakeAt(t) => {
                    engine.wake_at(t)?;
                    break;
                }
                Decision::Idle => break,
            }
        }

        // Feed housekeeping once per settled batch: a bounded-memory run
        // recycles finalized slots here.
        engine.feed.maintain(engine.ws);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::bag_of_tasks;
    use crate::trace::validate;

    /// Sends every pending task to slave 0 as soon as possible.
    struct AllToFirst;

    impl OnlineScheduler for AllToFirst {
        fn name(&self) -> String {
            "all-to-first".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            if view.link_idle() {
                if let Some(&t) = view.pending_tasks().first() {
                    return Decision::Send {
                        task: t,
                        slave: SlaveId(0),
                    };
                }
            }
            Decision::Idle
        }
    }

    /// Never does anything.
    struct Lazy;

    impl OnlineScheduler for Lazy {
        fn name(&self) -> String {
            "lazy".into()
        }
        fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            Decision::Idle
        }
    }

    fn platform() -> Platform {
        Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0])
    }

    /// A default-config trace run of `tasks` over `pf` and `tl`.
    fn with_events(
        pf: &Platform,
        tasks: &[TaskArrival],
        tl: &Timeline,
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Trace, SimError> {
        Simulation::new(pf, &SimConfig::default())
            .timeline(tl)
            .trace(SliceSource::new(tasks), scheduler)
    }

    /// A default-config trace run of `tasks` over `pf`, inside `ws`.
    fn in_ws(
        ws: &mut SimWorkspace,
        pf: &Platform,
        tasks: &[TaskArrival],
        scheduler: &mut dyn OnlineScheduler,
    ) -> Result<Trace, SimError> {
        Simulation::new(pf, &SimConfig::default())
            .workspace(ws)
            .trace(SliceSource::new(tasks), scheduler)
    }

    #[test]
    fn zero_tasks_complete_immediately() {
        let pf = platform();
        let trace = simulate(&pf, &[], &SimConfig::default(), &mut Lazy).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.makespan(), 0.0);
    }

    #[test]
    fn single_task_timing() {
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut AllToFirst,
        )
        .unwrap();
        let r = trace.record(TaskId(0));
        assert_eq!(r.send_start, Time::ZERO);
        assert_eq!(r.send_end, Time::new(1.0));
        assert_eq!(r.compute_start, Time::new(1.0));
        assert_eq!(r.compute_end, Time::new(4.0));
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn pipeline_on_one_slave() {
        // Three tasks to P1: sends at 0,1,2; computes at 1-4, 4-7, 7-10.
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut AllToFirst,
        )
        .unwrap();
        assert!((trace.makespan() - 10.0).abs() < 1e-12);
        assert!(validate(&trace, &pf).is_empty());
        let r2 = trace.record(TaskId(2));
        assert_eq!(r2.send_start, Time::new(2.0));
        assert_eq!(r2.compute_start, Time::new(7.0));
    }

    #[test]
    fn respects_release_times() {
        let pf = platform();
        let tasks = [TaskArrival::at(5.0)];
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        assert_eq!(trace.record(TaskId(0)).send_start, Time::new(5.0));
        assert!((trace.makespan() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn perturbed_sizes_are_billed() {
        let pf = platform();
        let tasks = [TaskArrival {
            release: Time::ZERO,
            size_c: 2.0,
            size_p: 0.5,
        }];
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let r = trace.record(TaskId(0));
        assert_eq!(r.send_end, Time::new(2.0)); // 1.0 · 2.0
        assert_eq!(r.compute_end, Time::new(3.5)); // + 3.0 · 0.5
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn lazy_scheduler_stalls() {
        let pf = platform();
        let err = simulate(&pf, &bag_of_tasks(2), &SimConfig::default(), &mut Lazy).unwrap_err();
        assert!(matches!(
            err,
            SimError::Stalled {
                completed: 0,
                total: 2,
                ..
            }
        ));
    }

    #[test]
    fn invalid_send_rejected() {
        struct SendUnreleased;
        impl OnlineScheduler for SendUnreleased {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::Send {
                    task: TaskId(1),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        // Task 1 releases at t=10; scheduler tries to send it at t=0.
        let tasks = [TaskArrival::at(0.0), TaskArrival::at(10.0)];
        let err = simulate(&pf, &tasks, &SimConfig::default(), &mut SendUnreleased).unwrap_err();
        assert!(matches!(err, SimError::InvalidDecision { .. }));
    }

    #[test]
    fn unknown_task_send_errors_not_panics() {
        // A task id that was never part of the instance must produce the
        // same InvalidDecision as an unreleased one — the phase slot map
        // bounds-checks before indexing.
        struct SendGhost;
        impl OnlineScheduler for SendGhost {
            fn name(&self) -> String {
                "ghost".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::Send {
                    task: TaskId(usize::MAX),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        let err =
            simulate(&pf, &bag_of_tasks(1), &SimConfig::default(), &mut SendGhost).unwrap_err();
        match err {
            SimError::InvalidDecision { reason, .. } => {
                assert!(reason.contains("not pending"), "{reason}");
            }
            other => panic!("expected InvalidDecision, got {other:?}"),
        }
    }

    #[test]
    fn already_assigned_task_send_errors() {
        // Sending the same task twice: the second send must be rejected.
        struct SendTwice {
            sent: usize,
        }
        impl OnlineScheduler for SendTwice {
            fn name(&self) -> String {
                "send-twice".into()
            }
            fn on_event(&mut self, _v: &SimView<'_>, e: SchedulerEvent) -> Decision {
                if matches!(
                    e,
                    SchedulerEvent::Released(_) | SchedulerEvent::SendCompleted(..)
                ) && self.sent < 2
                {
                    self.sent += 1;
                    return Decision::Send {
                        task: TaskId(0),
                        slave: SlaveId(0),
                    };
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let err = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut SendTwice { sent: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidDecision { .. }), "{err:?}");
    }

    #[test]
    fn wake_at_is_honored() {
        /// Waits until t=3 before sending the single task.
        struct Sleeper {
            sent: bool,
        }
        impl OnlineScheduler for Sleeper {
            fn name(&self) -> String {
                "sleeper".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                if self.sent {
                    return Decision::Idle;
                }
                if view.now() < Time::new(3.0) {
                    return Decision::WakeAt(Time::new(3.0));
                }
                self.sent = true;
                Decision::Send {
                    task: TaskId(0),
                    slave: SlaveId(0),
                }
            }
        }
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(1),
            &SimConfig::default(),
            &mut Sleeper { sent: false },
        )
        .unwrap();
        assert_eq!(trace.record(TaskId(0)).send_start, Time::new(3.0));
    }

    #[test]
    fn non_finite_wake_is_an_invalid_decision() {
        /// Idles until its `k`-th callback, answers `WakeAt(wake)` there,
        /// and once woken sends everything to slave 0.
        struct Napper {
            k: usize,
            calls: usize,
            wake: Time,
            woken: bool,
        }
        impl OnlineScheduler for Napper {
            fn name(&self) -> String {
                "napper".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
                self.calls += 1;
                self.woken |= e == SchedulerEvent::Wake;
                if self.woken {
                    return AllToFirst.on_event(view, e);
                }
                if self.calls == self.k {
                    Decision::WakeAt(self.wake)
                } else {
                    Decision::Idle
                }
            }
        }
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let tasks = bag_of_tasks(3);
        // Callbacks 1–3 are the release notifications, 4 the poll that
        // follows them, 5 the stalled engine's last chance: the three arms
        // of the event loop that act on a `WakeAt`.
        for k in [1, 4, 5] {
            for wake in [f64::INFINITY, f64::NEG_INFINITY] {
                let mut napper = Napper {
                    k,
                    calls: 0,
                    wake: Time::new(wake),
                    woken: false,
                };
                let err = simulate(&pf, &tasks, &SimConfig::default(), &mut napper).unwrap_err();
                match err {
                    SimError::InvalidDecision { at, reason } => {
                        assert_eq!(at, Time::ZERO, "callback {k}, wake {wake}");
                        assert!(reason.contains("non-finite"), "{reason}");
                    }
                    other => panic!("callback {k}, wake {wake}: got {other:?}"),
                }
            }
            // A finite wake in the past is still an idle answer.
            let mut napper = Napper {
                k,
                calls: 0,
                wake: Time::new(-1.0),
                woken: false,
            };
            let err = simulate(&pf, &tasks, &SimConfig::default(), &mut napper).unwrap_err();
            assert!(
                matches!(err, SimError::Stalled { completed: 0, .. }),
                "callback {k}: {err:?}"
            );
        }
    }

    #[test]
    fn ready_estimate_resyncs_on_completion() {
        // One slow (perturbed) task followed by a nominal one: the estimate
        // is wrong while the first computes, and re-anchors at completion.
        struct Probe {
            estimates: Vec<(f64, f64)>,
        }
        impl OnlineScheduler for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
                self.estimates.push((
                    view.now().as_f64(),
                    view.slave(SlaveId(0)).ready_estimate.as_f64(),
                ));
                if matches!(e, SchedulerEvent::Released(_)) {
                    if let Some(&t) = view.pending_tasks().first() {
                        if view.link_idle() {
                            return Decision::Send {
                                task: t,
                                slave: SlaveId(0),
                            };
                        }
                    }
                }
                Decision::Idle
            }
        }
        let pf = Platform::from_vectors(&[1.0], &[3.0]);
        let tasks = [
            TaskArrival {
                release: Time::ZERO,
                size_c: 1.0,
                size_p: 2.0, // actually takes 6s, nominal 3s
            },
            TaskArrival::at(20.0),
        ];
        let mut probe = Probe { estimates: vec![] };
        let trace = simulate(&pf, &tasks, &SimConfig::default(), &mut probe).unwrap();
        // First task: send 0-1, compute 1-7 (actual). Nominal estimate said 4.
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(7.0));
        // Second task sent at 20, done at 24.
        assert_eq!(trace.record(TaskId(1)).compute_end, Time::new(24.0));
    }

    #[test]
    fn step_budget_enforced() {
        struct WakeLoop;
        impl OnlineScheduler for WakeLoop {
            fn name(&self) -> String {
                "wake-loop".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                Decision::WakeAt(view.now() + 0.001)
            }
        }
        let pf = platform();
        let cfg = SimConfig {
            max_steps: 1000,
            ..SimConfig::default()
        };
        let err = simulate(&pf, &bag_of_tasks(1), &cfg, &mut WakeLoop).unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
    }

    fn timeline(events: Vec<(f64, usize, PlatformEventKind)>) -> Timeline {
        Timeline::new(
            events
                .into_iter()
                .map(|(t, j, kind)| crate::events::PlatformEvent {
                    time: Time::new(t),
                    slave: SlaveId(j),
                    kind,
                })
                .collect(),
        )
    }

    #[test]
    fn empty_timeline_is_bitwise_identical() {
        let pf = platform();
        let tasks = bag_of_tasks(5);
        let a = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let b = with_events(&pf, &tasks, &Timeline::EMPTY, &mut AllToFirst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        // A warm workspace (even one warmed on a different platform shape)
        // must not change any result.
        let pf = platform();
        let tasks = bag_of_tasks(7);
        let fresh = simulate(&pf, &tasks, &SimConfig::default(), &mut AllToFirst).unwrap();
        let mut ws = SimWorkspace::new();
        let other_pf = Platform::from_vectors(&[0.5, 0.5, 0.5], &[1.0, 2.0, 3.0]);
        in_ws(&mut ws, &other_pf, &bag_of_tasks(20), &mut AllToFirst).unwrap();
        let reused = in_ws(&mut ws, &pf, &tasks, &mut AllToFirst).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn workspace_survives_error_and_reruns() {
        // An errored run must not poison the workspace for the next one.
        let pf = platform();
        let mut ws = SimWorkspace::new();
        let err = in_ws(&mut ws, &pf, &bag_of_tasks(2), &mut Lazy).unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }));
        let trace = in_ws(&mut ws, &pf, &bag_of_tasks(3), &mut AllToFirst).unwrap();
        assert!((trace.makespan() - 10.0).abs() < 1e-12);
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn failure_loses_work_and_rereleases_tasks() {
        // 3 tasks to P1 (c=1, p=3): computes 1-4, 4-7, 7-10. P1 fails at
        // t=5 (T1 computing, T2 queued are lost) and recovers at t=7.5.
        // AllToFirst keeps gambling on P1; the send in flight at recovery
        // time is delivered. Expected completion walk-through:
        //   5-6 resend T1 (lost on arrival), 6-7 resend T2 (lost),
        //   7-8 resend T1 (P1 recovers at 7.5 -> delivered), computes 8-11,
        //   8-9 resend T2, computes 11-14.
        let pf = platform();
        let tl = timeline(vec![
            (5.0, 0, PlatformEventKind::Fail),
            (7.5, 0, PlatformEventKind::Recover),
        ]);
        let trace = with_events(&pf, &bag_of_tasks(3), &tl, &mut AllToFirst).unwrap();
        assert!(validate(&trace, &pf).is_empty());
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(4.0));
        let r1 = trace.record(TaskId(1));
        assert_eq!(r1.send_start, Time::new(7.0));
        assert_eq!(r1.compute_start, Time::new(8.0));
        assert_eq!(r1.compute_end, Time::new(11.0));
        let r2 = trace.record(TaskId(2));
        assert_eq!(r2.send_start, Time::new(8.0));
        assert_eq!(r2.compute_end, Time::new(14.0));
    }

    #[test]
    fn failure_aborts_in_flight_send_and_frees_port() {
        // P1 fails at t=0.5 while T0 is in flight: the port frees at 0.5
        // and the re-send starts immediately.
        let pf = platform();
        let tl = timeline(vec![
            (0.5, 0, PlatformEventKind::Fail),
            (2.0, 0, PlatformEventKind::Recover),
        ]);
        let trace = with_events(&pf, &bag_of_tasks(1), &tl, &mut AllToFirst).unwrap();
        let r = trace.record(TaskId(0));
        // Re-sends: 0.5-1.5 (lost on arrival), 1.5-2.5 (P1 back at 2.0).
        assert_eq!(r.send_start, Time::new(1.5));
        assert_eq!(r.compute_end, Time::new(5.5));
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn speed_drift_rebills_future_computations_only() {
        // P1 slows down 2x at t=2: T0 (computing since t=1) keeps its old
        // rate and ends at 4; T1 starts at 4 and takes 6 seconds.
        let pf = platform();
        let tl = timeline(vec![(2.0, 0, PlatformEventKind::SetSpeedFactor(2.0))]);
        let trace = with_events(&pf, &bag_of_tasks(2), &tl, &mut AllToFirst).unwrap();
        assert_eq!(trace.record(TaskId(0)).compute_end, Time::new(4.0));
        let r1 = trace.record(TaskId(1));
        assert_eq!(r1.compute_end, Time::new(10.0));
        assert_eq!(r1.size_p, 2.0, "drift folds into the billed multiplier");
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn failure_events_are_observable() {
        struct Watcher {
            seen: Vec<&'static str>,
        }
        impl OnlineScheduler for Watcher {
            fn name(&self) -> String {
                "watcher".into()
            }
            fn on_event(&mut self, view: &SimView<'_>, e: SchedulerEvent) -> Decision {
                match e {
                    SchedulerEvent::SlaveFailed(j) => {
                        assert!(!view.slave_available(j));
                        self.seen.push("failed");
                    }
                    SchedulerEvent::SlaveRecovered(j) => {
                        assert!(view.slave_available(j));
                        self.seen.push("recovered");
                    }
                    _ => {}
                }
                // Only dispatch to available slaves.
                if view.link_idle() {
                    if let Some(&t) = view.pending_tasks().first() {
                        if let Some(slave) = view.available_slaves().next() {
                            return Decision::Send { task: t, slave };
                        }
                    }
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let tl = timeline(vec![
            (0.5, 0, PlatformEventKind::Fail),
            (2.0, 0, PlatformEventKind::Recover),
        ]);
        let mut w = Watcher { seen: vec![] };
        let trace = with_events(&pf, &bag_of_tasks(2), &tl, &mut w).unwrap();
        assert_eq!(w.seen, vec!["failed", "recovered"]);
        // The watcher fell back to P2 (the only available slave) after the
        // failure; everything still validates.
        assert!(validate(&trace, &pf).is_empty());
    }

    #[test]
    fn horizon_hint_visible() {
        struct CheckHorizon;
        impl OnlineScheduler for CheckHorizon {
            fn name(&self) -> String {
                "check-horizon".into()
            }
            fn init(&mut self, view: &SimView<'_>) {
                assert_eq!(view.horizon(), Some(4));
            }
            fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
                if view.link_idle() {
                    if let Some(&t) = view.pending_tasks().first() {
                        return Decision::Send {
                            task: t,
                            slave: SlaveId(0),
                        };
                    }
                }
                Decision::Idle
            }
        }
        let pf = platform();
        let trace = simulate(
            &pf,
            &bag_of_tasks(4),
            &SimConfig::with_horizon(4),
            &mut CheckHorizon,
        )
        .unwrap();
        assert_eq!(trace.len(), 4);
    }
}
