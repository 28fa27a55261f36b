//! The on-line scheduler interface.
//!
//! A scheduler is driven by the engine through [`OnlineScheduler::on_event`]:
//! every time something observable happens (a task release, the completion of
//! a send, the completion of a computation, or a self-requested wake-up) the
//! engine processes *all* events at the current instant and then repeatedly
//! asks the scheduler for decisions while the master's port is idle.
//!
//! Schedulers observe the world only through [`SimView`](crate::SimView):
//! released-but-unassigned tasks, per-slave outstanding work, and
//! completion estimates. They never see future releases or actual
//! (perturbed) task sizes — exactly the information model of the paper's
//! on-line setting. How much *more* the view reveals (nominal platform
//! values, the horizon hint) is governed by the run's
//! [`InfoTier`](crate::InfoTier): schedulers declare the weakest tier they
//! stay live under via [`OnlineScheduler::min_tier`], and the engine
//! refuses to run a scheduler below it.

use crate::info::InfoTier;
use crate::platform::SlaveId;
use crate::task::TaskId;
use crate::time::Time;
use crate::view::SimView;

/// What happened; passed to the scheduler after the engine applied it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// Simulation starts (sent exactly once, before any other event).
    Start,
    /// Task `task` was released at the master.
    Released(TaskId),
    /// The send of `task` to `slave` completed; the port is free again.
    SendCompleted(TaskId, SlaveId),
    /// `slave` finished computing `task`.
    ComputeCompleted(TaskId, SlaveId),
    /// `slave` crashed (scenario timelines only). Its in-flight and queued
    /// tasks were lost and have re-entered the pending queue; a transfer
    /// that was in flight towards it was aborted (the port is free again).
    SlaveFailed(SlaveId),
    /// `slave` came back up, empty (scenario timelines only).
    SlaveRecovered(SlaveId),
    /// A wake-up previously requested via [`Decision::WakeAt`].
    Wake,
    /// No new information — the engine is polling because the port is idle
    /// and a previous decision may have changed the state.
    PortIdle,
}

/// A scheduler's answer to "the port is idle — what now?".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Start sending `task` (released, unassigned) to `slave` right now.
    Send {
        /// The released, not-yet-assigned task to transfer.
        task: TaskId,
        /// The destination slave.
        slave: SlaveId,
    },
    /// Do nothing; the engine will ask again at the next event.
    Idle,
    /// Do nothing, but wake me at time `t` even if nothing else happens.
    WakeAt(Time),
}

/// A deterministic on-line scheduling algorithm.
///
/// Implementations must be deterministic functions of the observation
/// history: the adversary games of `mss-adversary` re-run schedulers from
/// scratch on extended instances and rely on identical decisions over
/// identical prefixes (this also makes every experiment replayable).
pub trait OnlineScheduler {
    /// Human-readable algorithm name (used in reports and figures).
    fn name(&self) -> String;

    /// Called once before the simulation starts. Implementations must
    /// fully reset any internal state here: executors may reuse one
    /// scheduler instance across many runs (as the sweep's batch workers
    /// do), and a run on a reused instance must be bit-identical to a run
    /// on a fresh one.
    fn init(&mut self, _view: &SimView<'_>) {}

    /// Called after each batch of simultaneous events, and repeatedly after
    /// each accepted [`Decision::Send`], while the port is idle.
    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision;

    /// Declares the *poll-driven* contract, which lets the engine skip
    /// notification callbacks that provably cannot matter. Returning `true`
    /// promises that whenever the port is busy **or** no task is pending,
    /// [`OnlineScheduler::on_event`] returns [`Decision::Idle`] without any
    /// observable state change — and that the scheduler never returns
    /// [`Decision::WakeAt`]. Under this contract the engine elides such
    /// callbacks entirely, in every build (their decision is known), which
    /// removes most per-event scheduler work without changing a single bit
    /// of any trace. The engine takes the promise on trust: a scheduler
    /// that breaks it schedules differently than it would with every
    /// callback delivered. `mss-core`'s `kernel_equivalence.rs` property
    /// test holds the paper heuristics to it, bare and wrapped in
    /// `Redispatch`, against runs that deliver every callback.
    ///
    /// The default is `false` (every callback is delivered). All seven paper
    /// heuristics satisfy the contract: they act only when the port is idle
    /// and a pending task exists, and mutate internal state only when
    /// acting.
    fn poll_driven(&self) -> bool {
        false
    }

    /// The weakest [`InfoTier`] under which this scheduler stays *live*
    /// (completes every valid instance). The engine checks
    /// `config.info >= min_tier()` before the first event and refuses the
    /// run otherwise, so a scheduler that genuinely reads nominal platform
    /// values through [`SimView::platform`] can declare
    /// [`InfoTier::Clairvoyant`] and never observe a gated panic.
    ///
    /// The default is `Clairvoyant` — the conservative choice for
    /// schedulers written against the historical, fully informed view. The
    /// paper's seven heuristics (and the `Redispatch` wrapper) override
    /// this to `NonClairvoyant`: they consume only believed values and
    /// degrade gracefully to learned-estimate decisions.
    fn min_tier(&self) -> InfoTier {
        InfoTier::Clairvoyant
    }
}

impl<T: OnlineScheduler + ?Sized> OnlineScheduler for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn init(&mut self, view: &SimView<'_>) {
        (**self).init(view)
    }
    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        (**self).on_event(view, event)
    }
    fn poll_driven(&self) -> bool {
        (**self).poll_driven()
    }
    fn min_tier(&self) -> InfoTier {
        (**self).min_tier()
    }
}
