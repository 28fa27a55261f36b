//! # mss-sim — discrete-event simulator for one-port master-slave platforms
//!
//! This crate is the testbed substitute for the MPI platform of Pineau,
//! Robert & Vivien's *"The impact of heterogeneity on master-slave on-line
//! scheduling"* (IPPS 2006). It implements the paper's exact machine model:
//!
//! * a **master** that holds every task and sends them to slaves over a
//!   single serial port (**one-port model**: at most one send in flight);
//! * `m` **slaves** `P_j`, each receiving a task in `c_j` seconds and then
//!   executing it in `p_j` seconds, serially and FIFO;
//! * **on-line releases**: task `i` appears at the master at `r_i`, unknown
//!   beforehand;
//! * **dynamic platforms** (optional): a [`Timeline`] of platform [`events`]
//!   — slave failures with lost-work re-release, recoveries, link/speed
//!   drift — attached with [`Simulation::timeline`]; an empty timeline is
//!   bit-for-bit the paper's static model.
//!
//! Schedulers implement [`OnlineScheduler`] and observe the world through
//! [`SimView`]. Every run goes through one [`Simulation`] builder: the
//! engine's only input is a [`TaskSource`] pulled in release order (a slice
//! through [`SliceSource`]), checked arrival by arrival
//! ([`SimError::InvalidTask`]). [`Simulation::trace`] produces a [`Trace`]
//! from which makespan, max-flow and sum-flow are computed, and
//! [`validate`] re-checks every model invariant on the result;
//! [`Simulation::objectives`] folds the objectives alone in memory bounded
//! by the in-flight tasks. [`simulate`] is the one-line trace run over a
//! slice.
//!
//! How much a view reveals is governed by the run's **information tier**
//! ([`InfoTier`], set on [`SimConfig`]): `Clairvoyant` (the paper's fully
//! informed master — the default), `SpeedOblivious` (nominal `c_j`/`p_j`
//! hidden; the view answers from per-slave estimates learned on-line from
//! observed send/completion timestamps), and `NonClairvoyant` (task-count
//! hints hidden too; counts, availability and learned rates only).
//!
//! Every engine boundary carries an instrumentation hook ([`Probe`], from
//! `mss-obs`): [`Simulation::probe`] runs with counters ([`RunCounters`])
//! or a span recorder ([`TraceRecorder`]) attached, while the default
//! [`NoopProbe`] monomorphizes the hooks away entirely — an unprobed run is
//! bit-identical *and* instruction-identical to the pre-instrumentation
//! engine.
//!
//! ```
//! use mss_sim::{simulate, Decision, OnlineScheduler, Platform, SchedulerEvent,
//!               SimConfig, SimView, SlaveId, bag_of_tasks};
//!
//! /// Greedy: always send the next task to the slave finishing it first.
//! struct Greedy;
//! impl OnlineScheduler for Greedy {
//!     fn name(&self) -> String { "greedy".into() }
//!     fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
//!         match (view.link_idle(), view.pending_tasks().first()) {
//!             (true, Some(&task)) => {
//!                 let slave = view.platform().slave_ids()
//!                     .min_by(|&a, &b| view.completion_estimate(a)
//!                         .cmp(&view.completion_estimate(b)))
//!                     .unwrap();
//!                 Decision::Send { task, slave }
//!             }
//!             _ => Decision::Idle,
//!         }
//!     }
//! }
//!
//! let platform = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
//! let trace = simulate(&platform, &bag_of_tasks(4), &SimConfig::default(), &mut Greedy).unwrap();
//! assert!(mss_sim::validate(&trace, &platform).is_empty());
//! assert!(trace.makespan() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod events;
mod gantt;
pub mod info;
pub mod kernel;
mod platform;
mod scheduler;
pub mod source;
mod stats;
mod task;
mod time;
mod trace;
mod view;

pub use engine::{
    simulate, simulate_streamed_objectives_in, simulate_streamed_objectives_with_probe_in,
    RunObjectives, SimConfig, SimError, SimWorkspace, Simulation, StreamStats,
};
pub use events::{PlatformEvent, PlatformEventKind, Timeline};
pub use gantt::render as render_gantt;
pub use gantt::render_with_downtime;
pub use info::{InfoTier, SlaveEstimate, SlaveEstimates};
pub use kernel::{scan_argmin, IncrementalArgmin, TREE_THRESHOLD};
pub use mss_obs::{
    DigestEvent, DigestProbe, Histogram, Marker, MarkerKind, MetricsProbe, NoopProbe, Probe,
    RunCounters, RunHistograms, RunMetrics, Span, SpanKind, TraceRecorder,
};
pub use platform::{Platform, PlatformClass, SlaveId, SlaveSpec};
pub use scheduler::{Decision, OnlineScheduler, SchedulerEvent};
pub use source::{SliceSource, TaskSource};
pub use stats::{trace_stats, SlaveStats, TraceStats};
pub use task::{bag_of_tasks, released_at, TaskArrival, TaskId};
pub use time::{Time, TIME_EPS};
pub use trace::{validate, TaskRecord, Trace, TraceViolation};
pub use view::{SimView, SlaveView, SlaveViews, ViewState};
