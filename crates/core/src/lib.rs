//! # mss-core — model, objectives and heuristics for master-slave on-line scheduling
//!
//! The core library of the reproduction of Pineau, Robert & Vivien,
//! *"The impact of heterogeneity on master-slave on-line scheduling"*
//! (IPPS 2006 / INRIA RR-5732). It builds on the [`mss_sim`] discrete-event
//! engine and provides:
//!
//! * the three [`Objective`] functions of the paper (makespan, max-flow,
//!   sum-flow);
//! * the seven on-line [`heuristics`] of Section 4.1 (SRPT, LS, RR, RRC,
//!   RRP, SLJF, SLJFWC), each an [`OnlineScheduler`];
//! * the [`Algorithm`] registry that names and constructs them;
//! * the [`Redispatch`] fault-aware wrapper that makes any of them live on
//!   dynamic platforms (slave failures/recoveries, see `mss-scenario`).
//!
//! It re-exports the engine's vocabulary, so downstream crates can depend
//! on `mss-core` alone: one [`Simulation`] builder runs every simulation
//! (platform and config in; optional timeline, workspace and probe; a
//! [`TaskSource`] — a slice through [`SliceSource`] — pulled by
//! `.trace()` or `.objectives()`), and [`simulate`] is its one-line trace
//! run over a slice.
//!
//! ```
//! use mss_core::{Algorithm, Objective};
//! use mss_sim::{bag_of_tasks, simulate, Platform, SimConfig};
//!
//! let platform = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
//! let tasks = bag_of_tasks(10);
//! let mut ls = Algorithm::ListScheduling.build();
//! let trace = simulate(&platform, &tasks, &SimConfig::default(), &mut ls).unwrap();
//! let makespan = Objective::Makespan.evaluate(&trace);
//! assert!(makespan > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heuristics;
mod objective;
mod redispatch;
mod registry;

pub use heuristics::{ListScheduling, PlanKind, Planned, RoundRobin, RrDispatch, RrOrder, Srpt};
pub use objective::Objective;
pub use redispatch::Redispatch;
pub use registry::Algorithm;

// Re-export the simulation vocabulary so downstream crates can depend on
// `mss-core` alone for the common case.
pub use mss_sim::{
    bag_of_tasks, released_at, simulate, simulate_streamed_objectives_in,
    simulate_streamed_objectives_with_probe_in, validate, Decision, InfoTier, NoopProbe,
    OnlineScheduler, Platform, PlatformClass, PlatformEvent, PlatformEventKind, Probe, RunCounters,
    RunObjectives, SchedulerEvent, SimConfig, SimError, SimView, SimWorkspace, Simulation,
    SlaveEstimate, SlaveEstimates, SlaveId, SlaveSpec, SliceSource, StreamStats, TaskArrival,
    TaskId, TaskRecord, TaskSource, Time, Timeline, Trace, TraceRecorder, TraceViolation,
};
