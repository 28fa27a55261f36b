//! # mss-workload — platforms, arrivals, perturbations, calibration
//!
//! Everything the experiments of Pineau, Robert & Vivien (§4) need around
//! the scheduler itself:
//!
//! * [`PlatformSampler`] — the paper's random 5-machine platforms
//!   (`c ∈ [0.01, 1] s`, `p ∈ [0.1, 8] s`) for all four platform classes;
//! * [`ArrivalProcess`] — bag-of-tasks, uniform stream and Poisson release
//!   processes with load targeting;
//! * [`Perturbation`] — the ±10 % task-size jitter of the robustness
//!   experiment (Figure 2), in linear or matrix (N², N³) mode;
//! * [`calibrate`] — §4.2's `nc_i`/`np_i` repetition-count procedure that
//!   shapes a measured platform towards a target heterogeneity.
//!
//! ```
//! use mss_workload::{ArrivalProcess, PlatformSampler};
//! use mss_core::PlatformClass;
//!
//! let sampler = PlatformSampler::default();
//! let platforms = sampler.sample_many(PlatformClass::Heterogeneous, 10, 42);
//! assert_eq!(platforms.len(), 10);
//! let tasks = ArrivalProcess::AllAtZero.generate(1000, &platforms[0], 42);
//! assert_eq!(tasks.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod calibration;
mod heterogeneity;
mod perturbation;
mod platforms;
mod source;

pub use arrivals::ArrivalProcess;
pub use calibration::{calibrate, Calibration};
pub use heterogeneity::{HeterogeneityAxis, HeterogeneityFamily};
pub use mss_core::TaskSource;
pub use perturbation::Perturbation;
pub use platforms::{PlatformSampler, PlatformStream};
pub use source::{GeneratedSource, TraceError, TraceFormat, TraceSource};
