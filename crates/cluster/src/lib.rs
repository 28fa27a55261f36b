//! # mss-cluster — a threaded master-worker cluster with real payloads
//!
//! The paper's experiments ran on "a small heterogeneous master-slave
//! platform with five different computers connected by a fast Ethernet
//! switch", with matrices as tasks and determinant computations as work
//! (§4.2). This crate stands in for that testbed, which is not available
//! here: one OS thread per slave, a literal one-port master that
//! blocks while a [`Matrix`] payload ships for `c_j` scaled seconds, and
//! workers that really LU-factorize what they receive, padded to `p_j`.
//!
//! It drives the *same* [`mss_core::OnlineScheduler`] implementations as
//! the discrete-event simulator and emits the same [`mss_core::Trace`]
//! type, so every experiment of the lab can be cross-checked end-to-end on
//! real concurrency (`examples/cluster_demo.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod matrix;

pub use executor::{execute, validate_loose, ClusterConfig, ClusterError, ClusterRun};
pub use matrix::Matrix;
