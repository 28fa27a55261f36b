//! # master-slave-sched — facade crate
//!
//! Re-exports the full public API of the reproduction of Pineau, Robert &
//! Vivien, *"The impact of heterogeneity on master-slave on-line scheduling"*
//! (IPPS 2006 / INRIA RR-5732). See the README for a tour,
//! `docs/ARCHITECTURE.md` for the system inventory and `docs/PAPER_MAP.md`
//! for where each paper element lives and which test pins it.
//!
//! The workspace crates, in dependency order:
//!
//! * [`exact`] — exact rationals and quadratic surds (ℚ(√d)) used to verify
//!   the nine competitive-ratio lower bounds without floating point;
//! * [`sim`] — discrete-event simulator of the one-port master-slave model;
//! * [`core`] — platform/task/schedule model, the three objective functions,
//!   and the seven on-line heuristics of the paper's Section 4;
//! * [`opt`] — offline optimal machinery (exhaustive exact optimum,
//!   homogeneous closed forms, count optimizers);
//! * [`adversary`] — the nine lower-bound theorems as executable games;
//! * [`scenario`] — dynamic-platform scenarios: deterministic, seedable
//!   timelines of slave failures, recoveries, and link/speed drift;
//! * [`workload`] — platform generators, arrival processes, perturbations,
//!   and the Section 4.2 calibration procedure;
//! * [`cluster`] — a threaded master-worker executor with real
//!   matrix-determinant payloads (the MPI-testbed substitute);
//! * [`lab`] — the experiment harness that regenerates Table 1, Figures
//!   1(a–d) and Figure 2.

#![forbid(unsafe_code)]

pub use mss_adversary as adversary;
pub use mss_cluster as cluster;
pub use mss_core as core;
pub use mss_exact as exact;
pub use mss_lab as lab;
pub use mss_opt as opt;
pub use mss_scenario as scenario;
pub use mss_sim as sim;
pub use mss_workload as workload;
