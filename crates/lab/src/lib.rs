//! # mss-lab — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | paper artifact | module | binary subcommand |
//! |---|---|---|
//! | Table 1 (nine lower bounds) | [`table1`] | `ms-lab table1` |
//! | Figure 1(a–d) (heuristic comparison) | [`fig1`] | `ms-lab fig1a` … `fig1d` |
//! | Figure 2 (robustness) | [`fig2`] | `ms-lab fig2` |
//! | Ablations A1–A3 (DESIGN.md) | [`ablations`] | `ms-lab ablation-*` |
//! | Resilience (failures, new) | [`resilience`] | `ms-lab resilience` |
//! | Oblivion (information tiers, new) | [`oblivion`] | `ms-lab oblivion` |
//! | user-defined scenario grids | `mss_sweep` | `ms-lab sweep <spec.toml>` |
//! | run telemetry (flow quantiles, utilization) | [`metrics`] | `ms-lab metrics <spec.toml>` |
//! | first-divergence audit | [`diff`] | `ms-lab diff <spec.toml>` |
//!
//! Each experiment prints an ASCII table mirroring the paper's layout and
//! writes CSV + JSON artifacts under `target/lab/`. EXPERIMENTS.md records
//! the paper-vs-measured comparison for every cell.
//!
//! Every experiment expresses its grid as `mss_sweep` cells and runs them
//! through the sweep executor (parallel, deterministic for any thread
//! count); the emitted tables and CSVs are identical to the original
//! serial implementation's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod diff;
pub mod fig1;
pub mod fig2;
pub mod metrics;
pub mod oblivion;
pub mod profile;
pub mod report;
pub mod resilience;
pub mod table1;

pub use report::ExperimentScale;
