//! # mss-lab — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | paper artifact | module | binary subcommand |
//! |---|---|---|
//! | Table 1 (nine lower bounds) | [`table1`] | `ms-lab table1` |
//! | Figure 1(a–d) (heuristic comparison) | [`fig1`] | `ms-lab fig1a` … `fig1d` |
//! | Figure 2 (robustness) | [`fig2`] | `ms-lab fig2` |
//! | Ablations A1–A4 (design choices) | [`ablations`] | `ms-lab ablation-*` |
//! | Resilience (failures, new) | [`resilience`] | `ms-lab resilience` |
//! | Oblivion (information tiers, new) | [`oblivion`] | `ms-lab oblivion` |
//! | user-defined scenario grids | `mss_sweep` | `ms-lab sweep <spec.toml>` |
//! | run telemetry (flow quantiles, utilization) | [`metrics`] | `ms-lab metrics <spec.toml>` |
//! | first-divergence audit | [`diff`] | `ms-lab diff <spec.toml>` |
//!
//! [`run_experiment`] runs one of the [`EXPERIMENTS`] and returns the ASCII
//! table mirroring the paper's layout plus its CSV + JSON files as
//! [`Artifact`]s; no report writes anything itself. `ms-lab` writes the
//! files under `target/lab/`, and `tests/artifact_digests.rs` pins their
//! bytes. `docs/PAPER_MAP.md` maps every experiment to the paper and to
//! its regression tests.
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

pub use report::{Artifact, ExperimentScale};

use mss_core::PlatformClass;
use mss_scenario::ScenarioSpec;
use mss_sweep::SweepConfig;
use mss_workload::{ArrivalProcess, Perturbation};

/// Every experiment, in the order `ms-lab all` runs them. Each name is
/// also an `ms-lab` command.
pub const EXPERIMENTS: [&str; 12] = [
    "table1",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig2",
    "ablation-buffer",
    "ablation-sljf",
    "ablation-arrivals",
    "ablation-heterogeneity",
    "resilience",
    "oblivion",
];

/// What one experiment produced.
pub struct ExperimentOutput {
    /// The tables `ms-lab` prints.
    pub text: String,
    /// The artifact files, JSON first.
    pub files: Vec<Artifact>,
    /// Set when the run refutes what it verifies (a Table 1 bound beaten):
    /// `ms-lab` still writes the files, then fails.
    pub failure: Option<String>,
}

/// Runs the experiment `name` (one of [`EXPERIMENTS`]) with the arguments
/// `ms-lab` uses. `scenario` replaces resilience's built-in failure ladder
/// and is ignored by every other experiment. An unknown name, or a
/// scenario that does not fit resilience's platforms, is an error.
pub fn run_experiment(
    name: &str,
    scale: ExperimentScale,
    scenario: Option<&ScenarioSpec>,
    config: &SweepConfig,
) -> Result<ExperimentOutput, String> {
    // Figure 2, resilience and oblivion read flows, which are informative
    // only when arrival-bound: a near-saturated stream.
    let stream = ArrivalProcess::UniformStream { load: 0.9 };
    let stem = name.replace('-', "_");
    let stem = stem.as_str();
    let panel = |class| {
        let r = fig1::run_panel_with(class, scale, ArrivalProcess::AllAtZero, config);
        (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
    };
    let mut failure = None;
    let (text, json, csv) = match name {
        "table1" => {
            let r = table1::run_with(config);
            if !r.all_verified() {
                failure = Some("a bound was violated — see above".to_string());
            }
            (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
        }
        "fig1a" => panel(PlatformClass::Homogeneous),
        "fig1b" => panel(PlatformClass::CommHomogeneous),
        "fig1c" => panel(PlatformClass::CompHomogeneous),
        "fig1d" => panel(PlatformClass::Heterogeneous),
        "fig2" => {
            // Physical reading of the paper's "size of the matrix ... by a
            // factor of up to 10 %": the linear dimension jitters by ±10 %,
            // so shipping (N² entries) scales quadratically and the
            // determinant (O(N³)) cubically. `Perturbation::linear` is the
            // conservative alternative.
            let r = fig2::run_with(scale, stream, Perturbation::matrix(0.1), config);
            (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
        }
        "ablation-buffer" => {
            let r = ablations::buffer_sweep_with(scale, config);
            (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
        }
        "ablation-sljf" => {
            let r = ablations::sljf_quality_with(200, scale.seed, config);
            (r.render(), Artifact::json(stem, &r), None)
        }
        "ablation-arrivals" => {
            let r = ablations::arrival_sweep_with(scale, config);
            (r.render(), Artifact::json(stem, &r), None)
        }
        "ablation-heterogeneity" => {
            let (tasks, families) = (scale.tasks, scale.platforms);
            let r = ablations::heterogeneity_impact_with(tasks, families, scale.seed, config);
            (r.render(), Artifact::json(stem, &r), None)
        }
        "resilience" => {
            let r = match scenario {
                Some(spec) => resilience::run_scenario_file(scale, stream, spec, config)
                    .map_err(|e| e.to_string())?,
                None => resilience::run_with(scale, stream, config),
            };
            (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
        }
        "oblivion" => {
            let r = oblivion::run_with(scale, stream, config);
            (r.render(), Artifact::json(stem, &r), Some(r.csv_table()))
        }
        _ => return Err(format!("unknown experiment `{name}`")),
    };
    let csv = csv.map(|table| Artifact::csv(stem, table));
    Ok(ExperimentOutput {
        text,
        files: std::iter::once(json).chain(csv).collect(),
        failure,
    })
}
