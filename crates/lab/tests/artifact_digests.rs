//! Golden digests of the paper artifacts' JSON and CSV (contract #3).
//!
//! Each artifact is rendered at `ExperimentScale::quick()` with the
//! arguments `ms-lab` passes. Its JSON goes through the same
//! `serde_json::to_string_pretty` call `report::write_json` makes, its CSV
//! through the `report::csv_body` that `report::write_csv` writes, and the
//! bytes are FNV-1a hashed. The recorded digests pin the experiments'
//! numbers and both writers: any drift shows up here instead of in a manual
//! diff.

use mss_core::PlatformClass;
use mss_lab::report::{csv_body, ExperimentScale};
use mss_lab::{fig1, fig2, table1};
use mss_sweep::SweepConfig;
use mss_workload::{ArrivalProcess, Perturbation};
use std::sync::OnceLock;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(bytes: &str) -> String {
    format!("{:016x}", fnv1a(bytes.as_bytes()))
}

/// One rendered artifact: its name and the bytes of its JSON and CSV.
struct Artifact {
    name: &'static str,
    json: String,
    csv: String,
}

fn render<T: serde::Serialize>(
    name: &'static str,
    report: &T,
    (header, rows): (&[&str], Vec<Vec<String>>),
) -> Artifact {
    Artifact {
        name,
        json: serde_json::to_string_pretty(report).expect("serialize report"),
        csv: csv_body(header, &rows),
    }
}

/// The six paper artifacts at quick scale, rendered once for both tests.
fn artifacts() -> &'static [Artifact] {
    static ARTIFACTS: OnceLock<Vec<Artifact>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let scale = ExperimentScale::quick();
        let config = SweepConfig::default();
        let panel = |name, class| {
            let p = fig1::run_panel_with(class, scale, ArrivalProcess::AllAtZero, &config);
            render(name, &p, p.csv_table())
        };
        let fig2 = fig2::run_with(
            scale,
            ArrivalProcess::UniformStream { load: 0.9 },
            Perturbation::matrix(0.1),
            &config,
        );
        let table1 = table1::run_with(&config);
        vec![
            panel("fig1a", PlatformClass::Homogeneous),
            panel("fig1b", PlatformClass::CommHomogeneous),
            panel("fig1c", PlatformClass::CompHomogeneous),
            panel("fig1d", PlatformClass::Heterogeneous),
            render("fig2", &fig2, fig2.csv_table()),
            render("table1", &table1, table1.csv_table()),
        ]
    })
}

fn check(golden: [(&str, &str); 6], bytes: fn(&Artifact) -> &str, ext: &str) {
    for (artifact, (name, want)) in artifacts().iter().zip(golden) {
        assert_eq!(artifact.name, name);
        assert_eq!(digest(bytes(artifact)), want, "{name}.{ext} digest");
    }
}

#[test]
fn quick_scale_artifact_json_matches_golden_digests() {
    let golden = [
        ("fig1a", "e8c4cf3dc57426de"),
        ("fig1b", "95f5204df6d7dd6d"),
        ("fig1c", "00a98a9a7e1247ae"),
        ("fig1d", "edb4fd4e7fa32420"),
        ("fig2", "bb944626aa2b3ecb"),
        ("table1", "9be3b151f58a7082"),
    ];
    check(golden, |a| &a.json, "json");
}

#[test]
fn quick_scale_artifact_csv_matches_golden_digests() {
    let golden = [
        ("fig1a", "d2d172670ecbea4c"),
        ("fig1b", "e75e22301ca9988b"),
        ("fig1c", "6f539a6f99c01989"),
        ("fig1d", "32aff41d60ce8d84"),
        ("fig2", "4833667da658ad8c"),
        ("table1", "b368d40aba4e9c02"),
    ];
    check(golden, |a| &a.csv, "csv");
}
