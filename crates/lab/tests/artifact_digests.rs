//! Golden digests of the paper artifacts' JSON and CSV (contract #3).
//!
//! Each artifact is rendered at `ExperimentScale::quick()` and at the
//! paper's `ExperimentScale::full()` with the arguments `ms-lab` passes.
//! Its JSON goes through the same `serde_json::to_string_pretty` call
//! `report::write_json` makes, its CSV through the `report::csv_body` that
//! `report::write_csv` writes (the resilience report builds its rows inside
//! `write_artifacts`, so its CSV is that file, read back), and the bytes
//! are FNV-1a hashed. The recorded digests pin the experiments' numbers and
//! both writers: any drift shows up here instead of in a manual diff.

use mss_core::PlatformClass;
use mss_lab::report::{csv_body, ExperimentScale};
use mss_lab::{fig1, fig2, resilience, table1};
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

/// The paper artifacts at `scale`: fig1a–d, fig2 and table1, plus the
/// resilience report when `with_resilience`.
fn render_all(scale: ExperimentScale, with_resilience: bool) -> Vec<Artifact> {
    let config = SweepConfig::default();
    let stream = ArrivalProcess::UniformStream { load: 0.9 };
    let panel = |name, class| {
        let p = fig1::run_panel_with(class, scale, ArrivalProcess::AllAtZero, &config);
        render(name, &p, p.csv_table())
    };
    let fig2 = fig2::run_with(scale, stream, Perturbation::matrix(0.1), &config);
    let table1 = table1::run_with(&config);
    let mut artifacts = vec![
        panel("fig1a", PlatformClass::Homogeneous),
        panel("fig1b", PlatformClass::CommHomogeneous),
        panel("fig1c", PlatformClass::CompHomogeneous),
        panel("fig1d", PlatformClass::Heterogeneous),
        render("fig2", &fig2, fig2.csv_table()),
        render("table1", &table1, table1.csv_table()),
    ];
    if with_resilience {
        let report = resilience::run_with(scale, stream, &config);
        artifacts.push(Artifact {
            name: "resilience",
            json: serde_json::to_string_pretty(&report).expect("serialize report"),
            csv: std::fs::read_to_string(report.write_artifacts()).expect("read resilience.csv"),
        });
    }
    artifacts
}

/// The six paper artifacts at quick scale, rendered once for both tests.
fn quick() -> &'static [Artifact] {
    static ARTIFACTS: OnceLock<Vec<Artifact>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| render_all(ExperimentScale::quick(), false))
}

/// The six paper artifacts and the resilience report at the paper's
/// scale (10 platforms × 1000 tasks): the bytes `ms-lab all` writes.
fn full() -> &'static [Artifact] {
    static ARTIFACTS: OnceLock<Vec<Artifact>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| render_all(ExperimentScale::full(), true))
}

fn check(artifacts: &[Artifact], golden: &[(&str, &str)], bytes: fn(&Artifact) -> &str, ext: &str) {
    assert_eq!(artifacts.len(), golden.len());
    for (artifact, &(name, want)) in artifacts.iter().zip(golden) {
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
    check(quick(), &golden, |a| &a.json, "json");
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
    check(quick(), &golden, |a| &a.csv, "csv");
}

#[test]
fn full_scale_artifact_json_matches_golden_digests() {
    let golden = [
        ("fig1a", "2d15339ec4b1556f"),
        ("fig1b", "2236f919db8619d6"),
        ("fig1c", "ed59de837f849a87"),
        ("fig1d", "234a6024d8be6ed5"),
        ("fig2", "14b73f5b5f69b298"),
        ("table1", "9be3b151f58a7082"),
        ("resilience", "3b96ac6c43e9de9b"),
    ];
    check(full(), &golden, |a| &a.json, "json");
}

#[test]
fn full_scale_artifact_csv_matches_golden_digests() {
    let golden = [
        ("fig1a", "5b7ecea641d4bece"),
        ("fig1b", "54e7d6216745703a"),
        ("fig1c", "849cdd60eeb89d94"),
        ("fig1d", "7a6517373d3b1b15"),
        ("fig2", "a466e1252fe1c363"),
        ("table1", "b368d40aba4e9c02"),
        ("resilience", "3e760575f9ebfed7"),
    ];
    check(full(), &golden, |a| &a.csv, "csv");
}
