//! Golden digests of every file `ms-lab all` writes (contract #3).
//!
//! Each experiment runs through `mss_lab::run_experiment`, the call `ms-lab`
//! makes for one command and, over `EXPERIMENTS`, for `all`, so the FNV-1a
//! digests below are of the bytes the binary writes; nothing is written
//! here. All 21 files are pinned at `ExperimentScale::quick()`, and every
//! one at the paper's `ExperimentScale::full()` (the slow ones in release).

use mss_lab::{run_experiment, Artifact, ExperimentScale, EXPERIMENTS};
use mss_sweep::SweepConfig;
use std::sync::OnceLock;

/// FNV-1a, 64-bit, as 16 hex digits.
fn digest(body: &str) -> String {
    let hash = body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The ablations and oblivion take about 11 s at the paper's scale in a
/// debug build, so only a release build pins them at that scale.
fn slow_in_debug(name: &&str) -> bool {
    name.starts_with("ablation") || *name == "oblivion"
}

/// The files the experiments `names` produce at `scale`, in order.
fn render(scale: ExperimentScale, names: impl Iterator<Item = &'static str>) -> Vec<Artifact> {
    let config = SweepConfig::default();
    let run = |name| run_experiment(name, scale, None, &config).expect("experiment runs");
    names.flat_map(|name| run(name).files).collect()
}

/// Every file of `ms-lab all --quick`, rendered once for both tests.
fn quick() -> &'static [Artifact] {
    static FILES: OnceLock<Vec<Artifact>> = OnceLock::new();
    FILES.get_or_init(|| render(ExperimentScale::quick(), EXPERIMENTS.into_iter()))
}

/// The files of `ms-lab all` at the paper's scale (10 platforms × 1000
/// tasks) that a debug build renders quickly, rendered once for both tests.
fn full() -> &'static [Artifact] {
    static FILES: OnceLock<Vec<Artifact>> = OnceLock::new();
    let names = EXPERIMENTS.into_iter().filter(|n| !slow_in_debug(n));
    FILES.get_or_init(|| render(ExperimentScale::full(), names))
}

/// Asserts that the files whose names end in `ext` are exactly `golden`,
/// in order, with those digests.
fn check(files: &[Artifact], ext: &str, golden: &[(&str, &str)]) {
    let got: Vec<_> = files
        .iter()
        .filter(|f| f.name.ends_with(ext))
        .map(|f| (f.name.as_str(), digest(&f.body)))
        .collect();
    let want: Vec<_> = golden.iter().map(|&(n, d)| (n, d.to_string())).collect();
    assert_eq!(got, want);
}

#[test]
fn quick_scale_artifact_json_matches_golden_digests() {
    let golden = [
        ("table1.json", "9be3b151f58a7082"),
        ("fig1a.json", "e8c4cf3dc57426de"),
        ("fig1b.json", "95f5204df6d7dd6d"),
        ("fig1c.json", "00a98a9a7e1247ae"),
        ("fig1d.json", "edb4fd4e7fa32420"),
        ("fig2.json", "bb944626aa2b3ecb"),
        ("ablation_buffer.json", "755d6330a3669f77"),
        ("ablation_sljf.json", "e6cdaf7f7fd689c4"),
        ("ablation_arrivals.json", "3efe3d66edb315ce"),
        ("ablation_heterogeneity.json", "399a3e6dd1e4d5c6"),
        ("resilience.json", "b000b4fcb3c61e91"),
        ("oblivion.json", "49a0c2ffac5f1a2d"),
    ];
    check(quick(), ".json", &golden);
}

#[test]
fn quick_scale_artifact_csv_matches_golden_digests() {
    let golden = [
        ("table1.csv", "b368d40aba4e9c02"),
        ("fig1a.csv", "d2d172670ecbea4c"),
        ("fig1b.csv", "e75e22301ca9988b"),
        ("fig1c.csv", "6f539a6f99c01989"),
        ("fig1d.csv", "32aff41d60ce8d84"),
        ("fig2.csv", "4833667da658ad8c"),
        ("ablation_buffer.csv", "17e14ab9c4d017c9"),
        ("resilience.csv", "63687ef7f77cc21b"),
        ("oblivion.csv", "ed1eadcb5ab7642f"),
    ];
    check(quick(), ".csv", &golden);
}

#[test]
fn full_scale_artifact_json_matches_golden_digests() {
    let golden = [
        ("table1.json", "9be3b151f58a7082"),
        ("fig1a.json", "2d15339ec4b1556f"),
        ("fig1b.json", "2236f919db8619d6"),
        ("fig1c.json", "ed59de837f849a87"),
        ("fig1d.json", "234a6024d8be6ed5"),
        ("fig2.json", "14b73f5b5f69b298"),
        ("resilience.json", "3b96ac6c43e9de9b"),
    ];
    check(full(), ".json", &golden);
}

#[test]
fn full_scale_artifact_csv_matches_golden_digests() {
    let golden = [
        ("table1.csv", "b368d40aba4e9c02"),
        ("fig1a.csv", "5b7ecea641d4bece"),
        ("fig1b.csv", "54e7d6216745703a"),
        ("fig1c.csv", "849cdd60eeb89d94"),
        ("fig1d.csv", "7a6517373d3b1b15"),
        ("fig2.csv", "a466e1252fe1c363"),
        ("resilience.csv", "3e760575f9ebfed7"),
    ];
    check(full(), ".csv", &golden);
}

/// Release only (CI's release step runs it): see [`slow_in_debug`].
#[cfg(not(debug_assertions))]
#[test]
fn full_scale_ablation_and_oblivion_artifacts_match_golden_digests() {
    let golden = [
        ("ablation_buffer.json", "75a5ad6f4c969f02"),
        ("ablation_buffer.csv", "39f05f8d5d5687b9"),
        ("ablation_sljf.json", "e6cdaf7f7fd689c4"),
        ("ablation_arrivals.json", "ec1c4b24929637ab"),
        ("ablation_heterogeneity.json", "9171210d76242bca"),
        ("oblivion.json", "9a7d3b29c03211e2"),
        ("oblivion.csv", "36506d5d54ca673c"),
    ];
    let names = EXPERIMENTS.into_iter().filter(slow_in_debug);
    check(&render(ExperimentScale::full(), names), "", &golden);
}
