//! Golden digests of the paper artifacts' JSON (contract #3, JSON half).
//!
//! Each artifact is rendered at `ExperimentScale::quick()` with the
//! arguments `ms-lab` passes, through the same `serde_json::to_string_pretty`
//! call `report::write_json` makes, and its bytes are FNV-1a hashed. The
//! recorded digests pin both the experiments' numbers and the JSON writer:
//! any drift in either shows up here instead of in a manual diff.

use mss_core::PlatformClass;
use mss_lab::report::ExperimentScale;
use mss_lab::{fig1, fig2, table1};
use mss_sweep::SweepConfig;
use mss_workload::{ArrivalProcess, Perturbation};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: serde::Serialize>(report: &T) -> String {
    let body = serde_json::to_string_pretty(report).expect("serialize report");
    format!("{:016x}", fnv1a(body.as_bytes()))
}

#[test]
fn quick_scale_artifact_json_matches_golden_digests() {
    let scale = ExperimentScale::quick();
    let config = SweepConfig::default();
    let panel = |class| {
        digest(&fig1::run_panel_with(
            class,
            scale,
            ArrivalProcess::AllAtZero,
            &config,
        ))
    };
    let actual = [
        ("fig1a", panel(PlatformClass::Homogeneous)),
        ("fig1b", panel(PlatformClass::CommHomogeneous)),
        ("fig1c", panel(PlatformClass::CompHomogeneous)),
        ("fig1d", panel(PlatformClass::Heterogeneous)),
        (
            "fig2",
            digest(&fig2::run_with(
                scale,
                ArrivalProcess::UniformStream { load: 0.9 },
                Perturbation::matrix(0.1),
                &config,
            )),
        ),
        ("table1", digest(&table1::run_with(&config))),
    ];
    let golden = [
        ("fig1a", "e8c4cf3dc57426de"),
        ("fig1b", "95f5204df6d7dd6d"),
        ("fig1c", "00a98a9a7e1247ae"),
        ("fig1d", "edb4fd4e7fa32420"),
        ("fig2", "bb944626aa2b3ecb"),
        ("table1", "9be3b151f58a7082"),
    ];
    for ((name, got), (golden_name, want)) in actual.iter().zip(golden) {
        assert_eq!(*name, golden_name);
        assert_eq!(got, want, "{name}.json digest");
    }
}
