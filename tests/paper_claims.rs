//! End-to-end checks of the paper's headline experimental claims (§4.3),
//! run through the public facade at reduced scale (same shapes, fast).

use master_slave_sched::core::{Algorithm, PlatformClass};
use master_slave_sched::lab::{fig1, fig2, ExperimentScale};
use master_slave_sched::workload::{ArrivalProcess, Perturbation};
use mss_sweep::SweepConfig;

fn scale() -> ExperimentScale {
    // 6 platforms rather than the paper's 10: enough to stabilize the
    // averaged claims under the vendored RNG stream while staying fast.
    ExperimentScale {
        platforms: 6,
        tasks: 150,
        seed: 42,
    }
}

/// One Figure 1 panel at this file's scale, every task released at 0.
fn fig1_panel(class: PlatformClass) -> fig1::Fig1Panel {
    fig1::run_panel_with(
        class,
        scale(),
        ArrivalProcess::AllAtZero,
        &SweepConfig::default(),
    )
}

#[test]
fn fig1a_statics_equal_and_beat_srpt() {
    // "all static algorithms perform equally well on such platforms, and
    // exhibit better performance than the dynamic heuristic SRPT."
    let panel = fig1_panel(PlatformClass::Homogeneous);
    let statics = [
        Algorithm::ListScheduling,
        Algorithm::RoundRobin,
        Algorithm::RoundRobinComm,
        Algorithm::RoundRobinProc,
        Algorithm::Sljf,
        Algorithm::Sljfwc,
    ];
    for a in statics {
        let n = panel.normalized(a);
        assert!(
            n[0] < 1.0 - 0.01,
            "{a}: normalized makespan {} should clearly beat SRPT",
            n[0]
        );
    }
    // "equally well": the statics' spread is small next to their gap to SRPT.
    let makespans: Vec<f64> = statics.iter().map(|&a| panel.normalized(a)[0]).collect();
    let min = makespans.iter().copied().fold(f64::INFINITY, f64::min);
    let max = makespans.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max - min < 1.0 - max,
        "statics spread [{min}, {max}] should be tighter than their lead over SRPT"
    );
}

#[test]
fn fig1b_rrc_is_the_outlier() {
    // "RRC, which does not take processor heterogeneity into account,
    // performs significantly worse than the others."
    let panel = fig1_panel(PlatformClass::CommHomogeneous);
    let rrc = panel.normalized(Algorithm::RoundRobinComm)[0];
    for a in [
        Algorithm::ListScheduling,
        Algorithm::RoundRobin,
        Algorithm::RoundRobinProc,
        Algorithm::Sljf,
        Algorithm::Sljfwc,
    ] {
        assert!(
            panel.normalized(a)[0] < rrc,
            "{a} ({}) should beat RRC ({rrc}) on comm-homogeneous platforms",
            panel.normalized(a)[0]
        );
    }
}

#[test]
fn fig1b_sljf_best_for_makespan() {
    // "we also observe that SLJF is the best approach for makespan
    // minimization" (communication-homogeneous platforms).
    let panel = fig1_panel(PlatformClass::CommHomogeneous);
    let sljf = panel.normalized(Algorithm::Sljf)[0];
    for a in Algorithm::ALL {
        assert!(
            sljf <= panel.normalized(a)[0] + 0.02,
            "SLJF ({sljf}) should be at or near the top; {a} is at {}",
            panel.normalized(a)[0]
        );
    }
}

#[test]
fn fig1c_rrp_and_sljf_are_the_outliers() {
    // "RRP and SLJF, which do not take communication heterogeneity into
    // account, perform significantly worse than the others."
    let panel = fig1_panel(PlatformClass::CompHomogeneous);
    let rrp = panel.normalized(Algorithm::RoundRobinProc)[0];
    let comm_aware_best = [
        Algorithm::ListScheduling,
        Algorithm::RoundRobinComm,
        Algorithm::Sljfwc,
    ]
    .iter()
    .map(|&a| panel.normalized(a)[0])
    .fold(f64::INFINITY, f64::min);
    assert!(
        rrp > comm_aware_best,
        "RRP ({rrp}) should trail the communication-aware heuristics ({comm_aware_best})"
    );
}

#[test]
fn fig1c_sljfwc_best_for_makespan() {
    // "we also observe that SLJFWC is the best approach for makespan
    // minimization" (computation-homogeneous platforms).
    let panel = fig1_panel(PlatformClass::CompHomogeneous);
    let sljfwc = panel.normalized(Algorithm::Sljfwc)[0];
    for a in Algorithm::ALL {
        assert!(
            sljfwc <= panel.normalized(a)[0] + 0.02,
            "SLJFWC ({sljfwc}) should be at or near the top; {a} is at {}",
            panel.normalized(a)[0]
        );
    }
}

#[test]
fn fig1d_communication_aware_heuristics_lead() {
    // "the best algorithms are LS and SLJFWC. Moreover, we see that
    // algorithms taking communication delays into account actually perform
    // better."
    let panel = fig1_panel(PlatformClass::Heterogeneous);
    let ls = panel.normalized(Algorithm::ListScheduling)[0];
    let sljfwc = panel.normalized(Algorithm::Sljfwc)[0];
    let best_pair = ls.min(sljfwc);
    // The pair must beat the dynamic baseline and the link-oblivious RRP.
    assert!(best_pair < 1.0);
    assert!(best_pair <= panel.normalized(Algorithm::RoundRobinProc)[0] + 1e-9);
}

#[test]
fn fig2_makespan_robust_flows_fragile() {
    // "our algorithms are quite robust for makespan minimization problems,
    // but not as much for sum-flow or max-flow problems."
    let report = fig2::run_with(
        scale(),
        ArrivalProcess::UniformStream { load: 0.9 },
        Perturbation::linear(0.1),
        &SweepConfig::default(),
    );
    let mut worst_makespan_dev = 0.0f64;
    let mut worst_flow_dev = 0.0f64;
    for row in &report.rows {
        worst_makespan_dev = worst_makespan_dev.max((row.ratio[0] - 1.0).abs());
        worst_flow_dev = worst_flow_dev
            .max((row.ratio[1] - 1.0).abs())
            .max((row.ratio[2] - 1.0).abs());
    }
    assert!(
        worst_makespan_dev < 0.15,
        "makespan deviation {worst_makespan_dev} should be small"
    );
    assert!(
        worst_flow_dev > worst_makespan_dev,
        "flow deviation ({worst_flow_dev}) should exceed makespan deviation ({worst_makespan_dev})"
    );
}
