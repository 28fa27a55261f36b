//! Cross-crate integration: the full pipeline from exact theorem games to
//! the threaded cluster, exercised through the facade crate.

use master_slave_sched::adversary::{play_all, TheoremId};
use master_slave_sched::cluster::{execute, validate_loose, ClusterConfig};
use master_slave_sched::core::{
    bag_of_tasks, simulate, validate, Algorithm, Objective, Platform, SimConfig,
};
use master_slave_sched::exact::Surd;
use master_slave_sched::lab::{table1, ExperimentScale};
use master_slave_sched::opt::schedule::{Goal, Instance};
use master_slave_sched::workload::{ArrivalProcess, PlatformSampler};
use mss_core::PlatformClass;
use mss_sweep::SweepConfig;

#[test]
fn table1_report_is_fully_verified() {
    let report = table1::run_with(&SweepConfig::default());
    assert_eq!(report.cells.len(), 9);
    assert!(report.all_verified());
    // The minimum measured ratio never undercuts the certified threshold.
    for cell in &report.cells {
        assert!(
            cell.min_measured >= cell.certified * (1.0 - 1e-9),
            "{}: min {} < certified {}",
            cell.theorem,
            cell.min_measured,
            cell.certified
        );
    }
    // T1's minimum is exactly the bound (LS attains it).
    let t1 = report.cell(TheoremId::T1);
    assert!((t1.min_measured - 1.25).abs() < 1e-9);
}

#[test]
fn adversary_games_against_custom_scheduler() {
    // A user-defined scheduler (always-cheapest-link) also loses all games.
    use master_slave_sched::core::{Decision, OnlineScheduler, SchedulerEvent, SimView};
    struct CheapestLink;
    impl OnlineScheduler for CheapestLink {
        fn name(&self) -> String {
            "cheapest-link".into()
        }
        fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
            match (view.link_idle(), view.pending_tasks().first()) {
                (true, Some(&task)) => {
                    let slave = view
                        .platform()
                        .slave_ids()
                        .min_by(|&a, &b| {
                            view.platform()
                                .c(a)
                                .partial_cmp(&view.platform().c(b))
                                .unwrap()
                        })
                        .unwrap();
                    Decision::Send { task, slave }
                }
                _ => Decision::Idle,
            }
        }
    }
    let factory = || -> Box<dyn OnlineScheduler> { Box::new(CheapestLink) };
    for result in play_all(&factory) {
        assert!(
            result.holds(),
            "{}: {} < {}",
            result.info.id,
            result.ratio,
            result.info.certified.to_f64()
        );
    }
}

#[test]
fn des_and_cluster_agree_end_to_end() {
    let platform = Platform::from_vectors(&[0.5, 0.5], &[1.0, 6.0]);
    let tasks = bag_of_tasks(8);
    let des = simulate(
        &platform,
        &tasks,
        &SimConfig::with_horizon(8),
        &mut Algorithm::Sljf.build(),
    )
    .unwrap();
    assert!(validate(&des, &platform).is_empty());

    let run = execute(
        &platform,
        &tasks,
        &ClusterConfig {
            time_scale: 0.01,
            matrix_dim: 24,
            horizon_hint: Some(8),
        },
        &mut Algorithm::Sljf.build(),
    )
    .unwrap();
    assert!(validate_loose(&run.trace, &platform, 0.2).is_empty());
    // SLJF's plan is timing-independent: assignments must match exactly.
    for i in 0..8 {
        assert_eq!(
            des.record(mss_core::TaskId(i)).slave,
            run.trace.record(mss_core::TaskId(i)).slave
        );
    }
}

#[test]
fn exact_and_float_optimizers_agree() {
    let f = Instance {
        c: vec![1.0, 1.0],
        p: vec![3.0, 7.0],
        r: vec![0.0, 1.0, 2.0],
    };
    let e = Instance {
        c: vec![Surd::ONE, Surd::ONE],
        p: vec![Surd::from_int(3), Surd::from_int(7)],
        r: vec![Surd::ZERO, Surd::ONE, Surd::from_int(2)],
    };
    for goal in [Goal::Makespan, Goal::MaxFlow, Goal::SumFlow] {
        let vf = master_slave_sched::opt::best_f64(&f, goal).value;
        let ve = master_slave_sched::opt::best_exact(&e, goal).value.to_f64();
        assert!((vf - ve).abs() < 1e-9, "{goal:?}: {vf} vs {ve}");
    }
}

#[test]
fn lab_artifacts_round_trip_through_json() {
    let scale = ExperimentScale {
        platforms: 2,
        tasks: 60,
        seed: 1,
    };
    let panel = master_slave_sched::lab::fig1::run_panel_with(
        PlatformClass::Heterogeneous,
        scale,
        ArrivalProcess::AllAtZero,
        &SweepConfig::default(),
    );
    let body = master_slave_sched::lab::Artifact::json("fig1d", &panel).body;
    let parsed: master_slave_sched::lab::fig1::Fig1Panel = serde_json::from_str(&body).unwrap();
    assert_eq!(parsed.rows.len(), 7);
    for (a, b) in parsed.rows.iter().zip(&panel.rows) {
        assert_eq!(a.algorithm, b.algorithm);
        assert!((a.normalized[0] - b.normalized[0]).abs() < 1e-12);
    }
}

#[test]
fn workload_to_simulation_pipeline() {
    // Sample → generate → simulate → evaluate, for every class and
    // algorithm, all through public APIs.
    let sampler = PlatformSampler {
        num_slaves: 4,
        ..PlatformSampler::default()
    };
    for class in [
        PlatformClass::Homogeneous,
        PlatformClass::CommHomogeneous,
        PlatformClass::CompHomogeneous,
        PlatformClass::Heterogeneous,
    ] {
        let platform = &sampler.sample_many(class, 1, 9)[0];
        let tasks = ArrivalProcess::Poisson { load: 0.8 }.generate(40, platform, 3);
        for a in Algorithm::ALL {
            let trace = simulate(
                platform,
                &tasks,
                &SimConfig::with_horizon(40),
                &mut a.build(),
            )
            .unwrap();
            assert!(validate(&trace, platform).is_empty());
            assert!(Objective::SumFlow.evaluate(&trace) > 0.0);
        }
    }
}
