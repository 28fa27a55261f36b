//! Replayability and observability guarantees, exercised via the facade:
//! every experiment in this repository is re-runnable bit-for-bit, and
//! every trace can be inspected (Gantt, statistics) and serialized.

use master_slave_sched::core::{
    simulate, Algorithm, Platform, RunCounters, SimConfig, SimWorkspace, Simulation, SliceSource,
    TaskArrival,
};
use master_slave_sched::sim::{render_gantt, trace_stats, TIME_EPS};
use master_slave_sched::workload::{
    ArrivalProcess, HeterogeneityAxis, HeterogeneityFamily, Perturbation, PlatformSampler,
};
use mss_core::PlatformClass;

#[test]
fn end_to_end_replay_is_bitwise_identical() {
    let sampler = PlatformSampler::default();
    let run = || {
        let platform = &sampler.sample_many(PlatformClass::Heterogeneous, 1, 77)[0];
        let tasks = ArrivalProcess::Poisson { load: 0.9 }.generate(120, platform, 13);
        let tasks = Perturbation::matrix(0.1).apply(&tasks, 99);
        simulate(
            platform,
            &tasks,
            &SimConfig::with_horizon(120),
            &mut Algorithm::Sljfwc.build(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "whole pipeline must replay identically");
}

#[test]
fn traces_survive_json_round_trips() {
    let platform = PlatformSampler::default()
        .sample_many(PlatformClass::CommHomogeneous, 1, 5)
        .remove(0);
    let tasks = ArrivalProcess::AllAtZero.generate(30, &platform, 5);
    let trace = simulate(
        &platform,
        &tasks,
        &SimConfig::with_horizon(30),
        &mut Algorithm::ListScheduling.build(),
    )
    .unwrap();
    let json = serde_json::to_string(&trace).unwrap();
    let parsed: master_slave_sched::core::Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, trace);
    assert!((parsed.makespan() - trace.makespan()).abs() <= TIME_EPS);
}

#[test]
fn gantt_and_stats_agree_with_the_trace() {
    let family = HeterogeneityFamily::paper_ranges(4, 21);
    let platform = family.platform(HeterogeneityAxis::Both, 1.0);
    let tasks = ArrivalProcess::AllAtZero.generate(25, &platform, 3);
    let trace = simulate(
        &platform,
        &tasks,
        &SimConfig::with_horizon(25),
        &mut Algorithm::ListScheduling.build(),
    )
    .unwrap();

    let stats = trace_stats(&trace, &platform);
    assert!((stats.makespan - trace.makespan()).abs() < 1e-12);
    // Conservation: total computed seconds equal the sum of p_j over tasks.
    let total_busy: f64 = stats.slaves.iter().map(|s| s.busy).sum();
    let expected: f64 = trace
        .records()
        .iter()
        .map(|r| platform.p(r.slave) * r.size_p)
        .sum();
    assert!((total_busy - expected).abs() < 1e-6);
    // Task conservation.
    let total_tasks: usize = stats.slaves.iter().map(|s| s.tasks).sum();
    assert_eq!(total_tasks, trace.len());
    // Flow decomposition: flow = master wait + send + slave wait + compute.
    let mean_send: f64 = trace
        .records()
        .iter()
        .map(|r| r.send_end - r.send_start)
        .sum::<f64>()
        / trace.len() as f64;
    let mean_comp: f64 = trace
        .records()
        .iter()
        .map(|r| r.compute_end - r.compute_start)
        .sum::<f64>()
        / trace.len() as f64;
    let recomposed = stats.mean_master_wait + mean_send + stats.mean_slave_wait + mean_comp;
    assert!((recomposed - stats.mean_flow).abs() < 1e-9);

    // The Gantt chart covers every slave that did work.
    let chart = render_gantt(&trace, &platform, 60);
    for (j, s) in stats.slaves.iter().enumerate() {
        if s.tasks > 0 {
            let row = chart.lines().nth(1 + j).unwrap();
            assert!(
                row.contains('#') || row.contains('+'),
                "P{} did work but its row is empty:\n{chart}",
                j + 1
            );
        }
    }
}

#[test]
fn horizon_hint_does_not_change_bag_runs_for_planned_schedulers() {
    // For a bag released at t = 0 the first-decision released count equals
    // the horizon, so SLJF plans identically with or without the hint.
    let platform = PlatformSampler::default()
        .sample_many(PlatformClass::CommHomogeneous, 1, 9)
        .remove(0);
    let tasks = ArrivalProcess::AllAtZero.generate(60, &platform, 9);
    let with_hint = simulate(
        &platform,
        &tasks,
        &SimConfig::with_horizon(60),
        &mut Algorithm::Sljf.build(),
    )
    .unwrap();
    let without_hint = simulate(
        &platform,
        &tasks,
        &SimConfig::default(),
        &mut Algorithm::Sljf.build(),
    )
    .unwrap();
    assert_eq!(with_hint, without_hint);
}

/// Engine counters of one probed run of `alg`.
fn counted_run(
    ws: &mut SimWorkspace,
    platform: &Platform,
    tasks: &[TaskArrival],
    alg: Algorithm,
) -> RunCounters {
    let mut counters = RunCounters::new();
    Simulation::new(platform, &SimConfig::with_horizon(tasks.len()))
        .workspace(ws)
        .probe(&mut counters)
        .trace(SliceSource::new(tasks), &mut alg.build())
        .unwrap();
    counters
}

/// The engine recomputes a cached view only when an event touched its
/// slave: a busy row whose anchor the clock has passed is answered by the
/// view, not refreshed. So a run's recomputes are at most one per slave at
/// the start plus one per send, delivery, completion, failure and
/// recovery. It refolds a slave's whole queue only after an off-time
/// event: on-time arrivals and completions keep the cached estimate, and
/// sends extend it in O(1). The paper's exact cells (nominal sizes, static
/// 5-slave platforms, Fig. 1's bag and Fig. 2's stream) never refold,
/// whatever the heuristic; a ±10 % matrix-perturbed cell refolds, and its
/// recomputes stay within its touches. So does a 100-slave stream, where
/// one late event can leave many rows overdue at once.
#[test]
fn views_refold_only_off_time_and_recompute_only_when_touched() {
    let sampler = PlatformSampler::default();
    let mut ws = SimWorkspace::new();
    let classes = [
        PlatformClass::Homogeneous,
        PlatformClass::CommHomogeneous,
        PlatformClass::CompHomogeneous,
        PlatformClass::Heterogeneous,
    ];
    let mut cells = Vec::new();
    for class in classes {
        let platform = sampler.sample_many(class, 1, 42).remove(0);
        assert_eq!(platform.num_slaves(), 5);
        for arrivals in [
            ArrivalProcess::AllAtZero,
            ArrivalProcess::UniformStream { load: 0.9 },
        ] {
            let tasks = arrivals.generate(200, &platform, 7);
            cells.push((format!("{class:?} {arrivals:?}"), platform.clone(), tasks));
        }
    }
    let wide = HeterogeneityFamily::paper_ranges(100, 21).platform(HeterogeneityAxis::Both, 1.0);
    let tasks = ArrivalProcess::UniformStream { load: 0.7 }.generate(1_000, &wide, 7);
    cells.push(("100-slave stream".into(), wide, tasks));
    for (cell, platform, tasks) in &cells {
        let perturbed = Perturbation::matrix(0.1).apply(tasks, 11);
        for alg in Algorithm::ALL {
            let exact = counted_run(&mut ws, platform, tasks, alg);
            assert!(exact.view_recomputes > 0);
            assert_eq!(
                exact.view_refolds, 0,
                "{alg:?} refolded on a nominal {cell} cell"
            );
            let late = counted_run(&mut ws, platform, &perturbed, alg);
            let touches = platform.num_slaves() as u64
                + late.sends_started
                + late.sends_delivered
                + late.sends_lost
                + late.computes_completed
                + late.failures
                + late.recoveries;
            assert!(
                late.view_recomputes <= touches,
                "{alg:?} recomputed {} views for {touches} touches on a perturbed {cell} cell",
                late.view_recomputes
            );
            assert!(
                late.view_refolds > 0,
                "{alg:?} never refolded on a perturbed {cell} cell"
            );
        }
    }
}
