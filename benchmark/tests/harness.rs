//! The benchmark's own tests: tiny-scale runs of every workload print every
//! metric `BENCHMARK.json` names, with its unit, and the per-layer counter
//! predictions hold exactly.

use mss_benchmark::{run, Metric, Options, Report, Scale, Workload, LAYER_METRICS};
use std::path::PathBuf;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: Workload, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::TINY,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    };
    let report = run(&opts).expect("tiny run completes");
    assert!(report.correct, "{}: {:#?}", workload.name(), report.log);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
                Some(rest[..rest.find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads_and_layer_metrics() {
    for w in Workload::ALL {
        assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let layers: Vec<(String, String)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let expected = listed("end_to_end");
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_eq!(names_and_units(&report.metrics), expected, "{}", w.name());
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name(),
            report.metrics
        );
    }
}

#[test]
fn paper_grid_never_reaches_the_tree_kernel() {
    let r = tiny(Workload::PaperGrid, true);
    assert_eq!(names_and_units(&r.metrics), listed("per_layer"));
    // m = 5 is below the tree threshold: every decision scans.
    assert_eq!(value(&r, "kernel.queries"), 0.0);
    assert!(value(&r, "kernel.scans") > 0.0);
    assert_eq!(value(&r, "sweep.keys"), 0.0, "no store on the paper grid");
    assert!(value(&r, "sim.events") > 0.0 && value(&r, "core.decisions") > 0.0);
    assert!(r
        .chrome_trace
        .as_deref()
        .is_some_and(|t| t.contains("simulate #")));
}

#[test]
fn stream_replay_srpt_is_served_by_the_tree() {
    let r = tiny(Workload::StreamReplay, true);
    assert_eq!(names_and_units(&r.metrics), listed("per_layer"));
    // LS scans; SRPT rebuilds its tree once per replay and then hits.
    assert_eq!(value(&r, "kernel.rebuilds"), 1.0);
    assert!(value(&r, "kernel.hit_ratio") >= 0.99);
    assert_eq!(
        value(&r, "workload.trace.pulls"),
        2.0 * (Scale::TINY.stream_tasks as f64 + 1.0),
        "every task pulled once per replay, plus the end-of-stream pull"
    );
    assert!(value(&r, "workload.trace.open_s") > 0.0);
    assert!(value(&r, "sim.peak_live_slots") > 0.0);
}

#[test]
fn sweep_resume_warm_half_is_served_from_the_store() {
    let r = tiny(Workload::SweepResume, true);
    assert_eq!(names_and_units(&r.metrics), listed("per_layer"));
    assert_eq!(value(&r, "sweep.store.hit_ratio"), 1.0);
    let cells = 7.0 * 3.0 * Scale::TINY.sweep_platforms as f64 * 8.0;
    assert_eq!(value(&r, "sweep.keys"), 2.0 * cells);
    assert_eq!(value(&r, "sweep.store.records"), cells);
    assert!(
        value(&r, "sim.failures") > 0.0,
        "the failure scenario bites"
    );
    assert!(value(&r, "sweep.agg.rows") > 0.0);
}

#[test]
fn the_binary_prints_the_result_line_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_mss-benchmark"))
        .args([
            "--workload",
            "sweep-resume",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--tiny",
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"setup_s\": {\"value\": "), "{last}");
    assert!(stdout.contains("seed=3") && stdout.contains("threads=1"));

    let bad = Command::new(env!("CARGO_BIN_EXE_mss-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
