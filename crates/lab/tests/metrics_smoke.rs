//! The `metrics.json` telemetry contract, checked on the small faulty
//! reference scenario that `ms-lab metrics examples/trace_smoke.toml
//! --quick` runs: quantile ladders are monotone, utilization fractions
//! lie in [0, 1] and partition slave time, the flow histogram holds
//! exactly one sample per completed task, and queue statistics are
//! plausible.

use mss_lab::metrics::run_spec_metrics;
use mss_lab::Artifact;
use mss_sweep::{spec_from_toml, MetricsRow, SweepConfig};

#[test]
fn metrics_json_upholds_the_telemetry_contract() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/trace_smoke.toml"
    );
    let spec = spec_from_toml(&std::fs::read_to_string(path).expect("read spec")).unwrap();
    // `--quick`: every cell simulated fresh, no result store.
    let config = SweepConfig {
        threads: 1,
        progress: false,
        ..SweepConfig::default()
    };
    let report = run_spec_metrics(&spec, &config).unwrap();
    // The bytes `ms-lab metrics` writes to metrics.json, read back by field
    // name.
    let json = Artifact::json("metrics", &report.rows).body;
    let rows: Vec<MetricsRow> = serde_json::from_str(&json).unwrap();
    assert!(!rows.is_empty(), "metrics.json has no rows");
    for r in &rows {
        let label = format!("{} / {}", r.group, r.algorithm);
        for (name, h) in [
            ("flow", &r.flow),
            ("wait", &r.wait),
            ("transfer", &r.transfer),
            ("compute", &r.compute),
        ] {
            let ladder = [h.p50, h.p90, h.p99, h.max];
            assert!(
                ladder.windows(2).all(|w| w[0] <= w[1]),
                "{label}: {name} quantiles not monotone: {ladder:?}"
            );
        }
        for (name, frac) in [
            ("busy_frac", r.busy_frac),
            ("blocked_frac", r.blocked_frac),
            ("idle_frac", r.idle_frac),
            ("recv_frac", r.recv_frac),
        ] {
            assert!(
                (0.0..=1.0).contains(&frac),
                "{label}: {name} out of [0, 1]: {frac}"
            );
        }
        let split = r.busy_frac + r.blocked_frac + r.idle_frac;
        assert!(
            (split - 1.0).abs() <= 1e-6,
            "{label}: utilization split sums to {split}"
        );
        assert_eq!(
            r.flow.count, r.tasks,
            "{label}: flow histogram samples vs tasks"
        );
        assert!(
            r.queue_mean >= 0.0 && r.queue_max >= 1,
            "{label}: implausible queue stats (mean {}, max {})",
            r.queue_mean,
            r.queue_max
        );
    }
}
