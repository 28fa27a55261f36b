//! `ms-lab metrics` — distributional run telemetry for a sweep grid.
//!
//! Runs a user spec with [`Observe::Metrics`] so every cell
//! carries a telemetry payload, merges the payloads per (group,
//! algorithm) in expansion order, and reports flow/wait/transfer/compute
//! quantiles plus per-slave utilization splits and master-queue pressure.
//! This is the distributional companion to the scalar objectives: the
//! paper's max-flow objective is exactly the flow histogram's maximum,
//! and the p50/p90/p99 ladder shows how far the tail sits from the bulk.
//!
//! Everything here is deterministic and thread-count independent
//! (contract #12): histograms carry integer bucket counts that merge
//! exactly, utilization is stored as seconds and divided only at render
//! time, and the lab-side merge runs in expansion order. `metrics.csv` /
//! `metrics.json` are byte-identical for any `--threads` value.

use crate::report::{fmt3, AsciiTable};
use mss_sweep::{aggregate_metrics, try_run_cells, MetricsRow, Observe, SweepConfig, SweepSpec};

/// A completed telemetry run over a spec's grid.
pub struct MetricsReport {
    /// Spec name (labels the artifacts).
    pub name: String,
    /// Merged telemetry rows in first-seen (group, algorithm) order.
    pub rows: Vec<MetricsRow>,
    /// Cells in the grid.
    pub cells: usize,
    /// Cells that completed (aborted cells carry no telemetry).
    pub completed: usize,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the result store with payloads intact.
    pub cached: usize,
}

/// Expands and runs `spec` with telemetry collection on, then merges the
/// per-cell payloads. Cell failures (e.g. budget aborts of fault-oblivious
/// algorithms) are tolerated: their cells simply drop out of the merge.
pub fn run_spec_metrics(spec: &SweepSpec, config: &SweepConfig) -> Result<MetricsReport, String> {
    let config = SweepConfig {
        observe: Observe::Metrics,
        ..config.clone()
    };
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let n = cells.len();
    let checked = try_run_cells(&cells, &config);

    let mut ok_cells = Vec::with_capacity(n);
    let mut ok_metrics = Vec::with_capacity(n);
    for (cell, result) in cells.iter().zip(checked.results) {
        if let Ok(m) = result {
            ok_cells.push(cell.clone());
            ok_metrics.push(m);
        }
    }
    let completed = ok_cells.len();
    let rows = aggregate_metrics(&ok_cells, &ok_metrics);
    Ok(MetricsReport {
        name: spec.name.clone(),
        rows,
        cells: n,
        completed,
        executed: checked.executed,
        cached: checked.cached,
    })
}

impl MetricsReport {
    /// Human-readable telemetry table: flow quantiles, utilization split,
    /// queue pressure.
    pub fn render(&self) -> String {
        let mut out = format!(
            "telemetry `{}`: {} cells ({} completed, {} executed, {} cached)\n\n",
            self.name, self.cells, self.completed, self.executed, self.cached
        );
        let mut table = AsciiTable::new(vec![
            "scenario".to_string(),
            "alg".to_string(),
            "tasks".to_string(),
            "flow p50".to_string(),
            "p90".to_string(),
            "p99".to_string(),
            "max".to_string(),
            "busy%".to_string(),
            "blocked%".to_string(),
            "idle%".to_string(),
            "port%".to_string(),
            "q mean".to_string(),
        ]);
        for r in &self.rows {
            table.row(vec![
                r.group.clone(),
                r.algorithm.clone(),
                r.tasks.to_string(),
                fmt3(r.flow.p50),
                fmt3(r.flow.p90),
                fmt3(r.flow.p99),
                fmt3(r.flow.max),
                format!("{:.1}", r.busy_frac * 100.0),
                format!("{:.1}", r.blocked_frac * 100.0),
                format!("{:.1}", r.idle_frac * 100.0),
                format!("{:.1}", r.recv_frac * 100.0),
                fmt3(r.queue_mean),
            ]);
        }
        out.push_str(&table.render());
        out
    }

    /// Header and stringified rows of `metrics.csv`, a full-precision dump
    /// of [`rows`](Self::rows) (which `metrics.json` serializes).
    pub fn csv_table(&self) -> (&'static [&'static str], Vec<Vec<String>>) {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![
                    r.group.clone(),
                    r.algorithm.clone(),
                    r.cells.to_string(),
                    r.tasks.to_string(),
                ];
                for h in [&r.flow, &r.wait, &r.transfer, &r.compute] {
                    for v in [h.p50, h.p90, h.p99, h.max] {
                        row.push(format!("{v}"));
                    }
                }
                for v in [
                    r.busy_frac,
                    r.blocked_frac,
                    r.idle_frac,
                    r.recv_frac,
                    r.queue_mean,
                ] {
                    row.push(format!("{v}"));
                }
                row.push(r.queue_max.to_string());
                row
            })
            .collect();
        let header = &[
            "scenario",
            "algorithm",
            "cells",
            "tasks",
            "flow_p50",
            "flow_p90",
            "flow_p99",
            "flow_max",
            "wait_p50",
            "wait_p90",
            "wait_p99",
            "wait_max",
            "transfer_p50",
            "transfer_p90",
            "transfer_p99",
            "transfer_max",
            "compute_p50",
            "compute_p90",
            "compute_p99",
            "compute_max",
            "busy_frac",
            "blocked_frac",
            "idle_frac",
            "recv_frac",
            "queue_mean",
            "queue_max",
        ];
        (header, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sweep::spec_from_toml;

    fn spec() -> SweepSpec {
        spec_from_toml(
            r#"
            name = "metrics-test"
            seed = 9
            tasks = [30]
            algorithms = ["SRPT", "LS"]

            [[platforms]]
            kind = "class"
            class = "heterogeneous"
            count = 2
            slaves = 3

            [[arrivals]]
            kind = "bag"
            "#,
        )
        .unwrap()
    }

    fn config(threads: usize) -> SweepConfig {
        SweepConfig {
            threads,
            cache_dir: None,
            progress: false,
            observe: Observe::Off,
        }
    }

    #[test]
    fn report_rows_are_sane_and_thread_count_independent() {
        let spec = spec();
        let one = run_spec_metrics(&spec, &config(1)).unwrap();
        let four = run_spec_metrics(&spec, &config(4)).unwrap();
        assert_eq!(one.rows, four.rows, "telemetry is thread-count independent");
        assert_eq!(one.rows.len(), 2, "one row per algorithm");
        for r in &one.rows {
            // 2 platform draws × 30 tasks per cell.
            assert_eq!(r.cells, 2);
            assert_eq!(r.tasks, 60);
            assert_eq!(r.flow.count, r.tasks);
            assert!(r.flow.p50 <= r.flow.p90 && r.flow.p90 <= r.flow.p99);
            assert!(r.flow.p99 <= r.flow.max);
            for f in [r.busy_frac, r.blocked_frac, r.idle_frac, r.recv_frac] {
                assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
            }
            // The three states partition slave time.
            let total = r.busy_frac + r.blocked_frac + r.idle_frac;
            assert!((total - 1.0).abs() < 1e-9, "partition sums to {total}");
            assert!(r.queue_mean >= 0.0 && r.queue_max >= 1);
        }
        assert!(one.render().contains("flow p50"));
    }
}
