//! Aggregation: cell metrics → per-group, per-algorithm summaries.
//!
//! Groups are "everything but the algorithm and the replication indices":
//! all replicates of all platform draws of one scenario land in one group,
//! and within it each algorithm gets mean/min/max/std/CI95 of the raw
//! objectives, of the ratio against the certified makespan lower bound,
//! and (when a baseline algorithm is designated) of the per-point makespan
//! normalized to that baseline — the paper's "normalized to SRPT" view.
//!
//! All folds run in the deterministic cell order produced by
//! [`SweepSpec::expand`](crate::SweepSpec::expand), so aggregate output is
//! byte-identical regardless of how many threads executed the cells.

use crate::cell::{Cell, CellMetrics};
use mss_core::Algorithm;
use mss_obs::metrics_probe::fraction;
use mss_obs::{Histogram, RunMetrics};
use std::collections::HashMap;

/// Distribution summary of one metric over a group.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for < 2 samples).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95 % confidence interval on
    /// the mean (`1.96 · s / √n`; 0 for < 2 samples).
    pub ci95: f64,
}

/// Summarizes a sample (empty input yields a zeroed summary).
pub fn summarize(xs: &[f64]) -> Summary {
    let count = xs.len();
    if count == 0 {
        return Summary {
            count: 0,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            std_dev: 0.0,
            ci95: 0.0,
        };
    }
    let mean = xs.iter().sum::<f64>() / count as f64;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (std_dev, ci95) = if count >= 2 {
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0);
        let sd = var.sqrt();
        (sd, 1.96 * sd / (count as f64).sqrt())
    } else {
        (0.0, 0.0)
    };
    Summary {
        count,
        mean,
        min,
        max,
        std_dev,
        ci95,
    }
}

/// One aggregated row: a (group, algorithm) pair.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AggregateRow {
    /// Group label (platform recipe, arrival, perturbation, task count).
    pub group: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Makespan distribution.
    pub makespan: Summary,
    /// Max-flow distribution.
    pub max_flow: Summary,
    /// Sum-flow distribution.
    pub sum_flow: Summary,
    /// `makespan / certified lower bound` distribution.
    pub ratio_vs_lb: Summary,
    /// Per-point `makespan / baseline makespan` distribution, when a
    /// baseline was requested and present at every point.
    pub normalized: Option<Summary>,
}

/// Interns each cell's group label: the distinct labels in first-seen
/// order, and each cell's index into them. A label reads only the cell's
/// instance and information tier, so a cell of the same instance and tier
/// as the cell before it joins that cell's group unlabeled; expansion
/// order makes each such run an instance's algorithms. Only the distinct
/// labels are kept, so no string lives per cell.
fn group_cells(cells: &[Cell]) -> (Vec<String>, Vec<usize>) {
    let mut labels: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut prev: Option<(&Cell, usize)> = None;
    let groups = cells
        .iter()
        .map(|cell| {
            let group = match prev {
                Some((last, group))
                    if last.information == cell.information && last.same_instance(cell) =>
                {
                    group
                }
                _ => {
                    let next = labels.len();
                    *index.entry(cell.group_label()).or_insert_with_key(|label| {
                        labels.push(label.clone());
                        next
                    })
                }
            };
            prev = Some((cell, group));
            group
        })
        .collect();
    (labels, groups)
}

/// Aggregates executed cells. `cells` and `metrics` are parallel arrays in
/// expansion order.
pub fn aggregate(
    cells: &[Cell],
    metrics: &[CellMetrics],
    baseline: Option<Algorithm>,
) -> Vec<AggregateRow> {
    assert_eq!(cells.len(), metrics.len(), "cells/metrics length mismatch");
    let (labels, groups) = group_cells(cells);

    // Baseline makespan per (group, point).
    let mut base: HashMap<(usize, (u64, u64)), f64> = HashMap::new();
    if let Some(b) = baseline {
        for ((cell, m), &g) in cells.iter().zip(metrics).zip(&groups) {
            if cell.algorithm == b {
                base.insert((g, cell.point_id()), m.makespan);
            }
        }
    }

    // Group rows in first-seen (deterministic) order.
    let mut order: Vec<(usize, Algorithm)> = Vec::new();
    let mut buckets: HashMap<(usize, Algorithm), Vec<usize>> = HashMap::new();
    for (i, (cell, &g)) in cells.iter().zip(&groups).enumerate() {
        let key = (g, cell.algorithm);
        buckets
            .entry(key)
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(i);
    }

    order
        .into_iter()
        .map(|key| {
            let idxs = &buckets[&key];
            let pick = |f: &dyn Fn(&CellMetrics) -> f64| -> Vec<f64> {
                idxs.iter().map(|&i| f(&metrics[i])).collect()
            };
            let normalized = if baseline.is_some() {
                let ratios: Vec<f64> = idxs
                    .iter()
                    .filter_map(|&i| {
                        base.get(&(key.0, cells[i].point_id()))
                            .map(|b| metrics[i].makespan / b)
                    })
                    .collect();
                if ratios.len() == idxs.len() {
                    Some(summarize(&ratios))
                } else {
                    None
                }
            } else {
                None
            };
            AggregateRow {
                group: labels[key.0].clone(),
                algorithm: key.1.name().to_string(),
                makespan: summarize(&pick(&|m| m.makespan)),
                max_flow: summarize(&pick(&|m| m.max_flow)),
                sum_flow: summarize(&pick(&|m| m.sum_flow)),
                ratio_vs_lb: summarize(&pick(&|m| m.ratio_makespan)),
                normalized,
            }
        })
        .collect()
}

/// Quantile summary of one merged telemetry histogram.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistSummary {
    /// Samples in the merged histogram.
    pub count: u64,
    /// Median (bucket upper bound at rank, clamped to the exact max).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Exact maximum observed.
    pub max: f64,
}

impl HistSummary {
    /// Summarizes a merged histogram.
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

/// One telemetry row: the merged run metrics of a (group, algorithm) pair.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsRow {
    /// Group label (platform recipe, arrival, perturbation, task count).
    pub group: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Cells whose payloads were merged into this row.
    pub cells: usize,
    /// Completed tasks across those cells.
    pub tasks: u64,
    /// Flow-time distribution (release → compute done).
    pub flow: HistSummary,
    /// Master-queue wait distribution (release → last send start).
    pub wait: HistSummary,
    /// Transfer-time distribution (last send start → delivery).
    pub transfer: HistSummary,
    /// Compute-time distribution (compute start → done).
    pub compute: HistSummary,
    /// Fraction of total slave-time spent computing, in `[0, 1]`.
    pub busy_frac: f64,
    /// Fraction spent not computing while the master port was busy.
    pub blocked_frac: f64,
    /// Fraction spent neither computing nor port-blocked.
    pub idle_frac: f64,
    /// Fraction of master-port time spent sending (port utilization).
    pub recv_frac: f64,
    /// Time-weighted mean master queue depth.
    pub queue_mean: f64,
    /// Maximum master queue depth observed in any merged cell.
    pub queue_max: u64,
}

/// Aggregates per-cell telemetry payloads (cells run with
/// [`Observe::Metrics`](crate::Observe::Metrics)) into per-(group, algorithm) rows, in first-seen
/// order. Cells without a payload are skipped. Merging happens in
/// expansion order, so — together with the integer-count histograms — the
/// rows are byte-identical for any executing thread count (contract #12).
pub fn aggregate_metrics(cells: &[Cell], metrics: &[CellMetrics]) -> Vec<MetricsRow> {
    assert_eq!(cells.len(), metrics.len(), "cells/metrics length mismatch");
    let (labels, groups) = group_cells(cells);
    let mut order: Vec<(usize, Algorithm)> = Vec::new();
    let mut merged: HashMap<(usize, Algorithm), (usize, RunMetrics)> = HashMap::new();
    for ((cell, m), &g) in cells.iter().zip(metrics).zip(&groups) {
        let Some(payload) = &m.run_metrics else {
            continue;
        };
        let key = (g, cell.algorithm);
        let entry = merged.entry(key).or_insert_with(|| {
            order.push(key);
            (0, RunMetrics::default())
        });
        entry.0 += 1;
        entry.1.merge(&payload.to_run());
    }
    order
        .into_iter()
        .map(|key| {
            let (cells_merged, run) = &merged[&key];
            // `duration` is the summed makespan over merged cells; each
            // slave is accounted over every full run, so total slave-time
            // is duration × slaves and port-time is duration × 1.
            let slave_time = run.duration * run.busy_secs.len() as f64;
            MetricsRow {
                group: labels[key.0].clone(),
                algorithm: key.1.name().to_string(),
                cells: *cells_merged,
                tasks: run.tasks,
                flow: HistSummary::of(&run.hists.flow),
                wait: HistSummary::of(&run.hists.wait),
                transfer: HistSummary::of(&run.hists.transfer),
                compute: HistSummary::of(&run.hists.compute),
                busy_frac: fraction(run.busy_secs.iter().sum(), slave_time),
                blocked_frac: fraction(run.blocked_secs.iter().sum(), slave_time),
                idle_frac: fraction(run.idle_secs.iter().sum(), slave_time),
                recv_frac: fraction(run.recv_secs.iter().sum(), run.duration),
                queue_mean: run.queue_mean(),
                queue_max: run.queue_max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::PlatformCell;
    use crate::run_metrics::CellRunMetrics;
    use mss_core::{InfoTier, PlatformClass};
    use mss_workload::ArrivalProcess;

    #[test]
    fn summary_statistics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
        assert_eq!(summarize(&[]).count, 0);
        assert_eq!(summarize(&[7.0]).std_dev, 0.0);
    }

    fn cell(index: usize, algorithm: Algorithm) -> Cell {
        Cell {
            platform: PlatformCell::Class {
                class: PlatformClass::Heterogeneous,
                slaves: 2,
                seed: 1,
                index,
            },
            arrival: ArrivalProcess::AllAtZero,
            perturbation: None,
            scenario: None,
            tasks: 10,
            algorithm,
            information: InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: 0,
        }
    }

    fn metrics(makespan: f64) -> CellMetrics {
        CellMetrics {
            makespan,
            max_flow: makespan,
            sum_flow: makespan * 10.0,
            lb_makespan: 1.0,
            ratio_makespan: makespan,
            run_metrics: None,
        }
    }

    fn with_payload(makespan: f64, flows: &[f64]) -> CellMetrics {
        let mut run = RunMetrics {
            tasks: flows.len() as u64,
            duration: makespan,
            busy_secs: vec![makespan * 0.5, makespan * 0.25],
            blocked_secs: vec![0.0, makespan * 0.25],
            idle_secs: vec![makespan * 0.5, makespan * 0.5],
            recv_secs: vec![makespan * 0.1, makespan * 0.1],
            queue_depth_secs: makespan,
            queue_max: 2,
            ..RunMetrics::default()
        };
        for &f in flows {
            run.hists.flow.observe(f);
        }
        CellMetrics {
            run_metrics: Some(CellRunMetrics::from_run(&run)),
            ..metrics(makespan)
        }
    }

    #[test]
    fn metrics_rows_merge_payloads_in_order() {
        let cells = vec![
            cell(0, Algorithm::Srpt),
            cell(1, Algorithm::Srpt),
            cell(2, Algorithm::Srpt), // no payload — skipped
        ];
        let ms = vec![
            with_payload(10.0, &[1.0, 2.0]),
            with_payload(30.0, &[4.0]),
            metrics(5.0),
        ];
        let rows = aggregate_metrics(&cells, &ms);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.algorithm, "SRPT");
        assert_eq!(r.cells, 2);
        assert_eq!(r.tasks, 3);
        assert_eq!(r.flow.count, 3);
        assert!(r.flow.p50 <= r.flow.p90 && r.flow.p90 <= r.flow.p99);
        assert!(r.flow.p99 <= r.flow.max);
        assert_eq!(r.flow.max, 4.0);
        // busy = 0.75·Σm over 2 slaves of Σm each.
        assert!((r.busy_frac - 0.375).abs() < 1e-12);
        assert!((r.blocked_frac - 0.125).abs() < 1e-12);
        assert!((r.idle_frac - 0.5).abs() < 1e-12);
        assert!((r.recv_frac - 0.2).abs() < 1e-12);
        assert!((r.queue_mean - 1.0).abs() < 1e-12);
        assert_eq!(r.queue_max, 2);
    }

    #[test]
    fn normalization_joins_points_by_platform_draw() {
        // Two platform draws; SRPT is 2.0 then 4.0; LS is 1.0 then 3.0.
        let cells = vec![
            cell(0, Algorithm::Srpt),
            cell(0, Algorithm::ListScheduling),
            cell(1, Algorithm::Srpt),
            cell(1, Algorithm::ListScheduling),
        ];
        let ms = vec![metrics(2.0), metrics(1.0), metrics(4.0), metrics(3.0)];
        let rows = aggregate(&cells, &ms, Some(Algorithm::Srpt));
        assert_eq!(rows.len(), 2);
        let srpt = &rows[0];
        assert_eq!(srpt.algorithm, "SRPT");
        assert!((srpt.normalized.as_ref().unwrap().mean - 1.0).abs() < 1e-12);
        let ls = &rows[1];
        // (1/2 + 3/4) / 2 = 0.625 — per-point, not mean-of-means.
        assert!((ls.normalized.as_ref().unwrap().mean - 0.625).abs() < 1e-12);
        assert!((ls.makespan.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_baseline_means_no_normalization() {
        let cells = vec![cell(0, Algorithm::Srpt)];
        let rows = aggregate(&cells, &[metrics(2.0)], None);
        assert!(rows[0].normalized.is_none());
    }

    #[test]
    fn same_seed_heterogeneity_families_aggregate_separately() {
        // Regression: `PlatformCell::Heterogeneity` used to report the raw
        // `seed` as its replicate index, so two families sharing a seed
        // collapsed onto one aggregation point — their baselines
        // overwrote each other in the per-point normalization join. The
        // `family` counter keeps the points distinct even with equal seeds.
        use mss_workload::HeterogeneityAxis;
        let het = |family: u64, algorithm: Algorithm| Cell {
            platform: PlatformCell::Heterogeneity {
                axis: HeterogeneityAxis::Both,
                level: 0.5,
                slaves: 2,
                seed: 99, // deliberately identical across families
                family,
            },
            arrival: ArrivalProcess::AllAtZero,
            perturbation: None,
            scenario: None,
            tasks: 10,
            algorithm,
            information: InfoTier::Clairvoyant,
            replicate: 0,
            task_seed: family, // distinct instances per family
        };
        let cells = vec![
            het(0, Algorithm::Srpt),
            het(0, Algorithm::ListScheduling),
            het(1, Algorithm::Srpt),
            het(1, Algorithm::ListScheduling),
        ];
        assert_ne!(
            cells[0].point_id(),
            cells[2].point_id(),
            "same-seed families must be distinct replication points"
        );
        // SRPT baselines: 2.0 (family 0) and 4.0 (family 1); LS: 1.0, 3.0.
        let ms = vec![metrics(2.0), metrics(1.0), metrics(4.0), metrics(3.0)];
        let rows = aggregate(&cells, &ms, Some(Algorithm::Srpt));
        assert_eq!(rows.len(), 2, "one group, two algorithms");
        let ls = &rows[1];
        assert_eq!(ls.algorithm, "LS");
        let n = ls.normalized.as_ref().expect("baseline present everywhere");
        assert_eq!(n.count, 2);
        // Per-point join: (1/2 + 3/4) / 2 — a seed-keyed join would have
        // divided both LS runs by one surviving baseline instead.
        assert!((n.mean - 0.625).abs() < 1e-12, "normalized mean {}", n.mean);
    }

    /// Every cell's own label, interned in first-seen order: `group_cells`
    /// without its run memo.
    fn label_every_cell(cells: &[Cell]) -> (Vec<String>, Vec<usize>) {
        let mut labels: Vec<String> = Vec::new();
        let groups = cells
            .iter()
            .map(|cell| {
                let label = cell.group_label();
                labels.iter().position(|l| *l == label).unwrap_or_else(|| {
                    labels.push(label);
                    labels.len() - 1
                })
            })
            .collect();
        (labels, groups)
    }

    #[test]
    fn labeling_runs_once_matches_labeling_every_cell() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweep_grid.toml");
        let mut spec = crate::spec_from_path(&path).expect("example spec parses");
        let one_tier = spec.expand().expect("example spec expands");
        let tiers = [
            InfoTier::Clairvoyant,
            InfoTier::SpeedOblivious,
            InfoTier::NonClairvoyant,
        ];
        spec.information = Some(tiers.map(|t| t.to_string()).to_vec());
        let tiered = spec.expand().expect("tiered spec expands");
        let reversed: Vec<Cell> = tiered.iter().rev().cloned().collect();
        // Each instance's tiers back to back, so neighbours share the
        // instance but not the tier.
        let interleaved: Vec<Cell> = one_tier
            .iter()
            .flat_map(|c| {
                tiers.map(|information| Cell {
                    information,
                    ..c.clone()
                })
            })
            .collect();
        for cells in [&tiered, &reversed, &interleaved] {
            assert_eq!(group_cells(cells), label_every_cell(cells));
            let metrics: Vec<CellMetrics> = (0..cells.len())
                .map(|i| with_payload(1.0 + i as f64, &[0.5]))
                .collect();
            // (label, algorithm) pairs in first-seen order, with cell counts.
            let mut expected: Vec<(String, String, usize)> = Vec::new();
            for cell in cells.iter() {
                let pair = (cell.group_label(), cell.algorithm.name().to_string());
                match expected
                    .iter_mut()
                    .find(|(g, a, _)| (g, a) == (&pair.0, &pair.1))
                {
                    Some(row) => row.2 += 1,
                    None => expected.push((pair.0, pair.1, 1)),
                }
            }
            let rows: Vec<(String, String, usize)> =
                aggregate(cells, &metrics, Some(Algorithm::Srpt))
                    .into_iter()
                    .map(|r| (r.group, r.algorithm, r.makespan.count))
                    .collect();
            assert_eq!(rows, expected);
            let rows: Vec<(String, String, usize)> = aggregate_metrics(cells, &metrics)
                .into_iter()
                .map(|r| (r.group, r.algorithm, r.cells))
                .collect();
            assert_eq!(rows, expected);
        }
    }
}
