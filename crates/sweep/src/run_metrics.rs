//! The serializable per-cell run-telemetry payload.
//!
//! [`CellRunMetrics`] is the store-facing mirror of
//! [`mss_obs::RunMetrics`]: histograms flatten to sparse parallel
//! `(bucket, count)` arrays (schema salt `mss-sweep-v6`), everything else
//! carries over field-for-field. The round-trip is exact — bucket counts
//! are integers and the extremes are stored as the `f64`s they are — so a
//! payload loaded from the JSONL store merges bit-identically to one that
//! never left memory.
//!
//! Per-slave utilization is stored as **seconds**, not fractions:
//! fractions don't merge (a weighted mean needs the weights), while
//! seconds add. `ms-lab metrics` divides by the summed duration at render
//! time, which also keeps every stored number independent of how many
//! cells end up in an aggregation group.

use mss_obs::{Histogram, RunHistograms, RunMetrics};

/// A [`Histogram`] in wire form: sparse parallel arrays plus the exact
/// extremes. See [`Histogram::to_sparse`] for the index scheme.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramData {
    /// Occupied bucket indices, ascending.
    pub bucket: Vec<u32>,
    /// Counts parallel to `bucket`.
    pub count: Vec<u64>,
    /// Total samples (equals the sum of `count`).
    pub total: u64,
    /// Exact minimum observed (0.0 if empty).
    pub min: f64,
    /// Exact maximum observed (0.0 if empty).
    pub max: f64,
}

impl HistogramData {
    /// Flattens a histogram to wire form.
    pub fn from_hist(h: &Histogram) -> Self {
        let (bucket, count) = h.to_sparse();
        HistogramData {
            bucket,
            count,
            total: h.count(),
            min: h.min(),
            max: h.max(),
        }
    }

    /// Rebuilds the histogram (exact round-trip).
    pub fn to_hist(&self) -> Histogram {
        Histogram::from_sparse(&self.bucket, &self.count, self.min, self.max)
    }
}

/// One cell's run telemetry as stored in the sweep's JSONL result store
/// (the `run_metrics` field of a stored record, present only when the
/// sweep ran with [`Observe::Metrics`](crate::Observe::Metrics)).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellRunMetrics {
    /// Completed tasks (= flow histogram samples).
    pub tasks: u64,
    /// Accounted run duration (the cell's makespan), seconds.
    pub duration: f64,
    /// Flow-time histogram (release → compute done).
    pub flow: HistogramData,
    /// Master-queue wait histogram (release → last send start).
    pub wait: HistogramData,
    /// Transfer-time histogram (last send start → delivery).
    pub transfer: HistogramData,
    /// Compute-time histogram (compute start → done).
    pub compute: HistogramData,
    /// Seconds each slave spent computing.
    pub slave_busy: Vec<f64>,
    /// Seconds each slave spent not computing while the port was busy.
    pub slave_blocked: Vec<f64>,
    /// Seconds each slave spent neither computing nor port-blocked.
    pub slave_idle: Vec<f64>,
    /// Seconds the port spent sending to each slave.
    pub slave_recv: Vec<f64>,
    /// Time-weighted master queue depth: `∫ depth dt`.
    pub queue_depth_secs: f64,
    /// Maximum master queue depth observed.
    pub queue_max: u64,
}

impl CellRunMetrics {
    /// Flattens finished probe telemetry to wire form.
    pub fn from_run(m: &RunMetrics) -> Self {
        CellRunMetrics {
            tasks: m.tasks,
            duration: m.duration,
            flow: HistogramData::from_hist(&m.hists.flow),
            wait: HistogramData::from_hist(&m.hists.wait),
            transfer: HistogramData::from_hist(&m.hists.transfer),
            compute: HistogramData::from_hist(&m.hists.compute),
            slave_busy: m.busy_secs.clone(),
            slave_blocked: m.blocked_secs.clone(),
            slave_idle: m.idle_secs.clone(),
            slave_recv: m.recv_secs.clone(),
            queue_depth_secs: m.queue_depth_secs,
            queue_max: m.queue_max,
        }
    }

    /// Rebuilds the in-memory telemetry (exact round-trip), e.g. for
    /// lab-side merging across cells.
    pub fn to_run(&self) -> RunMetrics {
        RunMetrics {
            tasks: self.tasks,
            duration: self.duration,
            hists: RunHistograms {
                flow: self.flow.to_hist(),
                wait: self.wait.to_hist(),
                transfer: self.transfer.to_hist(),
                compute: self.compute.to_hist(),
            },
            busy_secs: self.slave_busy.clone(),
            blocked_secs: self.slave_blocked.clone(),
            idle_secs: self.slave_idle.clone(),
            recv_secs: self.slave_recv.clone(),
            queue_depth_secs: self.queue_depth_secs,
            queue_max: self.queue_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunMetrics {
        let mut h = RunHistograms::default();
        for v in [0.5, 1.5, 1.5, 40.0] {
            h.flow.observe(v);
            h.wait.observe(v / 10.0);
            h.transfer.observe(v / 100.0);
            h.compute.observe(v / 2.0);
        }
        RunMetrics {
            tasks: 4,
            duration: 40.0,
            hists: h,
            busy_secs: vec![10.0, 30.0],
            blocked_secs: vec![5.0, 2.0],
            idle_secs: vec![25.0, 8.0],
            recv_secs: vec![1.0, 2.0],
            queue_depth_secs: 12.5,
            queue_max: 3,
        }
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let run = sample_run();
        let wire = CellRunMetrics::from_run(&run);
        assert_eq!(wire.to_run(), run);
        // And through its JSON too.
        let json = serde_json::to_string(&wire).unwrap();
        let back: CellRunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wire);
        assert_eq!(back.to_run(), run);
    }

    #[test]
    fn quantiles_survive_the_wire() {
        let run = sample_run();
        let back = CellRunMetrics::from_run(&run).to_run();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                back.hists.flow.quantile(q).to_bits(),
                run.hists.flow.quantile(q).to_bits()
            );
        }
        assert_eq!(back.hists.flow.max(), 40.0);
    }
}
