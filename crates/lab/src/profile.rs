//! `ms-lab profile` and `ms-lab trace` — where does the wall-clock go?
//!
//! * [`run_with`] replays a representative multi-algorithm sweep with
//!   counting probes attached and breaks the cost into the pipeline's five
//!   phases (expand / materialize / simulate / store / aggregate). This is
//!   the measurement behind the paper-era folklore that simulation
//!   dominates everything else: the report's headline is the simulate
//!   share of measured phase time, and `profile.json` / `profile.csv`
//!   record it machine-readably.
//! * [`trace_cell`] replays one grid cell with a
//!   [`TraceRecorder`] attached and renders a
//!   Chrome-trace-event JSON (load it at `ui.perfetto.dev` or
//!   `chrome://tracing`): per-slave tracks of send/compute spans, downtime
//!   bands, and failure/loss instants.
//!
//! Probes are observers only, so both commands reproduce exactly the runs
//! the sweep executor performs (bit-identical metrics), just with the
//! engine narrating what it does.

use mss_core::{Algorithm, SimWorkspace};
use mss_obs::{PhaseProfile, RunCounters, SweepMetrics, TraceRecorder};
use mss_sweep::{
    run_cells, spec_from_toml, CellError, CellMetrics, Observe, SweepConfig, SweepSpec,
};

/// The representative grid the profiler replays: every algorithm over
/// heterogeneous platform draws, bag and Poisson arrivals, sized so the
/// phase fractions are stable.
fn profile_spec(quick: bool) -> SweepSpec {
    let (tasks, count) = if quick {
        ("[60]", 2)
    } else {
        ("[120, 240]", 6)
    };
    spec_from_toml(&format!(
        r#"
        name = "profile-grid"
        seed = 42
        tasks = {tasks}
        algorithms = ["all"]

        [[platforms]]
        kind = "class"
        class = "heterogeneous"
        count = {count}
        slaves = 5

        [[arrivals]]
        kind = "bag"

        [[arrivals]]
        kind = "poisson"
        load = 0.9
        "#
    ))
    .expect("profile grid parses")
}

/// A completed profiling run: the phase breakdown plus the sweep's own
/// execution accounting (probe counters, batch-reuse ratio, worker
/// timelines).
pub struct ProfileReport {
    /// Phase timings in pipeline order.
    pub profile: PhaseProfile,
    /// The profiled sweep's execution accounting.
    pub stats: SweepMetrics,
    /// Cells in the profiled grid.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
}

/// Runs the representative grid with counting probes and a throwaway
/// result store, and attributes the cost to phases. `materialize` /
/// `simulate` are CPU seconds summed across workers; `expand` / `store` /
/// `aggregate` are wall seconds of inherently serial steps — fractions are
/// therefore shares of *measured work*, not of wall time.
pub fn run_with(quick: bool, threads: usize) -> ProfileReport {
    let spec = profile_spec(quick);
    let mut profile = PhaseProfile::new();
    let cells = profile.time("expand", || spec.expand().expect("profile grid expands"));
    let n = cells.len();

    let cache_dir = std::env::temp_dir().join(format!("mss-profile-{}", std::process::id()));
    let config = SweepConfig {
        threads,
        cache_dir: Some(cache_dir.clone()),
        progress: false,
        observe: Observe::Counters,
    };
    let outcome = run_cells(cells, &config);
    profile.add("materialize", outcome.stats.materialize_secs);
    profile.add("simulate", outcome.stats.simulate_secs);
    profile.add("store", outcome.stats.store_secs);
    let rows = profile.time("aggregate", || outcome.aggregate(Some(Algorithm::Srpt)));
    assert!(!rows.is_empty(), "profiled sweep aggregates");
    let _ = std::fs::remove_dir_all(&cache_dir);

    ProfileReport {
        profile,
        stats: outcome.stats,
        cells: n,
        threads,
    }
}

impl ProfileReport {
    /// Human-readable phase table plus the headline simulate share and the
    /// probe-counter summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profiled {} cells on {} threads ({:.3} s wall)\n\n",
            self.cells, self.threads, self.stats.wall_secs
        ));
        out.push_str("phase         seconds   share\n");
        for (name, secs) in self.profile.phases() {
            out.push_str(&format!(
                "{name:<12} {secs:>9.4}  {:>5.1}%\n",
                self.profile.fraction(name) * 100.0
            ));
        }
        let c = &self.stats.counters;
        out.push_str(&format!(
            "\nsimulation is {:.1}% of measured phase time\n\
             engine events: {} ({} sends, {} computes, {} callbacks, {:.1}% elided)\n\
             batch reuse: {:.1}% of cells shared a materialization ({} batches)\n\
             store: {} appends, {} bytes, {} contended locks (ratio {:.3})",
            self.profile.fraction("simulate") * 100.0,
            c.events(),
            c.sends_started,
            c.computes_started,
            c.callbacks + c.callbacks_elided,
            c.elided_callback_ratio() * 100.0,
            self.stats.batch_reuse_ratio() * 100.0,
            self.stats.batches,
            self.stats.store.appends,
            self.stats.store.bytes,
            self.stats.store.lock_contended,
            self.stats.store.contention_ratio(),
        ));
        // Per-shard contention: which of the 16 store shards made workers
        // wait (also exported as the "store shard contention" counter track
        // of profile_workers.json).
        out.push_str("\nstore shard contention:");
        for (i, &n) in self.stats.store.shard_contended.iter().enumerate() {
            if i % 8 == 0 {
                out.push_str("\n  ");
            }
            out.push_str(&format!("{i:02x}:{n:<4} "));
        }
        out.push('\n');
        out
    }
}

/// A completed single-cell trace.
pub struct TraceOutcome {
    /// The Chrome-trace JSON.
    pub json: String,
    /// Engine event counters of the traced run.
    pub counters: RunCounters,
    /// Spans recorded (sends + computes + downtime bands).
    pub spans: usize,
    /// The traced cell's own result (a budget abort still yields a trace).
    pub result: Result<CellMetrics, CellError>,
    /// One-line description of the traced cell.
    pub cell: String,
}

/// Replays cell `index` of `spec` with a `(RunCounters, TraceRecorder)`
/// probe pair and renders the Perfetto-loadable trace. The run is
/// bit-identical to the cell's sweep execution; errors (bad index) are
/// returned as messages for the CLI to print.
pub fn trace_cell(spec: &SweepSpec, index: usize) -> Result<TraceOutcome, String> {
    let cells = spec.expand().map_err(|e| e.to_string())?;
    let Some(cell) = cells.get(index) else {
        return Err(format!(
            "cell index {index} out of range: spec `{}` expands to {} cells",
            spec.name,
            cells.len()
        ));
    };
    let mat = cell.materialize();
    let mut ws = SimWorkspace::new();
    let mut scheduler = cell.build_scheduler();
    let mut probe = (RunCounters::new(), TraceRecorder::new());
    let result = cell.try_run_probed(&mat, &mut ws, scheduler.as_mut(), &mut probe);
    let (counters, mut recorder) = probe;
    recorder.finalize(recorder.end_time());

    let label = format!(
        "{} cell {index}: {} ({:?} info) on {} slaves",
        spec.name,
        cell.algorithm,
        cell.information,
        mat.platform.num_slaves()
    );
    Ok(TraceOutcome {
        json: recorder.to_chrome(&label, 1e6).render(),
        counters,
        spans: recorder.spans.len(),
        result,
        cell: label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_attributes_phases() {
        let report = run_with(true, 2);
        assert!(report.cells > 0);
        // All five phases are present, in pipeline order.
        let names: Vec<&str> = report
            .profile
            .phases()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            names,
            ["expand", "materialize", "simulate", "store", "aggregate"]
        );
        // Phase times are wall-clock measurements, so only their sanity is
        // asserted: a share of ~13 ms of phase time moves with one
        // preemption.
        for (name, secs) in report.profile.phases() {
            assert!(secs.is_finite() && *secs >= 0.0, "{name}: {secs} s");
        }
        // The counters are exact: the same cells run one by one through a
        // `RunCounters` probe count the same engine work.
        let mut one_by_one = RunCounters::new();
        let mut ws = SimWorkspace::new();
        for cell in profile_spec(true).expand().expect("profile grid expands") {
            let mat = cell.materialize();
            let mut scheduler = cell.build_scheduler();
            cell.try_run_probed(&mat, &mut ws, scheduler.as_mut(), &mut one_by_one)
                .expect("profiled cell runs");
        }
        assert!(one_by_one.events() > 0);
        assert_eq!(report.stats.counters, one_by_one);
        assert!(report.render().contains("% of measured phase time"));
        // The per-shard store contention breakdown is part of the report
        // (all 16 shards, hex-labelled).
        assert!(report.render().contains("store shard contention"));
        assert!(report.render().contains("0f:"));
    }

    #[test]
    fn trace_of_failure_cell_records_downtime() {
        let spec = spec_from_toml(
            r#"
            name = "trace-test"
            seed = 11
            tasks = [40]
            algorithms = ["LS"]

            [[platforms]]
            kind = "class"
            class = "heterogeneous"
            count = 1
            slaves = 4

            [[arrivals]]
            kind = "bag"

            [[scenarios]]
            kind = "dynamic"
            horizon = 500.0

            [[scenarios.generators]]
            kind = "poisson-failures"
            mtbf = 40.0
            repair_mean = 10.0
            "#,
        )
        .unwrap();
        let got = trace_cell(&spec, 0).unwrap();
        assert!(got.result.is_ok(), "fault-aware cell completes");
        assert!(got.spans > 0);
        assert!(got.counters.failures > 0, "scenario produced failures");
        assert!(got.json.starts_with("{\"traceEvents\":["));
        assert!(got.json.contains("\"fail\""));

        // Out-of-range index is a message, not a panic.
        assert!(trace_cell(&spec, 99).is_err());
    }
}
