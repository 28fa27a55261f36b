//! `sweep-resume`: a TOML sweep run cold into an empty result store,
//! resumed warm from it, then aggregated.
//!
//! Set-up is `spec_from_toml` + `expand` of `sweep_resume.toml`. One pass
//! runs the 1,680 cells with `try_run_cells` into an empty store, runs
//! them again with every cell served from the store, and aggregates the
//! rows against SRPT as `ms-lab sweep` does. One op is one cell result
//! delivered, cold or warm. The store lives in the run's scratch
//! directory and is emptied between passes, outside the timed section.

use crate::exec::{CellResult, TracedExecutor};
use crate::trace::{Counts, Recorder};
use crate::{Bench, Digest, Scale};
use mss_core::Algorithm;
use mss_sweep::{
    aggregate, cell_key, spec_from_toml, try_run_cells, AggregateRow, Cell, CellMetrics,
    ResultStore, Summary, SweepConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SPEC: &str = include_str!("../sweep_resume.toml");

/// The baseline the rows are normalized to (`ms-lab sweep`'s default).
const BASELINE: Algorithm = Algorithm::Srpt;

/// The spec text for `seed` at `scale`.
pub fn spec_text(seed: u64, scale: &Scale) -> String {
    SPEC.replace("@SEED@", &seed.to_string())
        .replace("@TASKS@", &scale.sweep_tasks.to_string())
        .replace("@PLATFORMS@", &scale.sweep_platforms.to_string())
}

/// One run of the cell list against the store.
pub struct RunOutcome {
    /// One result per cell, in cell order.
    pub results: Vec<CellResult>,
    /// Cells simulated.
    pub executed: usize,
    /// Cells served from the store.
    pub cached: usize,
}

/// One pass's output.
pub struct Output {
    /// The run into the empty store.
    pub cold: RunOutcome,
    /// The resumed run.
    pub warm: RunOutcome,
    /// Aggregate rows of the warm results.
    pub rows: Vec<AggregateRow>,
}

/// The workload's state.
pub struct SweepResume {
    text: String,
    cells: Vec<Cell>,
    store_dir: PathBuf,
    config: SweepConfig,
    seed: u64,
}

impl SweepResume {
    /// The workload at `seed` and `scale`; the first [`Bench::setup`]
    /// expands the spec.
    pub fn new(seed: u64, scale: &Scale, scratch: &Path) -> SweepResume {
        let store_dir = scratch.join("store");
        SweepResume {
            text: spec_text(seed, scale),
            cells: Vec::new(),
            config: SweepConfig {
                threads: 1,
                cache_dir: Some(store_dir.clone()),
                ..SweepConfig::default()
            },
            store_dir,
            seed,
        }
    }

    fn run_once(&self) -> RunOutcome {
        let out = try_run_cells(&self.cells, &self.config);
        RunOutcome {
            results: out.results,
            executed: out.executed,
            cached: out.cached,
        }
    }

    /// `try_run_cells` one public call at a time: open and load the
    /// store, key the cells, run the missing ones in batches appending
    /// their results, and merge.
    fn traced_run(&self, rec: &mut Recorder, counts: &mut Counts, resume: bool) -> RunOutcome {
        let cells = &self.cells;
        let (store, mut known) = rec.span("store.load", |_| {
            let store = ResultStore::open(&self.store_dir).expect("open sweep result store");
            let loaded = store.load().expect("load sweep result store");
            (store, loaded.results)
        });
        counts.store_records += known.len() as u64;
        let keys: Vec<String> = rec.span("keys", |_| cells.iter().map(cell_key).collect());
        counts.keys += keys.len() as u64;
        let missing: Vec<usize> = (0..cells.len())
            .filter(|&i| !known.contains_key(&keys[i]))
            .collect();
        if resume {
            counts.store_lookups += cells.len() as u64;
            counts.store_hits += (cells.len() - missing.len()) as u64;
        }
        let mut writer = store.writer();
        let fresh = TracedExecutor::new(rec.totals.clone()).run(
            rec,
            counts,
            cells,
            &missing,
            Some((&mut writer, &keys)),
        );
        rec.span("store.append", |_| {
            writer.flush().expect("append sweep results")
        });
        let stats = store.stats();
        counts.store_appends += stats.appends;
        counts.store_bytes += stats.bytes;
        let executed = missing.len();
        let mut fresh = fresh.into_iter();
        let mut missing = missing.into_iter().peekable();
        let results = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                if missing.peek() == Some(&i) {
                    missing.next();
                    fresh.next().expect("one result per missing cell")
                } else {
                    known.remove(key).expect("cached cells are in the store")
                }
            })
            .collect();
        RunOutcome {
            results,
            executed,
            cached: cells.len() - executed,
        }
    }
}

/// The warm results as metrics, if every cell completed.
fn metrics_of(run: &RunOutcome) -> Option<Vec<CellMetrics>> {
    run.results
        .iter()
        .map(|r| r.as_ref().ok().cloned())
        .collect()
}

fn same_bits(a: &CellMetrics, b: &CellMetrics) -> bool {
    [
        (a.makespan, b.makespan),
        (a.max_flow, b.max_flow),
        (a.sum_flow, b.sum_flow),
        (a.lb_makespan, b.lb_makespan),
        (a.ratio_makespan, b.ratio_makespan),
    ]
    .iter()
    .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn digest_summary(d: &mut Digest, s: &Summary) {
    d.u64(s.count as u64);
    for v in [s.mean, s.min, s.max, s.std_dev, s.ci95] {
        d.f64(v);
    }
}

impl Bench for SweepResume {
    type Output = Output;

    fn ops_per_pass(&self) -> u64 {
        2 * self.cells.len() as u64
    }

    fn prepare(&mut self) {
        match std::fs::remove_dir_all(&self.store_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("cannot empty {}: {e}", self.store_dir.display())
            }
            _ => {}
        }
    }

    fn run(&mut self) -> Output {
        let cold = self.run_once();
        let warm = self.run_once();
        let rows = match metrics_of(&warm) {
            Some(metrics) => aggregate(&self.cells, &metrics, Some(BASELINE)),
            None => Vec::new(),
        };
        Output { cold, warm, rows }
    }

    fn check(&self, out: &Output) -> Result<u64, String> {
        let n = self.cells.len();
        let (cold, warm) = (&out.cold, &out.warm);
        if (cold.executed, cold.cached, warm.executed, warm.cached) != (n, 0, 0, n) {
            return Err(format!(
                "cold run executed {}/cached {}, warm run executed {}/cached {} of {n} cells",
                cold.executed, cold.cached, warm.executed, warm.cached
            ));
        }
        for (i, (c, w)) in cold.results.iter().zip(&warm.results).enumerate() {
            match (c, w) {
                (Ok(c), Ok(w)) if same_bits(c, w) => {}
                (Ok(_), Ok(_)) => return Err(format!("cell {i}: warm result differs from cold")),
                (Err(e), _) | (_, Err(e)) => return Err(format!("cell {i} aborted: {e}")),
            }
        }
        if out.rows.is_empty() {
            return Err("no aggregate rows".into());
        }
        let mut d = Digest::default();
        for row in &out.rows {
            d.bytes(row.group.as_bytes());
            d.bytes(row.algorithm.as_bytes());
            for s in [
                &row.makespan,
                &row.max_flow,
                &row.sum_flow,
                &row.ratio_vs_lb,
            ] {
                digest_summary(&mut d, s);
            }
            match &row.normalized {
                Some(s) => digest_summary(&mut d, s),
                None => d.u64(u64::MAX),
            }
        }
        Ok(d.finish())
    }

    fn run_traced(&mut self, rec: &mut Recorder, counts: &mut Counts) -> Output {
        let cold = rec.span("run", |rec| self.traced_run(rec, counts, false));
        let warm = rec.span("run", |rec| self.traced_run(rec, counts, true));
        let rows = rec.span("agg", |_| match metrics_of(&warm) {
            Some(metrics) => aggregate(&self.cells, &metrics, Some(BASELINE)),
            None => Vec::new(),
        });
        counts.agg_rows += rows.len() as u64;
        Output { cold, warm, rows }
    }

    fn verify(&mut self, reference: &Output) -> Result<Vec<String>, String> {
        // Batched execution equals `Cell::run` on a sample of cells spread
        // over the grid (static and failure scenarios, every tier).
        let n = self.cells.len();
        let sample = 12;
        let offset = (self.seed as usize) % (n / sample);
        for k in 0..sample {
            let i = k * (n / sample) + offset;
            let batched = reference.cold.results[i]
                .as_ref()
                .map_err(|e| format!("cell {i} aborted: {e}"))?;
            if !same_bits(&self.cells[i].run(), batched) {
                return Err(format!("batched run of cell {i} differs from Cell::run"));
            }
        }
        Ok(vec![
            "warm pass equals the cold pass with executed == 0 (checked every pass)".into(),
            format!("batched execution equals Cell::run on {sample} of {n} cells"),
        ])
    }

    /// `spec_from_toml` + `expand`.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        let spec = spec_from_toml(&self.text).map_err(|e| e.to_string())?;
        let cells = spec.expand().map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        self.cells = cells;
        Ok(secs)
    }

    fn setup_metric(&self) -> &'static str {
        "sweep.spec_s"
    }
}
