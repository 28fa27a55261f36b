//! The traced replay of the sweep executor.
//!
//! `mss_sweep::try_run_cells` runs a cell list as same-instance batches:
//! group, materialize once per batch, simulate each cell against the shared
//! instance, append results to the store. [`TracedExecutor`] performs the
//! same steps one public call at a time, each inside a span, and
//! reproduces the executor's results bit for bit (the traced pass checks
//! its digest against the untraced one).

use crate::trace::{Counts, Recorder, Timed, Totals};
use mss_core::{Algorithm, OnlineScheduler, Redispatch, SimWorkspace, Timeline};
use mss_opt::bounds::{makespan_lower_bound, max_flow_lower_bound, sum_flow_lower_bound};
use mss_opt::schedule::Instance;
use mss_sweep::{
    group_instances, split_batches, Cell, CellError, CellMetrics, MaterializedInstance,
    SamplerCache, StoreWriter, DEFAULT_SPLIT_EVENTS,
};
use mss_workload::Perturbation;
use std::collections::HashMap;
use std::rc::Rc;

/// `mss_sweep`'s per-worker flush floor: a worker's store writer appends
/// once it buffers more than this many bytes (and always at the end).
pub const FLUSH_FLOOR: usize = 32 << 10;

/// A cell's outcome, as the executor reports it.
pub type CellResult = Result<CellMetrics, CellError>;

/// One worker's state for traced execution: the reusable simulator
/// buffers, memoized platform samplers and timed scheduler instances.
pub struct TracedExecutor {
    ws: SimWorkspace,
    samplers: SamplerCache,
    schedulers: HashMap<(Algorithm, bool), Timed<Box<dyn OnlineScheduler>>>,
    totals: Rc<Totals>,
}

impl TracedExecutor {
    /// A fresh worker whose schedulers time into `totals`.
    pub fn new(totals: Rc<Totals>) -> Self {
        TracedExecutor {
            ws: SimWorkspace::new(),
            samplers: SamplerCache::new(),
            schedulers: HashMap::new(),
            totals,
        }
    }

    /// Runs `cells[indices[..]]` as the sweep executor would, appending
    /// each batch's results through `store` (with the cells' keys) when
    /// given. Results come back in `indices` order.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        counts: &mut Counts,
        cells: &[Cell],
        indices: &[usize],
        mut store: Option<(&mut StoreWriter<'_>, &[String])>,
    ) -> Vec<CellResult> {
        let TracedExecutor {
            ws,
            samplers,
            schedulers,
            totals,
        } = self;
        let batches = rec.span("group", |_| {
            split_batches(
                cells,
                indices,
                group_instances(cells, indices),
                DEFAULT_SPLIT_EVENTS,
            )
        });
        counts.batches += batches.len() as u64;
        let mut out = Vec::with_capacity(indices.len());
        for batch in batches {
            rec.span_new("batch", |rec| {
                let mat = materialize(&cells[indices[batch.start]], samplers, rec);
                counts.materializations += 1;
                counts.executed += batch.len() as u64;
                let first = out.len();
                for k in batch.clone() {
                    let cell = &cells[indices[k]];
                    let scheduler = scheduler_for(schedulers, totals, cell);
                    out.push(rec.span("cell", |rec| {
                        rec.span("simulate", |_| {
                            cell.try_run_probed(&mat, ws, scheduler, &mut counts.sim)
                        })
                    }));
                }
                if let Some((writer, keys)) = store.as_mut() {
                    rec.span("store.append", |_| {
                        for (k, r) in batch.clone().zip(&out[first..]) {
                            writer.push(&keys[indices[k]], r);
                        }
                        writer
                            .flush_over(FLUSH_FLOOR)
                            .expect("append sweep results");
                    });
                }
            });
        }
        out
    }
}

/// The reused, timed scheduler instance a cell runs under
/// (`Redispatch`-wrapped iff the cell is fault-aware, as in the executor).
fn scheduler_for<'a>(
    schedulers: &'a mut HashMap<(Algorithm, bool), Timed<Box<dyn OnlineScheduler>>>,
    totals: &Rc<Totals>,
    cell: &Cell,
) -> &'a mut Timed<Box<dyn OnlineScheduler>> {
    let fault_aware = cell.scenario.as_ref().is_some_and(|s| s.fault_aware);
    schedulers
        .entry((cell.algorithm, fault_aware))
        .or_insert_with(|| {
            let inner: Box<dyn OnlineScheduler> = if fault_aware {
                Box::new(Redispatch::wrap(cell.algorithm))
            } else {
                cell.algorithm.build()
            };
            Timed::new(inner, cell.algorithm, Rc::clone(totals))
        })
}

/// `Cell::materialize_with`, one part at a time: platform, arrivals,
/// perturbation, scenario timeline and the three certified bounds.
pub fn materialize(
    cell: &Cell,
    samplers: &mut SamplerCache,
    rec: &mut Recorder,
) -> MaterializedInstance {
    rec.span("materialize", |rec| {
        let platform = rec.span("platform", |_| cell.platform.realize_with(samplers));
        let nominal = rec.span("arrivals", |_| {
            cell.arrival.generate(cell.tasks, &platform, cell.task_seed)
        });
        let perturbed = cell.perturbation.as_ref().map(|p| {
            rec.span("perturb", |_| {
                Perturbation {
                    delta: p.delta,
                    comm_exponent: p.comm_exponent,
                    comp_exponent: p.comp_exponent,
                }
                .apply(&nominal, p.seed)
            })
        });
        let timeline = match &cell.scenario {
            Some(s) => rec
                .span("compile", |_| s.spec.compile(platform.num_slaves()))
                .expect("expanded scenarios compile"),
            None => Timeline::EMPTY,
        };
        let inst = Instance {
            c: platform.iter().map(|(_, s)| s.c).collect(),
            p: platform.iter().map(|(_, s)| s.p).collect(),
            r: nominal.iter().map(|t| t.release.as_f64()).collect(),
        };
        let (lb_makespan, lb_max_flow, lb_sum_flow) = rec.span("bounds", |_| {
            (
                makespan_lower_bound(&inst),
                max_flow_lower_bound(&inst),
                sum_flow_lower_bound(&inst),
            )
        });
        MaterializedInstance {
            platform,
            nominal,
            perturbed,
            timeline,
            lb_makespan,
            lb_max_flow,
            lb_sum_flow,
        }
    })
}
