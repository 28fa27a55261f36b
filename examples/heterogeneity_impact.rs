//! *The impact of heterogeneity*, quantified — the title question of the
//! paper as a curve instead of four bars.
//!
//! A family of platforms interpolates geometrically from fully homogeneous
//! (`h = 0`) to the paper's fully heterogeneous distribution (`h = 1`),
//! separately for links, speeds, and both. For each degree we run the six
//! static heuristics and report the spread between the best and the worst
//! of them (normalized to SRPT): on homogeneous platforms every reasonable
//! strategy coincides (the paper's intro — the problem is polynomial), and
//! the spread widens with heterogeneity exactly as the theory section's
//! rising lower bounds predict.
//!
//! ```sh
//! cargo run --release --example heterogeneity_impact
//! ```

use master_slave_sched::core::{bag_of_tasks, simulate, Algorithm, SimConfig};
use master_slave_sched::sim::{render_gantt, trace_stats};
use master_slave_sched::workload::{HeterogeneityAxis, HeterogeneityFamily};

fn main() {
    let report = master_slave_sched::lab::ablations::heterogeneity_impact_with(
        300,
        3,
        42,
        &mss_sweep::SweepConfig::default(),
    );
    println!("{}", report.render());
    println!("cells are best/worst normalized makespan over the six static heuristics;");
    println!("a widening gap means choosing the right algorithm matters more.\n");

    // Zoom in on one fully heterogeneous platform: Gantt + utilization for
    // the best-in-class LS schedule.
    let family = HeterogeneityFamily::paper_ranges(5, 42);
    let platform = family.platform(HeterogeneityAxis::Both, 1.0);
    let tasks = bag_of_tasks(40);
    let trace = simulate(
        &platform,
        &tasks,
        &SimConfig::with_horizon(tasks.len()),
        &mut Algorithm::ListScheduling.build(),
    )
    .expect("run completes");

    println!("LS on one h = 1 platform, 40 tasks ('-' send, '#' compute):");
    println!("{}", render_gantt(&trace, &platform, 72));
    let stats = trace_stats(&trace, &platform);
    println!(
        "port busy {:.0}% of the makespan; slave utilizations: {}",
        stats.port_utilization * 100.0,
        stats
            .slaves
            .iter()
            .enumerate()
            .map(|(j, s)| format!("P{} {:.0}%", j + 1, s.utilization * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
