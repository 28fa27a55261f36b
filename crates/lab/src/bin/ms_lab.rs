//! `ms-lab` — regenerate the paper's tables and figures, or run arbitrary
//! scenario grids, on top of the `mss-sweep` orchestrator.
//!
//! ```text
//! ms-lab <command> [flags]
//!
//! commands:
//!   table1             Table 1 (nine bounds, machine-verified)
//!   fig1a..fig1d       Figure 1 panels (heuristic comparison)
//!   fig1               all four Figure 1 panels
//!   fig2               Figure 2 (robustness, ±10 % task sizes)
//!   ablation-buffer    A1: RR dispatch buffer sweep
//!   ablation-sljf      A2: SLJF/SLJFWC vs exhaustive optimum
//!   ablation-arrivals  A3: arrival-regime sweep
//!   ablation-heterogeneity  A4: heterogeneity-degree sweep
//!   resilience         degradation of all algorithms vs failure rate
//!                      (Poisson failures, fault-aware redispatch).
//!                      [--scenario FILE] runs a scenario file (see
//!                      examples/failure_scenario.toml) against the static
//!                      baseline instead of the built-in rate ladder
//!   oblivion           degradation of all algorithms vs information tier
//!                      (clairvoyant / speed-oblivious / non-clairvoyant)
//!                      across the paper's platform-class ladder, each
//!                      normalized to its own clairvoyant run
//!   sweep <spec>       run a user-defined grid (TOML or JSON spec; see
//!                      examples/sweep_grid.toml). [--quiet] suppresses the
//!                      live progress line
//!   metrics <spec>     run a grid with telemetry probes and report
//!                      flow/wait/transfer/compute quantiles, per-slave
//!                      utilization splits and master-queue pressure per
//!                      (scenario, algorithm); writes metrics.csv and
//!                      metrics.json, byte-identical for any --threads.
//!                      [--quick] is an alias for [--no-cache]: always
//!                      simulate fresh
//!   diff <spec>        replay one grid cell with the decision-digest
//!                      auditor. Alone: print the run's event count and
//!                      64-bit digest. [--dump [PATH]] also writes the
//!                      per-event JSONL ledger. [--against REF] compares
//!                      to a dumped ledger file or to another ms-lab
//!                      binary and reports the first divergent event
//!                      (exit 1 on divergence). [--cell N] picks the cell
//!   profile            phase breakdown (expand / materialize / simulate /
//!                      store / aggregate) of a representative sweep run
//!                      with counting probes attached; writes profile.json,
//!                      profile.csv and the per-worker Chrome-trace
//!                      timeline profile_workers.json
//!   trace <spec>       replay one grid cell with a trace recorder and
//!                      write a Chrome-trace-event JSON (open it at
//!                      ui.perfetto.dev): per-slave send/compute/downtime
//!                      tracks with failure instants
//!   all                table1, fig1, fig2, the four ablations, resilience
//!                      and oblivion
//! ```
//!
//! Each command accepts exactly the flags `ms-lab` alone prints for it;
//! any other argument, or a value flag without its value, is an error
//! (exit 2).

use mss_core::{Algorithm, PlatformClass};
use mss_lab::report::{fmt3, fmt4, write_csv, write_json, AsciiTable, ExperimentScale};
use mss_lab::{ablations, fig1, fig2, oblivion, resilience, table1};
use mss_sweep::{default_threads, SweepConfig};
use mss_workload::{ArrivalProcess, Perturbation};
use std::path::PathBuf;

/// Every command with the flags it reads, exactly as `usage()` prints
/// them. `[--x N]` takes a value, `[--x [N]]` an optional one (taken when
/// the next argument is not a flag).
const COMMANDS: &[(&str, &str)] = &[
    ("table1", "[--threads N]"),
    (
        "fig1|fig1a|fig1b|fig1c|fig1d|fig2|ablation-buffer|ablation-arrivals|ablation-heterogeneity|oblivion",
        "[--quick] [--seed N] [--tasks N] [--platforms N] [--threads N]",
    ),
    ("ablation-sljf", "[--seed N] [--threads N]"),
    (
        "resilience|all",
        "[--quick] [--seed N] [--tasks N] [--platforms N] [--threads N] [--scenario FILE]",
    ),
    (
        "sweep <spec>",
        "[--threads N] [--quiet] [--cache-dir DIR] [--no-cache] [--baseline ALG]",
    ),
    (
        "metrics <spec>",
        "[--threads N] [--quiet] [--quick] [--no-cache] [--cache-dir DIR]",
    ),
    (
        "diff <spec>",
        "[--cell N] [--dump [PATH]] [--against LEDGER-OR-BINARY]",
    ),
    ("trace <spec>", "[--cell N] [--out PATH]"),
    ("profile", "[--quick] [--threads N]"),
];

fn usage() -> ! {
    eprintln!("usage: ms-lab <command> [flags]");
    for (commands, flags) in COMMANDS {
        eprintln!("  {commands}\n      {flags}");
    }
    std::process::exit(2);
}

/// Rejects any argument `command` does not read, and a value flag without
/// its value, with a one-line error and exit code 2. An unknown command
/// prints the usage.
fn check_args(command: &str, args: &[String]) {
    let Some((commands, flags)) = COMMANDS.iter().find(|(commands, _)| {
        let names = commands.split(' ').next().unwrap_or_default();
        names.split('|').any(|name| name == command)
    }) else {
        usage()
    };
    let reject = |what: String| -> ! {
        eprintln!("ms-lab {command}: {what}");
        std::process::exit(2);
    };
    // `[--dump [PATH]]` → ("dump", Some("[PATH]")); `[--quick]` → ("quick", None).
    let flags = flags.split("[--").skip(1).map(|f| {
        let f = f
            .trim_end()
            .strip_suffix(']')
            .expect("flag groups end in `]`");
        f.split_once(' ')
            .map_or((f, None), |(name, v)| (name, Some(v)))
    });
    let is_flag = |a: &String| a.starts_with("--");
    // A missing spec path is reported by the command itself.
    let takes_spec = commands.ends_with("<spec>");
    let skip = usize::from(takes_spec && args.first().is_some_and(|a| !is_flag(a)));
    let mut rest = args[skip..].iter().peekable();
    while let Some(arg) = rest.next() {
        let name = arg.strip_prefix("--");
        let Some((_, value)) = flags.clone().find(|(f, _)| Some(*f) == name) else {
            reject(format!("unexpected argument `{arg}`"))
        };
        let Some(value) = value else { continue };
        if rest.next_if(|a| !is_flag(a)).is_none() && !value.starts_with('[') {
            reject(format!("`{arg}` needs a value"))
        }
    }
}

fn parse_scale(args: &[String]) -> ExperimentScale {
    let mut scale = if args.iter().any(|a| a == "--quick") {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tasks" | "--platforms" | "--seed" => {
                let Some(v) = args.get(i + 1) else { usage() };
                match args[i].as_str() {
                    "--tasks" => scale.tasks = v.parse().unwrap_or_else(|_| usage()),
                    "--platforms" => scale.platforms = v.parse().unwrap_or_else(|_| usage()),
                    _ => scale.seed = v.parse().unwrap_or_else(|_| usage()),
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    scale
}

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_runtime(args: &[String]) -> SweepConfig {
    let threads = parse_flag(args, "--threads")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or_else(|| default_threads(64));
    SweepConfig {
        threads,
        cache_dir: None,
        // Additionally gated on stderr being a terminal and no CI
        // environment inside `mss_obs::Progress`.
        progress: !args.iter().any(|a| a == "--quiet"),
        count_events: false,
        collect_metrics: false,
    }
}

fn run_fig1_panel(class: PlatformClass, scale: ExperimentScale, config: &SweepConfig) {
    let panel = fig1::run_panel_with(class, scale, ArrivalProcess::AllAtZero, config);
    println!("{}", panel.render());
    let path = panel.write_artifacts();
    println!("artifacts: {}\n", path.display());
}

fn run_table1(config: &SweepConfig) {
    let report = table1::run_with(config);
    println!("{}", report.render());
    let path = report.write_artifacts();
    println!("artifacts: {}\n", path.display());
    assert!(report.all_verified(), "a bound was violated — see above");
}

fn run_fig2(scale: ExperimentScale, config: &SweepConfig) {
    // Physical reading of the paper's "size of the matrix ... by a factor
    // of up to 10 %": the linear dimension jitters by ±10 %, so shipping
    // (N² entries) scales quadratically and the determinant (O(N³))
    // cubically. `Perturbation::linear` is the conservative alternative.
    let report = fig2::run_with(
        scale,
        ArrivalProcess::UniformStream { load: 0.9 },
        Perturbation::matrix(0.1),
        config,
    );
    println!("{}", report.render());
    let path = report.write_artifacts();
    println!("artifacts: {}\n", path.display());
}

/// The result-store directory of `cmd`: `--cache-dir DIR`, or the
/// spec's own directory under `target/sweep-cache`. Opens the store once
/// up front, so a directory that cannot be created (a regular file, a
/// read-only or missing mount) is a located error (exit 2), not a panic
/// inside the sweep.
fn open_cache_dir(args: &[String], cmd: &str, spec_name: &str) -> PathBuf {
    let dir = parse_flag(args, "--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/sweep-cache")
                .join(spec_name)
        });
    if let Err(e) = mss_sweep::ResultStore::open(&dir) {
        eprintln!("{cmd}: cannot use cache directory `{}`: {e}", dir.display());
        std::process::exit(2);
    }
    dir
}

fn run_sweep(args: &[String]) {
    let Some(spec_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("sweep: missing spec path");
        usage();
    };
    let spec = match mss_sweep::spec_from_path(std::path::Path::new(spec_path)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };

    let mut config = parse_runtime(args);
    if !args.iter().any(|a| a == "--no-cache") {
        config.cache_dir = Some(open_cache_dir(args, "sweep", &spec.name));
    }
    let baseline = match parse_flag(args, "--baseline") {
        Some(name) => match Algorithm::from_name(&name) {
            Some(a) => Some(a),
            None => {
                eprintln!("sweep: unknown baseline algorithm `{name}`");
                std::process::exit(2);
            }
        },
        None => Some(Algorithm::Srpt),
    };

    let cells = match spec.expand() {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "sweep `{}`: {} cells on {} threads{}",
        spec.name,
        cells.len(),
        config.threads,
        match &config.cache_dir {
            Some(d) => format!(", cache at {}", d.display()),
            None => ", cache disabled".to_string(),
        }
    );
    let outcome = mss_sweep::run_cells(cells, &config);
    let rows = outcome.aggregate(baseline);

    let mut table = AsciiTable::new(vec![
        "scenario".to_string(),
        "alg".to_string(),
        "makespan (mean±ci95)".to_string(),
        "vs LB".to_string(),
        "vs base".to_string(),
    ]);
    for row in &rows {
        table.row(vec![
            row.group.clone(),
            row.algorithm.clone(),
            format!("{}±{}", fmt3(row.makespan.mean), fmt3(row.makespan.ci95)),
            fmt4(row.ratio_vs_lb.mean),
            row.normalized
                .as_ref()
                .map(|s| fmt3(s.mean))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{}", table.render());

    let name = format!("sweep_{}", spec.name);
    write_json(&name, &rows);
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.group.clone(),
                r.algorithm.clone(),
                format!("{}", r.makespan.mean),
                format!("{}", r.makespan.min),
                format!("{}", r.makespan.max),
                format!("{}", r.makespan.ci95),
                format!("{}", r.ratio_vs_lb.mean),
                r.normalized
                    .as_ref()
                    .map(|s| format!("{}", s.mean))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    let path = write_csv(
        &name,
        &[
            "scenario",
            "algorithm",
            "makespan_mean",
            "makespan_min",
            "makespan_max",
            "makespan_ci95",
            "ratio_vs_lb_mean",
            "normalized_mean",
        ],
        &csv_rows,
    );
    println!(
        "executed {} cells, {} from cache{}; artifacts: {}",
        outcome.executed,
        outcome.cached,
        if outcome.dropped > 0 {
            format!(" ({} torn records re-run)", outcome.dropped)
        } else {
            String::new()
        },
        path.display()
    );
}

fn spec_arg(args: &[String], cmd: &str) -> (mss_sweep::SweepSpec, PathBuf) {
    let Some(spec_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{cmd}: missing spec path");
        usage();
    };
    match mss_sweep::spec_from_path(std::path::Path::new(spec_path)) {
        Ok(spec) => (spec, PathBuf::from(spec_path)),
        Err(e) => {
            eprintln!("{cmd}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_metrics_cmd(args: &[String]) {
    let (spec, _) = spec_arg(args, "metrics");
    let mut config = parse_runtime(args);
    // `--quick` forces a fresh simulation (the CI smoke path); otherwise
    // cache under the same per-spec directory the sweep command uses —
    // cached records without telemetry payloads re-run automatically.
    if !args.iter().any(|a| a == "--quick" || a == "--no-cache") {
        config.cache_dir = Some(open_cache_dir(args, "metrics", &spec.name));
    }
    match mss_lab::metrics::run_spec_metrics(&spec, &config) {
        Ok(report) => {
            println!("{}", report.render());
            let path = report.write_artifacts();
            println!("artifacts: {} (+ metrics.json)", path.display());
        }
        Err(e) => {
            eprintln!("metrics: {e}");
            std::process::exit(2);
        }
    }
}

fn run_diff(args: &[String]) {
    use mss_lab::diff;
    let (spec, spec_path) = spec_arg(args, "diff");
    let index = parse_flag(args, "--cell")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let outcome = match diff::audit_cell(&spec, index) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diff: {e}");
            std::process::exit(2);
        }
    };
    println!("audited {}", outcome.cell);
    println!("{} events, digest {:016x}", outcome.events, outcome.digest);
    if let Some(i) = args.iter().position(|a| a == "--dump") {
        let path = args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(PathBuf::from)
            .unwrap_or_else(|| diff::default_dump_path(&spec.name, index));
        std::fs::write(&path, diff::ledger_to_jsonl(&outcome.ledger))
            .unwrap_or_else(|e| panic!("write ledger {}: {e}", path.display()));
        println!("ledger: {}", path.display());
    }
    if let Some(against) = parse_flag(args, "--against") {
        let theirs = match diff::reference_ledger(std::path::Path::new(&against), &spec_path, index)
        {
            Ok(l) => l,
            Err(e) => {
                eprintln!("diff: {e}");
                std::process::exit(2);
            }
        };
        let ours: Vec<diff::LedgerLine> = outcome.ledger.iter().map(diff::LedgerLine::of).collect();
        let verdict = diff::first_divergence(&ours, &theirs);
        println!("{}", verdict.render());
        if !verdict.is_identical() {
            std::process::exit(1);
        }
    }
}

fn run_profile(args: &[String], config: &SweepConfig) {
    let quick = args.iter().any(|a| a == "--quick");
    let report = mss_lab::profile::run_with(quick, config.threads);
    println!("{}", report.render());
    let dir = report.write_artifacts();
    println!(
        "\nartifacts: {} (profile.json, profile.csv, profile_workers.json)",
        dir.display()
    );
}

fn run_trace(args: &[String]) {
    let Some(spec_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("trace: missing spec path");
        usage();
    };
    let spec = match mss_sweep::spec_from_path(std::path::Path::new(spec_path)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(2);
        }
    };
    let index = parse_flag(args, "--cell")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let out = parse_flag(args, "--out").map(PathBuf::from);
    match mss_lab::profile::trace_cell(&spec, index, out) {
        Ok(t) => {
            println!("traced {}", t.cell);
            match &t.result {
                Ok(m) => println!(
                    "run completed: makespan {} ({} engine events, {} spans)",
                    fmt3(m.makespan),
                    t.counters.events(),
                    t.spans
                ),
                Err(e) => println!(
                    "run aborted ({e}); partial trace still written ({} spans)",
                    t.spans
                ),
            }
            println!(
                "trace: {} (load it at ui.perfetto.dev or chrome://tracing)",
                t.path.display()
            );
        }
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(2);
        }
    }
}

fn run_oblivion(scale: ExperimentScale, config: &SweepConfig) {
    let arrival = ArrivalProcess::UniformStream { load: 0.9 };
    let report = oblivion::run_with(scale, arrival, config);
    println!("{}", report.render());
    println!("artifacts: {}\n", report.write_artifacts().display());
}

fn run_resilience(args: &[String], scale: ExperimentScale, config: &SweepConfig) {
    let arrival = ArrivalProcess::UniformStream { load: 0.9 };
    let report = match parse_flag(args, "--scenario") {
        Some(path) => {
            let spec = match mss_sweep::scenario_from_path(std::path::Path::new(&path)) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("resilience: {e}");
                    std::process::exit(2);
                }
            };
            match resilience::run_scenario_file(scale, arrival, &spec, config) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("resilience: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => resilience::run_with(scale, arrival, config),
    };
    println!("{}", report.render());
    println!("artifacts: {}\n", report.write_artifacts().display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    check_args(command, rest);
    let scale = parse_scale(rest);
    let runtime = parse_runtime(rest);

    match command.as_str() {
        "table1" => run_table1(&runtime),
        "fig1a" => run_fig1_panel(PlatformClass::Homogeneous, scale, &runtime),
        "fig1b" => run_fig1_panel(PlatformClass::CommHomogeneous, scale, &runtime),
        "fig1c" => run_fig1_panel(PlatformClass::CompHomogeneous, scale, &runtime),
        "fig1d" => run_fig1_panel(PlatformClass::Heterogeneous, scale, &runtime),
        "fig1" => {
            for class in [
                PlatformClass::Homogeneous,
                PlatformClass::CommHomogeneous,
                PlatformClass::CompHomogeneous,
                PlatformClass::Heterogeneous,
            ] {
                run_fig1_panel(class, scale, &runtime);
            }
        }
        "fig2" => run_fig2(scale, &runtime),
        "sweep" => run_sweep(rest),
        "metrics" => run_metrics_cmd(rest),
        "diff" => run_diff(rest),
        "profile" => run_profile(rest, &runtime),
        "trace" => run_trace(rest),
        "ablation-buffer" => {
            let report = ablations::buffer_sweep_with(scale, &runtime);
            println!("{}", report.render());
            println!("artifacts: {}\n", report.write_artifacts().display());
        }
        "ablation-sljf" => {
            let report = ablations::sljf_quality_with(200, scale.seed, &runtime);
            println!("{}", report.render());
            println!("artifacts: {}\n", report.write_artifacts().display());
        }
        "ablation-arrivals" => {
            let report = ablations::arrival_sweep_with(scale, &runtime);
            println!("{}", report.render());
            println!("artifacts: {}\n", report.write_artifacts().display());
        }
        "ablation-heterogeneity" => {
            let report = ablations::heterogeneity_impact_with(
                scale.tasks,
                scale.platforms,
                scale.seed,
                &runtime,
            );
            println!("{}", report.render());
            println!("artifacts: {}\n", report.write_artifacts().display());
        }
        "resilience" => run_resilience(rest, scale, &runtime),
        "oblivion" => run_oblivion(scale, &runtime),
        "all" => {
            run_table1(&runtime);
            for class in [
                PlatformClass::Homogeneous,
                PlatformClass::CommHomogeneous,
                PlatformClass::CompHomogeneous,
                PlatformClass::Heterogeneous,
            ] {
                run_fig1_panel(class, scale, &runtime);
            }
            run_fig2(scale, &runtime);
            let a1 = ablations::buffer_sweep_with(scale, &runtime);
            println!("{}", a1.render());
            a1.write_artifacts();
            let a2 = ablations::sljf_quality_with(200, scale.seed, &runtime);
            println!("{}", a2.render());
            a2.write_artifacts();
            let a3 = ablations::arrival_sweep_with(scale, &runtime);
            println!("{}", a3.render());
            a3.write_artifacts();
            let a4 = ablations::heterogeneity_impact_with(
                scale.tasks,
                scale.platforms,
                scale.seed,
                &runtime,
            );
            println!("{}", a4.render());
            a4.write_artifacts();
            run_resilience(rest, scale, &runtime);
            run_oblivion(scale, &runtime);
        }
        _ => usage(),
    }
}
