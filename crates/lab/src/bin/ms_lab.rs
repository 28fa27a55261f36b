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

use mss_core::Algorithm;
use mss_lab::report::{fmt3, fmt4, write_files, Artifact, AsciiTable, ExperimentScale};
use mss_lab::{resilience, EXPERIMENTS};
use mss_sweep::{default_threads, Observe, SweepConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};

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
        observe: Observe::Off,
    }
}

/// The artifact directory, `target/lab/` under the working directory,
/// created up front: one that cannot be (a regular file, a read-only
/// mount) is a located error (exit 2) before anything runs.
fn artifact_dir(cmd: &str) -> PathBuf {
    let dir = PathBuf::from("target/lab");
    if let Err(e) = write_files(&dir, &[]) {
        eprintln!("{cmd}: cannot use artifact directory {e}");
        std::process::exit(2);
    }
    dir
}

/// Exits 2 with one line naming the output file that cannot be written.
fn cannot_write(cmd: &str, what: &str, path: &Path, e: std::io::Error) -> ! {
    eprintln!("{cmd}: cannot write {what} {}: {e}", path.display());
    std::process::exit(2);
}

/// Creates (truncates) the output file `path` before any work runs, so a
/// path that cannot be written fails up front, not after a whole replay.
/// A replay that then fails removes it again.
fn create_out(cmd: &str, what: &str, path: PathBuf) -> (PathBuf, std::fs::File) {
    match std::fs::File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => cannot_write(cmd, what, &path, e),
    }
}

/// Writes `files` into `dir` and names them; a failed write is a located
/// error (exit 2).
fn write_out(cmd: &str, dir: &Path, files: &[Artifact]) {
    if let Err(e) = write_files(dir, files) {
        eprintln!("{cmd}: cannot write artifact {e}");
        std::process::exit(2);
    }
    let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
    println!("artifacts in {}: {}\n", dir.display(), names.join(", "));
}

/// Runs the experiments `names` in order through the one entry point the
/// digest test pins, printing each table and writing its files. A bad
/// `--scenario` file or an unusable artifact directory fails before the
/// first experiment runs.
fn run_experiments(cmd: &str, names: &[&str], args: &[String]) {
    let scenario = parse_flag(args, "--scenario").map(|path| {
        resilience::load_scenario(Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("{cmd}: {e}");
            std::process::exit(2);
        })
    });
    let (scale, config) = (parse_scale(args), parse_runtime(args));
    let dir = artifact_dir(cmd);
    for &name in names {
        let out =
            mss_lab::run_experiment(name, scale, scenario.as_ref(), &config).unwrap_or_else(|e| {
                eprintln!("{name}: {e}");
                std::process::exit(2);
            });
        println!("{}", out.text);
        write_out(name, &dir, &out.files);
        if let Some(failure) = out.failure {
            eprintln!("{name}: {failure}");
            std::process::exit(1);
        }
    }
}

/// The result-store directory of `cmd`: `--cache-dir DIR`, or the
/// spec's own directory under `target/sweep-cache` in the working
/// directory. Opens and loads the store once up front, so a directory
/// that cannot be created (a regular file, a read-only or missing mount)
/// or a shard that cannot be read (a directory in its place) is a located
/// error (exit 2), not a panic inside the sweep.
fn open_cache_dir(args: &[String], cmd: &str, spec_name: &str) -> PathBuf {
    let dir = parse_flag(args, "--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("target/sweep-cache").join(spec_name));
    if let Err(e) = mss_sweep::ResultStore::open(&dir).and_then(|store| store.load().map(drop)) {
        eprintln!("{cmd}: cannot use cache directory `{}`: {e}", dir.display());
        std::process::exit(2);
    }
    dir
}

fn run_sweep(args: &[String]) {
    let (spec, _) = spec_arg(args, "sweep");

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
    let dir = artifact_dir("sweep");
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

    println!(
        "executed {} cells, {} from cache{}",
        outcome.executed,
        outcome.cached,
        if outcome.dropped > 0 {
            format!(" ({} torn records re-run)", outcome.dropped)
        } else {
            String::new()
        }
    );
    let csv_rows = rows
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
    let header: &[&str] = &[
        "scenario",
        "algorithm",
        "makespan_mean",
        "makespan_min",
        "makespan_max",
        "makespan_ci95",
        "ratio_vs_lb_mean",
        "normalized_mean",
    ];
    let stem = format!("sweep_{}", spec.name);
    let files = [
        Artifact::json(&stem, &rows),
        Artifact::csv(&stem, (header, csv_rows)),
    ];
    write_out("sweep", &dir, &files);
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
    let dir = artifact_dir("metrics");
    match mss_lab::metrics::run_spec_metrics(&spec, &config) {
        Ok(report) => {
            println!("{}", report.render());
            let files = [
                Artifact::json("metrics", &report.rows),
                Artifact::csv("metrics", report.csv_table()),
            ];
            write_out("metrics", &dir, &files);
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
    // `--dump` alone writes into the artifact directory.
    let dump = args.iter().position(|a| a == "--dump").map(|i| {
        let path = match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(path) => PathBuf::from(path),
            None => artifact_dir("diff").join(format!("ledger_{}_cell{index}.jsonl", spec.name)),
        };
        create_out("diff", "ledger", path)
    });
    let outcome = match diff::audit_cell(&spec, index) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diff: {e}");
            if let Some((path, _)) = &dump {
                let _ = std::fs::remove_file(path);
            }
            std::process::exit(2);
        }
    };
    println!("audited {}", outcome.cell);
    println!("{} events, digest {:016x}", outcome.events, outcome.digest);
    if let Some((path, mut file)) = dump {
        file.write_all(diff::ledger_to_jsonl(&outcome.ledger).as_bytes())
            .unwrap_or_else(|e| cannot_write("diff", "ledger", &path, e));
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

fn run_profile(args: &[String]) {
    let dir = artifact_dir("profile");
    let quick = args.iter().any(|a| a == "--quick");
    let report = mss_lab::profile::run_with(quick, parse_runtime(args).threads);
    println!("{}", report.render());
    let file = |name: &str, body| Artifact {
        name: name.to_string(),
        body,
    };
    let files = [
        file("profile.json", report.profile.to_json()),
        file("profile.csv", report.profile.to_csv()),
        file(
            "profile_workers.json",
            report.stats.to_chrome("profile sweep").render(),
        ),
    ];
    write_out("profile", &dir, &files);
}

fn run_trace(args: &[String]) {
    let (spec, _) = spec_arg(args, "trace");
    let index = parse_flag(args, "--cell")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);
    let path = parse_flag(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            artifact_dir("trace").join(format!("trace_{}_cell{index}.json", spec.name))
        });
    let (path, mut file) = create_out("trace", "trace", path);
    match mss_lab::profile::trace_cell(&spec, index) {
        Ok(t) => {
            file.write_all(t.json.as_bytes())
                .unwrap_or_else(|e| cannot_write("trace", "trace", &path, e));
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
                path.display()
            );
        }
        Err(e) => {
            eprintln!("trace: {e}");
            let _ = std::fs::remove_file(&path);
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    check_args(command, rest);

    match command.as_str() {
        "fig1" => run_experiments(command, &["fig1a", "fig1b", "fig1c", "fig1d"], rest),
        "all" => run_experiments(command, &EXPERIMENTS, rest),
        "sweep" => run_sweep(rest),
        "metrics" => run_metrics_cmd(rest),
        "diff" => run_diff(rest),
        "profile" => run_profile(rest),
        "trace" => run_trace(rest),
        name if EXPERIMENTS.contains(&name) => run_experiments(name, &[name], rest),
        _ => usage(),
    }
}
