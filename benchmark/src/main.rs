//! `mss-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--tiny]`
//!
//! Runs one workload in this process and prints the run log followed by
//! one JSON result line. With `--trace 1` it also writes a Chrome trace
//! (`<target dir>/benchmark/<workload>.trace.json`). Bad arguments exit 2,
//! failures to run exit 1; neither prints a result line.

use mss_benchmark::{Options, Scale, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(name).ok_or(format!(
                    "unknown workload `{name}` (paper-grid, stream-replay, sweep-resume)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err("--seconds must be non-negative".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => scale = Scale::TINY,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
        out_dir: target.join("benchmark"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("mss-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match mss_benchmark::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mss-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.log {
        println!("{line}");
    }
    if let Some(trace) = &report.chrome_trace {
        let path = opts
            .out_dir
            .join(format!("{}.trace.json", opts.workload.name()));
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("mss-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("trace: {}", path.display());
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
