//! `layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line with units and
//! sample counts, then the result line: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric). Exits non-zero, printing no
//! result line, when the run cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;

use layerbench::corpus::PINNED_SEED;
use layerbench::report;
use layerbench::workload::{self, Params, Workload};

/// Scratch directory (relative to the working directory) for the disk
/// caches of running workloads.
const WORK_DIR: &str = ".layerbench-work";

const USAGE: &str = "usage: layerbench --workload <corpus-cold|event-storm|incremental-rebuild> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<String, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("not a positive number of seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let work_dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let params = Params::new(seed, seconds, trace, work_dir);
    let out = workload::run(workload, &params)?;
    let names = report::printed(trace);
    println!(
        "layerbench {} seed {seed}, {seconds} s, trace {}",
        workload.name(),
        u8::from(trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, unit) in &names {
        if let Some(v) = out.values.get(name) {
            println!("  {name:<40} {v:>16.4} {unit}");
        }
    }
    println!("  {} operations, {} failed", out.attempted, out.failed);
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    let line = report::result_line(&out, &names)?;
    // The scratch directory's parent is shared by concurrent runs; remove
    // it once empty.
    let _ = std::fs::remove_dir(WORK_DIR);
    Ok(line)
}
