//! The end-to-end benchmark of the voice-summary service.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-dir DIR] [--out FILE]
//! benchmark --compare BASE CANDIDATE [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a readable report on standard error and, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics (and spans in
//! `DIR/<workload>.jsonl`). `--out` appends the result, tagged with its
//! workload, to a file that `--compare` reads. See README.md.

mod bench;
mod compare;
mod json;
mod load;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::json::quote;
use crate::workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-dir DIR] [--out FILE]\n       \
                     benchmark --compare BASE CANDIDATE [--benchmark BENCHMARK.json]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_dir: PathBuf::from(".bench_trace"),
        out: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    ),
                };
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let base = PathBuf::from(value()?);
                args.compare = Some((base, PathBuf::from(value()?)));
            }
            "--benchmark" => args.benchmark = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn run_compare(args: &Args, base: &PathBuf, candidate: &PathBuf) -> Result<bool, String> {
    let (table, all_pass) =
        compare::compare(&read(&args.benchmark)?, &read(base)?, &read(candidate)?)?;
    print!("{table}");
    Ok(all_pass)
}

/// Run every workload, each in a process of its own.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut forwarded: Vec<&String> = Vec::new();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        if flag == "--workload" {
            iter.next();
        } else {
            forwarded.push(flag);
        }
    }
    let mut passed = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(&forwarded)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("starting {}: {e}", workload.name()))?;
        if !status.success() {
            eprintln!("{}: exited with {status}", workload.name());
            passed = false;
        }
    }
    Ok(passed)
}

fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let options = bench::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_dir: args.trace_dir.clone(),
    };
    let report = bench::run(&options)?;
    eprintln!("== {} seed {} ==", workload.name(), args.seed);
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for (metric, value) in &report.result.metrics {
        eprintln!("  {:<32} {:>14.4} {}", metric.name, value, metric.unit);
    }
    eprintln!("  store_digest {}", report.store_digest);
    let line = report.result.to_json();
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(
            file,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"store_digest\": {}, \"result\": {line}}}",
            quote(workload.name()),
            args.seed,
            u8::from(args.trace),
            quote(&report.store_digest)
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(report.result.correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, args.workload) {
        (Some((base, candidate)), _) => run_compare(&args, base, candidate),
        (None, Some(workload)) => run_one(&args, workload),
        (None, None) => run_all(&raw),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
