//! `perfbench --workload <publish|append|serve-mix> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Builds the inputs from the seed, runs the workload against an
//! in-process daemon, prints the run header, every metric with its unit and
//! sample count and every output check, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Scratch data goes under `.bench_work/` in the working directory.

use perfbench::{Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <publish|append|serve-mix> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let root = PathBuf::from(".bench_work");
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
        work_dir: root.join(format!("{}-{}", workload.name(), std::process::id())),
        trace_file: root
            .join("traces")
            .join(format!("{}-seed{seed}.jsonl", workload.name())),
    })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&options);
    std::fs::remove_dir_all(&options.work_dir).ok();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (key, value) in &report.header {
        println!("# {key}: {value}");
    }
    for m in &report.metrics {
        println!(
            "{:<34} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for c in &report.checks {
        println!("check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name);
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
