//! `sitebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prepares the site, drives the named workload for `--seconds`, checks
//! the outputs, prints every metric with its unit (and, for percentiles,
//! its sample count), and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! ones, and writes the spans to `.sitebench/spans-<workload>.tsv`.
//!
//! Scratch files (the read-only store's build directories) go under
//! `.sitebench/tmp` in the working directory, which is removed on exit.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sitebench::site::{run, RunConfig, RunReport, Workload};

/// The working-directory folder for scratch files and span dumps.
const OUT_DIR: &str = ".sitebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: sitebench --workload <{}> --seed <n> --seconds <1..=600> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                seconds = Some(Some(s).filter(|s| (1..=600).contains(s)).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_report(report: &RunReport) {
    for check in &report.checks {
        println!(
            "check {:<30} {} ({})",
            check.name,
            if check.failures == 0 {
                "ok".to_string()
            } else {
                format!("FAILED x{}", check.failures)
            },
            check.detail
        );
    }
    for m in &report.metrics {
        let value = if m.resolved {
            format!("{:.6}", m.value)
        } else {
            "unresolved".to_string()
        };
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("metric {:<34} {value} {}{samples}", m.name, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Before any thread starts: the read-only store builds in the system
    // temp dir, which must lie inside the working directory.
    let tmp = std::fs::canonicalize(&tmp).expect("scratch dir was just created");
    std::env::set_var("TMPDIR", &tmp);

    let mut config = RunConfig::new(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    config.span_dir = Some(out_dir);
    let result = run(&config);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sitebench: {e}");
            ExitCode::FAILURE
        }
    }
}
