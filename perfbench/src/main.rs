//! `berry-perfbench --workload <train|sweep|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host line, a report line with the workload's named metrics
//! and correctness gates, and — last — one JSON result line: the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger (`--trace 1`).
//! Exits non-zero when a correctness gate fails.

use berry_core::encode_json_string;
use berry_perfbench::report::{metrics_json, Metric, Outcome};
use berry_perfbench::{host, serve, stats, sweep, train};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: berry-perfbench --workload <train|sweep|serve> --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["train", "sweep", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("berry-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host::host_json());

    // Scratch space (the store directories) lives under the working
    // directory and is removed when the run ends.
    let dir =
        PathBuf::from(".bench_runs").join(format!("{}-{}", args.workload, std::process::id()));
    let mut outcome: Outcome = match args.workload.as_str() {
        "train" => train::run(
            &train::TrainSize::full(),
            args.seed,
            args.seconds,
            &dir,
            args.traced,
        ),
        "sweep" => sweep::run(
            &sweep::SweepSize::full(),
            args.seed,
            args.seconds,
            args.traced,
        ),
        _ => serve::run(
            &serve::ServeSize::full(),
            args.seed,
            args.seconds,
            &dir,
            args.traced,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_runs");

    // One operation can fail several gates; count failed operations.
    let attempted = outcome.attempted.max(1);
    let failed = outcome.failed.min(attempted);
    let rss = outcome
        .peak_rss_mb
        .or_else(stats::peak_rss_mb)
        .unwrap_or(0.0);
    if !args.traced {
        let ratio = failed as f64 / attempted as f64;
        outcome.report.push(Metric::sampled(
            "failed_ratio",
            ratio,
            "ratio",
            attempted as usize,
        ));
        outcome.report.push(Metric::new("peak_rss_mb", rss, "MB"));
    }
    let gates: Vec<String> = outcome
        .gate_failures
        .iter()
        .map(|g| encode_json_string(g))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"report\": {}, \"gate_failures\": [{}]}}",
        encode_json_string(&args.workload),
        args.seed,
        u8::from(args.traced),
        metrics_json(&outcome.report),
        gates.join(", ")
    );
    for failure in &outcome.gate_failures {
        eprintln!("berry-perfbench: gate failed: {failure}");
    }
    // The result line carries exactly value and unit per metric.
    let metrics: Vec<Metric> = if args.traced {
        outcome
            .per_layer
            .iter()
            .map(|m| Metric::new(m.name.clone(), m.value, m.unit))
            .collect()
    } else {
        outcome.end_to_end()
    };
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
