//! Measures end-to-end campaign throughput (fuzz-style verification
//! session: nominal + fault sweeps across all six platforms) and
//! maintains `BENCH_campaign_e2e.json`, the committed perf trajectory
//! of the orchestration stack.
//!
//! ```text
//! exp_campaign_e2e [--smoke] [--out FILE] [--baseline-cold RUNS_PER_SEC]
//!                  [--check BASELINE [--tolerance F]]
//! ```
//!
//! `--smoke` runs 2 repetitions instead of 6 (CI). `--baseline-cold`
//! records the cold runs/sec measured on the pre-optimisation parent
//! commit into the emitted JSON, so the committed document carries its
//! own speedup evidence. `--check` compares the fresh measurement
//! against a committed baseline and exits nonzero when the cold session
//! regresses beyond the tolerance (default 0.8 = 20% slower).

use std::process::ExitCode;

use advm_bench::experiments::campaign_e2e::{check_against, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let reps = if args.iter().any(|a| a == "--smoke") {
        2
    } else {
        6
    };
    let baseline_cold: f64 = match flag_value("--baseline-cold").map(str::parse) {
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!("exp_campaign_e2e: bad --baseline-cold value");
            return ExitCode::FAILURE;
        }
        None => 0.0,
    };

    let report = run(reps, baseline_cold);
    for sample in [&report.cold, &report.warm] {
        eprintln!(
            "{:>20}: {:>8.0} runs/s ({} runs; build {:.1}ms exec {:.1}ms report {:.2}ms)",
            sample.mode,
            sample.runs_per_sec(),
            sample.runs,
            sample.build.as_secs_f64() * 1e3,
            sample.exec.as_secs_f64() * 1e3,
            sample.report.as_secs_f64() * 1e3,
        );
    }
    eprintln!(
        "vs recorded baseline {:.2}x ({} reps)",
        report.speedup_vs_baseline(),
        reps
    );

    let json = report.to_json();
    match flag_value("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("exp_campaign_e2e: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }

    if let Some(baseline_path) = flag_value("--check") {
        let tolerance: f64 = match flag_value("--tolerance").map(str::parse) {
            Some(Ok(t)) => t,
            Some(Err(_)) => {
                eprintln!("exp_campaign_e2e: bad --tolerance value");
                return ExitCode::FAILURE;
            }
            None => 0.8,
        };
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("exp_campaign_e2e: reading {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(reason) = check_against(&report, &baseline, tolerance) {
            eprintln!("exp_campaign_e2e: FAIL: {reason}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed (tolerance {tolerance})");
    }
    ExitCode::SUCCESS
}
