//! Measures the snapshot-fork audit sweep (shared-prefix forking on vs
//! off: a store with the default prefix budget vs one with budget 0)
//! and maintains `BENCH_snapshot_fork.json`, the committed perf
//! trajectory of the SaveState subsystem.
//!
//! ```text
//! exp_snapshot_fork [--smoke] [--out FILE] [--check BASELINE [--tolerance F]]
//! ```
//!
//! `--smoke` runs 3 repetitions instead of 10 (CI). `--check` compares
//! the fresh measurement against a committed baseline and exits nonzero
//! when the per-sweep `prefix_saved`/`forked_runs` counts drift from
//! the committed (machine-invariant) numbers, on a wall regression
//! beyond the tolerance (default 0.8 = 20% slower), or on a dead fork
//! path (zero forked runs).

use std::process::ExitCode;

use advm_bench::experiments::snapshot_fork::{check_against, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let reps = if args.iter().any(|a| a == "--smoke") {
        3
    } else {
        10
    };

    let report = run(reps);
    for sample in [&report.from_reset, &report.forked] {
        eprintln!(
            "{:>10}: {:>12.0} steps/s ({} insns in {:.1}ms over {} reps; \
             per sweep: {} forked runs, {} prefix insns saved)",
            sample.name(),
            sample.steps_per_sec(),
            sample.insns,
            sample.wall.as_secs_f64() * 1e3,
            reps,
            sample.forked_runs,
            sample.prefix_saved,
        );
    }

    let json = report.to_json();
    match flag_value("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("exp_snapshot_fork: writing {path}: {e}");
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
                eprintln!("exp_snapshot_fork: bad --tolerance value");
                return ExitCode::FAILURE;
            }
            None => 0.8,
        };
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("exp_snapshot_fork: reading {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(reason) = check_against(&report, &baseline, tolerance) {
            eprintln!("exp_snapshot_fork: FAIL: {reason}");
            return ExitCode::FAILURE;
        }
        eprintln!("baseline check passed (tolerance {tolerance})");
    }
    ExitCode::SUCCESS
}
