//! The benchmark's own tests: a wrong expectation is counted as a
//! failure, and every workload runs untraced and traced on the default
//! and the held-out seed with the metric names `BENCHMARK.json` lists.

use std::process::Command;

use loopbench::workloads::{
    audit_op, check_audit, check_fuzz, fuzz_op, AuditExpect, DaemonHarness, FuzzExpect,
    AUDIT_EXPECT, FUZZ_EXPECT,
};
use loopbench::{enter_repo_root, result_line, Tally, Workload, DEFAULT_SEED, HELD_OUT_SEED};

#[test]
fn a_wrong_expectation_is_counted_as_a_failure() {
    enter_repo_root().unwrap();
    let mut tally = Tally::default();

    let fuzz = fuzz_op(DEFAULT_SEED, 2).unwrap();
    tally.record(check_fuzz(&fuzz, FUZZ_EXPECT));
    let wrong = FuzzExpect {
        runs: FUZZ_EXPECT.runs + 1,
    };
    tally.record(check_fuzz(&fuzz, wrong));

    let audit = audit_op(2).unwrap();
    tally.record(check_audit(&audit.report, AUDIT_EXPECT));
    let wrong = AuditExpect {
        cells: AUDIT_EXPECT.cells - 1,
    };
    tally.record(check_audit(&audit.report, wrong));

    let mut harness = DaemonHarness::start("smoke").unwrap();
    let mut client = harness.connect().unwrap();
    let job = harness.run_job(&mut client, 0).unwrap();
    tally.record(harness.check_job(0, &job).map(drop));
    harness.references[0].stripped.push(' ');
    tally.record(harness.check_job(0, &job).map(drop));
    drop(client);
    harness.stop().unwrap();

    assert_eq!(
        (tally.attempted, tally.failed),
        (6, 3),
        "{:?}",
        tally.errors
    );
    assert!(!tally.correct());
    assert!(result_line(&tally, &[]).starts_with("{\"correct\":false,\"attempted\":6,\"failed\":3"));
}

/// Metric names of one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(loopbench::repo_root().join("BENCHMARK.json")).unwrap();
    let start = json.find(&format!("\"{section}\"")).unwrap();
    let end = json[start..].find(']').unwrap() + start;
    json[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|item| item.split('"').nth(1).unwrap().to_owned())
        .collect()
}

#[test]
fn every_workload_runs_on_both_seeds() {
    for (binary, trace, section) in [
        (env!("CARGO_BIN_EXE_loopbench"), "0", "end_to_end"),
        (env!("CARGO_BIN_EXE_loopbench-ledger"), "1", "per_layer"),
    ] {
        let names = listed(section);
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for workload in Workload::ALL {
                let out = Command::new(binary)
                    .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", "1", "--trace", trace])
                    .output()
                    .unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout);
                let what = format!("{} seed {seed} trace {trace}", workload.name());
                assert!(
                    out.status.success(),
                    "{what}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let last = stdout.lines().last().unwrap_or_default();
                assert!(last.starts_with("{\"correct\":true,"), "{what}: {last}");
                assert!(last.contains("\"failed\":0,"), "{what}: {last}");
                for name in &names {
                    assert!(
                        last.contains(&format!("\"{name}\":{{\"value\":")),
                        "{what}: {name}"
                    );
                }
            }
        }
    }
}
