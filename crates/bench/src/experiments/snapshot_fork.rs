//! Snapshot-fork benchmark: the fault-audit sweep with and without
//! prefix forking, on an [`ArtifactStore`] with the default prefix
//! budget and on one with budget 0.
//!
//! The audit matrix re-runs the same images once per (fault, platform)
//! cell; with forking enabled each image's fault-free prefix executes
//! once per platform and every safe run, the reference baseline's
//! included, resumes from the snapshot.
//! Verdicts are byte-identical either way (the campaign proves that in
//! its tests), so the delta is pure execution cost. The margin is
//! modest by construction: fork-safety demands the prefix end before
//! the faulted module's first MMIO touch, and this suite's tests reach
//! their peripheral within a couple hundred instructions, so each fork
//! skips the boot preamble and nothing more. What the harness guards is
//! the machinery, not a headline number: `BENCH_snapshot_fork.json` is
//! the committed baseline, and CI re-measures in smoke mode. The
//! primary gate is `prefix_saved` — the instructions forking skipped,
//! an exact, machine-invariant count that must match the committed
//! number — plus a loose no-regression check on wall throughput and a
//! fork-path-alive check (zero forked runs would mean every cell
//! silently fell back to from-reset execution). Wall-clock *speedup*
//! is deliberately not gated: on this workload it sits within host
//! noise, and a near-1.0 ratio gate flakes without measuring anything.

use std::sync::Arc;
use std::time::{Duration, Instant};

use advm::artifacts::{ArtifactStore, DEFAULT_ARTIFACT_CAPACITY};
use advm::audit::{FaultAudit, FaultAuditReport};
use advm::prefix::DEFAULT_PREFIX_BUDGET;
use advm::presets::{default_config, page_env, uart_env};
use advm_sim::PlatformFault;
use advm_soc::PlatformId;

/// Runs one audit sweep of the benchmark matrix on a fresh store, whose
/// prefix budget is the default when `fork` and 0 otherwise.
fn audit(fork: bool) -> FaultAuditReport {
    let budget = if fork { DEFAULT_PREFIX_BUDGET } else { 0 };
    FaultAudit::new()
        .suite([page_env(default_config(), 1), uart_env(default_config())])
        .faults([
            PlatformFault::PageActiveOffByOne,
            PlatformFault::PageSelectDropsLowBit,
            PlatformFault::PageMapWriteIgnored,
            PlatformFault::UartDropsBytes,
            PlatformFault::UartTxStuckBusy,
            PlatformFault::UartDuplicatesBytes,
            PlatformFault::TimerNeverExpires,
        ])
        .platforms([PlatformId::RtlSim, PlatformId::ProductSilicon])
        .escape_rounds(0)
        .fuel(200_000)
        .workers(2)
        .artifact_store(Arc::new(ArtifactStore::with_prefix_budget(
            DEFAULT_ARTIFACT_CAPACITY,
            budget,
        )))
        .run()
        .expect("benchmark audit runs")
}

/// One measured execution mode.
#[derive(Debug, Clone)]
pub struct ModeSample {
    /// Whether prefix forking was enabled.
    pub forked: bool,
    /// Simulated instructions across all repetitions (forked runs count
    /// their skipped prefix: the simulated workload is identical).
    pub insns: u64,
    /// Wall time of the repetitions.
    pub wall: Duration,
    /// Prefix instructions whose re-execution forking skipped, per
    /// sweep — the sweep is deterministic, so this is an exact,
    /// machine-invariant count whatever the rep count.
    pub prefix_saved: u64,
    /// Runs that resumed from a snapshot instead of resetting, per
    /// sweep.
    pub forked_runs: u64,
}

impl ModeSample {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        if self.forked {
            "forked"
        } else {
            "from_reset"
        }
    }

    /// Simulated instructions per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        advm::campaign::CampaignPerf {
            instructions: self.insns,
            wall: self.wall,
            ..advm::campaign::CampaignPerf::default()
        }
        .steps_per_sec()
    }
}

/// The sealed measurement.
#[derive(Debug, Clone)]
pub struct SnapshotForkReport {
    /// The from-reset sweep.
    pub from_reset: ModeSample,
    /// The prefix-forking sweep.
    pub forked: ModeSample,
}

impl SnapshotForkReport {
    /// Renders the committed-baseline JSON document. The per-sweep
    /// fork counters are the primary gate; steps/sec is recorded for
    /// the loose no-regression check only. A wall-clock speedup ratio
    /// is deliberately not recorded — on this workload it is within
    /// host noise and gating on it flaked.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"modes\":[");
        for (i, sample) in [&self.from_reset, &self.forked].into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"mode\":\"{}\",\"steps_per_sec\":{:.0},\
                 \"prefix_saved\":{},\"forked_runs\":{}}}",
                sample.name(),
                sample.steps_per_sec(),
                sample.prefix_saved,
                sample.forked_runs
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Measures both modes over `reps` audit sweeps each (after one warm-up
/// sweep per mode) and seals the report.
pub fn run(reps: usize) -> SnapshotForkReport {
    let measure = |forked: bool| {
        audit(forked); // warm-up
        let started = Instant::now();
        let mut insns = 0;
        let mut prefix_saved = 0;
        let mut forked_runs = 0;
        for _ in 0..reps.max(1) {
            let report = audit(forked);
            insns += report.perf().instructions;
            prefix_saved += report.perf().prefix_saved;
            forked_runs += report.perf().forked_runs;
        }
        ModeSample {
            forked,
            insns,
            wall: started.elapsed(),
            // Every sweep saves the same count (the sweep is
            // deterministic), so store the per-sweep number: it is
            // exact and independent of how many reps were measured.
            prefix_saved: prefix_saved / reps.max(1) as u64,
            forked_runs: forked_runs / reps.max(1) as u64,
        }
    };
    SnapshotForkReport {
        from_reset: measure(false),
        forked: measure(true),
    }
}

/// Pulls `"key":number` out of a flat JSON document — enough to read
/// the committed baseline without a JSON dependency.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The steps/sec a baseline document records for one mode.
pub fn baseline_steps_per_sec(json: &str, mode: &str) -> Option<f64> {
    baseline_number(json, mode, "steps_per_sec")
}

/// A numeric field from one mode's entry in a baseline document.
pub fn baseline_number(json: &str, mode: &str, key: &str) -> Option<f64> {
    let marker = format!("\"mode\":\"{mode}\"");
    let at = json.find(&marker)?;
    json_number(&json[at..], key)
}

/// Gates a fresh measurement against the committed baseline. The
/// primary gate is exact: the forked sweep's per-sweep `prefix_saved`
/// (and `forked_runs`) must equal the committed counts — the sweep is
/// deterministic, so these are machine-invariant and any drift means
/// the forking machinery changed behaviour. On top of that, the fork
/// path must be alive (at least one run forked) and the forked sweep's
/// steps/sec must be within `tolerance` (e.g. `0.8` = no more than 20%
/// slower) of the committed number as a loose no-regression wall check.
///
/// # Errors
///
/// A human-readable explanation of the first failed gate.
pub fn check_against(
    report: &SnapshotForkReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), String> {
    if report.forked.forked_runs == 0 || report.forked.prefix_saved == 0 {
        return Err(format!(
            "fork path is dead: {} forked runs, {} prefix insns saved \
             (every cell fell back to from-reset execution)",
            report.forked.forked_runs, report.forked.prefix_saved
        ));
    }
    let committed_saved = baseline_number(baseline_json, "forked", "prefix_saved")
        .ok_or("baseline JSON lacks a forked prefix_saved entry")?;
    if report.forked.prefix_saved as f64 != committed_saved {
        return Err(format!(
            "fork coverage drift: {} prefix insns saved per sweep vs committed {} \
             (this count is deterministic and machine-invariant; a change means \
             the prefix machinery itself changed)",
            report.forked.prefix_saved, committed_saved
        ));
    }
    let committed_forks = baseline_number(baseline_json, "forked", "forked_runs")
        .ok_or("baseline JSON lacks a forked forked_runs entry")?;
    if report.forked.forked_runs as f64 != committed_forks {
        return Err(format!(
            "fork coverage drift: {} forked runs per sweep vs committed {}",
            report.forked.forked_runs, committed_forks
        ));
    }
    let measured = report.forked.steps_per_sec();
    let committed = baseline_steps_per_sec(baseline_json, "forked")
        .ok_or("baseline JSON lacks a forked steps_per_sec entry")?;
    if measured < committed * tolerance {
        return Err(format!(
            "forked-audit regression: {measured:.0} steps/s vs committed {committed:.0} \
             (allowed floor {:.0})",
            committed * tolerance
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_simulate_the_same_workload() {
        let report = run(1);
        assert_eq!(
            report.from_reset.insns, report.forked.insns,
            "forked runs count their skipped prefix"
        );
        assert_eq!(report.from_reset.forked_runs, 0);
        assert!(report.forked.forked_runs > 0);
        assert!(report.forked.prefix_saved > 0);
    }

    #[test]
    fn json_roundtrips_through_the_baseline_reader() {
        let report = run(1);
        let json = report.to_json();
        let read = baseline_steps_per_sec(&json, "forked").unwrap();
        let actual = report.forked.steps_per_sec();
        assert!((read - actual).abs() <= 1.0, "{read} vs {actual}");
        let saved = baseline_number(&json, "forked", "prefix_saved").unwrap();
        assert_eq!(saved, report.forked.prefix_saved as f64);
        let forks = baseline_number(&json, "forked", "forked_runs").unwrap();
        assert_eq!(forks, report.forked.forked_runs as f64);
    }

    #[test]
    fn check_gates_on_drift_regression_and_dead_fork_path() {
        let report = run(1);
        // Own JSON always passes: the counts match exactly and the
        // wall check compares the measurement with itself.
        check_against(&report, &report.to_json(), 0.8).unwrap();

        let err = check_against(
            &report,
            &format!(
                "{{\"modes\":[{{\"mode\":\"forked\",\"steps_per_sec\":1,\
                 \"prefix_saved\":{},\"forked_runs\":{}}}]}}",
                report.forked.prefix_saved + 1,
                report.forked.forked_runs
            ),
            0.8,
        )
        .unwrap_err();
        assert!(err.contains("fork coverage drift"), "{err}");

        let fast = format!(
            "{{\"modes\":[{{\"mode\":\"forked\",\"steps_per_sec\":{:.0},\
             \"prefix_saved\":{},\"forked_runs\":{}}}]}}",
            report.forked.steps_per_sec() * 100.0,
            report.forked.prefix_saved,
            report.forked.forked_runs
        );
        let err = check_against(&report, &fast, 0.8).unwrap_err();
        assert!(err.contains("forked-audit regression"), "{err}");
        assert!(check_against(&report, "{}", 0.8).is_err(), "missing key");

        let mut dead = report.clone();
        dead.forked.forked_runs = 0;
        let err = check_against(&dead, &report.to_json(), 0.8).unwrap_err();
        assert!(err.contains("fork path is dead"), "{err}");
    }
}
