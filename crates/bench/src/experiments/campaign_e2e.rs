//! End-to-end campaign throughput: scenario runs per second through the
//! whole orchestration stack — planning, assembly front-end, linking,
//! machine setup, execution and report sealing.
//!
//! The workload is a fuzz-style verification session, the shape
//! `advm-serve` sees under fresh traffic: 16 unique single-cell
//! environments (every program distinct, so nothing is warm) swept
//! across all six platforms, then re-swept under three fault-insertion
//! campaigns. *Cold* gives every campaign its own empty artifact store
//! (fresh traffic: everything assembles, links and boots from scratch);
//! *warm* runs the same session against one pre-populated shared store,
//! so only machine setup and execution repeat.
//!
//! CI gates the cold number against the committed
//! `BENCH_campaign_e2e.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use advm::campaign::CampaignReport;
use advm::env::{EnvConfig, ModuleTestEnv, TestCell};
use advm::{ArtifactStore, Campaign};
use advm_sim::PlatformFault;
use advm_soc::{DerivativeId, PlatformId};

/// Environments in the fuzz-style workload (one unique cell each).
const CELLS: usize = 16;

/// The session's fault-insertion sweeps: after the nominal campaign,
/// one campaign per entry re-runs the matrix with the fault armed on
/// one platform (the workload's cells never touch the faulted blocks,
/// so verdicts stay deterministic and the delta is pure orchestration).
const FAULT_SWEEPS: [(PlatformId, PlatformFault); 3] = [
    (PlatformId::RtlSim, PlatformFault::PageActiveOffByOne),
    (PlatformId::GateSim, PlatformFault::UartDropsBytes),
    (PlatformId::ProductSilicon, PlatformFault::TimerNeverExpires),
];

/// Builds the deterministic fuzz-style workload: every cell is a unique
/// program (distinct constants and loop trip counts), so a cold session
/// assembles every image like a `fuzz`/`explore` batch would.
pub fn workload() -> Vec<ModuleTestEnv> {
    (0..CELLS)
        .map(|i| {
            let a = 0x1111 + 37 * i as u32;
            let iters = 48 + (i as u32 % 16);
            let source = format!(
                "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #{a}
    MOVI d2, #{iters}
    MOVI d3, #0
e2e_loop_{i}:
    ADD d3, d3, d1
    XOR d3, d3, d2
    SUB d2, d2, #1
    CMP d2, #0
    JNE e2e_loop_{i}
    CALL Base_Report_Pass
    RETURN
"
            );
            ModuleTestEnv::new(
                format!("E2E_{i:03}"),
                EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
                vec![TestCell::new(
                    format!("TEST_E2E_{i:03}"),
                    "unique fuzz-style cell",
                    source,
                )],
            )
        })
        .collect()
}

/// One measured session configuration.
#[derive(Debug, Clone)]
pub struct SessionSample {
    /// Stable machine-readable name.
    pub mode: &'static str,
    /// Scenario runs in the measured session.
    pub runs: u64,
    /// Wall time of the fastest repetition.
    pub wall: Duration,
    /// Summed campaign build-phase wall (planning + assembly + link).
    pub build: Duration,
    /// Summed campaign execution-phase wall.
    pub exec: Duration,
    /// Summed campaign report-sealing wall.
    pub report: Duration,
}

impl SessionSample {
    /// Scenario runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.runs as f64 / secs
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"runs_per_sec\":{:.0},\"runs\":{},\
             \"build_ms\":{:.1},\"exec_ms\":{:.1},\"report_ms\":{:.2}}}",
            self.mode,
            self.runs_per_sec(),
            self.runs,
            self.build.as_secs_f64() * 1e3,
            self.exec.as_secs_f64() * 1e3,
            self.report.as_secs_f64() * 1e3,
        )
    }
}

/// The sealed measurement.
#[derive(Debug, Clone)]
pub struct CampaignE2eReport {
    /// Cold session: every campaign on its own empty store.
    pub cold: SessionSample,
    /// Warm re-run of the session over the populated store.
    pub warm: SessionSample,
    /// Cold runs/sec of the pre-optimisation baseline this was measured
    /// against (same workload on the parent commit; 0 when unknown).
    pub baseline_cold: f64,
}

impl CampaignE2eReport {
    /// Cold speedup against the recorded pre-optimisation baseline.
    pub fn speedup_vs_baseline(&self) -> f64 {
        if self.baseline_cold <= 0.0 {
            0.0
        } else {
            self.cold.runs_per_sec() / self.baseline_cold
        }
    }

    /// Renders the committed-baseline JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"samples\":[{},{}],\
             \"baseline_cold_runs_per_sec\":{:.0},\
             \"speedup_vs_baseline\":{:.2}}}",
            self.cold.to_json(),
            self.warm.to_json(),
            self.baseline_cold,
            self.speedup_vs_baseline(),
        )
    }
}

/// Runs the session's four campaigns (nominal + fault sweeps) and
/// returns the accumulated (runs, build, exec, report). With a shared
/// store the session is warm after the first population; without one
/// every campaign is fully cold on its own empty store.
fn session(
    envs: &[ModuleTestEnv],
    shared: Option<&Arc<ArtifactStore>>,
) -> (u64, Duration, Duration, Duration) {
    let mut runs = 0u64;
    let mut build = Duration::ZERO;
    let mut exec = Duration::ZERO;
    let mut sealing = Duration::ZERO;
    let sweeps = std::iter::once(None).chain(FAULT_SWEEPS.into_iter().map(Some));
    for fault in sweeps {
        let store = shared
            .map(Arc::clone)
            .unwrap_or_else(|| Arc::new(ArtifactStore::new(256)));
        let mut campaign = Campaign::new()
            .envs(envs.iter().cloned())
            .artifact_store(store);
        if let Some((platform, fault)) = fault {
            campaign = campaign.fault(platform, fault);
        }
        let report: CampaignReport = campaign.run().expect("benchmark campaign runs");
        runs += report.total() as u64;
        build += report.perf().build_wall;
        exec += report.perf().exec_wall;
        sealing += report.perf().report_wall;
    }
    (runs, build, exec, sealing)
}

/// Measures the cold and warm sessions `reps` times each (after a
/// warm-up session) and seals the report. Each sample keeps its
/// *fastest* session — best-of-N is robust against scheduler noise on
/// shared machines, which dwarfs the run-to-run variance of this
/// deterministic workload. `baseline_cold` is the cold runs/sec recorded
/// for the pre-optimisation baseline (pass 0.0 when not re-measuring
/// against a parent commit).
pub fn run(reps: usize, baseline_cold: f64) -> CampaignE2eReport {
    let envs = workload();
    // Warm up allocator, caches and code paths once.
    session(&envs, None);

    // (mode, warm) — measured round-robin, one session per mode per
    // repetition, so a slow scheduling episode degrades both modes of
    // that round equally instead of biasing whichever mode it happened
    // to land on.
    let modes: [(&'static str, bool); 2] = [("cold", false), ("warm", true)];
    let mut best: [Option<SessionSample>; 2] = [None, None];
    for _ in 0..reps.max(1) {
        for (slot, &(mode, warm)) in modes.iter().enumerate() {
            let store = Arc::new(ArtifactStore::new(256));
            let shared = warm.then_some(&store);
            if warm {
                // Populate the store; the measured pass below is warm.
                session(&envs, shared);
            }
            let started = Instant::now();
            let (runs, build, exec, sealing) = session(&envs, shared);
            let wall = started.elapsed();
            if best[slot].as_ref().is_none_or(|b| wall < b.wall) {
                best[slot] = Some(SessionSample {
                    mode,
                    runs,
                    wall,
                    build,
                    exec,
                    report: sealing,
                });
            }
        }
    }
    let [cold, warm] = best.map(|b| b.expect("at least one session measured"));

    CampaignE2eReport {
        cold,
        warm,
        baseline_cold,
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

/// The runs/sec a baseline document records for one mode.
pub(crate) fn baseline_runs_per_sec(json: &str, mode: &str) -> Option<f64> {
    let marker = format!("\"mode\":\"{mode}\"");
    let at = json.find(&marker)?;
    json_number(&json[at..], "runs_per_sec")
}

/// Gates a fresh measurement against the committed baseline: the cold
/// session must be within `tolerance` of the committed `cold` runs/sec.
///
/// # Errors
///
/// A human-readable explanation of the first failed gate.
pub fn check_against(
    report: &CampaignE2eReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), String> {
    let measured = report.cold.runs_per_sec();
    let committed = baseline_runs_per_sec(baseline_json, "cold")
        .ok_or("baseline JSON lacks a cold runs_per_sec entry")?;
    if measured < committed * tolerance {
        return Err(format!(
            "cold-campaign regression: {measured:.0} runs/s vs committed {committed:.0} \
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
    fn all_modes_run_the_same_workload() {
        let report = run(1, 0.0);
        let per_session = (CELLS * PlatformId::ALL.len() * (1 + FAULT_SWEEPS.len())) as u64;
        assert_eq!(report.cold.runs, per_session);
        assert_eq!(report.warm.runs, per_session);
        assert!(report.speedup_vs_baseline() == 0.0, "no baseline recorded");
    }

    #[test]
    fn json_roundtrips_through_the_baseline_reader() {
        let report = run(1, 1000.0);
        let json = report.to_json();
        let read = baseline_runs_per_sec(&json, "cold").unwrap();
        let actual = report.cold.runs_per_sec();
        assert!((read - actual).abs() <= 1.0, "{read} vs {actual}");
        for key in [
            "baseline_cold_runs_per_sec",
            "speedup_vs_baseline",
            "build_ms",
            "exec_ms",
            "report_ms",
        ] {
            assert!(json_number(&json, key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn check_gates_on_regression() {
        let report = run(1, 0.0);
        assert!(check_against(&report, &report.to_json(), 0.5).is_ok());
        let fast = format!(
            "{{\"samples\":[{{\"mode\":\"cold\",\"runs_per_sec\":{:.0}}}]}}",
            report.cold.runs_per_sec() * 100.0
        );
        assert!(check_against(&report, &fast, 0.5).is_err());
        assert!(check_against(&report, "{}", 0.5).is_err(), "missing key");

        let mut slow = report.clone();
        slow.cold.wall = Duration::from_secs(3600);
        let err = check_against(&slow, &report.to_json(), 0.5).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }
}
