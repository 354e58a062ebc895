//! Program fuzzing with assertion mining — the `advm-fuzz` crate wired
//! into the campaign pipeline.
//!
//! The seed suite's cells are hand-written; [`Fuzz`] instead drives the
//! differential matrix with *generated* guest programs
//! ([`advm_fuzz::ProgramSource`]) and closes the observability gap the
//! differential verdict leaves open:
//!
//! 1. **Generate** `programs` constrained-random, guaranteed-terminating
//!    guest programs (deterministic per seed, independent of worker
//!    count) and reject the batch if any instruction fails the
//!    encode→decode round-trip.
//! 2. **Plan and build** the programs as one verify [`Campaign`] across
//!    the target platforms: one job per program × platform, each image
//!    assembled once (deduplicated by the build cache) on the worker
//!    pool. The verify campaign is a clone of the campaign in which
//!    [`Fuzz`] holds its platforms, workers, fuel, fault, store and
//!    observer factory.
//! 3. **Mine** (optional), then **verify**: the mining pass runs every
//!    planned job fault-free from reset on the worker pool with the MMIO
//!    monitor armed, loading the built image the verify run loads, and
//!    mines [`TraceAssertion`] checkers — readback invariants and
//!    bounded temporal windows — from the traces. The campaign then
//!    executes with those checkers armed. Because the checking runs
//!    replay the mining runs exactly (same images, the same
//!    [`DEFAULT_MONITOR_CAPACITY`](crate::campaign::DEFAULT_MONITOR_CAPACITY),
//!    from reset), a fault-free matrix reports zero spurious violations
//!    *by construction*.
//!
//! Mined checkers then feed [`FaultAudit`](crate::audit::FaultAudit)
//! via [`FaultAudit::checkers`](crate::audit::FaultAudit::checkers) to
//! grade what they kill that the differential verdict misses — see the
//! tests in this module.

use std::fmt;
use std::sync::Arc;

use advm_fuzz::{FuzzProgram, ProgramSource, TraceAssertion};
use advm_soc::PlatformId;

use crate::artifacts::ArtifactStore;
use crate::campaign::{Campaign, CampaignError, CampaignReport, CheckerViolation, ObserverFactory};
use crate::env::{EnvConfig, ModuleTestEnv, TestCell};
use crate::wire::json_string;

/// Default number of generated programs per fuzz run.
pub const DEFAULT_FUZZ_PROGRAMS: usize = 64;

/// Default master seed of the program source.
pub const DEFAULT_FUZZ_SEED: u64 = 0xF5EED;

/// Base address used for the stand-alone encode→decode round-trip check
/// (the linked image relocates the cell; any word-aligned base within
/// the 20-bit space validates the encoder).
const ENCODE_CHECK_BASE: u32 = 0x0_0400;

/// A structured fuzz-run failure.
#[derive(Debug)]
pub enum FuzzError {
    /// The run was asked for zero programs.
    NoPrograms,
    /// The run has no target platforms.
    NoPlatforms,
    /// A generated instruction failed the encode→decode round-trip —
    /// a generator or encoder bug, never an execution failure.
    Encoding {
        /// The offending program's name.
        program: String,
        /// What failed to round-trip.
        detail: String,
    },
    /// The verify campaign failed, including a generated program that
    /// failed to assemble or link.
    Campaign(CampaignError),
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::NoPrograms => f.write_str("fuzz run has no programs"),
            FuzzError::NoPlatforms => f.write_str("fuzz run has no target platforms"),
            FuzzError::Encoding { program, detail } => {
                write!(f, "encode round-trip failed in {program}: {detail}")
            }
            FuzzError::Campaign(e) => write!(f, "fuzz campaign failed: {e}"),
        }
    }
}

impl std::error::Error for FuzzError {}

impl From<CampaignError> for FuzzError {
    fn from(e: CampaignError) -> Self {
        FuzzError::Campaign(e)
    }
}

/// Materialises one generated program as a module test environment: one
/// synthetic env named after the program, holding a single cell whose
/// source is the program's rendered assembly.
pub fn program_env(program: &FuzzProgram) -> ModuleTestEnv {
    ModuleTestEnv::new(
        program.name(),
        EnvConfig::new(advm_soc::DerivativeId::Sc88A, PlatformId::GoldenModel),
        vec![TestCell::new(
            format!("TEST_{}", program.name()),
            "constrained-random fuzz program",
            program.asm(),
        )],
    )
}

/// The sealed result of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    programs: usize,
    seed: u64,
    mined: Vec<TraceAssertion>,
    campaign: CampaignReport,
}

impl FuzzReport {
    /// Number of generated programs.
    pub fn programs(&self) -> usize {
        self.programs
    }

    /// The program source's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The mined checkers armed on the verify campaign (empty when
    /// mining was off).
    pub fn mined(&self) -> &[TraceAssertion] {
        &self.mined
    }

    /// The verify campaign's sealed report.
    pub fn campaign(&self) -> &CampaignReport {
        &self.campaign
    }

    /// Mined-checker violations observed by the verify campaign.
    pub fn violations(&self) -> &[CheckerViolation] {
        self.campaign.checker_violations()
    }

    /// Whether the run is clean: every run passed, platforms agree, and
    /// no mined checker was violated.
    pub fn ok(&self) -> bool {
        self.campaign.failed() == 0
            && self.campaign.divergences().is_empty()
            && self.violations().is_empty()
    }

    /// Renders the report as a JSON document wrapping the campaign's.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"programs\":{},\"seed\":{},\"mined\":[",
            self.programs, self.seed
        ));
        for (i, checker) in self.mined.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_string(&checker.name()));
        }
        s.push_str(&format!("],\"campaign\":{}}}", self.campaign.to_json()));
        s
    }
}

/// Builder for a fuzz run: generate → (optionally) mine → verify.
///
/// Defaults: [`DEFAULT_FUZZ_PROGRAMS`] programs from
/// [`DEFAULT_FUZZ_SEED`], all six platforms, machine-derived worker
/// count, mining off.
///
/// The run knobs (platforms, workers, fuel, fault, store, observer
/// factory) live in the [`Campaign`] the verify campaign is cloned from.
#[derive(Clone, Debug)]
pub struct Fuzz {
    campaign: Campaign,
    programs: usize,
    seed: u64,
    mine: bool,
}

impl Default for Fuzz {
    fn default() -> Self {
        Self::new()
    }
}

impl Fuzz {
    /// A fuzz run with the documented defaults.
    pub fn new() -> Self {
        Self {
            campaign: Campaign::new(),
            programs: DEFAULT_FUZZ_PROGRAMS,
            seed: DEFAULT_FUZZ_SEED,
            mine: false,
        }
    }

    /// Sets the number of generated programs; [`Fuzz::run`] rejects
    /// `0` with [`FuzzError::NoPrograms`].
    pub fn programs(mut self, programs: usize) -> Self {
        self.programs = programs;
        self
    }

    /// Sets the program source's master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables assertion mining (default: off). When on, a
    /// mining pass between the verify campaign's build and execution
    /// runs every planned job (program × platform) fault-free from reset
    /// with the MMIO monitor armed, on the campaign's images and worker
    /// pool; checkers are mined from the traces and the verify campaign
    /// arms them. Its wall time is reported as
    /// [`CampaignPerf::mine_wall`](crate::campaign::CampaignPerf::mine_wall).
    pub fn mine(mut self, enabled: bool) -> Self {
        self.mine = enabled;
        self
    }

    /// Replaces the target platforms (default: all six).
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformId>) -> Self {
        self.campaign = self.campaign.platforms(platforms);
        self
    }

    /// Sets the worker count (minimum 1) of the verify campaign's
    /// build, mining and execution pools.
    pub fn workers(mut self, workers: usize) -> Self {
        self.campaign = self.campaign.workers(workers);
        self
    }

    /// Sets the per-run instruction budget.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.campaign = self.campaign.fuel(fuel);
        self
    }

    /// Injects a hardware fault into one platform of the verify
    /// campaign (mining always runs fault-free). With mining on, a
    /// differentially invisible fault surfaces as checker violations in
    /// the report instead of passing silently.
    pub fn fault(mut self, platform: PlatformId, fault: advm_sim::PlatformFault) -> Self {
        self.campaign = self.campaign.fault(platform, fault);
        self
    }

    /// Attaches a shared artifact store: the verify campaign's builds
    /// land in (and reuse) `store` — the daemon passes its cross-job
    /// store here. Mining loads the same builds, so a warm job skips
    /// assembly for mining and checking alike.
    pub fn artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.campaign = self.campaign.artifact_store(store);
        self
    }

    /// Attaches an observer factory: the verify campaign gets one fresh
    /// observer built by `factory`, so its
    /// [`CampaignEvent`](crate::campaign::CampaignEvent)s stream out
    /// live (the daemon's per-job NDJSON feed).
    pub fn observe_with(mut self, factory: ObserverFactory) -> Self {
        self.campaign = self.campaign.observe_with(factory);
        self
    }

    /// Generates the program batch and validates every instruction's
    /// encode→decode round-trip.
    fn generate(&self) -> Result<Vec<FuzzProgram>, FuzzError> {
        if self.programs == 0 {
            return Err(FuzzError::NoPrograms);
        }
        if self.campaign.platforms.is_empty() {
            return Err(FuzzError::NoPlatforms);
        }
        let source = ProgramSource::new(self.seed);
        let programs = source.generate(self.programs);
        for program in &programs {
            program
                .check_encoding(ENCODE_CHECK_BASE)
                .map_err(|detail| FuzzError::Encoding {
                    program: program.name().to_owned(),
                    detail,
                })?;
        }
        Ok(programs)
    }

    /// Generates, plans and builds, mines (when enabled) and verifies.
    ///
    /// # Errors
    ///
    /// [`FuzzError::NoPrograms`] / [`FuzzError::NoPlatforms`] for an
    /// unrunnable plan, [`FuzzError::Encoding`] when a generated
    /// instruction fails its round-trip, [`FuzzError::Campaign`] for
    /// build and campaign failures.
    pub fn run(&self) -> Result<FuzzReport, FuzzError> {
        let programs = self.generate()?;
        let mut campaign = self.campaign.clone();
        for program in &programs {
            campaign = campaign.env_with_meta(program_env(program), program.scenario_meta());
        }
        let mut built = campaign.plan()?.build()?;
        let mined = if self.mine { built.mine() } else { Vec::new() };
        built.arm(&mined);
        Ok(FuzzReport {
            programs: programs.len(),
            seed: self.seed,
            mined,
            campaign: built.execute().seal(),
        })
    }
}

#[cfg(test)]
mod tests {
    use advm_sim::PlatformFault;

    use crate::audit::{CellOutcome, FaultAudit};

    use super::*;

    #[test]
    fn fuzz_run_is_clean_and_carries_provenance() {
        let report = Fuzz::new()
            .programs(4)
            .seed(7)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.programs(), 4);
        assert_eq!(report.campaign().total(), 8);
        assert_eq!(
            report.campaign().failed(),
            0,
            "{}",
            report.campaign().matrix()
        );
        assert!(report.campaign().divergences().is_empty());
        assert!(report.ok());
        // Runs carry program-fuzz provenance end to end.
        assert_eq!(report.campaign().scenarios().len(), 4);
        for meta in report.campaign().scenarios() {
            assert_eq!(meta.kind.name(), "program-fuzz");
            assert!(meta.name.starts_with("FUZZ_"), "{meta:?}");
        }
        // No mining requested: the campaign JSON keeps its plain layout.
        assert!(report.mined().is_empty());
        let json = report.to_json();
        assert!(
            json.starts_with("{\"programs\":4,\"seed\":7,\"mined\":[]"),
            "{json}"
        );
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn mining_is_spurious_free_on_the_fault_free_matrix() {
        let report = Fuzz::new()
            .programs(6)
            .seed(11)
            .mine(true)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2)
            .run()
            .unwrap();
        assert!(
            !report.mined().is_empty(),
            "six programs over two platforms must mine at least one checker"
        );
        // The checking runs replay the mining runs exactly, so a clean
        // matrix cannot violate what was mined from it.
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert!(report.ok());
        let json = report.to_json();
        assert!(json.contains("\"mined\":[\""), "{json}");
        let armed = format!("\"checkers\":{{\"armed\":{},", report.mined().len());
        assert!(json.contains(&armed), "{json}");
    }

    #[test]
    fn mined_checkers_surface_the_ignored_map_write() {
        // The page fault is differentially invisible to fuzz programs
        // (MAP readbacks land in sink registers), so the verify campaign
        // still passes — but the mined readback checker reports it.
        let report = Fuzz::new()
            .programs(4)
            .seed(11)
            .mine(true)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2)
            .fault(PlatformId::RtlSim, PlatformFault::PageMapWriteIgnored)
            .run()
            .unwrap();
        assert_eq!(report.campaign().failed(), 0);
        assert!(report.campaign().divergences().is_empty());
        assert!(
            !report.violations().is_empty(),
            "checker must see the fault"
        );
        assert!(!report.ok());
        for v in report.violations() {
            assert_eq!(v.platform, PlatformId::RtlSim, "{v:?}");
        }
    }

    #[test]
    fn mined_checkers_outgrade_the_seed_suite_on_the_fault_audit() {
        // The acceptance claim: graded through the FaultAudit kill-rate
        // machinery, mined checkers kill a catalogued fault the fuzz
        // suite alone misses — and in strictly fewer rounds than the
        // seed suite, which needs the round-2 escape loop for this fault
        // (see audit::tests::escape_round_kills_the_map_write_fault).
        let fuzz = Fuzz::new()
            .programs(4)
            .seed(11)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2);
        let envs: Vec<ModuleTestEnv> = fuzz.generate().unwrap().iter().map(program_env).collect();
        let mined = fuzz.mine(true).run().unwrap().mined().to_vec();
        assert!(!mined.is_empty());

        let audit = FaultAudit::new()
            .suite(envs)
            .faults([PlatformFault::PageMapWriteIgnored])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2);

        // Blind, the fuzz suite masks the fault (sink readbacks).
        let blind = audit.clone().run().unwrap();
        assert_eq!(blind.escapes().len(), 1);

        // Armed with its own mined checkers, it kills it in round 1.
        let armed = audit.checkers(mined).run().unwrap();
        let cell = armed
            .cell(PlatformFault::PageMapWriteIgnored, PlatformId::RtlSim)
            .unwrap();
        match &cell.outcome {
            CellOutcome::Detected { round, killed_by } => {
                assert_eq!(*round, 1);
                assert!(
                    killed_by.iter().any(|t| t.contains("checker:")),
                    "{killed_by:?}"
                );
            }
            other => panic!("expected round-1 checker detection, got {other:?}"),
        }
        assert!(armed.killed(PlatformFault::PageMapWriteIgnored));
    }

    #[test]
    fn tiny_monitor_capacity_never_yields_spurious_violations() {
        // At capacity 2 the ring truncates; mining anchors only on
        // retained writes and checking replays the same truncation, so
        // the programs stay violation-free end to end.
        let fuzz = Fuzz::new()
            .programs(3)
            .seed(11)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2);
        let mut campaign = fuzz.campaign.clone();
        for program in &fuzz.generate().unwrap() {
            campaign = campaign.env_with_meta(program_env(program), program.scenario_meta());
        }
        let built = campaign.plan().unwrap().build().unwrap();
        let mut miner = advm_fuzz::Miner::new();
        let mut truncated = 0;
        for (_, platform) in built.run_at_capacity(2) {
            let trace = platform.mmio_trace().expect("the monitor is armed");
            truncated += usize::from(trace.dropped() > 0);
            miner.observe(trace);
        }
        assert!(truncated > 0, "capacity 2 must truncate some run");
        let mined = miner.finish();
        for (result, platform) in built.run_at_capacity(2) {
            assert!(result.passed(), "{result:?}");
            let trace = platform.mmio_trace().expect("the monitor is armed");
            for checker in &mined {
                let violations = checker.check(trace);
                assert!(violations.is_empty(), "{}: {violations:?}", checker.name());
            }
        }
    }

    #[test]
    fn empty_plans_are_rejected() {
        assert!(matches!(
            Fuzz::new().programs(0).run(),
            Err(FuzzError::NoPrograms)
        ));
        assert!(matches!(
            Fuzz::new().platforms([]).run(),
            Err(FuzzError::NoPlatforms)
        ));
    }
}
