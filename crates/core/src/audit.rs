//! Suite-strength auditing — mutation-testing the testbench itself.
//!
//! ADVM's central claim (§1 of the paper) is that running one assembler
//! suite across all simulation domains *detects* platform bugs as
//! cross-platform divergences. Nothing else in this repo measures whether
//! the suite actually would — a suite can be green everywhere and still
//! be blind. [`FaultAudit`] answers the question the way module-level
//! mutation testing does: inject every fault of the
//! [`PlatformFault`] catalog into each audited platform, run the suite
//! as a [`Campaign`] against the golden reference, and classify every
//! `(fault, platform)` cell:
//!
//! * **detected** — a divergence surfaced and blamed the faulted
//!   platform: the suite kills this bug;
//! * **masked** — the suite passed despite the bug: an *escape*;
//! * **broken** — failures occurred but the divergence analysis did not
//!   attribute them to the faulted platform (a suite or harness
//!   problem, not a verdict about the fault).
//!
//! Escapes then close the loop with the scenario engine: the escaped
//! faults' modules become [`CoverageFeedback`] weak modules, a
//! [`CoverageDirected`] source generates scenarios aimed at them (whose
//! environments carry fault-hunter stimulus cells), and the surviving
//! cells are re-audited against the generated suite. The
//! sealed [`FaultAuditReport`] carries the detection matrix, per-test
//! kill counts, the escape list and a JSON rendering; `advm-cli audit`
//! is a thin veneer over it.
//!
//! The reference runs each stimulus set once, as one campaign on
//! [`FaultAudit::workers`] threads. The cells then share a pool of as
//! many threads: each thread claims the next cell in fault-major order,
//! runs that cell's campaign on its own (or, when a round has fewer
//! cells than workers, on an even share of them), and classifies it
//! against the baseline at once. Observers see each internal campaign's
//! events in one unbroken run, in sweep order, at any thread count.
//! Every campaign of a run shares one [`ArtifactStore`] (the attached
//! one, else a fresh default store), so each (test, platform) image is
//! built, and its fault-free prefix run, once for the whole matrix.
//!
//! ```no_run
//! use advm::audit::FaultAudit;
//! use advm_soc::PlatformId;
//!
//! # fn main() -> Result<(), advm::audit::AuditError> {
//! let report = FaultAudit::new()
//!     .platforms([PlatformId::RtlSim])
//!     .scenarios(8)
//!     .run()?;
//! println!("{}", report.matrix());
//! println!("kill rate: {:.0}%", 100.0 * report.kill_rate());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use advm_gen::{
    ConstraintError, CoverageDirected, CoverageFeedback, GlobalsConstraints, Scenario,
    ScenarioEngine,
};
use advm_metrics::Table;
use advm_sim::{compare, PlatformFault};
use advm_soc::{DerivativeId, PlatformId};
use parking_lot::Mutex;

use advm_fuzz::TraceAssertion;

use crate::artifacts::ArtifactStore;
use crate::campaign::{
    default_workers, json_string, on_workers, Campaign, CampaignError, CampaignObserver,
    CampaignPerf, CampaignReport, EventLog, InOrder, ObserverFactory,
};
use crate::env::ModuleTestEnv;
use crate::presets;

/// The platform every audit compares against, and never faults.
const REFERENCE: PlatformId = PlatformId::GoldenModel;

/// A structured audit failure.
#[derive(Debug)]
pub enum AuditError {
    /// The audit has no faults to inject.
    NoFaults,
    /// The audit has no platforms to inject them into (the reference
    /// platform is excluded automatically).
    NoPlatforms,
    /// A campaign failed to build.
    Campaign(CampaignError),
    /// Escape-driven scenario planning hit an unsatisfiable constraint.
    Constraint(ConstraintError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::NoFaults => f.write_str("audit has no faults to inject"),
            AuditError::NoPlatforms => f.write_str("audit has no platforms to fault"),
            AuditError::Campaign(e) => write!(f, "audit campaign failed: {e}"),
            AuditError::Constraint(e) => write!(f, "escape scenario planning failed: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<CampaignError> for AuditError {
    fn from(e: CampaignError) -> Self {
        AuditError::Campaign(e)
    }
}

impl From<ConstraintError> for AuditError {
    fn from(e: ConstraintError) -> Self {
        AuditError::Constraint(e)
    }
}

/// The classification of one `(fault, platform)` matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// A divergence blamed the faulted platform.
    Detected {
        /// Audit round that killed it: 1 = seed suite, 2 = escape-driven
        /// scenario round.
        round: usize,
        /// `env/test` labels of the tests whose divergence killed it.
        killed_by: Vec<String>,
    },
    /// The suite passed despite the bug — an escape.
    Masked,
    /// Failures occurred but divergence analysis did not attribute them
    /// to the faulted platform.
    Broken {
        /// What went wrong.
        reason: String,
    },
}

impl CellOutcome {
    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Detected { .. } => "detected",
            CellOutcome::Masked => "masked",
            CellOutcome::Broken { .. } => "broken",
        }
    }
}

/// One sealed matrix cell.
#[derive(Debug, Clone)]
pub struct AuditCell {
    /// The injected fault.
    pub fault: PlatformFault,
    /// The platform carrying it.
    pub platform: PlatformId,
    /// The classification.
    pub outcome: CellOutcome,
}

/// The sealed result of a fault-matrix sweep.
#[derive(Debug, Clone)]
pub struct FaultAuditReport {
    platforms: Vec<PlatformId>,
    faults: Vec<PlatformFault>,
    cells: Vec<AuditCell>,
    suite_tests: usize,
    scenarios_generated: usize,
    kill_counts: Vec<(String, usize)>,
    perf: CampaignPerf,
}

impl FaultAuditReport {
    /// The reference platform every campaign compared against: the
    /// golden model.
    pub fn reference(&self) -> PlatformId {
        REFERENCE
    }

    /// The audited (faulted) platforms, in matrix column order.
    pub fn platforms(&self) -> &[PlatformId] {
        &self.platforms
    }

    /// The injected faults, in matrix row order.
    pub fn faults(&self) -> &[PlatformFault] {
        &self.faults
    }

    /// Every matrix cell, fault-major.
    pub fn cells(&self) -> &[AuditCell] {
        &self.cells
    }

    /// Number of test cells in the seed suite.
    pub fn suite_tests(&self) -> usize {
        self.suite_tests
    }

    /// Scenarios generated by the escape-driven round (0 when no escape
    /// round ran).
    pub fn scenarios_generated(&self) -> usize {
        self.scenarios_generated
    }

    /// Execution-performance telemetry aggregated over every campaign
    /// the sweep ran (reference baselines and faulted cells alike). Its
    /// `wall` is the audit's elapsed time; the build, execute and report
    /// walls sum the campaigns' own, which overlap (see
    /// [`CampaignPerf::absorb`]).
    pub fn perf(&self) -> &CampaignPerf {
        &self.perf
    }

    /// Looks up one cell.
    pub fn cell(&self, fault: PlatformFault, platform: PlatformId) -> Option<&AuditCell> {
        self.cells
            .iter()
            .find(|c| c.fault == fault && c.platform == platform)
    }

    /// Cells classified as detected.
    pub fn detected(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Detected { .. }))
            .count()
    }

    /// Cells classified as broken.
    pub fn broken(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Broken { .. }))
            .count()
    }

    /// The surviving escapes: cells the suite (plus any escape round)
    /// still masks.
    pub fn escapes(&self) -> Vec<&AuditCell> {
        self.cells
            .iter()
            .filter(|c| c.outcome == CellOutcome::Masked)
            .collect()
    }

    /// Whether a fault is killed: detected on *every* platform it was
    /// injected into.
    pub fn killed(&self, fault: PlatformFault) -> bool {
        let mut any = false;
        for cell in self.cells.iter().filter(|c| c.fault == fault) {
            any = true;
            if !matches!(cell.outcome, CellOutcome::Detected { .. }) {
                return false;
            }
        }
        any
    }

    /// Fraction of catalog faults killed on every audited platform.
    pub fn kill_rate(&self) -> f64 {
        if self.faults.is_empty() {
            return 1.0;
        }
        let killed = self.faults.iter().filter(|&&f| self.killed(f)).count();
        killed as f64 / self.faults.len() as f64
    }

    /// Per-test kill counts, strongest killer first: how many matrix
    /// cells each `env/test` contributed to detecting.
    pub fn kill_counts(&self) -> &[(String, usize)] {
        &self.kill_counts
    }

    /// Renders the faults × platforms detection matrix.
    pub fn matrix(&self) -> Table {
        let mut headers: Vec<String> = vec!["fault".to_owned(), "module".to_owned()];
        headers.extend(self.platforms.iter().map(ToString::to_string));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new("Fault detection matrix", &header_refs);
        for &fault in &self.faults {
            let mut row = vec![fault.to_string(), fault.module().unwrap_or("-").to_owned()];
            for &p in &self.platforms {
                row.push(match self.cell(fault, p).map(|c| &c.outcome) {
                    Some(CellOutcome::Detected { round, .. }) => format!("KILL@{round}"),
                    Some(CellOutcome::Masked) => "ESCAPE".to_owned(),
                    Some(CellOutcome::Broken { .. }) => "BROKEN".to_owned(),
                    None => "-".to_owned(),
                });
            }
            table.row(&row);
        }
        table
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"reference\":\"{}\",\"suite_tests\":{},\"scenarios\":{},",
            REFERENCE.name(),
            self.suite_tests,
            self.scenarios_generated
        ));
        s.push_str("\"platforms\":[");
        for (i, p) in self.platforms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", p.name()));
        }
        s.push_str("],\"matrix\":[");
        for (i, &fault) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"fault\":\"{fault}\",\"module\":{},\"cells\":[",
                json_string(fault.module().unwrap_or(""))
            ));
            let mut first = true;
            for cell in self.cells.iter().filter(|c| c.fault == fault) {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    "{{\"platform\":\"{}\",\"outcome\":\"{}\"",
                    cell.platform.name(),
                    cell.outcome.label()
                ));
                match &cell.outcome {
                    CellOutcome::Detected { round, killed_by } => {
                        s.push_str(&format!(",\"round\":{round},\"killed_by\":["));
                        for (j, t) in killed_by.iter().enumerate() {
                            if j > 0 {
                                s.push(',');
                            }
                            s.push_str(&json_string(t));
                        }
                        s.push(']');
                    }
                    CellOutcome::Broken { reason } => {
                        s.push_str(&format!(",\"reason\":{}", json_string(reason)));
                    }
                    CellOutcome::Masked => {}
                }
                s.push('}');
            }
            s.push_str("]}");
        }
        s.push_str("],\"kill_counts\":[");
        for (i, (test, kills)) in self.kill_counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"test\":{},\"kills\":{kills}}}",
                json_string(test)
            ));
        }
        s.push_str("],\"escapes\":[");
        for (i, cell) in self.escapes().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"fault\":\"{}\",\"platform\":\"{}\"}}",
                cell.fault,
                cell.platform.name()
            ));
        }
        let killed = self.faults.iter().filter(|&&f| self.killed(f)).count();
        s.push_str(&format!(
            "],\"perf\":{},\"detected\":{},\"broken\":{},\"killed\":{killed},\"kill_rate\":{:.4}}}",
            self.perf.to_json(),
            self.detected(),
            self.broken(),
            self.kill_rate()
        ));
        s
    }
}

impl fmt::Display for FaultAuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.matrix())
    }
}

/// Builder for a fault-matrix suite-strength sweep.
///
/// Defaults: the full catalogued [`presets::standard_system`] suite, the
/// whole [`PlatformFault::ALL`] catalog, the RTL simulation as the
/// audited platform, the golden model as reference, one escape-driven
/// round of 8 scenarios.
#[derive(Clone)]
pub struct FaultAudit {
    suite: Vec<ModuleTestEnv>,
    faults: Vec<PlatformFault>,
    platforms: Vec<PlatformId>,
    scenarios: usize,
    escape_rounds: usize,
    seed: u64,
    workers: usize,
    fuel: u64,
    checkers: Vec<TraceAssertion>,
    artifact_store: Option<Arc<ArtifactStore>>,
    observer_factory: Option<ObserverFactory>,
}

impl std::fmt::Debug for FaultAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultAudit")
            .field("suite", &self.suite.len())
            .field("faults", &self.faults)
            .field("platforms", &self.platforms)
            .field("scenarios", &self.scenarios)
            .field("escape_rounds", &self.escape_rounds)
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("fuel", &self.fuel)
            .field("checkers", &self.checkers.len())
            .field("artifact_store", &self.artifact_store.is_some())
            .field("observer_factory", &self.observer_factory.is_some())
            .finish()
    }
}

impl Default for FaultAudit {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultAudit {
    /// An audit over the catalogued seed suite and the full fault
    /// catalog.
    pub fn new() -> Self {
        Self {
            suite: presets::standard_system(presets::default_config()),
            faults: PlatformFault::ALL.to_vec(),
            platforms: vec![PlatformId::RtlSim],
            scenarios: 8,
            escape_rounds: 1,
            seed: 0xFA017,
            workers: default_workers(),
            fuel: advm_sim::DEFAULT_FUEL,
            checkers: Vec::new(),
            artifact_store: None,
            observer_factory: None,
        }
    }

    /// Replaces the seed suite.
    pub fn suite(mut self, envs: impl IntoIterator<Item = ModuleTestEnv>) -> Self {
        self.suite = envs.into_iter().collect();
        self
    }

    /// Replaces the fault list.
    pub fn faults(mut self, faults: impl IntoIterator<Item = PlatformFault>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the audited platforms. The reference platform is never
    /// faulted; it is filtered out if listed.
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformId>) -> Self {
        self.platforms = platforms.into_iter().collect();
        self
    }

    /// Sets the scenario batch size of the escape-driven round
    /// (minimum 1).
    pub fn scenarios(mut self, scenarios: usize) -> Self {
        self.scenarios = scenarios.max(1);
        self
    }

    /// Sets the maximum number of escape-driven rounds: 0 disables the
    /// loop, 1 (the default) runs one generation round over the escapes,
    /// higher values keep drawing fresh batches (a new seed per round)
    /// at the surviving cells. The loop stops early once nothing
    /// escapes.
    pub fn escape_rounds(mut self, rounds: usize) -> Self {
        self.escape_rounds = rounds;
        self
    }

    /// Sets the master seed of the escape-driven scenario plan.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count (minimum 1). The reference baselines run
    /// on this many workers. The sweep then runs cells on as many
    /// threads, one cell per thread at a time: each cell's campaign runs
    /// on its thread alone, or, in a round with fewer cells than
    /// workers, on an even share of the workers.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-run instruction budget. Faults that hang software
    /// (stuck-busy polling) burn the whole budget on the faulted
    /// platform, so audits over large suites may want a smaller one.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Arms mined [`TraceAssertion`] checkers on every campaign of the
    /// sweep — the reference baselines and the faulted cells alike. A
    /// faulted run that violates a checker the fault-free baseline
    /// satisfies counts as a *detection* in [`CellOutcome::Detected`]'s
    /// `killed_by` (labelled `checker:<name>`), even when the
    /// differential verdict sees nothing: checkers grade exactly the
    /// symptoms the pass/fail comparison is blind to, such as an MMIO
    /// readback consumed by a sink register. With checkers armed no run
    /// forks from the store's prefix snapshots (snapshots lack the MMIO
    /// monitor); classifications that do not depend on checkers are
    /// unchanged.
    pub fn checkers(mut self, checkers: impl IntoIterator<Item = TraceAssertion>) -> Self {
        self.checkers = checkers.into_iter().collect();
        self
    }

    /// Attaches a shared [`ArtifactStore`] to every campaign the sweep
    /// runs, so builds, predecode artifacts and prefix snapshots are
    /// also reused across audits sharing the store. Without one, each
    /// [`run`](Self::run) makes a fresh [`ArtifactStore::default`]: the
    /// baselines and cells of one run share their builds and prefix
    /// snapshots either way. The store's prefix budget
    /// ([`ArtifactStore::with_prefix_budget`]; 0 switches forking off)
    /// sets how far each shared fault-free prefix runs; every run that
    /// provably can forks from its snapshot. Detection matrices and kill
    /// counts are identical with any store; only the perf block differs.
    pub fn artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.artifact_store = Some(store);
        self
    }

    /// Attaches an observer factory: each internal campaign of the
    /// sweep gets one fresh observer built by `factory`, so its
    /// [`CampaignEvent`](crate::campaign::CampaignEvent)s stream out
    /// (the daemon's per-job NDJSON feed). Baselines stream live; a
    /// cell's events go out once it and every earlier cell have
    /// finished, so the stream is the same at any
    /// [`FaultAudit::workers`] count but for each campaign's
    /// `started.workers`.
    pub fn observe_with(mut self, factory: ObserverFactory) -> Self {
        self.observer_factory = Some(factory);
        self
    }

    /// One internal campaign over a stimulus set on `workers` workers,
    /// on the run's `store`. With no `cell` it is the fault-free
    /// reference baseline, run once and shared by every cell of the
    /// sweep. With a `(fault, platform)` cell it runs on the faulted
    /// platform only.
    fn campaign(
        &self,
        cell: Option<(PlatformFault, PlatformId)>,
        workers: usize,
        envs: &[ModuleTestEnv],
        scenarios: &[Scenario],
        store: &Arc<ArtifactStore>,
    ) -> Campaign {
        let mut campaign = Campaign::new()
            .envs(envs.iter().cloned())
            .scenarios(scenarios.iter().cloned())
            .workers(workers)
            .fuel(self.fuel)
            .artifact_store(Arc::clone(store));
        campaign = match cell {
            None => campaign.platform(REFERENCE),
            Some((fault, platform)) => campaign.platform(platform).fault(platform, fault),
        };
        if !self.checkers.is_empty() {
            campaign = campaign.checkers(self.checkers.iter().copied());
        }
        campaign
    }

    /// Runs the reference baseline for a stimulus set on
    /// [`FaultAudit::workers`] workers, its events streaming live to a
    /// fresh observer.
    fn baseline(
        &self,
        envs: &[ModuleTestEnv],
        scenarios: &[Scenario],
        store: &Arc<ArtifactStore>,
    ) -> Result<CampaignReport, CampaignError> {
        let mut campaign = self.campaign(None, self.workers, envs, scenarios, store);
        if let Some(factory) = &self.observer_factory {
            campaign = campaign.observe(factory());
        }
        campaign.run()
    }

    /// The workers the campaign of cell `index` of `cells` runs on: an
    /// even share of [`FaultAudit::workers`], the first cells taking
    /// what does not divide, and at least one. A round with fewer cells
    /// than workers thus keeps every worker busy, while a larger round
    /// runs each cell on its sweep thread alone.
    fn share(&self, index: usize, cells: usize) -> usize {
        (self.workers / cells + usize::from(index < self.workers % cells)).max(1)
    }

    /// Runs the campaigns of `cells` on up to [`FaultAudit::workers`]
    /// threads and classifies each against `baseline` as it finishes,
    /// keeping only the outcome and the perf block.
    ///
    /// Each thread claims the next cell and plans its campaign under one
    /// lock, then builds, executes and seals it on its
    /// [share](Self::share) of the workers. Campaigns thus plan in cell
    /// order, so the run's store sees the lookups of a one-thread
    /// sweep: the same hits, misses and evictions, and the same
    /// `cache_hit` on every job. A cell's events are buffered and handed
    /// to a fresh observer once every earlier cell's have been, so
    /// observers see the same stream too.
    ///
    /// # Errors
    ///
    /// The first failing cell's error, in cell order. A failure stops
    /// further claims, and no cell after it forwards events.
    fn sweep(
        &self,
        cells: &[(PlatformFault, PlatformId)],
        round: usize,
        baseline: &CampaignReport,
        envs: &[ModuleTestEnv],
        scenarios: &[Scenario],
        store: &Arc<ArtifactStore>,
    ) -> Result<Vec<(CellOutcome, CampaignPerf)>, CampaignError> {
        type CellResult = Result<(CellOutcome, CampaignPerf), CampaignError>;
        // The next cell to claim; a failure sets it past the end.
        let claim = Mutex::new(0usize);
        let results: Mutex<Vec<Option<CellResult>>> =
            Mutex::new((0..cells.len()).map(|_| None).collect());
        // Each finished cell's events and whether it failed, forwarded
        // in cell order while the flag holds: up to the first failure.
        let forward = Mutex::new((InOrder::new(cells.len()), true));
        on_workers(self.workers.min(cells.len()), || loop {
            let (index, platform, planned, log) = {
                let mut next = claim.lock();
                let index = *next;
                let Some(&(fault, platform)) = cells.get(index) else {
                    break;
                };
                *next += 1;
                let workers = self.share(index, cells.len());
                let mut campaign =
                    self.campaign(Some((fault, platform)), workers, envs, scenarios, store);
                let log = self.observer_factory.is_some().then(EventLog::new);
                if let Some(log) = &log {
                    campaign = campaign.observe(log.clone());
                }
                (index, platform, campaign.plan(), log)
            };
            let result = planned
                .and_then(|planned| Ok(planned.build()?.execute().seal()))
                .map(|report| {
                    (
                        self.classify(platform, round, baseline, &report),
                        *report.perf(),
                    )
                });
            if result.is_err() {
                *claim.lock() = cells.len();
            }
            if let (Some(log), Some(factory)) = (log, &self.observer_factory) {
                let mut forward = forward.lock();
                let (batches, open) = &mut *forward;
                for (batch, failed) in batches.deposit(index, (log.events(), result.is_err())) {
                    if !*open {
                        break;
                    }
                    let mut observer = factory();
                    for event in &batch {
                        observer.on_event(event);
                    }
                    *open = !failed;
                }
            }
            results.lock()[index] = Some(result);
        });
        // Collecting stops at the first failure, and every cell before
        // it was claimed, so it ran.
        results
            .into_inner()
            .into_iter()
            .map(|result| result.expect("every cell before the first failure ran"))
            .collect()
    }

    /// Classifies one cell by comparing every test's faulted run against
    /// the shared reference baseline (golden-anchored 1-vs-1 votes).
    fn classify(
        &self,
        platform: PlatformId,
        round: usize,
        baseline: &CampaignReport,
        faulted: &CampaignReport,
    ) -> CellOutcome {
        let mut killed_by = Vec::new();
        let mut missing = 0usize;
        for (env, test) in faulted.tests() {
            let Some(f) = faulted.run_of(env, test, platform) else {
                continue;
            };
            let Some(g) = baseline.run_of(env, test, REFERENCE) else {
                missing += 1;
                continue;
            };
            if let Ok(report) = compare(&[g.result.clone(), f.result.clone()]) {
                if !report.consistent && report.divergent.contains(&platform) {
                    killed_by.push(format!("{env}/{test}"));
                }
            }
        }
        // Mined-checker kills: a violation on the faulted platform that
        // the fault-free baseline does not reproduce is a detection in
        // its own right — checkers see MMIO symptoms the differential
        // verdict is blind to.
        for v in faulted.checker_violations() {
            if v.platform != platform {
                continue;
            }
            let clean = baseline
                .checker_violations()
                .iter()
                .any(|b| b.env == v.env && b.test_id == v.test_id && b.checker == v.checker);
            if clean {
                continue;
            }
            let label = format!("{}/{} checker:{}", v.env, v.test_id, v.checker);
            if !killed_by.contains(&label) {
                killed_by.push(label);
            }
        }
        if missing > 0 {
            return CellOutcome::Broken {
                reason: format!("{missing} run(s) missing from the reference baseline"),
            };
        }
        if !killed_by.is_empty() {
            return CellOutcome::Detected { round, killed_by };
        }
        if faulted.failed() > 0 {
            return CellOutcome::Broken {
                reason: format!(
                    "{} run(s) failed identically on the reference — a suite problem, not a divergence",
                    faulted.failed()
                ),
            };
        }
        CellOutcome::Masked
    }

    /// Sweeps the (fault × platform) matrix through the campaign
    /// pipeline, then closes the loop: escapes feed the scenario engine
    /// and the surviving cells are re-audited against the generated
    /// stimulus.
    ///
    /// # Errors
    ///
    /// [`AuditError::NoFaults`] / [`AuditError::NoPlatforms`] for an
    /// unrunnable plan; build and constraint failures are propagated.
    pub fn run(&self) -> Result<FaultAuditReport, AuditError> {
        if self.faults.is_empty() {
            return Err(AuditError::NoFaults);
        }
        // Never fault the reference, and audit each platform once —
        // duplicates would double matrix cells and kill counts.
        let mut platforms: Vec<PlatformId> = Vec::new();
        for &p in &self.platforms {
            if p != REFERENCE && !platforms.contains(&p) {
                platforms.push(p);
            }
        }
        if platforms.is_empty() {
            return Err(AuditError::NoPlatforms);
        }
        let started = Instant::now();

        let mut kill_counts: HashMap<String, usize> = HashMap::new();
        let mut tally = |outcome: &CellOutcome| {
            if let CellOutcome::Detected { killed_by, .. } = outcome {
                for test in killed_by {
                    *kill_counts.entry(test.clone()).or_default() += 1;
                }
            }
        };

        // One store for every campaign of the run: the matrix re-runs
        // each (test, platform) image under every fault, so each image
        // is built, and its fault-free prefix run, once.
        let store = self.artifact_store.clone().unwrap_or_default();

        // Round 1: the seed suite against every (fault, platform) cell.
        // The reference runs the suite exactly once; each cell simulates
        // only its faulted platform and compares against that baseline.
        let mut perf = CampaignPerf::default();
        let suite_baseline = self.baseline(&self.suite, &[], &store)?;
        perf.absorb(suite_baseline.perf());
        let grid: Vec<(PlatformFault, PlatformId)> = self
            .faults
            .iter()
            .flat_map(|&fault| platforms.iter().map(move |&platform| (fault, platform)))
            .collect();
        let swept = self.sweep(&grid, 1, &suite_baseline, &self.suite, &[], &store)?;
        let mut cells: Vec<AuditCell> = Vec::with_capacity(grid.len());
        for ((fault, platform), (outcome, cell_perf)) in grid.into_iter().zip(swept) {
            perf.absorb(&cell_perf);
            tally(&outcome);
            cells.push(AuditCell {
                fault,
                platform,
                outcome,
            });
        }

        // Rounds 2..: escapes drive generation. The escaped faults'
        // modules become weak-module feedback; a coverage-directed
        // source draws scenarios whose environments carry the module's
        // stimulus cell plus its fault hunters, and only the surviving
        // cells re-run. Each round draws a fresh batch (new seed) until
        // the budget runs out or nothing escapes.
        let mut scenarios_generated = 0;
        for round in 0..self.escape_rounds {
            let escaped: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.outcome == CellOutcome::Masked)
                .map(|(i, _)| i)
                .collect();
            if escaped.is_empty() {
                break;
            }
            let mut weak: Vec<&str> = Vec::new();
            for &i in &escaped {
                if let Some(module) = cells[i].fault.module() {
                    if !weak.contains(&module) {
                        weak.push(module);
                    }
                }
            }
            let derivative = self
                .suite
                .first()
                .map(|e| e.config().derivative)
                .unwrap_or(DerivativeId::Sc88A);
            let constraints =
                GlobalsConstraints::new(derivative, REFERENCE).with_test_page_count(2);
            let feedback = CoverageFeedback::new().with_weak_modules(weak.iter().copied());
            let plan = ScenarioEngine::new(self.seed.wrapping_add(round as u64))
                .source(CoverageDirected::new(constraints, feedback))
                .batch(self.scenarios)
                .plan()?;
            scenarios_generated += plan.len();
            let scenario_baseline = self.baseline(&[], plan.scenarios(), &store)?;
            perf.absorb(scenario_baseline.perf());
            let targets: Vec<(PlatformFault, PlatformId)> = escaped
                .iter()
                .map(|&i| (cells[i].fault, cells[i].platform))
                .collect();
            let swept = self.sweep(
                &targets,
                2 + round,
                &scenario_baseline,
                &[],
                plan.scenarios(),
                &store,
            )?;
            for (i, (outcome, cell_perf)) in escaped.into_iter().zip(swept) {
                perf.absorb(&cell_perf);
                if outcome != CellOutcome::Masked {
                    tally(&outcome);
                    cells[i].outcome = outcome;
                }
            }
        }

        // Cells overlap, so their walls sum thread time; the audit's own
        // wall is the time it took.
        perf.wall = started.elapsed();
        let mut kill_counts: Vec<(String, usize)> = kill_counts.into_iter().collect();
        kill_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(FaultAuditReport {
            platforms,
            faults: self.faults.clone(),
            cells,
            suite_tests: self.suite.iter().map(|e| e.cells().len()).sum(),
            scenarios_generated,
            kill_counts,
            perf,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::CampaignEvent;
    use crate::env::EnvConfig;
    use crate::wire::JsonValue;

    use super::*;

    fn tiny_suite() -> Vec<ModuleTestEnv> {
        vec![
            presets::page_env(presets::default_config(), 1),
            presets::uart_env(presets::default_config()),
        ]
    }

    #[test]
    fn detected_fault_names_its_killing_tests() {
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([PlatformFault::PageActiveOffByOne])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2)
            .run()
            .unwrap();
        let cell = report
            .cell(PlatformFault::PageActiveOffByOne, PlatformId::RtlSim)
            .unwrap();
        match &cell.outcome {
            CellOutcome::Detected { round, killed_by } => {
                assert_eq!(*round, 1);
                assert!(
                    killed_by.iter().any(|t| t.contains("TEST_PAGE_SELECT_01")),
                    "{killed_by:?}"
                );
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert!(report.killed(PlatformFault::PageActiveOffByOne));
        assert!((report.kill_rate() - 1.0).abs() < 1e-9);
        assert!(!report.kill_counts().is_empty());
    }

    /// Arrays and objects open at the deepest point of `value`.
    fn nesting(value: &JsonValue) -> usize {
        match value {
            JsonValue::Array(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
            JsonValue::Object(pairs) => {
                1 + pairs.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    #[test]
    fn deepest_report_parses_under_the_wire_nesting_cap() {
        // An audit report with a detection nests deepest of all the
        // workspace's reports: matrix → cell → killed_by. The daemon's
        // `done` line wraps it one level further.
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([PlatformFault::PageActiveOffByOne])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(1)
            .run()
            .unwrap();
        let done = format!(
            "{{\"job\":0,\"done\":true,\"ok\":true,\"report\":{}}}",
            report.to_json()
        );
        let value = JsonValue::parse(&done).unwrap();
        assert_eq!(nesting(&value), 7, "{done}");
        assert!(nesting(&value) < crate::wire::MAX_DEPTH);
    }

    #[test]
    fn masked_fault_is_an_escape_without_the_loop() {
        // The tiny suite never writes PAGE_MAP, so the dead write-enable
        // escapes; with the escape round disabled it stays an escape.
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([PlatformFault::PageMapWriteIgnored])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.escapes().len(), 1);
        assert!(!report.killed(PlatformFault::PageMapWriteIgnored));
        assert_eq!(report.kill_rate(), 0.0);
    }

    #[test]
    fn escape_round_kills_the_map_write_fault() {
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([PlatformFault::PageMapWriteIgnored])
            .platforms([PlatformId::RtlSim])
            .scenarios(2)
            .workers(2)
            .run()
            .unwrap();
        let cell = report
            .cell(PlatformFault::PageMapWriteIgnored, PlatformId::RtlSim)
            .unwrap();
        match &cell.outcome {
            CellOutcome::Detected { round, killed_by } => {
                assert_eq!(*round, 2, "killed by generated stimulus");
                assert!(
                    killed_by.iter().any(|t| t.contains("TEST_HUNT_PAGE_MAP")),
                    "{killed_by:?}"
                );
            }
            other => panic!("expected round-2 detection, got {other:?}"),
        }
        assert!(report.scenarios_generated() > 0);
        assert!(report.escapes().is_empty());
    }

    #[test]
    fn armed_checkers_kill_the_map_write_fault_in_round_one() {
        // A cell that writes PAGE_MAP and reads it back into a sink
        // register: the faulted readback never reaches the verdict, so
        // the differential layer passes everywhere.
        let sink = ModuleTestEnv::new(
            "MAPSINK",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![crate::env::TestCell::new(
                "TEST_MAP_SINK",
                "map readback into a sink register",
                "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #0x1234
    STORE [PAGE_MAP_ADDR], d1
    LOAD d2, [PAGE_MAP_ADDR]
    CALL Base_Report_Pass
    RETURN
",
            )],
        );
        let mut suite = tiny_suite();
        suite.push(sink);
        let base = FaultAudit::new()
            .suite(suite)
            .faults([PlatformFault::PageMapWriteIgnored])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2);

        // Without checkers the fault escapes round 1 outright — the
        // seed suite needs the round-2 escape loop to kill it (see
        // escape_round_kills_the_map_write_fault).
        let blind = base.clone().run().unwrap();
        assert_eq!(blind.escapes().len(), 1);

        // With a readback checker armed, the same stimulus kills it in
        // round 1: strictly fewer rounds than the blind audit.
        let armed = base
            .checkers([TraceAssertion::ReadbackEquals {
                addr: 0xE0108,
                mask: 0xFFFF,
            }])
            .run()
            .unwrap();
        let cell = armed
            .cell(PlatformFault::PageMapWriteIgnored, PlatformId::RtlSim)
            .unwrap();
        match &cell.outcome {
            CellOutcome::Detected { round, killed_by } => {
                assert_eq!(*round, 1, "checker kill needs no escape round");
                assert!(
                    killed_by
                        .iter()
                        .any(|t| t.contains("checker:readback[0xe0108")),
                    "{killed_by:?}"
                );
            }
            other => panic!("expected round-1 checker detection, got {other:?}"),
        }
        assert!(armed.killed(PlatformFault::PageMapWriteIgnored));
        let json = armed.to_json();
        assert!(json.contains("checker:readback[0xe0108"), "{json}");
    }

    #[test]
    fn duplicate_platforms_audit_once() {
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([PlatformFault::PageActiveOffByOne])
            .platforms([
                PlatformId::RtlSim,
                PlatformId::RtlSim,
                PlatformId::GoldenModel,
            ])
            .escape_rounds(0)
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.platforms(), [PlatformId::RtlSim]);
        assert_eq!(report.cells().len(), 1, "one cell per distinct platform");
    }

    #[test]
    fn escape_rounds_run_up_to_the_budget_with_fresh_batches() {
        // The one-shot poll cell cannot observe a periodic-reload bug,
        // and the TIMER stimulus the escape round generates is the same
        // one-shot poll — so the fault survives every round and the loop
        // must draw a fresh batch per configured round.
        let report = FaultAudit::new()
            .suite([presets::page_env(presets::default_config(), 1)])
            .faults([PlatformFault::TimerPeriodicNoReload])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(2)
            .scenarios(2)
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.escapes().len(), 1);
        assert_eq!(
            report.scenarios_generated(),
            4,
            "two rounds of two scenarios each"
        );
    }

    #[test]
    fn broken_suite_is_not_counted_as_detection() {
        // A suite that fails on the reference too produces failures with
        // no divergence — that is a broken cell, not a kill.
        let failing = ModuleTestEnv::new(
            "ALWAYS",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![crate::env::TestCell::new(
                "TEST_ALWAYS_FAILS",
                "fails everywhere",
                ".INCLUDE Globals.inc\n_main:\n    LOAD ArgA, #9\n    CALL Base_Report_Fail\n    RETURN\n",
            )],
        );
        let report = FaultAudit::new()
            .suite([failing])
            .faults([PlatformFault::PageMapWriteIgnored])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.broken(), 1);
        assert_eq!(report.detected(), 0);
    }

    #[test]
    fn first_failing_cell_ends_the_sweep_and_its_event_stream() {
        // The cell refuses to assemble for the gate-level platform only,
        // so the baseline and the RTL cells build. They spin for a while,
        // so later cells are claimed while earlier ones still run.
        let gated = ModuleTestEnv::new(
            "GATED",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![crate::env::TestCell::new(
                "TEST_NO_GATE",
                "refuses the gate-level build",
                "\
.INCLUDE Globals.inc
.IF PLATFORM_ID == 3
.ERROR no gate-level build
.ENDIF
_main:
    LOAD d10, #30000
t_spin:
    SUB d10, d10, #1
    CMP d10, #0
    JNE t_spin
    CALL Base_Report_Pass
    RETURN
",
            )],
        );
        let events = |workers: usize| {
            let log = EventLog::new();
            let sink = log.clone();
            let error = FaultAudit::new()
                .suite([gated.clone()])
                .faults([
                    PlatformFault::PageActiveOffByOne,
                    PlatformFault::UartDropsBytes,
                    PlatformFault::TimerNeverExpires,
                ])
                .platforms([PlatformId::RtlSim, PlatformId::GateSim])
                .workers(workers)
                .observe_with(Arc::new(move || {
                    Box::new(sink.clone()) as Box<dyn CampaignObserver>
                }))
                .run()
                .expect_err("gate-level cells cannot build");
            match error {
                AuditError::Campaign(CampaignError::Build { platform, .. }) => {
                    assert_eq!(platform, PlatformId::GateSim);
                }
                other => panic!("expected a build error, got {other}"),
            }
            log.events()
        };
        // The baseline, the first RTL cell and the first gate-level
        // cell, whose stream ends with its failed build.
        let serial = events(1);
        let started = serial
            .iter()
            .filter(|e| matches!(e, CampaignEvent::Started { .. }))
            .count();
        assert_eq!(started, 3, "{serial:?}");
        assert!(
            matches!(
                serial.last(),
                Some(CampaignEvent::Finished { total: 0, .. })
            ),
            "{serial:?}"
        );
        // Later cells may run on other threads, but forward nothing.
        assert_eq!(events(4), serial);
    }

    #[test]
    fn rounds_with_fewer_cells_than_workers_share_the_workers() {
        let shares = |workers: usize, cells: usize| -> Vec<usize> {
            let audit = FaultAudit::new().workers(workers);
            (0..cells).map(|index| audit.share(index, cells)).collect()
        };
        assert_eq!(shares(4, 1), [4]);
        assert_eq!(shares(4, 3), [2, 1, 1]);
        assert_eq!(shares(8, 3), [3, 3, 2]);
        assert_eq!(shares(2, 5), [1; 5]);
        assert_eq!(shares(1, 2), [1; 2]);

        // Each campaign opens with its worker count, which no campaign's
        // job count caps here: the baseline's four, then the three
        // cells' shares.
        let log = EventLog::new();
        let sink = log.clone();
        FaultAudit::new()
            .suite(tiny_suite())
            .faults([
                PlatformFault::PageActiveOffByOne,
                PlatformFault::UartDropsBytes,
                PlatformFault::TimerNeverExpires,
            ])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .fuel(200_000)
            .workers(4)
            .observe_with(Arc::new(move || {
                Box::new(sink.clone()) as Box<dyn CampaignObserver>
            }))
            .run()
            .unwrap();
        let started: Vec<(usize, usize)> = log
            .events()
            .iter()
            .filter_map(|event| match event {
                CampaignEvent::Started { jobs, workers, .. } => Some((*jobs, *workers)),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 4, "{started:?}");
        assert!(started.iter().all(|&(jobs, _)| jobs >= 4), "{started:?}");
        let workers: Vec<usize> = started.iter().map(|&(_, workers)| workers).collect();
        assert_eq!(workers, [4, 2, 1, 1]);
    }

    #[test]
    fn empty_plans_are_rejected_and_reference_is_never_faulted() {
        assert!(matches!(
            FaultAudit::new().faults([]).run(),
            Err(AuditError::NoFaults)
        ));
        assert!(matches!(
            FaultAudit::new().platforms([PlatformId::GoldenModel]).run(),
            Err(AuditError::NoPlatforms)
        ));
    }

    #[test]
    fn storeless_audit_is_an_audit_on_a_default_store() {
        // Round 1 kills the read-path fault and masks the dead
        // write-enable, which the escape round then kills, on each of
        // two platforms.
        let audit = FaultAudit::new()
            .suite(tiny_suite())
            .faults([
                PlatformFault::PageActiveOffByOne,
                PlatformFault::PageMapWriteIgnored,
            ])
            .platforms([PlatformId::RtlSim, PlatformId::GateSim])
            .scenarios(2)
            .workers(1);
        let storeless = audit.clone().run().unwrap();
        let stored = audit
            .artifact_store(Arc::new(ArtifactStore::default()))
            .run()
            .unwrap();
        assert!(storeless.scenarios_generated() > 0, "the escape round ran");
        let strip = |json: String| {
            let start = json.find("\"perf\":{").expect("a perf block");
            let end = start + json[start..].find('}').expect("a flat perf block") + 1;
            format!("{}{}", &json[..start], &json[end..])
        };
        assert_eq!(strip(storeless.to_json()), strip(stored.to_json()));
        let counters = |perf: &CampaignPerf| {
            (
                perf.frame_checkpoints,
                perf.artifact_hits,
                perf.forked_runs,
                perf.prefix_saved,
                perf.instructions,
            )
        };
        assert_eq!(counters(storeless.perf()), counters(stored.perf()));
        // The cells reuse the baselines' builds and prefixes.
        assert!(storeless.perf().artifact_hits > 0, "{:?}", storeless.perf());
        assert!(storeless.perf().forked_runs > 0, "{:?}", storeless.perf());
    }

    #[test]
    fn forked_audit_matrix_matches_from_reset_and_saves_prefix_work() {
        let audit = |budget: u64| {
            FaultAudit::new()
                .suite(tiny_suite())
                .faults([
                    PlatformFault::PageActiveOffByOne,
                    PlatformFault::UartDropsBytes,
                    PlatformFault::TimerNeverExpires,
                ])
                .platforms([PlatformId::RtlSim, PlatformId::ProductSilicon])
                .escape_rounds(0)
                .workers(2)
                .artifact_store(Arc::new(ArtifactStore::with_prefix_budget(
                    crate::artifacts::DEFAULT_ARTIFACT_CAPACITY,
                    budget,
                )))
                .run()
                .unwrap()
        };
        let from_reset = audit(0);
        assert_eq!(from_reset.perf().prefix_saved, 0);
        assert_eq!(from_reset.perf().forked_runs, 0);

        let forked = audit(crate::prefix::DEFAULT_PREFIX_BUDGET);
        assert!(
            forked.perf().prefix_saved > 0,
            "shared prefixes must skip re-execution: {:?}",
            forked.perf()
        );
        assert!(forked.perf().forked_runs > 0);
        let json = forked.to_json();
        assert!(json.contains("\"prefix_saved\":"), "{json}");

        // Cell-for-cell identical classifications and kill counts.
        assert_eq!(forked.cells().len(), from_reset.cells().len());
        for cell in from_reset.cells() {
            let twin = forked.cell(cell.fault, cell.platform).unwrap();
            assert_eq!(
                twin.outcome, cell.outcome,
                "{:?} on {:?}",
                cell.fault, cell.platform
            );
        }
        assert_eq!(forked.kill_counts(), from_reset.kill_counts());
        assert_eq!(forked.kill_rate(), from_reset.kill_rate());
    }

    #[test]
    fn json_report_is_balanced_and_typed() {
        let report = FaultAudit::new()
            .suite(tiny_suite())
            .faults([
                PlatformFault::PageActiveOffByOne,
                PlatformFault::PageMapWriteIgnored,
            ])
            .platforms([PlatformId::RtlSim])
            .escape_rounds(0)
            .workers(2)
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"fault\":\"page-active-off-by-one\""),
            "{json}"
        );
        assert!(json.contains("\"outcome\":\"detected\""), "{json}");
        assert!(json.contains("\"outcome\":\"masked\""), "{json}");
        assert!(json.contains("\"kill_rate\":0.5000"), "{json}");
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
        let matrix = report.matrix().to_string();
        assert!(matrix.contains("KILL@1"), "{matrix}");
        assert!(matrix.contains("ESCAPE"), "{matrix}");
    }
}
