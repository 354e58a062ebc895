//! Scenario-driven stimulus — the bridge between the generator's
//! [`Scenario`] engine and the campaign pipeline, plus the closed-loop
//! [`Exploration`] driver.
//!
//! §2 of the paper proposes generating constrained-random `Globals.inc`
//! instances "from a higher level language" so random stimulus can chase
//! coverage. This module closes that loop end to end:
//!
//! 1. **generate** — a [`ScenarioEngine`] plans a deterministic batch of
//!    scenarios ([`advm_gen::StimulusPlan`]);
//! 2. **run** — [`scenario_env`] materialises each scenario into a
//!    module test environment (page read-back cells for the drawn
//!    targets, plus stimulus cells for any coverage-targeted modules)
//!    and a [`Campaign`] executes the batch across platforms;
//! 3. **measure** — [`PageCoverage`] and [`RegisterCoverage`] record
//!    what the batch exercised;
//! 4. **refine** — [`coverage_feedback`] folds the measurements into a
//!    [`CoverageFeedback`] and the next round draws from a
//!    [`CoverageDirected`] source biased toward the holes.
//!
//! [`Exploration`] packages rounds 1..N of that cycle behind a builder
//! whose platforms, workers, store and observer factory live in the
//! [`Campaign`] every round's campaign is cloned from; `advm-cli explore`
//! is a thin veneer over it.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use advm_gen::{
    ConstrainedRandom, ConstraintError, CoverageDirected, CoverageFeedback, Directed,
    GlobalsConstraints, PageCoverage, Scenario, ScenarioEngine, ScenarioKind,
};
use advm_metrics::Table;
use advm_soc::{Derivative, DerivativeId, PlatformId};

use crate::campaign::{json_string, Campaign, CampaignError, CampaignReport};
use crate::coverage::RegisterCoverage;
use crate::env::{EnvConfig, ModuleTestEnv, Stimulus, TestCell};
use crate::presets;
use crate::testplan::Testplan;

/// Materialises a scenario into a runnable module test environment.
///
/// The environment is named after the scenario, carries one page
/// read-back cell per drawn `TESTn_TARGET_PAGE`, one stimulus cell per
/// coverage-targeted module, and pins the scenario's stimulus into the
/// abstraction layer (a [`Stimulus`] override) so
/// re-targeting across the campaign's platforms regenerates addresses
/// and knobs around the *same* stimulus.
pub fn scenario_env(scenario: &Scenario) -> ModuleTestEnv {
    let config = EnvConfig::new(scenario.derivative(), scenario.platform());
    let mut cells: Vec<TestCell> = (1..=scenario.test_pages().len())
        .map(page_readback_cell)
        .collect();
    for module in scenario.target_modules() {
        let mut targeted: Vec<TestCell> = Vec::new();
        if let Some(cell) = module_stimulus_cell(module, config) {
            targeted.push(cell);
        }
        targeted.extend(fault_hunter_cells(module));
        for cell in targeted {
            if !cells.iter().any(|c| c.id() == cell.id()) {
                cells.push(cell);
            }
        }
    }
    if cells.is_empty() {
        // A scenario with no page targets and no module targets still
        // needs something to execute; the testbench identity check is
        // the cheapest universally green cell.
        cells.push(
            module_stimulus_cell("TB", config).expect("TB stimulus cell is always available"),
        );
    }
    ModuleTestEnv::new(scenario.name(), config, cells).with_stimulus(Stimulus {
        test_pages: scenario.test_pages().to_vec(),
        extra: scenario.knobs().to_vec(),
    })
}

/// The per-page read-back cell of a scenario environment (the Figure 6
/// pattern, driven by the scenario's drawn page target).
fn page_readback_cell(i: usize) -> TestCell {
    TestCell::new(
        format!("TEST_SCN_PAGE_{i:02}"),
        format!("select drawn page target {i} and read it back"),
        format!(
            "\
;; Scenario stimulus: drawn page target {i}
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST{i}_TARGET_PAGE
_main:
    CALL Base_Init_Register
    LOAD ArgA, #TEST_PAGE
    CALL Base_Select_Page
    LOAD ArgA, #TEST_PAGE
    CALL Base_Check_Active_Page
    CMP RetVal, #0
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        ),
    )
}

/// A catalogued stimulus cell for one register-map module, used when a
/// coverage-directed scenario targets that module's holes. Returns
/// `None` for modules without a catalogued stimulus (e.g. `PAGE`, which
/// every scenario already stimulates through its page cells).
pub(crate) fn module_stimulus_cell(module: &str, config: EnvConfig) -> Option<TestCell> {
    let (env, id) = match module {
        "UART" => (presets::uart_env(config), "TEST_UART_LOOPBACK"),
        "TIMER" => (presets::timer_env(config), "TEST_TIMER_POLL"),
        "NVMC" => (presets::nvm_env(config), "TEST_NVM_WRITE_READBACK"),
        "CRC" => (presets::crc_env(config), "TEST_CRC_UNIT"),
        "WDT" => (presets::wdt_env(config), "TEST_WDT_SERVICE"),
        "INTC" => (presets::register_env(config), "TEST_INTC_RAISE_ACK"),
        "TB" => (presets::register_env(config), "TEST_TB_IDENTITY"),
        "ES" => (presets::es_env(config), "TEST_ES_INIT"),
        _ => return None,
    };
    env.cell(id).cloned()
}

/// Fault-hunting cells for one register-map module: stimulus that checks
/// behaviours *no seed-suite test* pins down, written to kill the
/// fault-catalog entries that escape the seed suite (see
/// [`crate::audit::FaultAudit`]). Scenario environments targeting a
/// module carry its hunters alongside the catalogued stimulus cell; all
/// hunters pass on every clean platform and derivative.
pub(crate) fn fault_hunter_cells(module: &str) -> Vec<TestCell> {
    match module {
        // A write/read-back sweep of the MAP register: reset-value tests
        // pass over a dead write enable, this does not.
        "PAGE" => vec![TestCell::new(
            "TEST_HUNT_PAGE_MAP",
            "PAGE_MAP accepts and returns a written value",
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #0x1234
    STORE [PAGE_MAP_ADDR], d1
    LOAD d2, [PAGE_MAP_ADDR]
    CMP d2, d1
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        )],
        // A clean single-byte echo must not raise OVERRUN: a transmitter
        // that duplicates bytes trips it even though the payload echoes
        // correctly.
        "UART" => vec![TestCell::new(
            "TEST_HUNT_UART_CLEAN",
            "single loopback byte echoes without receive overrun",
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Uart_Init_Loopback
    LOAD ArgA, #0x42
    CALL Base_Uart_Send
    CALL Base_Uart_Recv
    LOAD d1, #0x42
    CMP RetVal, d1
    JNE t_fail
    LOAD d1, [UART_STATUS_ADDR]
    AND d1, d1, #UART_OVERRUN_MASK
    CMP d1, #0
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        )],
        // Relative bus timing: an identical instruction sequence over
        // MMIO and over RAM must cost (about) the same on every clean
        // platform whatever its cost model, because per-instruction
        // charges do not depend on the address. Extra MMIO wait-states
        // blow the MMIO window past twice the RAM window.
        "TB" => vec![TestCell::new(
            "TEST_HUNT_BUS_TIMING",
            "MMIO traffic is not slower than matched RAM traffic",
            "\
.INCLUDE Globals.inc
_main:
    LOAD d10, [TB_TICKS_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d11, [TB_TICKS_ADDR]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d1, [TEST_DATA_BASE]
    LOAD d12, [TB_TICKS_ADDR]
    SUB d13, d11, d10       ; MMIO window
    SUB d14, d12, d11       ; matched RAM window
    ADD d15, d14, d14       ; 2x RAM budget
    CMP d13, d15
    JGT t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        )],
        _ => Vec::new(),
    }
}

/// Bridges a structured [`Testplan`] into a [`Directed`] scenario
/// source for the given configuration.
pub fn directed_source(plan: &Testplan, config: EnvConfig) -> Directed {
    Directed::new(
        GlobalsConstraints::new(config.derivative, config.platform),
        plan.module(),
        plan.entries()
            .iter()
            .map(|e| (e.id.clone(), e.description.clone())),
    )
}

/// Folds measured coverage into the [`CoverageFeedback`] a
/// [`CoverageDirected`] source consumes: the pages prior stimulus
/// already exercised, and the register-map modules that still have
/// holes, worst coverage first.
pub fn coverage_feedback(pages: &PageCoverage, registers: &RegisterCoverage) -> CoverageFeedback {
    let mut weak: Vec<_> = registers
        .modules()
        .iter()
        .filter(|m| m.touched < m.total)
        .collect();
    weak.sort_by(|a, b| {
        a.ratio()
            .partial_cmp(&b.ratio())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    CoverageFeedback::new()
        .with_pages_seen(pages.seen().iter().copied())
        .with_weak_modules(weak.into_iter().map(|m| m.module.clone()))
}

/// A closed-loop exploration failure.
#[derive(Debug)]
pub enum ExplorationError {
    /// The constraint model is unsatisfiable.
    Constraint(ConstraintError),
    /// A campaign round failed to build.
    Campaign(CampaignError),
}

impl fmt::Display for ExplorationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorationError::Constraint(e) => write!(f, "stimulus planning failed: {e}"),
            ExplorationError::Campaign(e) => write!(f, "campaign round failed: {e}"),
        }
    }
}

impl std::error::Error for ExplorationError {}

impl From<ConstraintError> for ExplorationError {
    fn from(e: ConstraintError) -> Self {
        ExplorationError::Constraint(e)
    }
}

impl From<CampaignError> for ExplorationError {
    fn from(e: CampaignError) -> Self {
        ExplorationError::Campaign(e)
    }
}

/// One round of the generate→run→measure→refine cycle.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Which source family drew the round's stimulus (round 1 is
    /// constrained-random, later rounds are coverage-directed).
    pub kind: ScenarioKind,
    /// Scenarios in the round's batch.
    pub scenarios: usize,
    /// Pages first exercised by this round.
    pub new_pages: usize,
    /// Cumulative distinct pages exercised after this round.
    pub pages_hit: usize,
    /// Cumulative page-space coverage in `0.0..=1.0`.
    pub page_coverage: f64,
    /// Cumulative register coverage in `0.0..=1.0`.
    pub register_coverage: f64,
    /// The round's sealed campaign report.
    pub campaign: CampaignReport,
}

/// The sealed result of a whole exploration.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    derivative: DerivativeId,
    platforms: Vec<PlatformId>,
    page_space: usize,
    rounds: Vec<RoundReport>,
}

impl ExplorationReport {
    /// The platforms each round's campaign ran on.
    #[cfg(test)]
    pub(crate) fn platforms(&self) -> &[PlatformId] {
        &self.platforms
    }

    /// Size of the legal page space.
    pub fn page_space(&self) -> usize {
        self.page_space
    }

    /// The per-round reports, in order.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// Final cumulative page coverage.
    pub(crate) fn final_page_coverage(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.page_coverage)
    }

    /// Total failing runs across all rounds.
    pub fn failed(&self) -> usize {
        self.rounds.iter().map(|r| r.campaign.failed()).sum()
    }

    /// Renders the per-round coverage table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            "Coverage exploration",
            &[
                "round",
                "stimulus",
                "scenarios",
                "runs",
                "passed",
                "pages",
                "coverage",
                "registers",
            ],
        );
        for r in &self.rounds {
            table.row(&[
                r.round.to_string(),
                r.kind.name().to_owned(),
                r.scenarios.to_string(),
                r.campaign.total().to_string(),
                r.campaign.passed().to_string(),
                format!("{}/{} (+{})", r.pages_hit, self.page_space, r.new_pages),
                format!("{:.1}%", 100.0 * r.page_coverage),
                format!("{:.1}%", 100.0 * r.register_coverage),
            ]);
        }
        table
    }

    /// Renders the exploration as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"derivative\":{},\"page_space\":{},\"platforms\":[",
            json_string(self.derivative.name()),
            self.page_space
        ));
        for (i, p) in self.platforms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", p.name()));
        }
        s.push_str("],\"rounds\":[");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"round\":{},\"stimulus\":\"{}\",\"scenarios\":{},\"total\":{},\"passed\":{},\"failed\":{},\"new_pages\":{},\"pages_hit\":{},\"page_coverage\":{:.4},\"register_coverage\":{:.4}}}",
                r.round,
                r.kind.name(),
                r.scenarios,
                r.campaign.total(),
                r.campaign.passed(),
                r.campaign.failed(),
                r.new_pages,
                r.pages_hit,
                r.page_coverage,
                r.register_coverage,
            ));
        }
        s.push_str(&format!(
            "],\"final_page_coverage\":{:.4}}}",
            self.final_page_coverage()
        ));
        s
    }
}

impl fmt::Display for ExplorationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())
    }
}

/// The page targets every exploration scenario draws.
const SCENARIO_PAGES: usize = 2;

/// Builder for a closed-loop coverage exploration: round 1 draws
/// constrained-random stimulus, every later round draws
/// coverage-directed stimulus biased toward the holes measured so far.
///
/// Page coverage is cumulative, so it is monotonically non-decreasing
/// by construction; as long as unseen pages remain, a coverage-directed
/// round strictly improves on the constrained-random baseline because
/// its page sampling drains the unseen pool first.
///
/// The run knobs (platforms, workers, store, observer factory) live in
/// the [`Campaign`] every round's campaign is cloned from.
#[derive(Clone, Debug)]
pub struct Exploration {
    campaign: Campaign,
    derivative: DerivativeId,
    rounds: usize,
    batch: usize,
    master_seed: u64,
}

impl Default for Exploration {
    fn default() -> Self {
        Self::new()
    }
}

impl Exploration {
    /// Defaults: SC88-A, the golden-model + RTL multi-platform preset,
    /// 3 rounds of 4 scenarios, machine-derived workers. Every scenario
    /// draws 2 pages, and every run has the default instruction budget
    /// ([`advm_sim::DEFAULT_FUEL`]).
    pub fn new() -> Self {
        Self {
            campaign: Campaign::new().platforms([PlatformId::GoldenModel, PlatformId::RtlSim]),
            derivative: DerivativeId::Sc88A,
            rounds: 3,
            batch: 4,
            master_seed: 0x5EED,
        }
    }

    /// Sets the derivative to explore.
    pub fn derivative(mut self, derivative: DerivativeId) -> Self {
        self.derivative = derivative;
        self
    }

    /// Replaces the target platforms. A platform listed twice runs
    /// once, in its first position.
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformId>) -> Self {
        self.campaign = self.campaign.platforms(platforms);
        self
    }

    /// Sets the number of closed-loop rounds (minimum 1).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Sets the scenarios drawn per round (minimum 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the master seed every round's plan derives from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the campaign worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.campaign = self.campaign.workers(workers);
        self
    }

    /// Attaches a shared [`ArtifactStore`](crate::artifacts::ArtifactStore)
    /// to every round's campaign: generated scenarios that recur across
    /// rounds (or across explorations sharing the store) reuse their
    /// builds, predecode artifacts and prefix snapshots. Coverage and
    /// verdicts are identical with or without a store.
    pub fn artifact_store(mut self, store: Arc<crate::artifacts::ArtifactStore>) -> Self {
        self.campaign = self.campaign.artifact_store(store);
        self
    }

    /// Attaches an observer factory: each round's campaign gets one
    /// fresh observer built by `factory`, streaming its
    /// [`CampaignEvent`](crate::campaign::CampaignEvent)s live.
    pub fn observe_with(mut self, factory: crate::campaign::ObserverFactory) -> Self {
        self.campaign = self.campaign.observe_with(factory);
        self
    }

    /// Runs the closed loop: generate → campaign → coverage →
    /// regenerate, for the configured number of rounds.
    ///
    /// # Errors
    ///
    /// Propagates unsatisfiable constraints and campaign build failures.
    pub fn run(&self) -> Result<ExplorationReport, ExplorationError> {
        let base_platform = self
            .campaign
            .platforms
            .first()
            .copied()
            .unwrap_or(PlatformId::GoldenModel);
        let constraints = GlobalsConstraints::new(self.derivative, base_platform)
            .with_test_page_count(SCENARIO_PAGES);
        let derivative = Derivative::from_id(self.derivative);
        let mut pages = PageCoverage::new(&constraints);
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        // Carried across rounds: round k's feedback reuses the register
        // coverage sealed at the end of round k-1 instead of walking the
        // register map a second time over an unchanged touched-set.
        let mut registers = RegisterCoverage::compute(&derivative, &touched);
        let mut rounds: Vec<RoundReport> = Vec::new();

        for round in 1..=self.rounds {
            let seed = self.master_seed.wrapping_add(round as u64);
            let plan = if round == 1 {
                ScenarioEngine::new(seed)
                    .source(ConstrainedRandom::new(constraints.clone()))
                    .batch(self.batch)
                    .plan()?
            } else {
                let feedback = coverage_feedback(&pages, &registers);
                ScenarioEngine::new(seed)
                    .source(CoverageDirected::new(constraints.clone(), feedback))
                    .batch(self.batch)
                    .plan()?
            };

            let report = self
                .campaign
                .clone()
                .scenarios(plan.scenarios().iter().cloned())
                .run()?;

            let before = pages.pages_hit();
            for scenario in plan.scenarios() {
                pages.record(scenario.globals());
            }
            for run in report.runs() {
                touched.extend(run.result.mmio_touched.iter().copied());
            }
            registers = RegisterCoverage::compute(&derivative, &touched);
            rounds.push(RoundReport {
                round,
                kind: if round == 1 {
                    ScenarioKind::ConstrainedRandom
                } else {
                    ScenarioKind::CoverageDirected
                },
                scenarios: plan.len(),
                new_pages: pages.pages_hit() - before,
                pages_hit: pages.pages_hit(),
                page_coverage: pages.ratio(),
                register_coverage: registers.overall_ratio(),
                campaign: report,
            });
        }

        Ok(ExplorationReport {
            derivative: self.derivative,
            platforms: self.campaign.platforms.clone(),
            page_space: constraints.legal_pages().len(),
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use advm_gen::ScenarioSource;

    use super::*;

    fn constraints() -> GlobalsConstraints {
        GlobalsConstraints::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
    }

    #[test]
    fn scenario_env_pins_the_drawn_stimulus() {
        let scenario = ConstrainedRandom::new(constraints()).draw(0, 99).unwrap();
        let env = scenario_env(&scenario);
        assert_eq!(env.name(), scenario.name());
        assert_eq!(env.cells().len(), scenario.test_pages().len());
        let expected = format!("TEST1_TARGET_PAGE .EQU 0x{:X}", scenario.test_pages()[0]);
        assert!(
            env.globals_text().contains(&expected),
            "{}",
            env.globals_text()
        );
        assert!(env.stimulus().is_some());
    }

    #[test]
    fn scenario_env_cells_pass_on_the_golden_model() {
        let scenario = ConstrainedRandom::new(constraints()).draw(0, 7).unwrap();
        let env = scenario_env(&scenario);
        for cell in env.cells() {
            let result = crate::build::run_cell(&env, cell.id()).unwrap();
            assert!(result.passed(), "{}: {result}", cell.id());
        }
    }

    #[test]
    fn targeted_modules_add_stimulus_cells() {
        let feedback = CoverageFeedback::new().with_weak_modules(["UART", "CRC"]);
        let scenario = CoverageDirected::new(constraints(), feedback)
            .draw(0, 3)
            .unwrap();
        assert_eq!(scenario.target_modules(), ["UART", "CRC"]);
        let env = scenario_env(&scenario);
        assert!(env.cell("TEST_UART_LOOPBACK").is_some());
        assert!(env.cell("TEST_CRC_UNIT").is_some());
    }

    #[test]
    fn fault_hunter_cells_pass_clean_on_every_platform() {
        use advm_soc::DerivativeId;
        for module in ["PAGE", "UART", "TB"] {
            let cells = fault_hunter_cells(module);
            assert!(!cells.is_empty(), "{module} has hunters");
            for platform in advm_soc::PlatformId::ALL {
                let env = ModuleTestEnv::new(
                    "HUNT",
                    EnvConfig::new(DerivativeId::Sc88A, platform),
                    cells.clone(),
                );
                for cell in env.cells() {
                    let result = crate::build::run_cell(&env, cell.id()).unwrap();
                    assert!(
                        result.passed(),
                        "{module}/{} on {platform}: {result}",
                        cell.id()
                    );
                }
            }
        }
        assert!(fault_hunter_cells("TIMER").is_empty(), "no hunters needed");
    }

    #[test]
    fn targeted_modules_carry_their_hunters() {
        let feedback = CoverageFeedback::new().with_weak_modules(["PAGE", "UART"]);
        let scenario = CoverageDirected::new(constraints(), feedback)
            .draw(0, 3)
            .unwrap();
        let env = scenario_env(&scenario);
        assert!(env.cell("TEST_HUNT_PAGE_MAP").is_some());
        assert!(env.cell("TEST_HUNT_UART_CLEAN").is_some());
        assert!(env.cell("TEST_UART_LOOPBACK").is_some());
    }

    #[test]
    fn directed_source_bridges_structured_testplans() {
        let plan = Testplan::new("PAGE")
            .with_entry("TEST_PAGE_SELECT_01", "select page 8")
            .with_entry("TEST_PAGE_SELECT_02", "select page 7");
        let source = directed_source(&plan, presets::default_config());
        assert_eq!(source.len_hint(), Some(2));
        let s = source.draw(1, 0).unwrap();
        assert_eq!(s.name(), "DIR_PAGE_SELECT_02");
        assert!(s.meta().detail.contains("testplan PAGE"));
    }

    #[test]
    fn feedback_ranks_weak_modules_worst_first() {
        let mut touched = BTreeSet::new();
        // Touch both PAGE registers the coverage test uses, nothing else.
        touched.insert(0xE_0100);
        touched.insert(0xE_0104);
        let registers = RegisterCoverage::compute(&Derivative::sc88a(), &touched);
        let pages = PageCoverage::new(&constraints());
        let feedback = coverage_feedback(&pages, &registers);
        assert!(!feedback.weak_modules().is_empty());
        // PAGE is partially covered; fully untouched modules come first.
        let page_pos = feedback.weak_modules().iter().position(|m| m == "PAGE");
        if let Some(pos) = page_pos {
            assert_eq!(pos, feedback.weak_modules().len() - 1, "{feedback:?}");
        }
    }

    #[test]
    fn exploration_closes_the_loop_with_monotone_coverage() {
        let report = Exploration::new()
            .rounds(3)
            .batch(3)
            .workers(2)
            .master_seed(0xC0FFEE)
            .run()
            .unwrap();
        assert_eq!(report.rounds().len(), 3);
        assert_eq!(report.failed(), 0, "scenario cells must stay green");
        // Page coverage is cumulative → monotonically non-decreasing.
        for pair in report.rounds().windows(2) {
            assert!(
                pair[1].pages_hit >= pair[0].pages_hit,
                "round {} regressed page coverage",
                pair[1].round
            );
        }
        // Coverage-directed rounds strictly improve on the round-1
        // constrained-random baseline while unseen pages remain.
        let baseline = report.rounds()[0].pages_hit;
        assert!(
            report.rounds()[1..].iter().any(|r| r.pages_hit > baseline),
            "no coverage-directed round improved on the baseline: {report}"
        );
        assert!(report.rounds()[1..]
            .iter()
            .all(|r| r.kind == ScenarioKind::CoverageDirected));
        // Register coverage is cumulative too.
        for pair in report.rounds().windows(2) {
            assert!(pair[1].register_coverage >= pair[0].register_coverage - 1e-9);
        }
    }

    #[test]
    fn repeated_platforms_are_explored_and_listed_once() {
        let report = Exploration::new()
            .rounds(1)
            .batch(1)
            .platforms([
                PlatformId::RtlSim,
                PlatformId::GoldenModel,
                PlatformId::RtlSim,
            ])
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(
            report.platforms(),
            [PlatformId::RtlSim, PlatformId::GoldenModel]
        );
        assert_eq!(report.rounds()[0].campaign.platforms(), report.platforms());
        let json = report.to_json();
        assert!(
            json.contains("\"platforms\":[\"rtl\",\"golden\"]"),
            "{json}"
        );
    }

    #[test]
    fn exploration_report_json_is_balanced() {
        let report = Exploration::new()
            .rounds(2)
            .batch(2)
            .platforms([PlatformId::GoldenModel])
            .workers(2)
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"round\":2"), "{json}");
        assert!(
            json.contains("\"stimulus\":\"coverage-directed\""),
            "{json}"
        );
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }
}
