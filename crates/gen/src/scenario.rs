//! Scenarios — named, seeded, self-describing stimulus.
//!
//! A [`Scenario`] is one unit of stimulus the campaign layer can run:
//! the rendered `Globals.inc` instance, the structured values behind it
//! (test pages, knobs, target modules) and its provenance — which
//! [`crate::ScenarioSource`] drew it, under which seed, chasing what.

use advm_soc::{DerivativeId, GlobalsFile, PlatformId};

use crate::constraints::render_globals;

/// How a scenario came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Derived from a test plan entry — the paper's directed testing.
    Directed,
    /// Drawn uniformly from a constraint model.
    ConstrainedRandom,
    /// Drawn with sampling biased toward coverage holes from a prior
    /// campaign.
    CoverageDirected,
    /// A constrained-random guest *program* over the ISA encoder (the
    /// `advm-fuzz` crate's workload class), rather than a knob file for
    /// the seed suite's programs.
    ProgramFuzz,
}

impl ScenarioKind {
    /// The stable machine-readable name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Directed => "directed",
            ScenarioKind::ConstrainedRandom => "constrained-random",
            ScenarioKind::CoverageDirected => "coverage-directed",
            ScenarioKind::ProgramFuzz => "program-fuzz",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scenario's provenance record: everything a report needs to say
/// where stimulus came from, without carrying the stimulus itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMeta {
    /// Unique scenario name (doubles as the synthetic environment name
    /// when the campaign runs it).
    pub name: String,
    /// Which source family drew it.
    pub kind: ScenarioKind,
    /// The per-scenario seed (derived from the plan's master seed).
    pub seed: u64,
    /// Human-readable provenance detail (test-plan entry, targeted
    /// pages/modules, …).
    pub detail: String,
}

/// One named, seeded, self-describing unit of stimulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    meta: ScenarioMeta,
    derivative: DerivativeId,
    platform: PlatformId,
    test_pages: Vec<u32>,
    knobs: Vec<(String, u32)>,
    target_modules: Vec<String>,
    globals: GlobalsFile,
}

impl Scenario {
    /// Builds a scenario from structured stimulus values, rendering its
    /// globals file.
    pub fn new(
        meta: ScenarioMeta,
        derivative: DerivativeId,
        platform: PlatformId,
        test_pages: Vec<u32>,
        knobs: Vec<(String, u32)>,
        target_modules: Vec<String>,
    ) -> Self {
        let globals = render_globals(derivative, platform, &test_pages, &knobs);
        Self {
            meta,
            derivative,
            platform,
            test_pages,
            knobs,
            target_modules,
            globals,
        }
    }

    /// The provenance record.
    pub fn meta(&self) -> &ScenarioMeta {
        &self.meta
    }

    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// The per-scenario seed.
    pub fn seed(&self) -> u64 {
        self.meta.seed
    }

    /// The source family that drew this scenario.
    pub fn kind(&self) -> ScenarioKind {
        self.meta.kind
    }

    /// Target derivative.
    pub fn derivative(&self) -> DerivativeId {
        self.derivative
    }

    /// Platform the scenario was rendered for.
    pub fn platform(&self) -> PlatformId {
        self.platform
    }

    /// The drawn `TESTn_TARGET_PAGE` values.
    pub fn test_pages(&self) -> &[u32] {
        &self.test_pages
    }

    /// The drawn knob values (including the recorded `RANDOM_SEED_*`
    /// halves).
    pub fn knobs(&self) -> &[(String, u32)] {
        &self.knobs
    }

    /// Modules this scenario deliberately stimulates beyond the page
    /// space (coverage-directed scenarios chase register holes here).
    pub fn target_modules(&self) -> &[String] {
        &self.target_modules
    }

    /// The rendered `Globals.inc` for the scenario's own platform.
    pub fn globals(&self) -> &GlobalsFile {
        &self.globals
    }

    /// Re-renders the scenario's globals for another platform — the
    /// paper's re-targeting rule: same stimulus, regenerated abstraction
    /// layer.
    #[cfg(test)]
    pub(crate) fn globals_for(&self, platform: PlatformId) -> GlobalsFile {
        render_globals(self.derivative, platform, &self.test_pages, &self.knobs)
    }

    /// Returns the scenario under a different name (the engine and the
    /// campaign layer use this to keep names unique across batches).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.meta.name = name.into();
        self
    }

    /// Renames the scenario (the engine dedupes names across sources).
    pub(crate) fn rename(&mut self, name: String) {
        self.meta.name = name;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::new(
            ScenarioMeta {
                name: "CR_000".to_owned(),
                kind: ScenarioKind::ConstrainedRandom,
                seed: 7,
                detail: "demo".to_owned(),
            },
            DerivativeId::Sc88A,
            PlatformId::GoldenModel,
            vec![8, 7],
            vec![
                ("RANDOM_SEED_LO".to_owned(), 7),
                ("RANDOM_SEED_HI".to_owned(), 0),
            ],
            vec!["UART".to_owned()],
        )
    }

    #[test]
    fn scenario_renders_its_stimulus() {
        let s = scenario();
        assert_eq!(s.globals().value("TEST1_TARGET_PAGE"), Some(8));
        assert_eq!(s.globals().value("TEST2_TARGET_PAGE"), Some(7));
        assert_eq!(s.globals().value("RANDOM_SEED_LO"), Some(7));
        assert_eq!(s.name(), "CR_000");
        assert_eq!(s.kind().name(), "constrained-random");
    }

    #[test]
    fn retargeting_keeps_stimulus_and_swaps_platform_knobs() {
        let s = scenario();
        let accel = s.globals_for(PlatformId::Accelerator);
        // Same stimulus…
        assert_eq!(
            accel.value("TEST1_TARGET_PAGE"),
            s.globals().value("TEST1_TARGET_PAGE")
        );
        // …different platform knobs.
        assert_ne!(accel.value("POLL_LIMIT"), s.globals().value("POLL_LIMIT"));
    }
}
