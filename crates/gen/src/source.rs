//! Scenario sources — the three ways stimulus enters a plan.
//!
//! * [`Directed`] turns a test plan into scenarios: the paper's directed
//!   testing, one deterministic scenario per plan entry.
//! * [`ConstrainedRandom`] draws uniformly from a
//!   [`GlobalsConstraints`] model — §2's "constrained-random instances
//!   of the 'Global Defines' file".
//! * [`CoverageDirected`] consumes a prior campaign's measured coverage
//!   ([`CoverageFeedback`]) and biases its draws toward untouched pages
//!   and weakly covered modules — the closed loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::constraints::{ConstraintError, GlobalsConstraints};
use crate::coverage::CoverageFeedback;
use crate::scenario::{Scenario, ScenarioKind, ScenarioMeta};

/// A family of scenarios a [`crate::ScenarioEngine`] can draw from.
///
/// Sources are deterministic: `draw(index, seed)` must return the same
/// scenario for the same arguments, whatever happened before — the
/// engine derives per-scenario seeds from its master seed, so whole
/// plans replay byte-identically.
pub trait ScenarioSource {
    /// Short label for reports (e.g. `"constrained-random"`).
    fn label(&self) -> &str;

    /// `Some(n)` when the source is finite (a directed plan has exactly
    /// one scenario per entry); `None` when it can draw indefinitely.
    fn len_hint(&self) -> Option<usize>;

    /// Draws the `index`-th scenario under `seed`.
    ///
    /// # Errors
    ///
    /// Propagates an unsatisfiable constraint model.
    fn draw(&self, index: usize, seed: u64) -> Result<Scenario, ConstraintError>;
}

/// Directed scenarios derived from a test plan: one deterministic
/// scenario per plan entry.
///
/// The generator crate sits below the methodology engine in the
/// dependency graph, so it accepts the plan as `(id, description)`
/// pairs or as the paper's grep-able plain text (`TESTPLAN.TXT`); the
/// engine crate bridges its structured `Testplan` type here.
#[derive(Debug, Clone)]
pub struct Directed {
    constraints: GlobalsConstraints,
    module: String,
    entries: Vec<(String, String)>,
}

impl Directed {
    /// A directed source over explicit `(test id, description)` entries.
    pub fn new<I, S, D>(
        constraints: GlobalsConstraints,
        module: impl Into<String>,
        entries: I,
    ) -> Self
    where
        I: IntoIterator<Item = (S, D)>,
        S: Into<String>,
        D: Into<String>,
    {
        Self {
            constraints,
            module: module.into(),
            entries: entries
                .into_iter()
                .map(|(id, desc)| (id.into(), desc.into()))
                .collect(),
        }
    }

    /// Parses the plain-text `TESTPLAN.TXT` form (`TESTPLAN for M` header,
    /// `TEST_X: description` lines) into a directed source.
    pub fn from_testplan_text(constraints: GlobalsConstraints, text: &str) -> Self {
        let mut module = String::new();
        let mut entries = Vec::new();
        for line in text.lines() {
            if let Some(m) = line.strip_prefix("TESTPLAN for ") {
                module = m.trim().to_owned();
            } else if let Some((id, desc)) = line.split_once(':') {
                if id.starts_with("TEST_") {
                    entries.push((id.trim().to_owned(), desc.trim().to_owned()));
                }
            }
        }
        Self {
            constraints,
            module,
            entries,
        }
    }

    /// The plan entries this source covers.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }
}

impl ScenarioSource for Directed {
    fn label(&self) -> &str {
        "directed"
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }

    fn draw(&self, index: usize, seed: u64) -> Result<Scenario, ConstraintError> {
        self.constraints.validate()?;
        if self.entries.is_empty() {
            return Err(ConstraintError::EmptyTestplan);
        }
        let (id, description) = &self.entries[index % self.entries.len()];
        let legal = self.constraints.legal_pages();
        // Deterministic page targets in the style of the paper's default
        // plans: entry i strides through the legal space, no RNG at all.
        let pages: Vec<u32> = (0..self.constraints.test_page_count)
            .map(|j| legal[(index * 7 + j * 3 + 1) % legal.len()])
            .collect();
        let mut knobs = vec![
            ("RANDOM_SEED_LO".to_owned(), (seed & 0xFFFF_FFFF) as u32),
            ("RANDOM_SEED_HI".to_owned(), (seed >> 32) as u32),
        ];
        // Directed scenarios pin every knob to its range start: directed
        // testing is about reproducing the plan, not exploring.
        for (name, range) in &self.constraints.extra_knobs {
            knobs.push((name.clone(), *range.start()));
        }
        let name = format!("DIR_{}", id.strip_prefix("TEST_").unwrap_or(id));
        Ok(Scenario::new(
            ScenarioMeta {
                name,
                kind: ScenarioKind::Directed,
                seed,
                detail: format!("testplan {}: {id} — {description}", self.module),
            },
            self.constraints.derivative,
            self.constraints.platform,
            pages,
            knobs,
            Vec::new(),
        ))
    }
}

/// Uniform constrained-random scenarios: one
/// [`GlobalsConstraints::instantiate`] draw per scenario.
#[derive(Debug, Clone)]
pub struct ConstrainedRandom {
    constraints: GlobalsConstraints,
}

impl ConstrainedRandom {
    /// A random source over a constraint model.
    pub fn new(constraints: GlobalsConstraints) -> Self {
        Self { constraints }
    }
}

impl ScenarioSource for ConstrainedRandom {
    fn label(&self) -> &str {
        "constrained-random"
    }

    fn len_hint(&self) -> Option<usize> {
        None
    }

    fn draw(&self, index: usize, seed: u64) -> Result<Scenario, ConstraintError> {
        let draw = self.constraints.sample(seed)?;
        Ok(Scenario::new(
            ScenarioMeta {
                name: format!("CR_{index:03}"),
                kind: ScenarioKind::ConstrainedRandom,
                seed,
                detail: format!(
                    "uniform draw over {} legal pages",
                    self.constraints.legal_pages().len()
                ),
            },
            draw.derivative,
            draw.platform,
            draw.pages,
            draw.knobs,
            Vec::new(),
        ))
    }
}

/// Coverage-directed scenarios: random draws biased toward the holes a
/// prior campaign measured.
///
/// Page sampling prefers pages absent from
/// [`CoverageFeedback::pages_seen`] (without replacement inside one
/// scenario), falling back to uniform draws once the unseen pool is
/// exhausted; each scenario additionally targets up to
/// [`CoverageDirected::MODULES_PER_SCENARIO`] weakly covered modules,
/// rotating through the feedback list so a batch spreads across all of
/// them.
#[derive(Debug, Clone)]
pub struct CoverageDirected {
    constraints: GlobalsConstraints,
    feedback: CoverageFeedback,
}

impl CoverageDirected {
    /// How many weak modules one scenario stimulates.
    pub const MODULES_PER_SCENARIO: usize = 2;

    /// A coverage-chasing source over a constraint model and the
    /// feedback from a prior round.
    pub fn new(constraints: GlobalsConstraints, feedback: CoverageFeedback) -> Self {
        Self {
            constraints,
            feedback,
        }
    }

    /// The feedback this source biases against.
    pub fn feedback(&self) -> &CoverageFeedback {
        &self.feedback
    }
}

impl ScenarioSource for CoverageDirected {
    fn label(&self) -> &str {
        "coverage-directed"
    }

    fn len_hint(&self) -> Option<usize> {
        None
    }

    fn draw(&self, index: usize, seed: u64) -> Result<Scenario, ConstraintError> {
        self.constraints.validate()?;
        let legal = self.constraints.legal_pages();
        let mut unseen: Vec<u32> = legal
            .iter()
            .copied()
            .filter(|p| !self.feedback.pages_seen().contains(p))
            .collect();
        let initial_unseen = unseen.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fresh = 0usize;
        let pages: Vec<u32> = (0..self.constraints.test_page_count)
            .map(|_| {
                if unseen.is_empty() {
                    legal[rng.gen_range(0..legal.len())]
                } else {
                    fresh += 1;
                    unseen.swap_remove(rng.gen_range(0..unseen.len()))
                }
            })
            .collect();
        let mut knobs = vec![
            ("RANDOM_SEED_LO".to_owned(), (seed & 0xFFFF_FFFF) as u32),
            ("RANDOM_SEED_HI".to_owned(), (seed >> 32) as u32),
        ];
        for (name, range) in &self.constraints.extra_knobs {
            knobs.push((name.clone(), rng.gen_range(range.clone())));
        }
        // Rotate through the weak modules so a batch of scenarios covers
        // all of them even though each scenario targets only a couple.
        let weak = self.feedback.weak_modules();
        let mut target_modules: Vec<String> = Vec::new();
        for k in 0..weak.len().min(Self::MODULES_PER_SCENARIO) {
            let module = &weak[(index * Self::MODULES_PER_SCENARIO + k) % weak.len()];
            if !target_modules.contains(module) {
                target_modules.push(module.clone());
            }
        }
        let detail = format!(
            "chasing {fresh} of {initial_unseen} unseen page(s); modules [{}]",
            target_modules.join(", "),
        );
        Ok(Scenario::new(
            ScenarioMeta {
                name: format!("COV_{index:03}"),
                kind: ScenarioKind::CoverageDirected,
                seed,
                detail,
            },
            self.constraints.derivative,
            self.constraints.platform,
            pages,
            knobs,
            target_modules,
        ))
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use super::*;

    fn constraints() -> GlobalsConstraints {
        GlobalsConstraints::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
    }

    #[test]
    fn directed_covers_every_entry_deterministically() {
        let d = Directed::new(
            constraints(),
            "PAGE",
            [("TEST_A", "first"), ("TEST_B", "second")],
        );
        assert_eq!(d.len_hint(), Some(2));
        let a1 = d.draw(0, 9).unwrap();
        let a2 = d.draw(0, 9).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(a1.name(), "DIR_A");
        assert_eq!(a1.kind(), ScenarioKind::Directed);
        assert!(a1.meta().detail.contains("TEST_A"));
        let b = d.draw(1, 9).unwrap();
        assert_ne!(a1.test_pages(), b.test_pages());
    }

    #[test]
    fn directed_parses_plain_text_testplans() {
        let text = "TESTPLAN for UART\n========\nTEST_UART_LOOPBACK: loopback echo\nnotes: n/a\n";
        let d = Directed::from_testplan_text(constraints(), text);
        assert_eq!(
            d.entries(),
            [("TEST_UART_LOOPBACK".to_owned(), "loopback echo".to_owned())]
        );
        let s = d.draw(0, 0).unwrap();
        assert!(s.meta().detail.contains("testplan UART"));
    }

    #[test]
    fn constrained_random_matches_bare_instantiation() {
        let c = constraints().with_test_page_count(4).with_knob("K", 1..=9);
        let s = ConstrainedRandom::new(c.clone()).draw(3, 77).unwrap();
        assert_eq!(s.globals().text(), c.instantiate(77).unwrap().text());
        assert_eq!(s.name(), "CR_003");
    }

    #[test]
    fn coverage_directed_prefers_unseen_pages() {
        let c = constraints().with_test_page_count(4).with_page_range(0..=9);
        // Everything but pages 3 and 8 already seen.
        let feedback =
            CoverageFeedback::new().with_pages_seen((0..=9u32).filter(|p| *p != 3 && *p != 8));
        let source = CoverageDirected::new(c, feedback);
        for seed in 0..8 {
            let s = source.draw(seed as usize, seed).unwrap();
            assert!(
                s.test_pages().contains(&3) && s.test_pages().contains(&8),
                "seed {seed}: {:?} must drain the unseen pool first",
                s.test_pages()
            );
        }
    }

    #[test]
    fn coverage_directed_rotates_weak_modules() {
        let c = constraints();
        let feedback = CoverageFeedback::new().with_weak_modules(["UART", "TIMER", "NVMC", "CRC"]);
        let source = CoverageDirected::new(c, feedback);
        let a = source.draw(0, 1).unwrap();
        let b = source.draw(1, 2).unwrap();
        assert_eq!(a.target_modules(), ["UART", "TIMER"]);
        assert_eq!(b.target_modules(), ["NVMC", "CRC"]);
    }

    #[test]
    fn coverage_directed_falls_back_to_uniform_when_saturated() {
        let c = constraints().with_page_range(0..=3).with_test_page_count(8);
        let feedback = CoverageFeedback::new().with_pages_seen(0..=3u32);
        let s = CoverageDirected::new(c, feedback).draw(0, 5).unwrap();
        assert_eq!(s.test_pages().len(), 8);
        assert!(s.test_pages().iter().all(|p| *p <= 3));
    }

    #[test]
    fn directed_with_no_entries_errors_instead_of_panicking() {
        let empty = Directed::from_testplan_text(constraints(), "TESTPLAN for M\nnotes only\n");
        assert_eq!(empty.draw(0, 0), Err(crate::ConstraintError::EmptyTestplan));
        assert_eq!(empty.len_hint(), Some(0));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn sources_propagate_constraint_errors() {
        let empty = constraints().with_page_range(1..=0);
        assert!(ConstrainedRandom::new(empty.clone()).draw(0, 0).is_err());
        assert!(
            CoverageDirected::new(empty.clone(), CoverageFeedback::new())
                .draw(0, 0)
                .is_err()
        );
        assert!(Directed::new(empty, "M", [("TEST_X", "x")])
            .draw(0, 0)
            .is_err());
    }
}
