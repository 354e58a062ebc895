//! Constraint model over a `Globals.inc` instance and single-instance
//! sampling.
//!
//! [`GlobalsConstraints`] describes the legal stimulus space (page
//! ranges, forbidden pages, extra numeric knobs); [`GlobalsConstraints::instantiate`]
//! draws one seeded instance. The scenario engine ([`crate::ScenarioEngine`])
//! builds on the same sampler, so a directed, a constrained-random and a
//! coverage-directed scenario all render through one code path.

use std::fmt;
use std::ops::RangeInclusive;

use advm_soc::{Derivative, DerivativeId, GlobalsFile, GlobalsSpec, PlatformId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The constraint model over a globals instance.
#[derive(Debug, Clone)]
pub struct GlobalsConstraints {
    /// Target derivative (bounds the page space).
    pub derivative: DerivativeId,
    /// Target platform.
    pub platform: PlatformId,
    /// How many `TESTn_TARGET_PAGE` values to draw.
    pub test_page_count: usize,
    /// Inclusive page range to draw from (clamped to the derivative's
    /// page count).
    pub page_range: RangeInclusive<u32>,
    /// Pages that must not be drawn (e.g. reserved system pages).
    pub forbidden_pages: Vec<u32>,
    /// Extra numeric knobs: `(define name, inclusive range)`.
    pub extra_knobs: Vec<(String, RangeInclusive<u32>)>,
}

impl GlobalsConstraints {
    /// Constraints spanning the derivative's whole page space, two test
    /// pages, no extra knobs.
    pub fn new(derivative: DerivativeId, platform: PlatformId) -> Self {
        let pages = Derivative::from_id(derivative).page_count();
        Self {
            derivative,
            platform,
            test_page_count: 2,
            page_range: 0..=(pages - 1),
            forbidden_pages: Vec::new(),
            extra_knobs: Vec::new(),
        }
    }

    /// Sets the number of test pages.
    pub fn with_test_page_count(mut self, count: usize) -> Self {
        self.test_page_count = count;
        self
    }

    /// Restricts the page range.
    pub fn with_page_range(mut self, range: RangeInclusive<u32>) -> Self {
        self.page_range = range;
        self
    }

    /// Forbids specific pages.
    pub fn with_forbidden_pages(mut self, pages: Vec<u32>) -> Self {
        self.forbidden_pages = pages;
        self
    }

    /// Adds a random knob rendered as an extra define.
    pub fn with_knob(mut self, name: impl Into<String>, range: RangeInclusive<u32>) -> Self {
        self.extra_knobs.push((name.into(), range));
        self
    }

    /// The set of pages an instance may legally draw.
    pub fn legal_pages(&self) -> Vec<u32> {
        let max = Derivative::from_id(self.derivative).page_count();
        self.page_range
            .clone()
            .filter(|p| *p < max && !self.forbidden_pages.contains(p))
            .collect()
    }

    /// Checks the constraint space is satisfiable: at least one legal
    /// page, and every knob range non-empty.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`ConstraintError`].
    pub fn validate(&self) -> Result<(), ConstraintError> {
        if self.legal_pages().is_empty() {
            return Err(ConstraintError::EmptyPageSpace);
        }
        for (name, range) in &self.extra_knobs {
            if range.start() > range.end() {
                return Err(ConstraintError::EmptyKnobRange {
                    name: name.clone(),
                    start: *range.start(),
                    end: *range.end(),
                });
            }
        }
        Ok(())
    }

    /// Draws one seeded globals instance. The same `(constraints, seed)`
    /// pair always produces the same file — regressions with random
    /// configuration must be reproducible.
    ///
    /// # Errors
    ///
    /// Fails if the constraints leave no legal page or a knob range is
    /// empty.
    pub fn instantiate(&self, seed: u64) -> Result<GlobalsFile, ConstraintError> {
        Ok(self.sample(seed)?.render())
    }

    /// Draws one seeded instance as a structured [`StimulusDraw`]
    /// (pages + knob values), which the scenario layer keeps alongside
    /// the rendered file.
    pub(crate) fn sample(&self, seed: u64) -> Result<StimulusDraw, ConstraintError> {
        self.validate()?;
        let legal = self.legal_pages();
        // This draw order is a compatibility contract: pages first, then
        // knobs in declaration order, all from one SplitMix64 stream, so
        // a `(constraints, seed)` pair draws the same file as it always
        // has (a test pins it against a hand-written reference).
        let mut rng = StdRng::seed_from_u64(seed);
        let pages: Vec<u32> = (0..self.test_page_count)
            .map(|_| legal[rng.gen_range(0..legal.len())])
            .collect();
        let mut knobs = vec![
            ("RANDOM_SEED_LO".to_owned(), (seed & 0xFFFF_FFFF) as u32),
            ("RANDOM_SEED_HI".to_owned(), (seed >> 32) as u32),
        ];
        for (name, range) in &self.extra_knobs {
            knobs.push((name.clone(), rng.gen_range(range.clone())));
        }
        Ok(StimulusDraw {
            derivative: self.derivative,
            platform: self.platform,
            pages,
            knobs,
        })
    }
}

/// One structured stimulus draw: the values behind a rendered
/// `Globals.inc` instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StimulusDraw {
    pub derivative: DerivativeId,
    pub platform: PlatformId,
    pub pages: Vec<u32>,
    pub knobs: Vec<(String, u32)>,
}

impl StimulusDraw {
    /// Renders the draw into a complete `Globals.inc`.
    pub fn render(&self) -> GlobalsFile {
        render_globals(self.derivative, self.platform, &self.pages, &self.knobs)
    }
}

/// Renders a globals file from explicit stimulus values (shared by the
/// sampler and [`crate::Scenario::globals_for`]).
pub(crate) fn render_globals(
    derivative: DerivativeId,
    platform: PlatformId,
    pages: &[u32],
    knobs: &[(String, u32)],
) -> GlobalsFile {
    let mut spec =
        GlobalsSpec::new(Derivative::from_id(derivative), platform).with_test_pages(pages.to_vec());
    for (name, value) in knobs {
        spec = spec.with_extra(name.clone(), *value);
    }
    spec.render()
}

/// Error returned when a constraint model is unsatisfiable.
///
/// This folds the old `EmptyConstraintError` unit struct into a richer
/// enum: an empty knob range used to panic deep inside the RNG, now it
/// is reported as a typed error naming the knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// Page range minus forbidden pages leaves nothing to draw.
    EmptyPageSpace,
    /// A `with_knob` range is empty (`start > end`).
    EmptyKnobRange {
        /// The knob's define name.
        name: String,
        /// The (inverted) range start.
        start: u32,
        /// The (inverted) range end.
        end: u32,
    },
    /// A directed source has no test-plan entries to draw from.
    EmptyTestplan,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::EmptyPageSpace => {
                f.write_str("constraint space contains no legal pages")
            }
            ConstraintError::EmptyKnobRange { name, start, end } => {
                write!(f, "knob `{name}` has an empty range ({start}..={end})")
            }
            ConstraintError::EmptyTestplan => {
                f.write_str("directed source has no test-plan entries")
            }
        }
    }
}

impl std::error::Error for ConstraintError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraints() -> GlobalsConstraints {
        GlobalsConstraints::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = constraints().with_test_page_count(4);
        let a = c.instantiate(42).unwrap();
        let b = c.instantiate(42).unwrap();
        assert_eq!(a.text(), b.text());
        let other = c.instantiate(43).unwrap();
        assert_ne!(a.text(), other.text());
    }

    #[test]
    fn pages_respect_constraints() {
        let c = constraints()
            .with_test_page_count(16)
            .with_page_range(4..=9)
            .with_forbidden_pages(vec![6]);
        for seed in 0..32 {
            let g = c.instantiate(seed).unwrap();
            for i in 1..=16 {
                let page = g.value(&format!("TEST{i}_TARGET_PAGE")).unwrap();
                assert!((4..=9).contains(&page), "seed {seed}: page {page}");
                assert_ne!(page, 6, "seed {seed}: forbidden page drawn");
            }
        }
    }

    #[test]
    fn empty_constraint_space_rejected() {
        let c = constraints()
            .with_page_range(5..=5)
            .with_forbidden_pages(vec![5]);
        assert_eq!(c.instantiate(0), Err(ConstraintError::EmptyPageSpace));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_knob_range_is_a_typed_error_not_a_panic() {
        // Used to panic inside rng.gen_range; now a typed error naming
        // the offending knob.
        let c = constraints().with_knob("X", 5..=3);
        assert_eq!(
            c.instantiate(0),
            Err(ConstraintError::EmptyKnobRange {
                name: "X".to_owned(),
                start: 5,
                end: 3,
            })
        );
        let message = c.instantiate(0).unwrap_err().to_string();
        assert!(message.contains("`X`"), "{message}");
        assert!(message.contains("5..=3"), "{message}");
    }

    #[test]
    fn knobs_rendered_in_range() {
        let c = constraints().with_knob("MY_KNOB", 10..=20);
        for seed in 0..16 {
            let g = c.instantiate(seed).unwrap();
            let v = g.value("MY_KNOB").unwrap();
            assert!((10..=20).contains(&v), "seed {seed}: {v}");
        }
    }

    #[test]
    fn seed_is_recorded_in_the_instance() {
        let g = constraints().instantiate(0xDEAD_BEEF_CAFE).unwrap();
        assert_eq!(g.value("RANDOM_SEED_LO"), Some(0xBEEF_CAFE));
        assert_eq!(g.value("RANDOM_SEED_HI"), Some(0xDEAD));
    }

    #[test]
    fn wider_derivative_has_larger_space() {
        let a = GlobalsConstraints::new(DerivativeId::Sc88A, PlatformId::GoldenModel);
        let c = GlobalsConstraints::new(DerivativeId::Sc88C, PlatformId::GoldenModel);
        assert_eq!(a.legal_pages().len(), 32);
        assert_eq!(c.legal_pages().len(), 64);
    }

    /// A `(constraints, seed)` pair draws the same file it always has:
    /// same RNG, same draw order, same rendering.
    #[test]
    fn instantiate_matches_legacy_algorithm() {
        let c = constraints()
            .with_test_page_count(4)
            .with_forbidden_pages(vec![3])
            .with_knob("KNOB_A", 1..=9)
            .with_knob("KNOB_B", 100..=200);
        for seed in [0u64, 42, 0xDEAD_BEEF, u64::MAX] {
            // The legacy algorithm, reimplemented verbatim.
            let legal = c.legal_pages();
            let mut rng = StdRng::seed_from_u64(seed);
            let pages: Vec<u32> = (0..c.test_page_count)
                .map(|_| legal[rng.gen_range(0..legal.len())])
                .collect();
            let mut spec = GlobalsSpec::new(Derivative::from_id(c.derivative), c.platform)
                .with_test_pages(pages)
                .with_extra("RANDOM_SEED_LO", (seed & 0xFFFF_FFFF) as u32)
                .with_extra("RANDOM_SEED_HI", (seed >> 32) as u32);
            for (name, range) in &c.extra_knobs {
                let value = rng.gen_range(*range.start()..=*range.end());
                spec = spec.with_extra(name.clone(), value);
            }
            let legacy = spec.render();

            let drawn = c.instantiate(seed).unwrap();
            assert_eq!(drawn.text(), legacy.text(), "seed {seed}");
        }
    }
}
