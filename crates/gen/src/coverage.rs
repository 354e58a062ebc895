//! Coverage accounting over the page space, and the feedback record
//! that closes the generate→run→measure→refine loop.

use std::collections::BTreeSet;

use advm_soc::GlobalsFile;

use crate::constraints::GlobalsConstraints;

/// Coverage accounting over the page space.
#[derive(Debug, Clone)]
pub struct PageCoverage {
    seen: BTreeSet<u32>,
    space: usize,
}

impl PageCoverage {
    /// Coverage over a constraint model's legal pages.
    pub fn new(constraints: &GlobalsConstraints) -> Self {
        Self {
            seen: BTreeSet::new(),
            space: constraints.legal_pages().len(),
        }
    }

    /// Records the pages an instance exercises.
    pub fn record(&mut self, globals: &GlobalsFile) {
        let count = globals.value("TEST_PAGE_COUNT").unwrap_or(0);
        for i in 1..=count {
            if let Some(page) = globals.value(&format!("TEST{i}_TARGET_PAGE")) {
                self.seen.insert(page);
            }
        }
    }

    /// Records explicit page numbers.
    #[cfg(test)]
    pub(crate) fn record_pages(&mut self, pages: impl IntoIterator<Item = u32>) {
        self.seen.extend(pages);
    }

    /// The distinct pages exercised so far.
    pub fn seen(&self) -> &BTreeSet<u32> {
        &self.seen
    }

    /// Distinct pages exercised so far.
    pub fn pages_hit(&self) -> usize {
        self.seen.len()
    }

    /// Coverage ratio in `0.0..=1.0`.
    pub fn ratio(&self) -> f64 {
        if self.space == 0 {
            1.0
        } else {
            self.seen.len() as f64 / self.space as f64
        }
    }

    /// Whether the whole legal space has been exercised.
    pub fn complete(&self) -> bool {
        self.seen.len() >= self.space
    }
}

/// Measured coverage fed back into generation — what a
/// [`crate::CoverageDirected`] source biases its sampling against.
///
/// The campaign layer builds this from its `RegisterCoverage` /
/// [`PageCoverage`] reports; keeping the type here (and not depending on
/// the campaign crate) is what lets the generator stay at the bottom of
/// the dependency graph while still closing the loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageFeedback {
    pages_seen: BTreeSet<u32>,
    weak_modules: Vec<String>,
}

impl CoverageFeedback {
    /// An empty feedback record (nothing covered yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the pages prior stimulus already exercised.
    pub fn with_pages_seen(mut self, pages: impl IntoIterator<Item = u32>) -> Self {
        self.pages_seen.extend(pages);
        self
    }

    /// Records modules whose register coverage still has holes, in
    /// priority order (worst first). Duplicates are dropped, keeping the
    /// first occurrence: escape-driven audits fold several fault sites
    /// into the same module, and a repeated entry would bias
    /// [`crate::CoverageDirected`]'s rotation toward it.
    pub fn with_weak_modules<S: Into<String>>(
        mut self,
        modules: impl IntoIterator<Item = S>,
    ) -> Self {
        for module in modules {
            let module = module.into();
            if !self.weak_modules.contains(&module) {
                self.weak_modules.push(module);
            }
        }
        self
    }

    /// Pages prior stimulus already exercised.
    pub(crate) fn pages_seen(&self) -> &BTreeSet<u32> {
        &self.pages_seen
    }

    /// Modules with remaining register-coverage holes, worst first.
    pub fn weak_modules(&self) -> &[String] {
        &self.weak_modules
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
    fn coverage_grows_toward_complete() {
        let c = constraints().with_test_page_count(4).with_page_range(0..=7);
        let mut coverage = PageCoverage::new(&c);
        assert_eq!(coverage.pages_hit(), 0);
        let mut seeds = 0;
        while !coverage.complete() && seeds < 1000 {
            coverage.record(&c.instantiate(seeds).unwrap());
            seeds += 1;
        }
        assert!(coverage.complete(), "8-page space should saturate quickly");
        assert!((coverage.ratio() - 1.0).abs() < 1e-9);
        assert!(seeds < 100, "took {seeds} seeds to cover 8 pages");
    }

    #[test]
    fn explicit_pages_count_toward_coverage() {
        let c = constraints().with_page_range(0..=3);
        let mut coverage = PageCoverage::new(&c);
        coverage.record_pages([0, 2]);
        assert_eq!(coverage.pages_hit(), 2);
        assert_eq!(coverage.seen().iter().copied().collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn feedback_accumulates() {
        let f = CoverageFeedback::new()
            .with_pages_seen([1, 2, 2, 3])
            .with_weak_modules(["UART", "TIMER"]);
        assert_eq!(f.pages_seen().len(), 3);
        assert_eq!(f.weak_modules(), ["UART", "TIMER"]);
    }

    #[test]
    fn weak_modules_dedupe_preserving_priority_order() {
        // Escape-driven feedback folds several fault sites into the same
        // module; the rotation must not be biased by repeats.
        let f = CoverageFeedback::new()
            .with_weak_modules(["PAGE", "UART", "PAGE"])
            .with_weak_modules(["UART", "TB"]);
        assert_eq!(f.weak_modules(), ["PAGE", "UART", "TB"]);
    }
}
