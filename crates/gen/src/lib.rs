//! # advm-gen — the coverage-driven scenario engine
//!
//! §2 of the paper, looking forward: *"this test environment structure
//! provides the ability to generate constrained-random instances of the
//! 'Global Defines' file from a higher level language such as Specman e,
//! Perl or even C/Cpp."* Rust is that higher-level language here — and
//! this crate closes the loop the paper only gestures at: stimulus is
//! not just drawn at random, it is *planned*, *measured* and *refined*.
//!
//! * [`GlobalsConstraints`] describes the legal stimulus space;
//!   [`GlobalsConstraints::instantiate`] draws one seeded instance.
//! * A [`Scenario`] is a named, seeded, self-describing unit of
//!   stimulus: the rendered `Globals.inc`, the structured values behind
//!   it and its provenance ([`ScenarioMeta`]).
//! * [`ScenarioSource`] is the extension point with three built-in
//!   families: [`Directed`] (from a test plan), [`ConstrainedRandom`]
//!   (uniform draws) and [`CoverageDirected`] (draws biased toward the
//!   holes a prior campaign measured, via [`CoverageFeedback`]).
//! * A [`ScenarioEngine`] batches sources into a deterministic
//!   [`StimulusPlan`]; [`PageCoverage`] measures what a batch exercised.
//!
//! ```
//! use advm_gen::{ConstrainedRandom, CoverageDirected, CoverageFeedback,
//!                GlobalsConstraints, PageCoverage, ScenarioEngine};
//! use advm_soc::{DerivativeId, PlatformId};
//!
//! # fn main() -> Result<(), advm_gen::ConstraintError> {
//! let constraints = GlobalsConstraints::new(DerivativeId::Sc88A, PlatformId::GoldenModel);
//!
//! // Round 1: uniform constrained-random stimulus.
//! let plan = ScenarioEngine::new(7)
//!     .source(ConstrainedRandom::new(constraints.clone()))
//!     .batch(4)
//!     .plan()?;
//! let mut coverage = PageCoverage::new(&constraints);
//! for scenario in plan.scenarios() {
//!     coverage.record(scenario.globals());
//! }
//!
//! // Round 2: chase the pages round 1 missed.
//! let feedback = CoverageFeedback::new().with_pages_seen(coverage.seen().iter().copied());
//! let refined = ScenarioEngine::new(8)
//!     .source(CoverageDirected::new(constraints, feedback))
//!     .batch(4)
//!     .plan()?;
//! let before = coverage.pages_hit();
//! for scenario in refined.scenarios() {
//!     coverage.record(scenario.globals());
//! }
//! assert!(coverage.pages_hit() > before, "refinement must find new pages");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraints;
mod coverage;
mod engine;
mod scenario;
mod source;

pub use constraints::{ConstraintError, GlobalsConstraints};
pub use coverage::{CoverageFeedback, PageCoverage};
pub use engine::{derive_seed, ScenarioEngine, StimulusPlan};
pub use scenario::{Scenario, ScenarioKind, ScenarioMeta};
pub use source::{ConstrainedRandom, CoverageDirected, Directed, ScenarioSource};
