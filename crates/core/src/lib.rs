//! # advm — the Assembler Driven Verification Methodology engine
//!
//! This crate is the paper's primary contribution made executable: a
//! layered assembler test-environment architecture in which **all change
//! is absorbed by an abstraction layer**, so directed tests port to new
//! chip derivatives, new simulation platforms and new embedded-software
//! releases without being edited.
//!
//! | paper artifact | module |
//! |----------------|--------|
//! | Figure 1 — module test environment structure | [`mod@env`], [`layer`] |
//! | Figure 2 — abuse of the structure | [`violation`] |
//! | Figure 3 — module directory structure | [`mod@env`] (tree + layout validator) |
//! | Figure 4 — complete test environment | [`system`] |
//! | Figure 5 — system directory structure | [`system`], [`runtime`] |
//! | Figure 6 — globals-controlled bit-field test | [`presets::page_env`], [`basefuncs`] |
//! | Figure 7 — wrapped ES function | [`basefuncs`], [`presets::es_env`] |
//! | §2/§3 — releases and regressions | [`release`], [`campaign`] |
//! | the porting claim | [`porting`] |
//!
//! ```
//! use advm::build::run_cell;
//! use advm::env::EnvConfig;
//! use advm::porting::{port_env, test_files_touched};
//! use advm::presets::{default_config, page_env};
//! use advm_soc::{DerivativeId, PlatformId};
//!
//! # fn main() -> Result<(), advm_asm::AsmError> {
//! // Build the Figure 6 environment and run a test on the golden model.
//! let env = page_env(default_config(), 2);
//! assert!(run_cell(&env, "TEST_PAGE_SELECT_01")?.passed());
//!
//! // Port it to the widened-page derivative: zero test files change.
//! let outcome = port_env(&env, EnvConfig::new(DerivativeId::Sc88C, PlatformId::GoldenModel));
//! assert_eq!(test_files_touched(&outcome.changes), 0);
//! assert!(run_cell(&outcome.env, "TEST_PAGE_SELECT_01")?.passed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod audit;
pub mod basefuncs;
pub mod build;
pub mod campaign;
pub mod coverage;
pub mod env;
pub mod fsio;
pub mod fuzz;
pub mod layer;
pub mod porting;
pub mod prefix;
pub mod presets;
pub mod release;
pub mod runtime;
pub mod stimulus;
pub mod system;
pub mod testplan;
pub mod violation;
pub mod wire;

pub use artifacts::{ArtifactStore, ArtifactStoreStats, DEFAULT_ARTIFACT_CAPACITY};
pub use audit::{AuditCell, AuditError, CellOutcome, FaultAudit, FaultAuditReport};
pub use basefuncs::{base_functions, BaseFuncsStyle};
pub use build::{build_cell, run_cell};
pub use campaign::{
    Campaign, CampaignError, CampaignEvent, CampaignObserver, CampaignReport, CheckerViolation,
    EventLog, ObserverFactory, ProgressObserver, TestRun, DEFAULT_MONITOR_CAPACITY,
};
pub use coverage::{ModuleCoverage, RegisterCoverage};
pub use env::{validate_layout, EnvConfig, LayoutIssue, ModuleTestEnv, Stimulus, TestCell};
pub use fuzz::{
    program_env, Fuzz, FuzzError, FuzzReport, DEFAULT_FUZZ_PROGRAMS, DEFAULT_FUZZ_SEED,
};
pub use layer::{classify_path, Layer};
pub use porting::{port_env, PortOutcome};
pub use prefix::DEFAULT_PREFIX_BUDGET;
pub use release::{Release, ReleaseError, ReleaseStore, SystemRelease};
pub use stimulus::{
    coverage_feedback, directed_source, scenario_env, Exploration, ExplorationError,
    ExplorationReport, RoundReport,
};
pub use system::{SystemIssue, SystemVerificationEnv};
pub use testplan::{Testplan, TestplanEntry};
pub use violation::{check_env, Violation, ViolationKind};
pub use wire::{JsonValue, WireError};
