//! # advm-baseline — the hardwired directed-test comparator
//!
//! §1 of the paper motivates ADVM against plain directed testing: *"over
//! time a large collection of directed test code will be developed and
//! will require re-factoring with each change in the specification or
//! when migrating the test code to new derivatives."* To measure the
//! methodology against that baseline, this crate implements it honestly:
//!
//! * a [`DirectSuite`] is a set of standalone assembler tests with every
//!   address, field position, calling convention and platform knob
//!   **hardwired** for one (derivative, platform, ES release) triple;
//! * [`port_suite`] re-targets the suite the way an engineer would — by
//!   rewriting every affected test — and returns the resulting
//!   [`ChangeSet`](advm_metrics::ChangeSet), which the experiments compare against the ADVM
//!   port's.
//!
//! The generated tests are *correct* for their target (they pass); the
//! baseline's cost is not wrongness but the O(#tests) refactor every
//! change triggers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;
pub mod suite;

pub use runner::run_direct_test;
pub use suite::{direct_es_suite, direct_page_suite, port_suite, DirectSuite, SuiteConfig};
