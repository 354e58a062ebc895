//! # advm-soc — SoC modelling for the ADVM reproduction
//!
//! The ADVM paper's central claim is that a chip *derivative* — a new
//! version of the SLE88 with moved register fields, renamed registers,
//! relocated peripherals or revised embedded software — can be absorbed by
//! the test environment's abstraction layer. That only means something if
//! derivatives are real objects. This crate provides:
//!
//! * [`regmap`] — modules, registers and named bit-fields with reset
//!   values and access rights (the "Global Control & Status Register
//!   Definitions" of the paper's Figure 1),
//! * [`memmap`] — the SC88 memory map (ROM / RAM / NVM / MMIO regions),
//! * [`derivative`] — a change algebra over register maps producing the
//!   four catalogued derivatives SC88-A/B/C/D, which implement exactly the
//!   change classes §4 of the paper walks through,
//! * [`es`] — the embedded-software ROM (global layer): versioned
//!   assembler functions whose v2 revision swaps input registers, the
//!   scenario of the paper's Figure 7,
//! * [`globals`] — generation of the abstraction layer's `Globals.inc`
//!   from a (derivative, platform) pair,
//! * [`testbench`] — the test-bench mailbox protocol that test programs
//!   use to report PASS/FAIL across every platform.
//!
//! ```
//! use advm_soc::Derivative;
//!
//! let base = Derivative::sc88a().regmap();
//! let page = base.module("PAGE").expect("base map has a PAGE module");
//! let field = page.register("PAGE_CTRL").unwrap().field("PAGE").unwrap();
//! assert_eq!((field.pos(), field.width()), (0, 5));
//!
//! // Derivative C widens the page field — the paper's "more pages" case.
//! let derived = Derivative::sc88c().regmap();
//! let field = derived.module("PAGE").unwrap()
//!     .register("PAGE_CTRL").unwrap().field("PAGE").unwrap();
//! assert_eq!((field.pos(), field.width()), (0, 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derivative;
pub mod es;
pub mod globals;
pub mod memmap;
pub mod regmap;
pub mod testbench;

pub use derivative::{ChangeOp, Derivative, DerivativeId};
pub use es::{EsFunction, EsRom, EsVersion};
pub use globals::{Define, DefineValue, GlobalsFile, GlobalsSpec};
pub use memmap::{MemoryMap, Region, RegionKind};
pub use regmap::{Access, Field, Module, RegMap, RegMapError, Register};
pub use testbench::{Mailbox, PlatformId, TestOutcome};
