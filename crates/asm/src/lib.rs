//! # advm-asm — a macro assembler and image builder for the SC88 ISA
//!
//! The ADVM paper's abstraction layer is *made of assembler facilities*:
//! `.INCLUDE Globals.inc` pulls derivative/platform configuration into
//! every test, `.EQU` names every hardwired value, `.DEFINE` aliases
//! registers (`CallAddr .DEFINE A12`), and conditional assembly adapts the
//! environment per target. This crate implements those facilities for
//! real, as a line-oriented two-pass macro assembler:
//!
//! 1. [`preprocess`] resolves includes, constants, aliases, macros and
//!    conditionals over an in-memory [`SourceSet`];
//! 2. [`assemble_preprocessed`] sizes, resolves and encodes statements
//!    into a [`Program`];
//! 3. [`Image`] merges programs (a test unit plus the embedded-software
//!    ROM) into one loadable memory image, rejecting overlaps.
//!
//! The top-level [`assemble`] runs the full pipeline; [`ParsedUnit`]
//! splits it into parse and encode. Units that share everything but one
//! included file (every test of a campaign shares its frame of globals,
//! runtime and base functions) can split it along that file:
//!
//! 4. [`Checkpoint::new`] preprocesses and parses the shared part once,
//!    up to the unit's `.INCLUDE` of that file, keeping the
//!    preprocessor's state;
//! 5. [`Checkpoint::resume`] goes on from there with one unit's version
//!    of the file and returns the whole unit, ready to encode exactly as
//!    if it had been parsed whole.
//!
//! ```
//! use advm_asm::{assemble, SourceSet};
//!
//! # fn main() -> Result<(), advm_asm::AsmError> {
//! let sources = SourceSet::new()
//!     .with("Globals.inc", "TEST1_TARGET_PAGE .EQU 8\nPAGE_FIELD_SIZE .EQU 5\n")
//!     .with(
//!         "test.asm",
//!         "\
//! .INCLUDE Globals.inc
//! TEST_PAGE .EQU TEST1_TARGET_PAGE
//! _main:
//!     MOVI d14, #0
//!     INSERT d14, d14, TEST_PAGE, 0, PAGE_FIELD_SIZE
//!     HALT #0
//! ",
//!     );
//! let program = assemble("test.asm", &sources)?;
//! assert_eq!(program.label("_main"), Some(0x100));
//! assert_eq!(program.equ("TEST_PAGE"), Some(8));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod diag;
#[cfg(test)]
mod disasm;
mod expr;
mod lexer;
mod preprocess;
mod program;
mod source;

pub use assemble::{assemble_preprocessed, Checkpoint, ParsedUnit, DEFAULT_ORG};
pub use diag::AsmError;
pub use expr::{eval as eval_expr, parse_all as parse_expr, BinOp, Expr, UnaryOp};
pub use lexer::{tokenize, Token};
pub use preprocess::{preprocess, LogicalLine, Preprocessed};
pub use program::{Image, LinkError, ListingEntry, Program, Segment};
pub use source::{Loc, SourceSet};

/// Assembles `entry` (resolving `.INCLUDE` against `sources`) into a
/// [`Program`].
///
/// # Errors
///
/// Returns the first preprocessing or assembly error, located at its
/// source line.
pub fn assemble(entry: &str, sources: &SourceSet) -> Result<Program, AsmError> {
    let pre = preprocess(entry, sources)?;
    assemble_preprocessed(&pre)
}

/// Assembles a single standalone source text (no includes).
///
/// # Errors
///
/// Same as [`assemble`].
///
/// ```
/// use advm_asm::assemble_str;
///
/// # fn main() -> Result<(), advm_asm::AsmError> {
/// let program = assemble_str("_main:\n    HALT #0\n")?;
/// assert_eq!(program.size_bytes(), 4);
/// # Ok(())
/// # }
/// ```
pub fn assemble_str(text: &str) -> Result<Program, AsmError> {
    let sources = SourceSet::new().with("<input>", text);
    assemble("<input>", &sources)
}
