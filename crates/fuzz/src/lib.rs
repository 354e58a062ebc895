//! # advm-fuzz — program fuzzing and mined trace assertions
//!
//! The ADVM paper drives verification from *generated assembler
//! programs*; this crate supplies that workload class. Where `advm-gen`
//! draws `Globals.inc` knob files for the seed suite's fixed programs,
//! `advm-fuzz` draws the programs themselves:
//!
//! * [`ProgramSource`] generates constrained-random guest programs over
//!   the `advm-isa` encoder — guaranteed-terminating control flow
//!   (forward-only skips, counter-bounded loops, a double-bounded UART
//!   poll), per-module MMIO touchpoint blocks and an explicit sim-end
//!   epilogue. Seeding follows the same SplitMix64 discipline as
//!   `advm-gen`, so batches are byte-identical regardless of worker
//!   count.
//! * [`TraceAssertion`] checkers are [`mine`]d from fault-free MMIO
//!   traces ([`advm_sim::MmioTrace`]) — readback invariants and
//!   bounded-temporal bit-rise windows — then evaluated on every later
//!   run. A [`Miner`] does the same incrementally, one trace at a time,
//!   and merges with other miners, so parallel workers can mine without
//!   keeping traces. Mining is observational: faults that the
//!   differential pass/fail verdict masks (a page MAP write silently
//!   ignored) become visible as checker violations.
//!
//! The `advm` core crate wires both halves into campaigns
//! (`advm::fuzz::Fuzz`) and into `FaultAudit` kill-rate grading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assert;
mod program;

pub use assert::{mine, Miner, TraceAssertion};
pub use program::{FuzzProgram, ProgramSource, FUZZ_SOURCE_INDEX, SCRATCH_BASE};
