//! # advm-bench — experiment harness and benchmarks
//!
//! One module per paper artifact (figure or claim); each exposes a `run`
//! function returning structured results plus rendered tables, so the
//! `exp_*` binaries print them and `tests/experiment_shapes.rs` asserts
//! their shapes. `exp_all` prints every table in one go.
//!
//! [`experiments::sim_throughput`] is the one per-layer microbenchmark:
//! `exp_sim_throughput` gates the simulator's decode tiers against
//! `BENCH_sim_throughput.json` and against each other in the same run.
//! Whole-loop throughput (fuzz campaigns, fault audits, the warm daemon)
//! is measured by the `loopbench/` package, and the loop's exact work
//! counters (fork counts, saved prefix instructions, mined checkers) are
//! pinned by the report goldens under `tests/golden/reports/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
