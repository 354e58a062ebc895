//! Campaign-as-a-service: a resident ADVM verification daemon.
//!
//! The batch tools (`advm-cli regress/audit/explore/fuzz`) pay the full
//! assemble-and-decode cost on every invocation. This crate keeps one
//! verification engine resident instead: a [`Daemon`] owns a job queue,
//! a worker pool, and — the point of the exercise — one shared
//! [`ArtifactStore`](advm::artifacts::ArtifactStore), so built images,
//! predecoded programs and warm prefix snapshots (see [`advm::prefix`])
//! survive **across jobs**. A warm resubmission of a suite
//! skips its builds entirely; the reuse shows up as `artifact_hits` in
//! the job report's `perf` block and in the daemon's `status` counters,
//! while the verdict-bearing report stays byte-identical to a cold
//! in-process run.
//!
//! Three layers, separable on purpose:
//!
//! - [`job`] / [`protocol`] — the serializable vocabulary: [`JobSpec`],
//!   [`JobState`], [`Request`], all as newline-delimited JSON.
//!   [`JobSpec::run`] maps a spec onto its driver and returns a
//!   [`JobReport`]; daemon workers run jobs through it, and it is also
//!   the CLI's local runner, so a run started with `advm-cli regress`
//!   and the same run served by the daemon give one report.
//! - [`daemon`] — the transport-free engine: queue, workers, per-job
//!   event streams.
//! - [`server`] / [`client`] — the Unix-domain-socket skin (Unix only;
//!   the in-process [`Daemon`] API is portable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod job;
pub mod protocol;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

pub use daemon::{Daemon, DaemonConfig, JobRecord};
pub use job::{JobReport, JobSpec, JobState};
pub use protocol::Request;

#[cfg(unix)]
pub use client::Client;
#[cfg(unix)]
pub use server::Server;
