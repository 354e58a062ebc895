//! The campaign execution pipeline — the regression layer, redesigned.
//!
//! A *campaign* runs every test cell of one or more environments across a
//! set of platforms. Per the methodology, each (environment, platform)
//! pair gets its own abstraction-layer build — re-targeting is a
//! `Globals.inc` regeneration, never a test edit — and per-test results
//! are compared across platforms for divergence.
//!
//! [`Campaign`] is a builder over a four-stage pipeline, plan → build →
//! execute → seal:
//!
//! * **Assembly on the workers.** Job planning only generates source
//!   text; the build stage assembles, links and predecodes each distinct
//!   image on the worker pool before anything executes.
//! * **One way to build a machine.** Every from-reset run executes on a
//!   freshly constructed [`Platform::with_fault`]; a run forked from a
//!   shared prefix (see [`Campaign::artifact_store`]) executes on one
//!   built by [`Platform::from_snapshot`]. A machine holds only the
//!   pages its run touches, so construction is cheap.
//! * **Content-keyed build cache.** Jobs whose effective source content
//!   is identical (e.g. a platform-independent cell targeted at two
//!   platforms with the same abstraction-layer knobs) share one build.
//!   The key hashes only content that can reach the emitted image of the
//!   sources the job assembles: comments are ignored, and `Globals.inc`
//!   defines count only when the rest of the unit references them.
//!   Planning the keys costs what varies, not cells × platforms × library
//!   size: the shared frame (library, trap handlers, vector table, unit
//!   wrapper) is tokenised and hashed once per distinct library in the
//!   plan, each cell's test and ES ROM once per environment, and each
//!   distinct re-targeted `Globals.inc` is parsed and closed over the
//!   frame's references once per library; a cell then adds only its
//!   test's references and hashes the live defines.
//! * **One frame, assembled once.** A unit is a small test layer
//!   (`test.asm`) included last into a large shared abstraction layer
//!   (`Globals.inc`, vector table, startup stub, trap handlers, base
//!   functions). Jobs with the same library and `Globals.inc` share one
//!   *frame context*, looked up by those texts: it holds the define
//!   table above and, built by the first of its jobs that assembles an
//!   image, an [`advm_asm::Checkpoint`] of the unit preprocessed and
//!   parsed up to its `.INCLUDE test.asm`. Every image build resumes it
//!   with its own test and encodes the whole unit, so the image and any
//!   error equal whole-unit assembly of the job's sources. A context
//!   whose images all come from the cache or an artifact store builds no
//!   checkpoint ([`CampaignPerf::frame_checkpoints`]).
//! * **Event streaming.** Typed [`CampaignEvent`]s (job started / built /
//!   finished, planned cache hits, divergences) stream to pluggable
//!   [`CampaignObserver`]s while the campaign runs.
//! * **Indexed report.** [`CampaignReport`] pre-indexes runs by test and
//!   platform, so [`CampaignReport::matrix`] and
//!   [`CampaignReport::divergences`] are lookups, not rescans.
//!
//! ```
//! use advm::campaign::Campaign;
//! use advm::env::{EnvConfig, ModuleTestEnv, TestCell};
//! use advm_soc::{DerivativeId, PlatformId};
//!
//! # fn main() -> Result<(), advm::campaign::CampaignError> {
//! let env = ModuleTestEnv::new(
//!     "PAGE",
//!     EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
//!     vec![TestCell::new(
//!         "TEST_SMOKE",
//!         "passes everywhere",
//!         ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
//!     )],
//! );
//! let report = Campaign::new()
//!     .env(env)
//!     .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
//!     .workers(2)
//!     .run()?;
//! assert_eq!(report.total(), 2);
//! assert_eq!(report.failed(), 0);
//! // Golden model and RTL share the abstraction-layer knobs, so the
//! // platform-independent cell is assembled once and reused.
//! assert_eq!(report.cache_hits(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use advm_asm::{AsmError, Checkpoint, Image, SourceSet};
use advm_fuzz::{Miner, TraceAssertion};
use advm_gen::{Scenario, ScenarioMeta};
use advm_metrics::Table;
use advm_sim::diverge::{compare, DivergenceReport};
use advm_sim::{
    bisect_divergence, DecodedProgram, EndReason, FirstDivergence, Platform, PlatformFault,
    RunResult,
};
use advm_soc::{Derivative, PlatformId};
use parking_lot::Mutex;

use crate::artifacts::ArtifactStore;
use crate::build::{es_rom_source, link_programs, unit_sources, UNIT_FILE};
use crate::env::{EnvConfig, ModuleTestEnv, BASE_FUNCTIONS_FILE, GLOBALS_FILE, TEST_SOURCE_FILE};
use crate::prefix::PrefixEntry;

/// Default capacity of the per-run MMIO monitor armed when a campaign
/// carries mined checkers (see [`Campaign::checkers`]).
///
/// Mining and checking must observe traffic through rings of the *same*
/// capacity: a truncation-aware temporal checker skips windows that
/// precede the ring's oldest retained record, so equal capacities make
/// "zero spurious violations on the mining inputs" a guarantee rather
/// than a heuristic.
pub const DEFAULT_MONITOR_CAPACITY: usize = 4096;

/// One mined-checker violation: a run whose MMIO trace broke a
/// [`TraceAssertion`].
///
/// Violations are recorded even when the differential verdict passes —
/// that is their purpose: a fault whose symptom is differentially
/// invisible (a page `MAP` write silently ignored, read back into a
/// sink register) still breaks the invariant mined from fault-free
/// traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerViolation {
    /// Environment name.
    pub env: String,
    /// Test cell id.
    pub test_id: String,
    /// Platform the violating run executed on.
    pub platform: PlatformId,
    /// The checker's pinned name (see [`TraceAssertion::name`]).
    pub checker: String,
    /// Human-readable violation detail.
    pub detail: String,
}

/// Picks a worker count from the machine's available parallelism.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// One executed test run.
#[derive(Debug, Clone)]
pub struct TestRun {
    /// Environment name.
    pub env: String,
    /// Test cell id.
    pub test_id: String,
    /// Platform the run executed on.
    pub platform: PlatformId,
    /// The execution result.
    pub result: RunResult,
    /// Provenance of the scenario that produced this run's stimulus;
    /// `None` for runs from hand-built environments.
    pub scenario: Option<ScenarioMeta>,
}

/// A typed event streamed to [`CampaignObserver`]s while a campaign runs.
///
/// The stream is deterministic at any worker count: the execute stage
/// flushes each job's events in plan order, whichever worker ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignEvent {
    /// The campaign's job graph is planned and the worker pool is about
    /// to start.
    Started {
        /// Total jobs (cells × platforms, across all environments).
        jobs: usize,
        /// Distinct assemblies the build cache will perform.
        unique_builds: usize,
        /// Worker threads about to spawn.
        workers: usize,
    },
    /// A worker picked up a job.
    JobStarted {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Target platform.
        platform: PlatformId,
    },
    /// A job's image is ready (assembled here or served from the cache).
    JobBuilt {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Target platform.
        platform: PlatformId,
        /// Whether the image was deduplicated by the build cache.
        cache_hit: bool,
    },
    /// A job executed to completion.
    JobFinished {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Target platform.
        platform: PlatformId,
        /// Whether the run passed.
        passed: bool,
    },
    /// A job could not be built.
    JobFailed {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Target platform.
        platform: PlatformId,
        /// The build error, rendered.
        error: String,
    },
    /// A run's MMIO trace broke a mined checker (emitted from worker
    /// threads as runs finish; only possible when the campaign carries
    /// [`Campaign::checkers`]).
    CheckerViolation {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Platform the violating run executed on.
        platform: PlatformId,
        /// The checker's pinned name.
        checker: String,
        /// Human-readable violation detail.
        detail: String,
    },
    /// Platforms disagreed on a test (emitted during report analysis).
    DivergenceDetected {
        /// `env/test` label.
        test: String,
        /// Platforms that disagree with the majority.
        divergent: Vec<PlatformId>,
    },
    /// The campaign finished and the report is sealed.
    Finished {
        /// Total runs.
        total: usize,
        /// Passing runs.
        passed: usize,
        /// Failing runs.
        failed: usize,
        /// Build-cache hits.
        cache_hits: usize,
    },
}

impl CampaignEvent {
    /// The event's wire-format tag (the `"type"` field of its JSON
    /// form).
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::Started { .. } => "started",
            CampaignEvent::JobStarted { .. } => "job_started",
            CampaignEvent::JobBuilt { .. } => "job_built",
            CampaignEvent::JobFinished { .. } => "job_finished",
            CampaignEvent::JobFailed { .. } => "job_failed",
            CampaignEvent::CheckerViolation { .. } => "checker_violation",
            CampaignEvent::DivergenceDetected { .. } => "divergence",
            CampaignEvent::Finished { .. } => "finished",
        }
    }

    /// Renders the event as one compact JSON object — the line format
    /// of the NDJSON event stream `advm-serve` sends to watchers. The
    /// encoding is a stable contract: every variant round-trips through
    /// [`CampaignEvent::from_json`] and is pinned by golden tests.
    pub fn to_json(&self) -> String {
        match self {
            CampaignEvent::Started {
                jobs,
                unique_builds,
                workers,
            } => format!(
                "{{\"type\":\"started\",\"jobs\":{jobs},\
                 \"unique_builds\":{unique_builds},\"workers\":{workers}}}"
            ),
            CampaignEvent::JobStarted {
                env,
                test_id,
                platform,
            } => format!(
                "{{\"type\":\"job_started\",\"env\":{},\"test\":{},\"platform\":\"{}\"}}",
                json_string(env),
                json_string(test_id),
                platform.name()
            ),
            CampaignEvent::JobBuilt {
                env,
                test_id,
                platform,
                cache_hit,
            } => format!(
                "{{\"type\":\"job_built\",\"env\":{},\"test\":{},\
                 \"platform\":\"{}\",\"cache_hit\":{cache_hit}}}",
                json_string(env),
                json_string(test_id),
                platform.name()
            ),
            CampaignEvent::JobFinished {
                env,
                test_id,
                platform,
                passed,
            } => format!(
                "{{\"type\":\"job_finished\",\"env\":{},\"test\":{},\
                 \"platform\":\"{}\",\"passed\":{passed}}}",
                json_string(env),
                json_string(test_id),
                platform.name()
            ),
            CampaignEvent::JobFailed {
                env,
                test_id,
                platform,
                error,
            } => format!(
                "{{\"type\":\"job_failed\",\"env\":{},\"test\":{},\
                 \"platform\":\"{}\",\"error\":{}}}",
                json_string(env),
                json_string(test_id),
                platform.name(),
                json_string(error)
            ),
            CampaignEvent::CheckerViolation {
                env,
                test_id,
                platform,
                checker,
                detail,
            } => format!(
                "{{\"type\":\"checker_violation\",\"env\":{},\"test\":{},\
                 \"platform\":\"{}\",\"checker\":{},\"detail\":{}}}",
                json_string(env),
                json_string(test_id),
                platform.name(),
                json_string(checker),
                json_string(detail)
            ),
            CampaignEvent::DivergenceDetected { test, divergent } => {
                let names: Vec<String> = divergent
                    .iter()
                    .map(|p| format!("\"{}\"", p.name()))
                    .collect();
                format!(
                    "{{\"type\":\"divergence\",\"test\":{},\"divergent\":[{}]}}",
                    json_string(test),
                    names.join(",")
                )
            }
            CampaignEvent::Finished {
                total,
                passed,
                failed,
                cache_hits,
            } => format!(
                "{{\"type\":\"finished\",\"total\":{total},\"passed\":{passed},\
                 \"failed\":{failed},\"cache_hits\":{cache_hits}}}"
            ),
        }
    }

    /// Parses one event back from its [`CampaignEvent::to_json`] line.
    ///
    /// # Errors
    ///
    /// [`WireError`](crate::wire::WireError) for malformed JSON, an
    /// unknown `"type"` tag, or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<Self, crate::wire::WireError> {
        use crate::wire::{JsonValue, WireError};
        let parse_platform = |value: &JsonValue| -> Result<PlatformId, WireError> {
            let name = value.str_field("platform")?;
            PlatformId::ALL
                .into_iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| WireError::shape(format!("unknown platform `{name}`")))
        };
        let value = JsonValue::parse(text)?;
        let event = match value.str_field("type")? {
            "started" => CampaignEvent::Started {
                jobs: value.u64_field("jobs")? as usize,
                unique_builds: value.u64_field("unique_builds")? as usize,
                workers: value.u64_field("workers")? as usize,
            },
            "job_started" => CampaignEvent::JobStarted {
                env: value.str_field("env")?.to_owned(),
                test_id: value.str_field("test")?.to_owned(),
                platform: parse_platform(&value)?,
            },
            "job_built" => CampaignEvent::JobBuilt {
                env: value.str_field("env")?.to_owned(),
                test_id: value.str_field("test")?.to_owned(),
                platform: parse_platform(&value)?,
                cache_hit: value.bool_field("cache_hit")?,
            },
            "job_finished" => CampaignEvent::JobFinished {
                env: value.str_field("env")?.to_owned(),
                test_id: value.str_field("test")?.to_owned(),
                platform: parse_platform(&value)?,
                passed: value.bool_field("passed")?,
            },
            "job_failed" => CampaignEvent::JobFailed {
                env: value.str_field("env")?.to_owned(),
                test_id: value.str_field("test")?.to_owned(),
                platform: parse_platform(&value)?,
                error: value.str_field("error")?.to_owned(),
            },
            "checker_violation" => CampaignEvent::CheckerViolation {
                env: value.str_field("env")?.to_owned(),
                test_id: value.str_field("test")?.to_owned(),
                platform: parse_platform(&value)?,
                checker: value.str_field("checker")?.to_owned(),
                detail: value.str_field("detail")?.to_owned(),
            },
            "divergence" => {
                let divergent = value
                    .get("divergent")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| WireError::shape("missing `divergent` array"))?
                    .iter()
                    .map(|item| {
                        let name = item
                            .as_str()
                            .ok_or_else(|| WireError::shape("non-string platform name"))?;
                        PlatformId::ALL
                            .into_iter()
                            .find(|p| p.name() == name)
                            .ok_or_else(|| WireError::shape(format!("unknown platform `{name}`")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                CampaignEvent::DivergenceDetected {
                    test: value.str_field("test")?.to_owned(),
                    divergent,
                }
            }
            "finished" => CampaignEvent::Finished {
                total: value.u64_field("total")? as usize,
                passed: value.u64_field("passed")? as usize,
                failed: value.u64_field("failed")? as usize,
                cache_hits: value.u64_field("cache_hits")? as usize,
            },
            other => return Err(WireError::shape(format!("unknown event type `{other}`"))),
        };
        Ok(event)
    }
}

/// A sink for [`CampaignEvent`]s.
///
/// Observers are invoked under a dispatch lock, so implementations may
/// keep mutable state without their own synchronisation; they must be
/// `Send` because events originate on worker threads.
pub trait CampaignObserver: Send {
    /// Receives one event.
    fn on_event(&mut self, event: &CampaignEvent);
}

impl CampaignObserver for Box<dyn CampaignObserver> {
    fn on_event(&mut self, event: &CampaignEvent) {
        (**self).on_event(event);
    }
}

/// Builds a fresh observer for each campaign a multi-campaign driver
/// runs. [`FaultAudit`](crate::audit::FaultAudit) and
/// [`Exploration`](crate::stimulus::Exploration) spin up many internal
/// campaigns; a factory (rather than one observer) lets every one of
/// them stream events to its own sink — e.g. the daemon's per-job
/// NDJSON stream — without the driver knowing the sink type.
pub type ObserverFactory = Arc<dyn Fn() -> Box<dyn CampaignObserver> + Send + Sync>;

/// An observer that prints one progress line per finished job to stderr.
///
/// Used by `advm-cli regress` for live feedback; output goes to stderr so
/// machine-readable stdout (e.g. `--json`) stays clean.
#[derive(Debug, Default)]
pub struct ProgressObserver {
    done: usize,
    total: usize,
    cached: HashMap<(String, String, PlatformId), bool>,
}

impl ProgressObserver {
    /// Creates the observer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CampaignObserver for ProgressObserver {
    fn on_event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::Started { jobs, workers, .. } => {
                self.total = *jobs;
                eprintln!("campaign: {jobs} jobs on {workers} workers");
            }
            CampaignEvent::JobBuilt {
                env,
                test_id,
                platform,
                cache_hit,
            } => {
                self.cached
                    .insert((env.clone(), test_id.clone(), *platform), *cache_hit);
            }
            CampaignEvent::JobFinished {
                env,
                test_id,
                platform,
                passed,
            } => {
                self.done += 1;
                let verdict = if *passed { "pass" } else { "FAIL" };
                let origin = match self
                    .cached
                    .remove(&(env.clone(), test_id.clone(), *platform))
                {
                    Some(true) => " (cached)",
                    _ => "",
                };
                eprintln!(
                    "[{}/{}] {env}/{test_id} @ {platform} {verdict}{origin}",
                    self.done, self.total
                );
            }
            CampaignEvent::JobFailed {
                env,
                test_id,
                platform,
                error,
            } => {
                self.done += 1;
                eprintln!(
                    "[{}/{}] {env}/{test_id} @ {platform} BUILD ERROR: {error}",
                    self.done, self.total
                );
            }
            CampaignEvent::CheckerViolation {
                env,
                test_id,
                platform,
                checker,
                ..
            } => {
                eprintln!("checker violation: {env}/{test_id} @ {platform} {checker}");
            }
            CampaignEvent::DivergenceDetected { test, divergent } => {
                let names: Vec<&str> = divergent.iter().map(|p| p.name()).collect();
                eprintln!("divergence: {test} (odd platforms: {})", names.join(", "));
            }
            CampaignEvent::Finished {
                passed,
                failed,
                cache_hits,
                ..
            } => {
                eprintln!("campaign: {passed} passed, {failed} failed, {cache_hits} cache hits");
            }
            CampaignEvent::JobStarted { .. } => {}
        }
    }
}

/// An observer that records every event for later inspection.
///
/// Cloning the log clones the *handle*: all clones share one event list,
/// so a test can keep a handle, hand a clone to the campaign, and read
/// the stream afterwards.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<CampaignEvent>>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<CampaignEvent> {
        self.events.lock().clone()
    }
}

impl CampaignObserver for EventLog {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.events.lock().push(event.clone());
    }
}

/// A structured campaign failure.
#[derive(Debug)]
pub enum CampaignError {
    /// The campaign has neither environments nor scenarios to run.
    NoEnvironments,
    /// The campaign has no target platforms.
    NoPlatforms,
    /// A job failed to build. Execution failures are results, not
    /// errors; this is an assembler or link problem.
    Build {
        /// Environment name.
        env: String,
        /// Test cell id.
        test_id: String,
        /// Target platform.
        platform: PlatformId,
        /// The underlying assembler error.
        source: AsmError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::NoEnvironments => f.write_str("campaign has no environments"),
            CampaignError::NoPlatforms => f.write_str("campaign has no target platforms"),
            CampaignError::Build {
                env,
                test_id,
                platform,
                source,
            } => write!(
                f,
                "build failed for {env}/{test_id} on {platform}: {source}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Execution-performance telemetry for one campaign (or an aggregate
/// over several, see [`CampaignPerf::absorb`]).
///
/// The simulated-instruction total and decode-cache counters are
/// deterministic for a given campaign; wall time and the derived
/// steps-per-second rate are measured and vary run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignPerf {
    /// Instructions retired across every run.
    pub instructions: u64,
    /// Wall-clock time of the execution phase (planning excluded). In a
    /// [`FaultAudit`](crate::audit::FaultAudit) aggregate it is the
    /// audit's elapsed time instead.
    pub wall: Duration,
    /// Decode-cache hits summed over every run.
    pub decode_hits: u64,
    /// Decode-cache misses summed over every run.
    pub decode_misses: u64,
    /// Decode slots seeded from shared predecode artifacts.
    pub decode_preloaded: u64,
    /// Superblocks built by the block tier, summed over every run.
    pub blocks_built: u64,
    /// Whole-block dispatches taken by the straight-line fast path.
    pub block_dispatches: u64,
    /// Instructions retired inside block dispatches (a subset of
    /// `decode_hits`).
    pub block_insns: u64,
    /// Prefix instructions runs skipped by forking from a shared
    /// snapshot of the attached store instead of re-executing from reset
    /// (see [`Campaign::artifact_store`]).
    pub prefix_saved: u64,
    /// Runs that started from a forked snapshot rather than reset.
    pub forked_runs: u64,
    /// Distinct content keys served by a shared
    /// [`ArtifactStore`] — builds this campaign reused from (or shared
    /// with) *other* campaigns. Zero without a store attached; nonzero
    /// on a warm run against a resident daemon, and in a
    /// [`FaultAudit`](crate::audit::FaultAudit) aggregate, whose
    /// campaigns always share one store.
    pub artifact_hits: u64,
    /// Frame checkpoints built: at most one per distinct (base-function
    /// library, `Globals.inc`) among the jobs whose images this campaign
    /// assembled itself, and none when every image was a cache or store
    /// hit (see the [module docs](self)).
    pub frame_checkpoints: u64,
    /// Wall-clock time of the plan stage: scenario materialisation,
    /// source generation, content keys and build slots. Part of
    /// [`build_wall`](CampaignPerf::build_wall).
    pub plan_wall: Duration,
    /// Wall-clock time of the build phase: scenario materialisation,
    /// job planning and every image assembly (the front-end runs on the
    /// worker pool).
    pub build_wall: Duration,
    /// Wall-clock time of the execution phase — identical to
    /// [`wall`](CampaignPerf::wall), named for symmetry with the other
    /// phase counters.
    pub exec_wall: Duration,
    /// Wall-clock time of report sealing: divergence comparison,
    /// indexing and (when enabled) bisection.
    pub report_wall: Duration,
    /// Wall-clock time of the assertion-mining pass that runs between
    /// build and execution when [`Fuzz::mine`](crate::fuzz::Fuzz::mine)
    /// is on; zero otherwise. Mining runs count in no other field.
    pub mine_wall: Duration,
}

impl CampaignPerf {
    /// Simulated instructions per wall-clock second (0.0 for an
    /// unmeasured or empty campaign).
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / secs
        }
    }

    /// Decode-cache hit rate in `0.0..=1.0` (1.0 when nothing fetched).
    pub fn decode_hit_rate(&self) -> f64 {
        advm_sim::DecodeStats {
            hits: self.decode_hits,
            misses: self.decode_misses,
            ..advm_sim::DecodeStats::default()
        }
        .hit_rate()
    }

    /// Folds another perf block into this one (used by multi-campaign
    /// drivers such as the fault audit). Walls add up: the walls of
    /// campaigns that ran at the same time, such as the cells a fault
    /// audit sweeps on several threads, sum thread time. A fault audit
    /// therefore sets its `wall` to its elapsed time once every
    /// campaign is folded in, while its `plan_wall_ms`, `build_wall_ms`,
    /// `exec_wall_ms` and `report_wall_ms` can exceed that.
    pub fn absorb(&mut self, other: &CampaignPerf) {
        self.instructions += other.instructions;
        self.wall += other.wall;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
        self.decode_preloaded += other.decode_preloaded;
        self.blocks_built += other.blocks_built;
        self.block_dispatches += other.block_dispatches;
        self.block_insns += other.block_insns;
        self.prefix_saved += other.prefix_saved;
        self.forked_runs += other.forked_runs;
        self.artifact_hits += other.artifact_hits;
        self.frame_checkpoints += other.frame_checkpoints;
        self.plan_wall += other.plan_wall;
        self.build_wall += other.build_wall;
        self.exec_wall += other.exec_wall;
        self.report_wall += other.report_wall;
        self.mine_wall += other.mine_wall;
    }

    /// Renders the JSON object embedded in report documents.
    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"instructions\":{},\"wall_ms\":{:.3},\"steps_per_sec\":{:.0},\
             \"decode_hits\":{},\"decode_misses\":{},\"decode_preloaded\":{},\
             \"decode_hit_rate\":{:.4},\"blocks_built\":{},\
             \"block_dispatches\":{},\"block_insns\":{},\"prefix_saved\":{},\
             \"forked_runs\":{},\"artifact_hits\":{},\"frame_checkpoints\":{},\
             \"plan_wall_ms\":{:.3},\"build_wall_ms\":{:.3},\"exec_wall_ms\":{:.3},\
             \"report_wall_ms\":{:.3},\"mine_wall_ms\":{:.3}}}",
            self.instructions,
            self.wall.as_secs_f64() * 1e3,
            self.steps_per_sec(),
            self.decode_hits,
            self.decode_misses,
            self.decode_preloaded,
            self.decode_hit_rate(),
            self.blocks_built,
            self.block_dispatches,
            self.block_insns,
            self.prefix_saved,
            self.forked_runs,
            self.artifact_hits,
            self.frame_checkpoints,
            self.plan_wall.as_secs_f64() * 1e3,
            self.build_wall.as_secs_f64() * 1e3,
            self.exec_wall.as_secs_f64() * 1e3,
            self.report_wall.as_secs_f64() * 1e3,
            self.mine_wall.as_secs_f64() * 1e3
        )
    }
}

/// The collected campaign results, pre-indexed for lookup.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    runs: Vec<TestRun>,
    /// Distinct scenario provenance records, in run order.
    scenarios: Vec<ScenarioMeta>,
    /// Distinct `(env, test)` pairs in run order.
    tests: Vec<(String, String)>,
    /// Distinct platforms in run order.
    platforms: Vec<PlatformId>,
    /// `(env, test) -> test index`.
    test_of: HashMap<(String, String), usize>,
    /// `platform -> platform index`.
    platform_of: HashMap<PlatformId, usize>,
    /// `(test index, platform index) -> run index`.
    cell_index: HashMap<(usize, usize), usize>,
    divergences: Vec<(String, DivergenceReport)>,
    passed: usize,
    cache_hits: usize,
    unique_builds: usize,
    perf: CampaignPerf,
    /// Number of mined checkers armed on every run (0 = monitor off).
    checkers_armed: usize,
    /// Mined-checker violations, in job order.
    violations: Vec<CheckerViolation>,
}

impl CampaignReport {
    /// Indexes `runs` and adds their execution counters to `perf`, the
    /// phase walls and counters the pipeline's stages recorded.
    fn new(
        runs: Vec<TestRun>,
        cache_hits: usize,
        unique_builds: usize,
        mut perf: CampaignPerf,
    ) -> Self {
        let mut tests: Vec<(String, String)> = Vec::new();
        let mut platforms: Vec<PlatformId> = Vec::new();
        let mut test_of: HashMap<(String, String), usize> = HashMap::new();
        let mut platform_of: HashMap<PlatformId, usize> = HashMap::new();
        let mut cell_index = HashMap::new();
        let mut runs_by_test: Vec<Vec<usize>> = Vec::new();
        let mut scenarios: Vec<ScenarioMeta> = Vec::new();
        let mut scenario_names: std::collections::HashSet<String> =
            std::collections::HashSet::new();
        let mut passed = 0;
        for (run_idx, run) in runs.iter().enumerate() {
            if let Some(meta) = &run.scenario {
                if scenario_names.insert(meta.name.clone()) {
                    scenarios.push(meta.clone());
                }
            }
            let key = (run.env.clone(), run.test_id.clone());
            let t = *test_of.entry(key.clone()).or_insert_with(|| {
                tests.push(key);
                runs_by_test.push(Vec::new());
                tests.len() - 1
            });
            let p = *platform_of.entry(run.platform).or_insert_with(|| {
                platforms.push(run.platform);
                platforms.len() - 1
            });
            cell_index.insert((t, p), run_idx);
            runs_by_test[t].push(run_idx);
            if run.result.passed() {
                passed += 1;
            }
        }
        for run in &runs {
            perf.instructions += run.result.insns;
            perf.decode_hits += run.result.decode.hits;
            perf.decode_misses += run.result.decode.misses;
            perf.decode_preloaded += run.result.decode.preloaded;
            perf.blocks_built += run.result.decode.blocks_built;
            perf.block_dispatches += run.result.decode.block_dispatches;
            perf.block_insns += run.result.decode.block_insns;
        }
        let mut divergences = Vec::new();
        for (t, (env, test)) in tests.iter().enumerate() {
            if runs_by_test[t].len() > 1 {
                let results: Vec<RunResult> = runs_by_test[t]
                    .iter()
                    .map(|&i| runs[i].result.clone())
                    .collect();
                // Silently skipping the divergence check would corrupt
                // the report, so assert the local invariant instead.
                let report = compare(&results).expect("test group holds more than one run");
                if !report.consistent {
                    divergences.push((format!("{env}/{test}"), report));
                }
            }
        }
        Self {
            runs,
            scenarios,
            tests,
            platforms,
            test_of,
            platform_of,
            cell_index,
            divergences,
            passed,
            cache_hits,
            unique_builds,
            perf,
            checkers_armed: 0,
            violations: Vec::new(),
        }
    }

    /// All runs, ordered by environment, platform, test.
    pub fn runs(&self) -> &[TestRun] {
        &self.runs
    }

    /// Total number of runs.
    pub fn total(&self) -> usize {
        self.runs.len()
    }

    /// Number of passing runs.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// Number of failing runs.
    pub fn failed(&self) -> usize {
        self.total() - self.passed
    }

    /// Pass rate in `0.0..=1.0` (1.0 for an empty campaign).
    pub fn pass_rate(&self) -> f64 {
        if self.runs.is_empty() {
            1.0
        } else {
            self.passed as f64 / self.total() as f64
        }
    }

    /// Build-cache hits: jobs served an image assembled for another job.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Distinct assemblies the campaign performed.
    pub fn unique_builds(&self) -> usize {
        self.unique_builds
    }

    /// Execution-performance telemetry: simulated instructions, wall
    /// time, steps/sec and decode-cache counters.
    pub fn perf(&self) -> &CampaignPerf {
        &self.perf
    }

    /// The distinct `(env, test)` pairs in run order.
    pub fn tests(&self) -> &[(String, String)] {
        &self.tests
    }

    /// Provenance of every scenario that contributed runs, in run
    /// order; empty for campaigns over hand-built environments only.
    pub fn scenarios(&self) -> &[ScenarioMeta] {
        &self.scenarios
    }

    /// The distinct platforms in run order.
    pub fn platforms(&self) -> &[PlatformId] {
        &self.platforms
    }

    /// The run of one test on one platform, if present. An indexed
    /// lookup, not a scan.
    pub fn run_of(&self, env: &str, test_id: &str, platform: PlatformId) -> Option<&TestRun> {
        let t = *self.test_of.get(&(env.to_owned(), test_id.to_owned()))?;
        let p = *self.platform_of.get(&platform)?;
        self.cell_index.get(&(t, p)).map(|&i| &self.runs[i])
    }

    /// Renders the tests × platforms pass/fail matrix.
    pub fn matrix(&self) -> Table {
        let mut headers: Vec<String> = vec!["test".to_owned()];
        headers.extend(self.platforms.iter().map(ToString::to_string));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new("Regression matrix", &header_refs);
        for (t, (env, test)) in self.tests.iter().enumerate() {
            let mut row = vec![format!("{env}/{test}")];
            for p in 0..self.platforms.len() {
                let cell = self
                    .cell_index
                    .get(&(t, p))
                    .map(|&i| {
                        if self.runs[i].result.passed() {
                            "PASS"
                        } else {
                            "FAIL"
                        }
                    })
                    .unwrap_or("-");
                row.push(cell.to_owned());
            }
            table.row(&row);
        }
        table
    }

    /// Per-test cross-platform divergence analysis; returns only tests
    /// where platforms disagree. Computed once when the report is sealed.
    pub fn divergences(&self) -> &[(String, DivergenceReport)] {
        &self.divergences
    }

    /// Number of mined checkers armed on every run of this campaign
    /// (0 when the MMIO monitor was off).
    pub fn checkers_armed(&self) -> usize {
        self.checkers_armed
    }

    /// Every mined-checker violation, in deterministic job order
    /// (independent of worker count). Empty when no checkers were armed
    /// or every run satisfied them.
    pub fn checker_violations(&self) -> &[CheckerViolation] {
        &self.violations
    }

    /// Renders the report as a JSON document (machine-readable form of
    /// the matrix, counters, cache statistics and divergences).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"total\":{},\"passed\":{},\"failed\":{},\"pass_rate\":{:.4},",
            self.total(),
            self.passed(),
            self.failed(),
            self.pass_rate()
        ));
        s.push_str(&format!(
            "\"cache\":{{\"hits\":{},\"unique_builds\":{}}},",
            self.cache_hits, self.unique_builds
        ));
        s.push_str(&format!("\"perf\":{},", self.perf.to_json()));
        // Emitted only when checkers were armed: campaigns without a
        // monitor keep their pre-existing byte-stable layout.
        if self.checkers_armed > 0 {
            s.push_str(&format!(
                "\"checkers\":{{\"armed\":{},\"violations\":[",
                self.checkers_armed
            ));
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"env\":{},\"test\":{},\"platform\":\"{}\",\
                     \"checker\":{},\"detail\":{}}}",
                    json_string(&v.env),
                    json_string(&v.test_id),
                    v.platform.name(),
                    json_string(&v.checker),
                    json_string(&v.detail)
                ));
            }
            s.push_str("]},");
        }
        s.push_str("\"scenarios\":[");
        for (i, meta) in self.scenarios.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"kind\":\"{}\",\"seed\":{},\"detail\":{}}}",
                json_string(&meta.name),
                meta.kind.name(),
                meta.seed,
                json_string(&meta.detail)
            ));
        }
        s.push_str("],");
        s.push_str("\"platforms\":[");
        for (i, p) in self.platforms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", p.name()));
        }
        s.push_str("],\"tests\":[");
        for (t, (env, test)) in self.tests.iter().enumerate() {
            if t > 0 {
                s.push(',');
            }
            let scenario = self
                .platforms
                .iter()
                .enumerate()
                .find_map(|(p, _)| self.cell_index.get(&(t, p)))
                .and_then(|&i| self.runs[i].scenario.as_ref());
            let scenario_field = scenario
                .map(|m| format!("\"scenario\":{},", json_string(&m.name)))
                .unwrap_or_default();
            s.push_str(&format!(
                "{{\"env\":{},\"test\":{},{scenario_field}\"results\":{{",
                json_string(env),
                json_string(test)
            ));
            let mut first = true;
            for (p, platform) in self.platforms.iter().enumerate() {
                if let Some(&i) = self.cell_index.get(&(t, p)) {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let verdict = if self.runs[i].result.passed() {
                        "pass"
                    } else {
                        "fail"
                    };
                    s.push_str(&format!("\"{}\":\"{verdict}\"", platform.name()));
                }
            }
            s.push_str("}}");
        }
        s.push_str("],\"divergences\":[");
        for (i, (test, report)) in self.divergences.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"test\":{},\"ambiguous\":{},\"divergent\":[",
                json_string(test),
                report.ambiguous
            ));
            for (j, p) in report.divergent.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\"", p.name()));
            }
            s.push(']');
            if let Some(b) = &report.bisection {
                s.push_str(&format!(
                    ",\"bisection\":{{\"step\":{},\"platform_a\":\"{}\",\
                     \"platform_b\":\"{}\",\"pc_a\":\"0x{:05X}\",\"pc_b\":\"0x{:05X}\",\
                     \"insn_a\":{},\"insn_b\":{}}}",
                    b.step,
                    b.platform_a.name(),
                    b.platform_b.name(),
                    b.pc_a,
                    b.pc_b,
                    json_string(&b.insn_a),
                    json_string(&b.insn_b)
                ));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// Escapes a string for JSON embedding (the shared wire-layer routine).
pub(crate) use crate::wire::json_string;

/// FNV-1a, the build cache's content hash: deterministic across runs,
/// platforms and worker counts (unlike `DefaultHasher`, whose keys are
/// unspecified).
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The identifier tokens of one line: maximal runs of ASCII
/// alphanumerics and `_`.
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|token| !token.is_empty())
}

/// The lines of a source that can reach the image: all but blank and
/// pure-comment lines.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|line| {
        let trimmed = line.trim_start();
        !trimmed.is_empty() && !trimmed.starts_with(';')
    })
}

/// Continues the content key's FNV chain over one code line.
fn hash_line(hash: u64, line: &str) -> u64 {
    fnv1a(fnv1a(hash, line.as_bytes()), b"\n")
}

/// A unit's *frame*: every unit file except `Globals.inc` and
/// `test.asm`, that is the base-function library, the trap handlers, the
/// vector table and the unit wrapper (whose one cell-specific line is a
/// comment). Every cell of an environment shares it, and a plan's
/// environments share one frame per library text, so it is tokenised
/// and hashed once per distinct library in the plan.
///
/// A content key is one FNV chain over the unit's code lines: the frame's
/// files by name (they all sort before `test.asm`), then `test.asm`, the
/// ES ROM source and the live lines of `Globals.inc` (see [`Defines`]).
struct Frame {
    /// The `Base_Functions.asm` text this frame was built from.
    library: String,
    /// The chain over the frame's file names and code lines.
    hash: u64,
    /// Every identifier the frame's code lines reference.
    tokens: std::collections::HashSet<String>,
    /// One context per distinct re-targeted `Globals.inc` among the jobs
    /// of this frame.
    contexts: Vec<FrameContext>,
    /// Each context's index, keyed by its `Globals.inc` text.
    context_of: HashMap<Arc<str>, usize>,
}

/// What every job of one (library, `Globals.inc`) shares: the define
/// table its content keys are completed from, and the assembler
/// checkpoint its image builds resume. Everything a unit assembles up to
/// its `.INCLUDE test.asm` is this pair's text, apart from the unit
/// wrapper's first line, a comment naming the cell.
struct FrameContext {
    defines: Defines,
    checkpoint: CheckpointSlot,
}

impl Frame {
    /// The context of this frame's jobs whose `Globals.inc` is
    /// `globals_text`, made on first use.
    fn context(&mut self, globals_text: &str) -> &FrameContext {
        let index = match self.context_of.get(globals_text) {
            Some(&index) => index,
            None => {
                let text: Arc<str> = Arc::from(globals_text);
                self.contexts.push(FrameContext {
                    defines: Defines::new(Arc::clone(&text), &self.tokens),
                    checkpoint: CheckpointSlot::default(),
                });
                self.context_of.insert(text, self.contexts.len() - 1);
                self.contexts.len() - 1
            }
        };
        &self.contexts[index]
    }

    fn new(sources: &SourceSet) -> Self {
        let mut hash = 0;
        let mut tokens = std::collections::HashSet::new();
        for (name, text) in sources.iter() {
            if name == GLOBALS_FILE || name == TEST_SOURCE_FILE {
                continue;
            }
            hash = fnv1a(hash, name.as_bytes());
            for line in code_lines(text) {
                for token in identifiers(line) {
                    if !tokens.contains(token) {
                        tokens.insert(token.to_owned());
                    }
                }
                hash = hash_line(hash, line);
            }
        }
        Self {
            library: sources
                .get(BASE_FUNCTIONS_FILE)
                .unwrap_or_default()
                .to_owned(),
            hash,
            tokens,
            contexts: Vec::new(),
            context_of: HashMap::new(),
        }
    }
}

/// One cell's platform-invariant share of its content key, computed
/// once per environment and reused on every platform: the frame's chain
/// continued through `test.asm` and the ES ROM source, and the names the
/// test references that the frame does not.
struct CellKey<'e> {
    hash: u64,
    references: Vec<&'e str>,
}

impl<'e> CellKey<'e> {
    fn new(frame: &Frame, test: &'e str, es_source: &str) -> Self {
        let mut hash = fnv1a(frame.hash, TEST_SOURCE_FILE.as_bytes());
        let mut references = Vec::new();
        for line in code_lines(test) {
            references.extend(identifiers(line).filter(|token| !frame.tokens.contains(*token)));
            hash = hash_line(hash, line);
        }
        references.sort_unstable();
        references.dedup();
        hash = fnv1a(hash, b"\x00es\x00");
        Self {
            hash: code_lines(es_source).fold(hash, hash_line),
            references,
        }
    }
}

/// One re-targeted `Globals.inc`, parsed once per distinct text in a
/// frame (see [`FrameContext`]) into its define lines, an index from
/// defined name to lines, and the lines the frame alone keeps live.
///
/// The content key must be *sound*: equal keys must imply equal images.
/// `Globals.inc` is a pure define file, so a define can only reach the
/// image if the rest of the unit mentions its name, directly or through
/// the value of another live define (the assembler resolves symbolic
/// `.EQU` expressions). Only live lines are hashed, so a
/// platform-independent cell keys identically on two platforms whose
/// referenced abstraction-layer knobs agree, and the campaign assembles
/// it once.
struct Defines {
    /// The `Globals.inc` text; the ranges below index into it.
    text: Arc<str>,
    /// Each code line's byte range.
    lines: Vec<Range<usize>>,
    /// The byte range of the name each line defines.
    names: Vec<Range<usize>>,
    /// The last line defining each name, keyed by the name's hash.
    by_hash: HashMap<u64, usize>,
    /// Per line, the previous line whose name has the same hash; lines
    /// on one chain are told apart by their names.
    same_hash: Vec<Option<usize>>,
    frame_live: Vec<bool>,
}

impl Defines {
    /// Parses `text`, closing the live set over the names the frame
    /// references (`frame_tokens`). The table keeps ranges into the
    /// shared text rather than a copy of each line and name: it is built
    /// once per distinct `Globals.inc` on every plan, warm daemon jobs
    /// included.
    fn new(text: Arc<str>, frame_tokens: &std::collections::HashSet<String>) -> Self {
        // Every line and name below is a subslice of `text`.
        let range = |part: &str| {
            let start = part.as_ptr() as usize - text.as_ptr() as usize;
            start..start + part.len()
        };
        let mut lines = Vec::new();
        let mut names = Vec::new();
        let mut by_hash = HashMap::new();
        let mut same_hash = Vec::new();
        let mut referenced = Vec::new();
        for line in code_lines(&text) {
            // `NAME .EQU value` puts the name first, `.DEFINE NAME
            // value` puts it second.
            let mut words = line.split_whitespace();
            let none = &line[line.len()..];
            let first = words.next().unwrap_or(none);
            let name = if first.eq_ignore_ascii_case(".DEFINE") {
                words.next().unwrap_or(none)
            } else {
                first
            };
            if frame_tokens.contains(name) {
                referenced.push(lines.len());
            }
            same_hash.push(by_hash.insert(fnv1a(0, name.as_bytes()), lines.len()));
            names.push(range(name));
            lines.push(range(line));
        }
        let mut defines = Self {
            text: Arc::clone(&text),
            lines,
            names,
            by_hash,
            same_hash,
            frame_live: Vec::new(),
        };
        let mut live = vec![false; defines.lines.len()];
        let referenced = referenced.iter().map(|&i| defines.name(i));
        defines.reference(&mut live, referenced);
        defines.frame_live = live;
        defines
    }

    fn line(&self, i: usize) -> &str {
        &self.text[self.lines[i].clone()]
    }

    fn name(&self, i: usize) -> &str {
        &self.text[self.names[i].clone()]
    }

    /// Marks the lines defining `names` live, then every define their
    /// values reference, transitively.
    fn reference<'n>(&'n self, live: &mut [bool], names: impl IntoIterator<Item = &'n str>) {
        let mut pending: Vec<&str> = names.into_iter().collect();
        while let Some(name) = pending.pop() {
            let mut line = self.by_hash.get(&fnv1a(0, name.as_bytes())).copied();
            while let Some(i) = line {
                if !live[i] && self.name(i) == name {
                    live[i] = true;
                    pending.extend(identifiers(self.line(i)));
                }
                line = self.same_hash[i];
            }
        }
    }

    /// Completes one cell's content key: its references join the frame's
    /// live set, and the live lines, in file order, end the chain.
    fn content_key(&self, cell: &CellKey) -> u64 {
        let mut live = self.frame_live.clone();
        self.reference(&mut live, cell.references.iter().copied());
        (0..self.lines.len())
            .filter(|&i| live[i])
            .fold(cell.hash, |hash, i| hash_line(hash, self.line(i)))
    }
}

/// One deduplicated build product: the linked image plus its shared
/// predecode artifact. The artifact is built exactly once per distinct
/// image (behind the same content key that dedupes the assembly) and
/// every worker seeds its platform's decode cache from the same `Arc` —
/// decode once per deduped image, not once per test × platform.
pub(crate) struct Prebuilt {
    image: Image,
    decoded: Arc<DecodedProgram>,
}

/// Shared build slots. The image slot dedupes whole-image builds across
/// jobs with equal content keys; the ES slot additionally dedupes the
/// embedded-software ROM assembly across *all* jobs that share an ES
/// source (campaign-wide, since the ROM ignores the target platform).
/// With an [`ArtifactStore`] attached, these same slots live in the
/// store and survive the campaign.
pub(crate) type ImageSlot = Arc<OnceLock<Result<Prebuilt, AsmError>>>;
pub(crate) type EsSlot = Arc<OnceLock<Result<advm_asm::Program, AsmError>>>;
/// A frame's assembler checkpoint, built by the first of its jobs that
/// assembles an image (see [`FrameContext`]). Per campaign; a failing
/// frame keeps its error, which every job resuming it reports.
type CheckpointSlot = Arc<OnceLock<Result<Checkpoint, AsmError>>>;

/// One planned job: everything a worker needs, plus the shared build
/// slots its content keys mapped to.
struct Job {
    env_name: String,
    test_id: String,
    platform: PlatformId,
    /// Provenance of the scenario whose stimulus this job runs, if any.
    scenario: Option<Arc<ScenarioMeta>>,
    sources: SourceSet,
    es_source: Arc<str>,
    derivative: Arc<Derivative>,
    fault: PlatformFault,
    /// Shared once-cell: the first worker to arrive assembles, everyone
    /// else reuses the image (or the error).
    slot: ImageSlot,
    /// Shared once-cell for the ES ROM program.
    es_slot: EsSlot,
    /// Shared once-cell for the checkpoint of this job's frame context.
    checkpoint: CheckpointSlot,
    /// Whether the planner marked this job a cache hit (not the first
    /// job of its content key). Deterministic, independent of scheduling.
    planned_hit: bool,
    /// The build cache's content key, when the cache is enabled; also
    /// keys shared prefix snapshots in an attached store.
    content_key: Option<u64>,
}

impl Job {
    /// Assembles this job's image: unit from its sources, ES ROM from
    /// the shared slot, linked together — then predecodes it once for
    /// every platform the content key covers. Runs on the build pool,
    /// at most once per image slot.
    ///
    /// The unit resumes its frame context's [`Checkpoint`] with the
    /// job's own `test.asm`; the first job of the context to get here
    /// builds the checkpoint from its sources, preprocessing and parsing
    /// the frame up to the unit's `.INCLUDE test.asm`. The resumed unit
    /// is then encoded whole, so addresses and forward references such
    /// as `_main` resolve as in one pass. Both assemblies are lean: the
    /// campaign only links the programs, so the human-readable listing
    /// is never built. Emitted bytes and diagnostics are identical to
    /// [`advm_asm::assemble`] of the job's sources.
    fn build(&self) -> Result<Prebuilt, AsmError> {
        let checkpoint = self
            .checkpoint
            .get_or_init(|| Checkpoint::new(UNIT_FILE, &self.sources, TEST_SOURCE_FILE))
            .as_ref()
            .map_err(Clone::clone)?;
        let unit = checkpoint.resume(&self.sources)?.encode()?;
        let es = self
            .es_slot
            .get_or_init(|| {
                let sources = SourceSet::new().with("<input>", &*self.es_source);
                advm_asm::ParsedUnit::parse_lean("<input>", &sources)?.encode()
            })
            .as_ref()
            .map_err(Clone::clone)?;
        let image = link_programs(&unit, es)?;
        let decoded = Arc::new(DecodedProgram::from_image(&image));
        Ok(Prebuilt { image, decoded })
    }
}

/// A builder-driven, event-streaming, build-cached execution pipeline
/// over module test environments.
///
/// See the [module docs](self) for the design.
pub struct Campaign {
    /// Environments, each with optional scenario provenance — hand-built
    /// envs carry `None`, [`Campaign::env_with_meta`] envs (e.g. fuzz
    /// programs) carry the meta their runs report.
    envs: Vec<(ModuleTestEnv, Option<Arc<ScenarioMeta>>)>,
    scenarios: Vec<Scenario>,
    platforms: Vec<PlatformId>,
    workers: usize,
    fuel: u64,
    fault: Option<(PlatformId, PlatformFault)>,
    cache: bool,
    superblocks: bool,
    artifact_store: Option<Arc<ArtifactStore>>,
    bisect: bool,
    checkers: Vec<TraceAssertion>,
    monitor_capacity: usize,
    observers: Vec<Box<dyn CampaignObserver>>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("envs", &self.envs.len())
            .field("scenarios", &self.scenarios.len())
            .field("platforms", &self.platforms)
            .field("workers", &self.workers)
            .field("fuel", &self.fuel)
            .field("fault", &self.fault)
            .field("cache", &self.cache)
            .field("artifact_store", &self.artifact_store.is_some())
            .field("bisect", &self.bisect)
            .field("checkers", &self.checkers.len())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

impl Campaign {
    /// An empty campaign: all six platforms, machine-derived worker
    /// count, default fuel, build cache enabled.
    pub fn new() -> Self {
        Self {
            envs: Vec::new(),
            scenarios: Vec::new(),
            platforms: PlatformId::ALL.to_vec(),
            workers: default_workers(),
            fuel: advm_sim::DEFAULT_FUEL,
            fault: None,
            cache: true,
            superblocks: true,
            artifact_store: None,
            bisect: false,
            checkers: Vec::new(),
            monitor_capacity: DEFAULT_MONITOR_CAPACITY,
            observers: Vec::new(),
        }
    }

    /// Adds one environment.
    pub fn env(mut self, env: ModuleTestEnv) -> Self {
        self.envs.push((env, None));
        self
    }

    /// Adds environments.
    pub fn envs(mut self, envs: impl IntoIterator<Item = ModuleTestEnv>) -> Self {
        self.envs.extend(envs.into_iter().map(|e| (e, None)));
        self
    }

    /// Adds one environment whose runs carry explicit scenario
    /// provenance — used by generated workloads that materialise their
    /// own environments (e.g. fuzz programs) rather than going through
    /// [`Campaign::scenario`].
    pub fn env_with_meta(mut self, env: ModuleTestEnv, meta: ScenarioMeta) -> Self {
        self.envs.push((env, Some(Arc::new(meta))));
        self
    }

    /// Adds one generated scenario. The campaign materialises it into a
    /// synthetic environment (see [`crate::stimulus::scenario_env`])
    /// named after the scenario; its runs carry the scenario's
    /// provenance in [`TestRun::scenario`] and the report's JSON.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds generated scenarios (e.g. a whole
    /// [`StimulusPlan`](advm_gen::StimulusPlan) batch).
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Replaces the target platforms (default: all six). A platform
    /// listed twice runs once, in its first position.
    pub fn platforms(mut self, platforms: impl IntoIterator<Item = PlatformId>) -> Self {
        self.platforms.clear();
        for platform in platforms {
            if !self.platforms.contains(&platform) {
                self.platforms.push(platform);
            }
        }
        self
    }

    /// Targets a single platform.
    pub fn platform(self, platform: PlatformId) -> Self {
        self.platforms(std::iter::once(platform))
    }

    /// Sets the worker-thread count (minimum 1; default: the machine's
    /// available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-run instruction budget.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Injects a hardware fault into one platform (divergence
    /// experiments).
    pub fn fault(mut self, platform: PlatformId, fault: PlatformFault) -> Self {
        self.fault = Some((platform, fault));
        self
    }

    /// Enables or disables the content-keyed build cache (default:
    /// enabled). Disabling forces every job to assemble its own image —
    /// the uncached baseline the benches compare against.
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = enabled;
        self
    }

    /// Enables or disables the superblock dispatch tier on every run
    /// (default: enabled). Purely a performance knob: block-mode and
    /// per-instruction execution are architecturally identical, so
    /// verdicts, traces and digests never depend on it — disabling is
    /// useful for differential testing and for isolating the per-word
    /// path.
    pub fn superblocks(mut self, enabled: bool) -> Self {
        self.superblocks = enabled;
        self
    }

    /// Attaches a shared [`ArtifactStore`]: build slots (images and
    /// their predecode artifacts, the ES ROM) and prefix snapshots are
    /// looked up in — and retained by — the store, so identical content
    /// keys are reused *across* campaigns sharing the store (a resident
    /// daemon's warm runs skip assembly entirely). Requires the build
    /// cache; with the cache disabled the store is ignored. Reuse is
    /// perf-only: verdicts, matrices, divergences and the report-level
    /// `cache_hits`/`unique_builds` counters are identical with or
    /// without a store — only the
    /// [`artifact_hits`](CampaignPerf::artifact_hits) perf counter and
    /// wall time change.
    ///
    /// The store is also the only source of prefix forks: a run forks
    /// from the store's shared fault-free prefix snapshot whenever that
    /// is provably byte-identical to running from reset, skipping the
    /// prefix's re-execution. The prefix budget is the store's
    /// ([`ArtifactStore::with_prefix_budget`]; 0 switches forking off).
    /// Forking is perf-only too: only the
    /// [`prefix_saved`](CampaignPerf::prefix_saved)/`forked_runs` perf
    /// counters change.
    pub fn artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.artifact_store = Some(store);
        self
    }

    /// Enables divergence bisection: for every divergent test, the
    /// sealed report's [`DivergenceReport::bisection`] pinpoints the
    /// first retired instruction at which the divergent platform's
    /// architectural state departs from the majority side
    /// (snapshot-powered binary search, see
    /// [`advm_sim::bisect_divergence`]).
    pub fn bisect(mut self, enabled: bool) -> Self {
        self.bisect = enabled;
        self
    }

    /// Arms mined [`TraceAssertion`] checkers on every run: each job
    /// executes with the per-platform MMIO monitor enabled and its
    /// captured trace is evaluated against every checker after the run.
    /// Violations surface as [`CampaignEvent::CheckerViolation`] events
    /// and in [`CampaignReport::checker_violations`] — independently of
    /// the differential pass/fail verdict, which cannot see
    /// MMIO-sink-only symptoms.
    ///
    /// Checked runs never fork from the attached store's prefix
    /// snapshots (snapshots do not carry the monitor), so arming
    /// checkers trades the prefix optimisation for observability;
    /// verdicts are unaffected.
    pub fn checkers(mut self, checkers: impl IntoIterator<Item = TraceAssertion>) -> Self {
        self.checkers = checkers.into_iter().collect();
        self
    }

    /// Sets the MMIO monitor ring capacity used when checkers are armed
    /// (default [`DEFAULT_MONITOR_CAPACITY`]). Mining and checking must
    /// use the same capacity; see the constant's docs.
    ///
    /// A capacity of `0` is honoured, not clamped: every transaction is
    /// counted as dropped, and the truncation-skip rule makes every
    /// checker pass vacuously rather than fire spurious violations.
    pub fn monitor_capacity(mut self, capacity: usize) -> Self {
        self.monitor_capacity = capacity;
        self
    }

    /// Attaches an observer; every [`CampaignEvent`] streams to it.
    pub fn observe(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Plans the job graph and runs it on the worker pool: the
    /// composition of the pipeline's four stages, plan → build →
    /// execute → seal.
    ///
    /// Assembly happens inside the pool, deduplicated by the build
    /// cache; results stream to observers; the sealed
    /// [`CampaignReport`] indexes every run.
    ///
    /// # Errors
    ///
    /// [`CampaignError::NoEnvironments`] / [`CampaignError::NoPlatforms`]
    /// for an unrunnable plan, [`CampaignError::Build`] for the first
    /// (in job order) assembler or link failure. Execution failures are
    /// results, not errors.
    pub fn run(self) -> Result<CampaignReport, CampaignError> {
        Ok(self.plan()?.build()?.execute().seal())
    }

    /// The attached artifact store, when the build cache can use it.
    fn store(&self) -> Option<&ArtifactStore> {
        self.cache
            .then_some(self.artifact_store.as_deref())
            .flatten()
    }

    /// Stage 1, plan: materialises generated scenarios, generates the
    /// per-(env, platform) abstraction layers and the job list with its
    /// shared build slots, then emits [`CampaignEvent::Started`].
    ///
    /// Each job's content key is taken from the re-targeted sources it
    /// assembles, with work split by what varies: per distinct library
    /// in the plan a [`Frame`] (tokens and hash of every unit file but
    /// `Globals.inc` and `test.asm`), per environment a [`CellKey`] for
    /// each cell (the frame's hash continued through `test.asm` and the
    /// ES ROM, plus the test's own references), per distinct
    /// `Globals.inc` of a frame one [`FrameContext`] with its
    /// [`Defines`] table (the frame's live set closed) and its
    /// checkpoint slot, and per job only the cell's references and the
    /// live lines' hash. Contexts are found by hashing and comparing
    /// the `Globals.inc` text; every job, cached or not, takes its
    /// context's checkpoint slot, which stays empty until the build
    /// stage assembles a job of that context.
    ///
    /// # Errors
    ///
    /// [`CampaignError::NoEnvironments`] / [`CampaignError::NoPlatforms`]
    /// for an unrunnable plan, [`CampaignError::Build`] for a job whose
    /// sources cannot be generated.
    pub(crate) fn plan(mut self) -> Result<Planned, CampaignError> {
        if self.envs.is_empty() && self.scenarios.is_empty() {
            return Err(CampaignError::NoEnvironments);
        }
        if self.platforms.is_empty() {
            return Err(CampaignError::NoPlatforms);
        }
        let started = Instant::now();

        // Materialise generated scenarios into synthetic environments;
        // their runs carry the scenario's provenance. Names are deduped
        // against the hand-built envs and against each other — separately
        // planned batches can mint the same engine names (`CR_000`, …),
        // and a colliding env name would silently merge report cells.
        let mut planned: Vec<(ModuleTestEnv, Option<Arc<ScenarioMeta>>)> =
            std::mem::take(&mut self.envs);
        let mut used_names: std::collections::HashSet<String> =
            planned.iter().map(|(e, _)| e.name().to_owned()).collect();
        for mut scenario in std::mem::take(&mut self.scenarios) {
            if used_names.contains(scenario.name()) {
                let base = scenario.name().to_owned();
                let mut n = 1;
                let mut candidate = format!("{base}_{n}");
                while used_names.contains(&candidate) {
                    n += 1;
                    candidate = format!("{base}_{n}");
                }
                scenario = scenario.with_name(candidate);
            }
            used_names.insert(scenario.name().to_owned());
            planned.push((
                crate::stimulus::scenario_env(&scenario),
                Some(Arc::new(scenario.meta().clone())),
            ));
        }

        // Generate per-(env, platform) abstraction layers and the job
        // list. Source *generation* is cheap string work and stays
        // serial; source *assembly* is the hot path and runs on the
        // workers in the build stage.
        let mut jobs: Vec<Job> = Vec::new();
        // Local slot maps memoise one store lookup per distinct key per
        // campaign, so the store's hit/miss counters measure *cross*-
        // campaign reuse, never within-campaign re-requests.
        let mut slots: HashMap<u64, (ImageSlot, bool)> = HashMap::new();
        let mut es_slots: HashMap<u64, EsSlot> = HashMap::new();
        let mut cache_hits = 0;
        let mut artifact_hits: u64 = 0;
        let store = self.store();
        // One frame per distinct library in the plan.
        let mut frames: Vec<Frame> = Vec::new();
        for (env, scenario) in &planned {
            // Per-env invariants: the ES ROM source and the derivative
            // model depend only on derivative/ES release, never on the
            // target platform the loop below re-targets to.
            let es_source: Arc<str> = es_rom_source(env).into();
            let derivative = Arc::new(Derivative::from_id(env.config().derivative));
            let shared_es_slot = self.cache.then(|| {
                let es_key = fnv1a(0, es_source.as_bytes());
                Arc::clone(es_slots.entry(es_key).or_insert_with(|| match store {
                    Some(store) => store.es_slot(es_key),
                    None => EsSlot::default(),
                }))
            });
            // The cells' key shares, and the frame they continue.
            let mut cell_keys: Option<(usize, Vec<CellKey>)> = None;
            for &platform in &self.platforms {
                let mut ported = env.clone();
                ported.reconfigure(EnvConfig {
                    platform,
                    ..env.config()
                });
                let fault = match self.fault {
                    Some((p, f)) if p == platform => f,
                    _ => PlatformFault::None,
                };
                let cell_sources = ported
                    .cells()
                    .iter()
                    .map(|cell| {
                        unit_sources(&ported, cell.id()).map_err(|source| CampaignError::Build {
                            env: ported.name().to_owned(),
                            test_id: cell.id().to_owned(),
                            platform,
                            source,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let Some(first) = cell_sources.first() else {
                    continue;
                };
                let library = ported.base_functions_text();
                let frame = match frames.iter().position(|f| f.library == library) {
                    Some(frame) => frame,
                    None => {
                        frames.push(Frame::new(first));
                        frames.len() - 1
                    }
                };
                if self.cache && cell_keys.as_ref().map(|(f, _)| *f) != Some(frame) {
                    let keys = env
                        .cells()
                        .iter()
                        .map(|cell| CellKey::new(&frames[frame], cell.source(), &es_source))
                        .collect();
                    cell_keys = Some((frame, keys));
                }
                let context = frames[frame].context(ported.globals_text());
                // Cell keys exist only with the cache on.
                let content_keys: Vec<Option<u64>> = match &cell_keys {
                    Some((_, keys)) => keys
                        .iter()
                        .map(|key| Some(context.defines.content_key(key)))
                        .collect(),
                    _ => vec![None; cell_sources.len()],
                };
                for ((cell, sources), content_key) in
                    ported.cells().iter().zip(cell_sources).zip(content_keys)
                {
                    let (slot, planned_hit) = match content_key {
                        Some(key) => match slots.entry(key) {
                            std::collections::hash_map::Entry::Occupied(e) => {
                                // Within-campaign hit: keeps its
                                // store-independent report semantics.
                                cache_hits += 1;
                                (Arc::clone(&e.get().0), true)
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                // First job of this key: consult the
                                // store (a hit there means another
                                // campaign already built — or is
                                // building — this image).
                                let (slot, store_hit) = match store {
                                    Some(store) => store.image_slot(key),
                                    None => (ImageSlot::default(), false),
                                };
                                artifact_hits += u64::from(store_hit);
                                let (slot, _) = e.insert((slot, store_hit));
                                (Arc::clone(slot), store_hit)
                            }
                        },
                        None => (Arc::default(), false),
                    };
                    jobs.push(Job {
                        env_name: ported.name().to_owned(),
                        test_id: cell.id().to_owned(),
                        platform,
                        scenario: scenario.clone(),
                        sources,
                        es_source: Arc::clone(&es_source),
                        derivative: Arc::clone(&derivative),
                        fault,
                        slot,
                        // Without the cache every job assembles its own
                        // ES ROM too, matching the pre-redesign baseline.
                        es_slot: shared_es_slot.clone().unwrap_or_default(),
                        checkpoint: Arc::clone(&context.checkpoint),
                        planned_hit,
                        content_key,
                    });
                }
            }
        }
        let unique_builds = jobs.len() - cache_hits;
        let workers = self.workers.min(jobs.len().max(1));
        let events = Events::new(std::mem::take(&mut self.observers));
        events.emit(|| CampaignEvent::Started {
            jobs: jobs.len(),
            unique_builds,
            workers,
        });
        Ok(Planned {
            options: self,
            events,
            jobs,
            cache_hits,
            unique_builds,
            workers,
            started,
            perf: CampaignPerf {
                artifact_hits,
                plan_wall: started.elapsed(),
                ..CampaignPerf::default()
            },
        })
    }
}

/// A campaign's observers, shared by every stage. With no observers (the
/// common library case) events are neither constructed nor serialized
/// on the lock.
struct Events {
    observers: Mutex<Vec<Box<dyn CampaignObserver>>>,
    active: bool,
}

impl Events {
    fn new(observers: Vec<Box<dyn CampaignObserver>>) -> Self {
        Self {
            active: !observers.is_empty(),
            observers: Mutex::new(observers),
        }
    }

    /// Builds and dispatches one event, if anyone listens.
    fn emit(&self, make: impl FnOnce() -> CampaignEvent) {
        if self.active {
            self.dispatch(&[make()]);
        }
    }

    /// Dispatches a batch of events in order, under one lock.
    fn dispatch(&self, batch: &[CampaignEvent]) {
        let mut observers = self.observers.lock();
        for event in batch {
            for observer in observers.iter_mut() {
                observer.on_event(event);
            }
        }
    }
}

/// A campaign after the plan stage: its job graph, shared build slots
/// and the perf counters the stages fill in as they go.
pub(crate) struct Planned {
    /// The campaign's knobs; its environments, scenarios and observers
    /// have moved into the jobs and `events`.
    options: Campaign,
    events: Events,
    jobs: Vec<Job>,
    cache_hits: usize,
    unique_builds: usize,
    /// Worker threads every pool of this campaign spawns.
    workers: usize,
    started: Instant,
    perf: CampaignPerf,
}

impl Planned {
    /// Stage 2, build: fills every distinct image slot on the worker
    /// pool before anything executes. Filling every slot (rather than
    /// aborting on the first failure) is what makes error attribution
    /// deterministic: the error reported is the first failing job in
    /// *plan* order, never whichever worker happened to parse first.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Build`] for the first failing job in plan order.
    pub(crate) fn build(mut self) -> Result<Built, CampaignError> {
        let jobs = &self.jobs;
        let build_tasks: Vec<&Job> = {
            let mut seen = std::collections::HashSet::new();
            jobs.iter()
                .filter(|job| seen.insert(Arc::as_ptr(&job.slot)))
                .collect()
        };
        let cursor = AtomicUsize::new(0);
        on_workers(self.workers.min(build_tasks.len()).max(1), || {
            while let Some(job) = build_tasks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                job.slot.get_or_init(|| job.build());
            }
        });
        let mut checkpoints = std::collections::HashSet::new();
        self.perf.frame_checkpoints = jobs
            .iter()
            .filter(|job| {
                job.checkpoint.get().is_some() && checkpoints.insert(Arc::as_ptr(&job.checkpoint))
            })
            .count() as u64;
        for job in jobs {
            let Some(Err(source)) = job.slot.get() else {
                continue;
            };
            // Terminate the event stream even though the campaign
            // errors: builds fail before anything executes, so the
            // stream records the failing job and an empty completion.
            self.events.emit(|| CampaignEvent::JobStarted {
                env: job.env_name.clone(),
                test_id: job.test_id.clone(),
                platform: job.platform,
            });
            self.events.emit(|| CampaignEvent::JobFailed {
                env: job.env_name.clone(),
                test_id: job.test_id.clone(),
                platform: job.platform,
                error: source.to_string(),
            });
            self.events.emit(|| CampaignEvent::Finished {
                total: 0,
                passed: 0,
                failed: 0,
                cache_hits: self.cache_hits,
            });
            return Err(CampaignError::Build {
                env: job.env_name.clone(),
                test_id: job.test_id.clone(),
                platform: job.platform,
                source: source.clone(),
            });
        }
        self.perf.build_wall = self.started.elapsed();
        Ok(Built(self))
    }
}

/// A campaign after the build stage: every job's image slot holds its
/// built image.
pub(crate) struct Built(Planned);

impl Built {
    /// The built image of one job.
    fn prebuilt(job: &Job) -> &Prebuilt {
        job.slot
            .get()
            .expect("the build stage fills every slot")
            .as_ref()
            .expect("build errors end the pipeline in the build stage")
    }

    /// Mines checkers from the campaign's own builds: every job runs
    /// once more, fault-free from reset with the MMIO monitor armed at
    /// the campaign's monitor capacity, loading the same image and
    /// predecode artifact the execute stage loads. Workers fold each
    /// trace into their own [`Miner`] and drop it; the merged miners
    /// give the checkers. The pass emits no events and adds nothing to
    /// the report's counters; its wall time is
    /// [`CampaignPerf::mine_wall`].
    pub(crate) fn mine(&mut self) -> Vec<TraceAssertion> {
        let started = Instant::now();
        let Planned { options, jobs, .. } = &self.0;
        let (fuel, superblocks, capacity) =
            (options.fuel, options.superblocks, options.monitor_capacity);
        let next = AtomicUsize::new(0);
        let mine_jobs = || {
            let mut miner = Miner::new();
            while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                let prebuilt = Self::prebuilt(job);
                let (platform, _) = run_monitored(
                    job,
                    prebuilt,
                    PlatformFault::None,
                    fuel,
                    superblocks,
                    capacity,
                );
                miner.observe(platform.mmio_trace().expect("the monitor is armed"));
            }
            miner
        };
        let miners = on_workers(self.0.workers, mine_jobs);
        self.0.perf.mine_wall = started.elapsed();
        miners
            .into_iter()
            .reduce(Miner::merge)
            .unwrap_or_default()
            .finish()
    }

    /// Arms `checkers` on every run of the execute stage (see
    /// [`Campaign::checkers`]).
    pub(crate) fn arm(&mut self, checkers: &[TraceAssertion]) {
        self.0.options.checkers = checkers.to_vec();
    }

    /// Stage 3, execute: runs every job on the worker pool, streaming
    /// each job's events in plan order.
    pub(crate) fn execute(self) -> Executed {
        let mut planned = self.0;
        // Runs fork only from the attached store's prefix snapshots, so
        // they persist across the campaigns sharing it.
        let store = planned.options.store();
        // Workers borrow the knobs one by one: the campaign itself holds
        // (moved-out) observers, which are not `Sync`.
        let Planned {
            options:
                Campaign {
                    fuel,
                    superblocks,
                    checkers,
                    monitor_capacity,
                    ..
                },
            events,
            jobs,
            workers,
            ..
        } = &planned;
        let workers = *workers;
        // Workers claim jobs in chunks — one atomic increment and one
        // results-lock per chunk, not per job — sized so every worker
        // still gets several claims for tail balance.
        let next = AtomicUsize::new(0);
        let chunk = (jobs.len() / (workers * 4)).clamp(1, 32);
        let results: Mutex<Vec<Option<TestRun>>> = Mutex::new(vec![None; jobs.len()]);
        // Violations are collected per job index and flattened in job
        // order by the seal stage, so the sealed report (and its JSON)
        // is byte-identical for any worker count.
        let violations_by_job: Mutex<Vec<Vec<(String, String)>>> =
            Mutex::new(vec![Vec::new(); jobs.len()]);
        let prefix_saved = AtomicU64::new(0);
        let forked_runs = AtomicU64::new(0);
        // Per-job event batches, drained strictly in plan order: each
        // worker deposits a finished job's events and flushes whatever
        // prefix of jobs is now complete, under the drain's lock.
        // Observers see the same deterministic stream at every worker
        // count, and workers never contend on the observer lock mid-job.
        let drain = Mutex::new(InOrder::new(jobs.len()));
        let deposit = |index: usize, batch: Vec<CampaignEvent>| {
            let mut drain = drain.lock();
            for batch in drain.deposit(index, batch) {
                events.dispatch(&batch);
            }
        };
        let started = Instant::now();
        on_workers(workers, || {
            let mut claimed: Vec<(usize, TestRun)> = Vec::with_capacity(chunk);
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= jobs.len() {
                    break;
                }
                let end = (start + chunk).min(jobs.len());
                for (index, job) in (start..end).zip(&jobs[start..end]) {
                    let prebuilt = Self::prebuilt(job);
                    let mut batch = Vec::new();
                    if events.active {
                        batch.push(CampaignEvent::JobStarted {
                            env: job.env_name.clone(),
                            test_id: job.test_id.clone(),
                            platform: job.platform,
                        });
                        batch.push(CampaignEvent::JobBuilt {
                            env: job.env_name.clone(),
                            test_id: job.test_id.clone(),
                            platform: job.platform,
                            cache_hit: job.planned_hit,
                        });
                    }
                    let (result, violations) = if checkers.is_empty() {
                        let result = execute_job(
                            job,
                            prebuilt,
                            &ExecCtx {
                                fuel: *fuel,
                                superblocks: *superblocks,
                                store,
                                prefix_saved: &prefix_saved,
                                forked_runs: &forked_runs,
                            },
                        );
                        (result, Vec::new())
                    } else {
                        execute_checked(
                            job,
                            prebuilt,
                            *fuel,
                            *superblocks,
                            checkers,
                            *monitor_capacity,
                        )
                    };
                    if events.active {
                        for (checker, detail) in &violations {
                            batch.push(CampaignEvent::CheckerViolation {
                                env: job.env_name.clone(),
                                test_id: job.test_id.clone(),
                                platform: job.platform,
                                checker: checker.clone(),
                                detail: detail.clone(),
                            });
                        }
                        batch.push(CampaignEvent::JobFinished {
                            env: job.env_name.clone(),
                            test_id: job.test_id.clone(),
                            platform: job.platform,
                            passed: result.passed(),
                        });
                        deposit(index, batch);
                    }
                    if !violations.is_empty() {
                        violations_by_job.lock()[index] = violations;
                    }
                    claimed.push((
                        index,
                        TestRun {
                            env: job.env_name.clone(),
                            test_id: job.test_id.clone(),
                            platform: job.platform,
                            result,
                            scenario: job.scenario.as_deref().cloned(),
                        },
                    ));
                }
                let mut guard = results.lock();
                for (index, run) in claimed.drain(..) {
                    guard[index] = Some(run);
                }
            }
        });
        let wall = started.elapsed();
        planned.perf.wall = wall;
        planned.perf.exec_wall = wall;
        planned.perf.prefix_saved = prefix_saved.into_inner();
        planned.perf.forked_runs = forked_runs.into_inner();
        let runs = results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every job produces a result"))
            .collect();
        Executed {
            planned,
            runs,
            violations_by_job: violations_by_job.into_inner(),
        }
    }
}

/// A campaign after the execute stage: every job's run, in plan order.
pub(crate) struct Executed {
    planned: Planned,
    runs: Vec<TestRun>,
    violations_by_job: Vec<Vec<(String, String)>>,
}

impl Executed {
    /// Stage 4, seal: indexes the runs, compares platforms for
    /// divergence, bisects divergent tests when enabled, and emits the
    /// closing events.
    pub(crate) fn seal(self) -> CampaignReport {
        let sealing = Instant::now();
        let Executed {
            planned,
            runs,
            violations_by_job,
        } = self;
        let jobs = &planned.jobs;
        let options = &planned.options;
        let mut report = CampaignReport::new(
            runs,
            planned.cache_hits,
            planned.unique_builds,
            planned.perf,
        );
        report.checkers_armed = options.checkers.len();
        report.violations = violations_by_job
            .into_iter()
            .enumerate()
            .flat_map(|(index, per_job)| {
                let job = &jobs[index];
                per_job
                    .into_iter()
                    .map(move |(checker, detail)| CheckerViolation {
                        env: job.env_name.clone(),
                        test_id: job.test_id.clone(),
                        platform: job.platform,
                        checker,
                        detail,
                    })
            })
            .collect();
        if options.bisect {
            for (test, divergence) in report.divergences.iter_mut() {
                divergence.bisection =
                    bisect_test(options.fuel, options.superblocks, test, divergence, jobs);
            }
        }
        report.perf.report_wall = sealing.elapsed();
        for (test, divergence) in report.divergences() {
            planned.events.emit(|| CampaignEvent::DivergenceDetected {
                test: test.clone(),
                divergent: divergence.divergent.clone(),
            });
        }
        planned.events.emit(|| CampaignEvent::Finished {
            total: report.total(),
            passed: report.passed(),
            failed: report.failed(),
            cache_hits: report.cache_hits(),
        });
        report
    }
}

/// Items filed by index in any order and released strictly in index
/// order, such as the event batches of jobs or cells that finish out of
/// order on a pool.
pub(crate) struct InOrder<T> {
    /// The index of the next item to release.
    next: usize,
    ready: Vec<Option<T>>,
}

impl<T> InOrder<T> {
    /// Room for items `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            next: 0,
            ready: std::iter::repeat_with(|| None).take(len).collect(),
        }
    }

    /// Files item `index` and releases, in order, every item now due:
    /// the run of filed items from the next unreleased index on.
    pub(crate) fn deposit(&mut self, index: usize, item: T) -> impl Iterator<Item = T> + '_ {
        self.ready[index] = Some(item);
        std::iter::from_fn(move || {
            let item = self.ready.get_mut(self.next)?.take()?;
            self.next += 1;
            Some(item)
        })
    }
}

/// Runs `work` on `workers` threads and returns each thread's result.
/// One worker runs `work` on the calling thread instead.
///
/// Every thread is joined before this returns. `std::thread::scope`
/// alone only waits for the closures: a thread can still be exiting,
/// holding its allocator arena, when the next pool starts, and the
/// allocator then gives the new thread a fresh arena. With a pool per
/// campaign stage, those arenas pile up and peak memory grows run after
/// run.
pub(crate) fn on_workers<T: Send>(workers: usize, work: impl Fn() -> T + Sync) -> Vec<T> {
    if workers == 1 {
        return vec![work()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// The per-campaign knobs and counters [`execute_job`] needs, bundled
/// so workers hand one context down instead of seven loose arguments.
struct ExecCtx<'a> {
    fuel: u64,
    superblocks: bool,
    store: Option<&'a ArtifactStore>,
    prefix_saved: &'a AtomicU64,
    forked_runs: &'a AtomicU64,
}

/// Runs one job — forked from a shared prefix snapshot when a store is
/// attached and the fork is provably byte-identical to running from
/// reset; otherwise from reset on a freshly constructed platform.
fn execute_job(job: &Job, prebuilt: &Prebuilt, ctx: &ExecCtx<'_>) -> RunResult {
    let ExecCtx {
        fuel,
        superblocks,
        store,
        prefix_saved,
        forked_runs,
    } = *ctx;
    if let (Some(store), Some(key)) = (store, job.content_key) {
        let slot = store.prefix_slot(key, job.platform);
        let entry = slot.get_or_init(|| {
            // The shared prefix is always fault-free: every run of the
            // campaign (whatever its fault) forks from the same
            // machine, and per-fault safety is decided below.
            let budget = store.prefix_budget().min(fuel);
            if budget == 0 {
                return None;
            }
            let mut prefix = Platform::new(job.platform, &job.derivative);
            prefix.set_fuel(budget);
            load_into(&mut prefix, prebuilt, superblocks);
            let result = prefix.run();
            // A prefix that ended for any reason other than budget
            // exhaustion finished the test: nothing left to fork.
            (result.end == EndReason::OutOfFuel)
                .then(|| PrefixEntry::capture(&prefix, result.insns, result.dbg_markers))
        });
        // Fork-safety is checked on the captured mask so an unsafe
        // fault falls back to from-reset without ever deserializing
        // the snapshot.
        if let Some(entry) = entry.as_ref().filter(|e| e.fork_safe(job.fault)) {
            let continuation = |platform: &mut Platform| -> RunResult {
                platform.set_fuel(fuel);
                // The superblock knob is runtime config, never part of
                // the snapshot: re-apply it to the restored machine.
                platform.set_superblocks(superblocks);
                // The snapshot restores decode *stats* but not slots;
                // re-seed from the shared artifact so the continuation
                // stays hot.
                platform.bus().seed_decoded(&prebuilt.decoded);
                let mut result = platform.run();
                // Markers are collected per run() call; the
                // continuation inherits the prefix's.
                let mut markers = entry.dbg_markers.clone();
                markers.append(&mut result.dbg_markers);
                result.dbg_markers = markers;
                prefix_saved.fetch_add(entry.retired, Ordering::Relaxed);
                forked_runs.fetch_add(1, Ordering::Relaxed);
                result
            };
            if let Ok(mut platform) =
                Platform::from_snapshot(&entry.state, &job.derivative, job.fault)
            {
                return continuation(&mut platform);
            }
        }
    }
    let mut platform = Platform::with_fault(job.platform, &job.derivative, job.fault);
    platform.set_fuel(fuel);
    load_into(&mut platform, prebuilt, superblocks);
    platform.run()
}

/// Runs one job from reset with the MMIO monitor armed and evaluates
/// every mined checker on the captured trace.
///
/// Checked runs never fork from a prefix snapshot: snapshots carry only
/// the serialized machine, not the monitor (a perf-neutral observability
/// ring), so a forked run would miss the prefix's MMIO traffic and could
/// mis-anchor a temporal checker. From-reset execution with the same
/// monitor capacity as the mining pass keeps mining and checking inputs
/// identical, which is what guarantees zero spurious violations on
/// fault-free runs.
fn execute_checked(
    job: &Job,
    prebuilt: &Prebuilt,
    fuel: u64,
    superblocks: bool,
    checkers: &[TraceAssertion],
    capacity: usize,
) -> (RunResult, Vec<(String, String)>) {
    let (platform, result) = run_monitored(job, prebuilt, job.fault, fuel, superblocks, capacity);
    let mut violations = Vec::new();
    if let Some(trace) = platform.mmio_trace() {
        for checker in checkers {
            let name = checker.name();
            for detail in checker.check(trace) {
                violations.push((name.clone(), detail));
            }
        }
    }
    (result, violations)
}

/// Runs one job's built image from reset on a fresh machine carrying
/// `fault`, with the MMIO monitor armed at `capacity`. Returns the
/// machine, whose monitor holds the run's trace, and the result.
fn run_monitored(
    job: &Job,
    prebuilt: &Prebuilt,
    fault: PlatformFault,
    fuel: u64,
    superblocks: bool,
    capacity: usize,
) -> (Platform, RunResult) {
    let mut platform = Platform::with_fault(job.platform, &job.derivative, fault);
    platform.set_fuel(fuel);
    platform.enable_mmio_trace(capacity);
    load_into(&mut platform, prebuilt, superblocks);
    let result = platform.run();
    (platform, result)
}

/// Loads a built image and its predecode artifact into a fresh
/// platform, applying the campaign's superblock knob.
fn load_into(platform: &mut Platform, prebuilt: &Prebuilt, superblocks: bool) {
    platform.set_superblocks(superblocks);
    platform.load_prebuilt(&prebuilt.image, &prebuilt.decoded);
}

/// Bisects one divergent test: re-runs the first divergent platform
/// against a majority-side anchor (the golden model when present) under
/// snapshot binary search, yielding the first retired instruction at
/// which their architectural states depart.
fn bisect_test(
    fuel: u64,
    superblocks: bool,
    test: &str,
    divergence: &DivergenceReport,
    jobs: &[Job],
) -> Option<FirstDivergence> {
    let (env, test_id) = test.split_once('/')?;
    let target = *divergence.divergent.first()?;
    let candidates: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.env_name == env && j.test_id == test_id)
        .collect();
    let anchor = candidates
        .iter()
        .find(|j| {
            j.platform == PlatformId::GoldenModel && !divergence.divergent.contains(&j.platform)
        })
        .or_else(|| {
            candidates
                .iter()
                .find(|j| !divergence.divergent.contains(&j.platform))
        })?;
    let target = candidates.iter().find(|j| j.platform == target)?;
    let fresh = |job: &Job| -> Option<Platform> {
        let prebuilt = job.slot.get()?.as_ref().ok()?;
        let mut platform = Platform::with_fault(job.platform, &job.derivative, job.fault);
        platform.set_fuel(fuel);
        platform.enable_trace(16);
        load_into(&mut platform, prebuilt, superblocks);
        Some(platform)
    };
    let mut a = fresh(anchor)?;
    let mut b = fresh(target)?;
    bisect_divergence(&mut a, &mut b, fuel).ok().flatten()
}

#[cfg(test)]
mod tests {
    use advm_soc::DerivativeId;

    use crate::env::TestCell;

    use super::*;

    fn passing_cell(id: &str) -> TestCell {
        TestCell::new(
            id,
            "passes everywhere",
            ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
        )
    }

    fn failing_cell(id: &str) -> TestCell {
        TestCell::new(
            id,
            "always fails",
            ".INCLUDE Globals.inc\n_main:\n    LOAD ArgA, #9\n    CALL Base_Report_Fail\n    RETURN\n",
        )
    }

    fn env(cells: Vec<TestCell>) -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            cells,
        )
    }

    /// A fresh store whose prefixes run `budget` instructions (0: no
    /// run forks).
    fn prefix_store(budget: u64) -> Arc<ArtifactStore> {
        Arc::new(ArtifactStore::with_prefix_budget(
            crate::artifacts::DEFAULT_ARTIFACT_CAPACITY,
            budget,
        ))
    }

    #[test]
    fn full_matrix_runs_every_combination() {
        let e = env(vec![passing_cell("TEST_A"), passing_cell("TEST_B")]);
        let report = Campaign::new().env(e).run().unwrap();
        assert_eq!(report.total(), 2 * 6);
        assert_eq!(report.passed(), 12);
        assert!(report.divergences().is_empty());
        let matrix = report.matrix().to_string();
        assert!(matrix.contains("PAGE/TEST_A"), "{matrix}");
        assert!(matrix.contains("golden"), "{matrix}");
    }

    #[test]
    fn failures_counted_consistently() {
        let e = env(vec![passing_cell("TEST_A"), failing_cell("TEST_F")]);
        let report = Campaign::new()
            .env(e)
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        assert_eq!(report.total(), 2);
        assert_eq!(report.passed(), 1);
        assert_eq!(report.failed(), 1);
        assert!((report.pass_rate() - 0.5).abs() < 1e-9);
        // Failing everywhere is consistent, not a divergence.
        assert!(report.divergences().is_empty());
    }

    /// A read-back test that exercises the page readback path — the
    /// cell that page-module faults visibly break.
    fn readback_cell() -> TestCell {
        TestCell::new(
            "TEST_READBACK",
            "page readback",
            "\
.INCLUDE Globals.inc
_main:
    LOAD ArgA, #TEST1_TARGET_PAGE
    CALL Base_Select_Page
    LOAD ArgA, #TEST1_TARGET_PAGE
    CALL Base_Check_Active_Page
    CMP RetVal, #0
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
        )
    }

    #[test]
    fn injected_fault_shows_up_as_divergence() {
        let e = env(vec![readback_cell()]);
        let report = Campaign::new()
            .env(e)
            .fault(PlatformId::RtlSim, PlatformFault::PageActiveOffByOne)
            .run()
            .unwrap();
        let divergences = report.divergences();
        assert_eq!(divergences.len(), 1, "exactly one divergent test");
        assert!(divergences[0].1.divergent.contains(&PlatformId::RtlSim));
    }

    #[test]
    fn parallel_and_serial_agree_including_cache_hits() {
        let e = env(vec![
            passing_cell("TEST_A"),
            failing_cell("TEST_F"),
            passing_cell("TEST_C"),
        ]);
        let serial = Campaign::new().env(e.clone()).workers(1).run().unwrap();
        let parallel = Campaign::new().env(e).workers(8).run().unwrap();
        assert_eq!(serial.total(), parallel.total());
        assert_eq!(serial.passed(), parallel.passed());
        assert_eq!(serial.cache_hits(), parallel.cache_hits());
        assert_eq!(serial.unique_builds(), parallel.unique_builds());
        // Same (env, test, platform) → same verdict, independent of order.
        for run in serial.runs() {
            let twin = parallel
                .run_of(&run.env, &run.test_id, run.platform)
                .expect("same job set");
            assert_eq!(twin.result.passed(), run.result.passed());
        }
    }

    #[test]
    fn cache_dedupes_platform_independent_cells() {
        // Golden model and RTL simulation share every abstraction-layer
        // knob, so a platform-independent cell builds once for both.
        let e = env(vec![passing_cell("TEST_A")]);
        let report = Campaign::new()
            .env(e.clone())
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .run()
            .unwrap();
        assert_eq!(report.total(), 2);
        assert_eq!(report.cache_hits(), 1);
        assert_eq!(report.unique_builds(), 1);

        // Disabling the cache forces per-job assembly.
        let uncached = Campaign::new()
            .env(e)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .cache(false)
            .run()
            .unwrap();
        assert_eq!(uncached.cache_hits(), 0);
        assert_eq!(uncached.unique_builds(), 2);
    }

    #[test]
    fn full_matrix_cache_hits_are_deterministic() {
        let e = env(vec![passing_cell("TEST_A"), passing_cell("TEST_B")]);
        let a = Campaign::new().env(e.clone()).workers(1).run().unwrap();
        let b = Campaign::new().env(e).workers(6).run().unwrap();
        // TEST_A and TEST_B have byte-identical sources, so they share
        // builds with each other on every platform; across platforms
        // only golden/RTL agree on every abstraction-layer knob. That
        // leaves one distinct build per knob set: 5 of 12 jobs.
        assert_eq!(a.unique_builds(), 5);
        assert_eq!(a.cache_hits(), 7);
        assert_eq!(a.cache_hits(), b.cache_hits());
        assert_eq!(a.unique_builds(), b.unique_builds());
    }

    #[test]
    fn decode_artifacts_shared_across_platforms_and_modes_agree() {
        // One platform-independent cell on golden + RTL: the build cache
        // dedupes to a single image, whose predecode artifact seeds both
        // platforms' decode caches — so both runs report preloaded slots
        // and the hot path hits.
        // Decode-off identity is checked where the reference path lives,
        // on the platform (`tests/cross_crate_props.rs`).
        let e = env(vec![passing_cell("TEST_A")]);
        let cached = Campaign::new()
            .env(e)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .run()
            .unwrap();
        assert_eq!(cached.unique_builds(), 1);
        for run in cached.runs() {
            assert!(
                run.result.decode.preloaded > 0,
                "every run starts from the shared artifact: {:?}",
                run.result.decode
            );
            assert_eq!(
                run.result.decode.misses, 0,
                "predecode covers the whole image: {:?}",
                run.result.decode
            );
        }
        let perf = cached.perf();
        assert!(perf.instructions > 0);
        assert!(perf.decode_hits > 0);
        assert!(perf.decode_hit_rate() > 0.99, "{perf:?}");
    }

    #[test]
    fn perf_block_appears_in_json() {
        let e = env(vec![passing_cell("TEST_A")]);
        let report = Campaign::new()
            .env(e)
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.contains("\"perf\":{\"instructions\":"), "{json}");
        assert!(json.contains("\"steps_per_sec\":"), "{json}");
        assert!(json.contains("\"decode_hit_rate\":"), "{json}");
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn forked_campaign_is_run_for_run_identical_to_from_reset() {
        let e = env(vec![
            passing_cell("TEST_A"),
            failing_cell("TEST_F"),
            readback_cell(),
        ]);
        let baseline = Campaign::new()
            .env(e.clone())
            .artifact_store(prefix_store(0))
            .run()
            .unwrap();
        assert_eq!(baseline.perf().forked_runs, 0);
        assert_eq!(baseline.perf().prefix_saved, 0);

        // An 8-instruction prefix stops mid-preamble: every fault-free
        // run forks from the shared snapshot instead of re-resetting.
        let store = prefix_store(8);
        let forked = Campaign::new()
            .env(e)
            .artifact_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert!(forked.perf().forked_runs > 0, "{:?}", forked.perf());
        assert!(forked.perf().prefix_saved > 0, "{:?}", forked.perf());
        assert!(store.stats().prefix_entries > 0);

        // Forking is perf-only: every observable per-run result is
        // byte-identical to the from-reset campaign.
        assert_eq!(forked.total(), baseline.total());
        assert_eq!(forked.perf().instructions, baseline.perf().instructions);
        for run in baseline.runs() {
            let twin = forked
                .run_of(&run.env, &run.test_id, run.platform)
                .expect("same job set");
            assert_eq!(twin.result.passed(), run.result.passed());
            assert_eq!(twin.result.insns, run.result.insns);
            assert_eq!(twin.result.cycles, run.result.cycles);
            assert_eq!(twin.result.dbg_markers, run.result.dbg_markers);
            assert_eq!(twin.result.console, run.result.console);
            assert_eq!(twin.result.uart_tx, run.result.uart_tx);
        }
        assert_eq!(
            forked.divergences().len(),
            baseline.divergences().len(),
            "forking must not invent or hide divergences"
        );
    }

    #[test]
    fn faulted_campaign_with_pool_keeps_its_divergence() {
        // The page fault's divergence survives prefix forking: the
        // faulted job either forks safely (prefix never touched the
        // page module) or silently falls back to from-reset.
        let e = env(vec![readback_cell()]);
        let report = Campaign::new()
            .env(e)
            .fault(PlatformId::RtlSim, PlatformFault::PageActiveOffByOne)
            .artifact_store(prefix_store(8))
            .run()
            .unwrap();
        let divergences = report.divergences();
        assert_eq!(divergences.len(), 1);
        assert!(divergences[0].1.divergent.contains(&PlatformId::RtlSim));
        assert!(report.perf().forked_runs > 0, "{:?}", report.perf());
    }

    #[test]
    fn bisect_pinpoints_first_divergent_step_in_report_and_json() {
        let e = env(vec![readback_cell()]);
        let report = Campaign::new()
            .env(e)
            .fault(PlatformId::RtlSim, PlatformFault::PageActiveOffByOne)
            .bisect(true)
            .run()
            .unwrap();
        let divergences = report.divergences();
        assert_eq!(divergences.len(), 1);
        let bisection = divergences[0]
            .1
            .bisection
            .as_ref()
            .expect("bisect(true) fills the report");
        assert!(bisection.step > 0);
        assert_eq!(bisection.platform_a, PlatformId::GoldenModel);
        assert_eq!(bisection.platform_b, PlatformId::RtlSim);
        assert!(!bisection.insn_b.is_empty());

        let json = report.to_json();
        assert!(json.contains("\"ambiguous\":false"), "{json}");
        assert!(json.contains("\"bisection\":{\"step\":"), "{json}");
        assert!(json.contains("\"platform_b\":\"rtl\""), "{json}");
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn events_stream_in_order_with_deterministic_content() {
        let log = EventLog::new();
        let e = env(vec![passing_cell("TEST_A")]);
        let report = Campaign::new()
            .env(e)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(1)
            .observe(log.clone())
            .run()
            .unwrap();
        let events = log.events();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::Started {
                jobs: 2,
                unique_builds: 1,
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::Finished {
                total: 2,
                failed: 0,
                cache_hits: 1,
                ..
            })
        ));
        let built: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::JobBuilt { cache_hit, .. } => Some(*cache_hit),
                _ => None,
            })
            .collect();
        assert_eq!(built, vec![false, true], "second job reuses the build");
        assert_eq!(report.cache_hits(), 1);
    }

    #[test]
    fn in_order_releases_each_run_of_filed_items() {
        let mut due = InOrder::new(5);
        assert!(due.deposit(1, 'b').next().is_none(), "item 0 is missing");
        assert!(due.deposit(3, 'd').next().is_none());
        assert_eq!(due.deposit(0, 'a').collect::<String>(), "ab");
        assert_eq!(due.deposit(2, 'c').collect::<String>(), "cd");
        assert_eq!(due.deposit(4, 'e').collect::<String>(), "e");
    }

    #[test]
    fn build_error_is_structured() {
        let e = env(vec![TestCell::new(
            "TEST_BROKEN",
            "does not assemble",
            ".INCLUDE Globals.inc\n_main:\n    FROB d1\n    RETURN\n",
        )]);
        let log = EventLog::new();
        let err = Campaign::new()
            .env(e)
            .platform(PlatformId::GoldenModel)
            .observe(log.clone())
            .run()
            .unwrap_err();
        // The event stream still terminates on the error path.
        let events = log.events();
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::Finished { .. })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, CampaignEvent::JobFailed { .. })));
        match &err {
            CampaignError::Build {
                env,
                test_id,
                platform,
                ..
            } => {
                assert_eq!(env, "PAGE");
                assert_eq!(test_id, "TEST_BROKEN");
                assert_eq!(*platform, PlatformId::GoldenModel);
            }
            other => panic!("expected Build error, got {other:?}"),
        }
        assert!(err.to_string().contains("PAGE/TEST_BROKEN"));
    }

    #[test]
    fn empty_plans_are_rejected() {
        assert!(matches!(
            Campaign::new().run(),
            Err(CampaignError::NoEnvironments)
        ));
        let e = env(vec![passing_cell("TEST_A")]);
        assert!(matches!(
            Campaign::new().env(e).platforms([]).run(),
            Err(CampaignError::NoPlatforms)
        ));
    }

    #[test]
    fn scenario_campaign_carries_provenance() {
        use advm_gen::{ConstrainedRandom, GlobalsConstraints, ScenarioEngine};
        let plan = ScenarioEngine::new(11)
            .source(ConstrainedRandom::new(GlobalsConstraints::new(
                DerivativeId::Sc88A,
                PlatformId::GoldenModel,
            )))
            .batch(2)
            .plan()
            .unwrap();
        let report = Campaign::new()
            .scenarios(plan.scenarios().iter().cloned())
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .run()
            .unwrap();
        // 2 scenarios × 2 page cells × 2 platforms.
        assert_eq!(report.total(), 8);
        assert_eq!(report.failed(), 0, "{}", report.matrix());
        assert_eq!(report.scenarios().len(), 2);
        assert_eq!(report.scenarios()[0].name, "CR_000");
        for run in report.runs() {
            let meta = run
                .scenario
                .as_ref()
                .expect("scenario runs carry provenance");
            assert_eq!(meta.name, run.env);
            assert_eq!(meta.kind.name(), "constrained-random");
        }
        let json = report.to_json();
        assert!(
            json.contains("\"scenarios\":[{\"name\":\"CR_000\""),
            "{json}"
        );
        assert!(json.contains("\"scenario\":\"CR_001\""), "{json}");
    }

    #[test]
    fn colliding_scenario_names_across_batches_stay_distinct() {
        use advm_gen::{ConstrainedRandom, GlobalsConstraints, ScenarioEngine};
        // Two separately planned batches both mint CR_000; the campaign
        // must keep their envs, runs and provenance distinct rather than
        // silently merging report cells.
        let plan = |seed| {
            ScenarioEngine::new(seed)
                .source(ConstrainedRandom::new(GlobalsConstraints::new(
                    DerivativeId::Sc88A,
                    PlatformId::GoldenModel,
                )))
                .batch(1)
                .plan()
                .unwrap()
        };
        let report = Campaign::new()
            .scenarios(plan(1).into_scenarios())
            .scenarios(plan(2).into_scenarios())
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        assert_eq!(report.total(), 4, "2 scenarios x 2 page cells");
        assert_eq!(report.scenarios().len(), 2);
        let names: Vec<&str> = report.scenarios().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["CR_000", "CR_000_1"]);
        // Both scenarios' seeds survive in the provenance.
        assert_ne!(report.scenarios()[0].seed, report.scenarios()[1].seed);
        assert!(report
            .run_of("CR_000_1", "TEST_SCN_PAGE_01", PlatformId::GoldenModel)
            .is_some());
    }

    #[test]
    fn scenarios_and_envs_mix_in_one_campaign() {
        use advm_gen::{ConstrainedRandom, GlobalsConstraints, ScenarioSource};
        let scenario = ConstrainedRandom::new(GlobalsConstraints::new(
            DerivativeId::Sc88A,
            PlatformId::GoldenModel,
        ))
        .draw(0, 5)
        .unwrap();
        let report = Campaign::new()
            .env(env(vec![passing_cell("TEST_A")]))
            .scenario(scenario)
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        assert_eq!(report.total(), 3);
        let plain = report
            .run_of("PAGE", "TEST_A", PlatformId::GoldenModel)
            .unwrap();
        assert!(plain.scenario.is_none());
        assert_eq!(report.scenarios().len(), 1);
    }

    #[test]
    fn json_report_is_well_formed() {
        let e = env(vec![passing_cell("TEST_A"), failing_cell("TEST_F")]);
        let report = Campaign::new()
            .env(e)
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"total\":2"), "{json}");
        assert!(json.contains("\"passed\":1"), "{json}");
        assert!(json.contains("\"env\":\"PAGE\""), "{json}");
        assert!(json.contains("\"TEST_F\""), "{json}");
        assert!(json.contains("\"golden\":\"fail\""), "{json}");
        // Balanced braces/brackets — the cheap structural check.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    /// The content key of a one-cell unit, by way of the planner's
    /// frame / cell / define-table split.
    fn content_key_of(sources: &SourceSet, globals_text: &str) -> u64 {
        let frame = Frame::new(sources);
        let test = sources.get(TEST_SOURCE_FILE).unwrap_or_default();
        Defines::new(globals_text.into(), &frame.tokens)
            .content_key(&CellKey::new(&frame, test, ""))
    }

    #[test]
    fn content_key_tracks_referenced_alias_defines() {
        let sources = SourceSet::new()
            .with(GLOBALS_FILE, "")
            .with("test.asm", "_main:\n    MOV CallAddr, d1\n    RETURN\n");
        // `.DEFINE NAME value` lines put the name second; a changed alias
        // binding must change the key (equal keys must imply equal
        // images), while an unreferenced define must not.
        let a = content_key_of(&sources, "X .EQU 0x1\n.DEFINE CallAddr a12\n");
        let b = content_key_of(&sources, "X .EQU 0x2\n.DEFINE CallAddr a12\n");
        let c = content_key_of(&sources, "X .EQU 0x1\n.DEFINE CallAddr a10\n");
        assert_eq!(a, b, "unreferenced .EQU must not affect the key");
        assert_ne!(a, c, "referenced alias binding must affect the key");
    }

    #[test]
    fn content_key_follows_transitive_define_references() {
        let sources = SourceSet::new()
            .with(GLOBALS_FILE, "")
            .with("test.asm", "_main:\n    LOAD d1, #TIMEOUT\n    RETURN\n");
        // The unit references only TIMEOUT, but TIMEOUT's value is a
        // symbolic expression over POLL_LIMIT — a changed POLL_LIMIT
        // changes the emitted image, so it must change the key.
        let a = content_key_of(&sources, "TIMEOUT .EQU POLL_LIMIT\nPOLL_LIMIT .EQU 0x100\n");
        let b = content_key_of(&sources, "TIMEOUT .EQU POLL_LIMIT\nPOLL_LIMIT .EQU 0x200\n");
        assert_ne!(a, b, "transitively referenced define must affect the key");
    }

    /// Reference for the planner's content keys: the whole-unit
    /// fingerprint the planner once built per cell, kept verbatim so the
    /// frame / cell / define-table split can be checked against it.
    struct CellFingerprint {
        invariant_hash: u64,
        referenced: std::collections::HashSet<String>,
    }

    impl CellFingerprint {
        fn collect_tokens(line: &str, out: &mut std::collections::HashSet<String>) {
            let mut token = String::new();
            for c in line.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    token.push(c);
                } else if !token.is_empty() {
                    out.insert(std::mem::take(&mut token));
                }
            }
            if !token.is_empty() {
                out.insert(token);
            }
        }

        fn is_inert_line(line: &str) -> bool {
            let trimmed = line.trim_start();
            trimmed.is_empty() || trimmed.starts_with(';')
        }

        fn new(sources: &SourceSet, es_source: &str) -> Self {
            let mut referenced = std::collections::HashSet::new();
            let mut hash = 0;
            for (name, text) in sources.iter() {
                if name == GLOBALS_FILE {
                    continue;
                }
                hash = fnv1a(hash, name.as_bytes());
                for line in text.lines().filter(|l| !Self::is_inert_line(l)) {
                    Self::collect_tokens(line, &mut referenced);
                    hash = fnv1a(hash, line.as_bytes());
                    hash = fnv1a(hash, b"\n");
                }
            }
            hash = fnv1a(hash, b"\x00es\x00");
            for line in es_source.lines().filter(|l| !Self::is_inert_line(l)) {
                hash = fnv1a(hash, line.as_bytes());
                hash = fnv1a(hash, b"\n");
            }
            Self {
                invariant_hash: hash,
                referenced,
            }
        }

        fn content_key(&self, globals_text: &str) -> u64 {
            let defines: Vec<(&str, &str)> = globals_text
                .lines()
                .filter(|l| !Self::is_inert_line(l))
                .map(|line| {
                    let mut words = line.split_whitespace();
                    let first = words.next().unwrap_or("");
                    let defined = if first.eq_ignore_ascii_case(".DEFINE") {
                        words.next().unwrap_or("")
                    } else {
                        first
                    };
                    (defined, line)
                })
                .collect();
            let mut live = vec![false; defines.len()];
            let mut extra = std::collections::HashSet::new();
            let mut changed = true;
            while changed {
                changed = false;
                for (i, (name, line)) in defines.iter().enumerate() {
                    if !live[i] && (self.referenced.contains(*name) || extra.contains(*name)) {
                        live[i] = true;
                        Self::collect_tokens(line, &mut extra);
                        changed = true;
                    }
                }
            }
            let mut hash = self.invariant_hash;
            for (i, (_, line)) in defines.iter().enumerate() {
                if live[i] {
                    hash = fnv1a(hash, line.as_bytes());
                    hash = fnv1a(hash, b"\n");
                }
            }
            hash
        }
    }

    /// Plans `campaign` and checks every job's content key, and the
    /// plan's hit and build counts, against [`CellFingerprint`] run on
    /// the job's own re-targeted sources. Returns the number of jobs.
    fn assert_keys_match_reference(campaign: Campaign) -> usize {
        let planned = campaign.plan().unwrap();
        let mut keys = std::collections::HashSet::new();
        for job in &planned.jobs {
            let globals_text = job.sources.get(GLOBALS_FILE).unwrap();
            let reference =
                CellFingerprint::new(&job.sources, &job.es_source).content_key(globals_text);
            assert_eq!(
                job.content_key,
                Some(reference),
                "{}/{} on {}",
                job.env_name,
                job.test_id,
                job.platform
            );
            keys.insert(reference);
        }
        assert_eq!(planned.unique_builds, keys.len());
        assert_eq!(planned.cache_hits, planned.jobs.len() - keys.len());
        planned.jobs.len()
    }

    #[test]
    fn content_keys_equal_the_whole_unit_reference() {
        use crate::basefuncs::BaseFuncsStyle;
        use crate::env::Stimulus;
        use advm_gen::{ConstrainedRandom, GlobalsConstraints, ScenarioEngine};

        // The standard system on every derivative in both library styles,
        // in one plan: two library texts, so two frames.
        let mut standard = Vec::new();
        for derivative in DerivativeId::ALL {
            for style in [BaseFuncsStyle::V1Only, BaseFuncsStyle::VersionAware] {
                let config = EnvConfig::new(derivative, PlatformId::GoldenModel).with_style(style);
                standard.extend(crate::presets::standard_system(config));
            }
        }
        let cells: usize = standard.iter().map(|e| e.cells().len()).sum();
        let jobs = assert_keys_match_reference(Campaign::new().envs(standard));
        assert_eq!(jobs, cells * PlatformId::ALL.len());

        // Scenario envs pin `Stimulus` extras; one extra shares its name
        // with a generated define, so `Globals.inc` defines it twice.
        let scenarios = ScenarioEngine::new(7)
            .source(ConstrainedRandom::new(
                GlobalsConstraints::new(DerivativeId::Sc88C, PlatformId::GoldenModel)
                    .with_knob("SCN_KNOB", 1..=9)
                    .with_knob("POLL_LIMIT", 16..=64),
            ))
            .batch(4)
            .plan()
            .unwrap()
            .into_scenarios();
        let shadowing = crate::presets::page_env(crate::presets::default_config(), 3)
            .with_stimulus(Stimulus {
                test_pages: vec![3, 17, 40],
                extra: vec![("POLL_LIMIT".into(), 7), ("SCN_KNOB".into(), 2)],
            });
        assert!(
            assert_keys_match_reference(Campaign::new().scenarios(scenarios).env(shadowing)) > 0
        );

        // Fuzz-program envs: one generated cell each, one frame for all.
        let programs = advm_fuzz::ProgramSource::new(11).generate(8);
        let fuzz = programs.iter().map(crate::fuzz::program_env);
        assert_eq!(
            assert_keys_match_reference(Campaign::new().envs(fuzz)),
            8 * PlatformId::ALL.len()
        );

        // An env without cells plans no jobs.
        let empty = ModuleTestEnv::new("EMPTY", crate::presets::default_config(), Vec::new());
        assert_eq!(assert_keys_match_reference(Campaign::new().env(empty)), 0);
    }

    #[test]
    fn content_keys_follow_the_library_each_job_assembles() {
        use crate::env::ABSTRACTION_DIR;
        // Re-targeting regenerates `Base_Functions.asm`, so an on-disk
        // library that lost its platform-knob lines must still key the
        // knobs the assembled library uses: platforms that differ in
        // them must not share an image.
        let env = crate::presets::wdt_env(crate::presets::default_config());
        let mut tree = env.tree();
        let library = tree
            .get_mut(&format!(
                "{}/{ABSTRACTION_DIR}/{BASE_FUNCTIONS_FILE}",
                env.name()
            ))
            .unwrap();
        *library = library
            .lines()
            .filter(|line| {
                !["VERBOSE", "POLL_LIMIT", "WDT_DISABLE"]
                    .iter()
                    .any(|k| line.contains(k))
            })
            .map(|line| format!("{line}\n"))
            .collect();
        let edited = ModuleTestEnv::from_tree(env.name(), &tree).unwrap();
        let run = |env: &ModuleTestEnv, cache: bool| {
            Campaign::new()
                .env(env.clone())
                .workers(2)
                .cache(cache)
                .run()
                .unwrap()
        };
        let cached = run(&edited, true);
        assert_eq!(cached.unique_builds(), run(&env, true).unique_builds());
        let uncached = run(&edited, false);
        assert_eq!(cached.total(), uncached.total());
        for a in cached.runs() {
            let b = uncached.run_of(&a.env, &a.test_id, a.platform).unwrap();
            assert_eq!(
                (a.result.passed(), a.result.insns),
                (b.result.passed(), b.result.insns),
                "{} on {}",
                a.test_id,
                a.platform
            );
        }
    }

    /// Plans `campaign` and checks every job's unit, resumed from its
    /// frame context's checkpoint as the build stage resumes it, against
    /// whole-unit assembly of the job's own sources. The first job of a
    /// context to get here builds the checkpoint from its sources, so
    /// every later job of the context checks that the context key groups
    /// only units with equal frames. Returns the number of jobs.
    fn assert_resumed_units_match_whole_units(campaign: Campaign) -> usize {
        let planned = campaign.plan().unwrap();
        for job in &planned.jobs {
            let checkpoint = job
                .checkpoint
                .get_or_init(|| Checkpoint::new(UNIT_FILE, &job.sources, TEST_SOURCE_FILE))
                .as_ref()
                .map_err(Clone::clone);
            let resumed = checkpoint
                .and_then(|checkpoint| checkpoint.resume(&job.sources))
                .and_then(|unit| unit.encode());
            let whole = advm_asm::ParsedUnit::parse_lean(UNIT_FILE, &job.sources)
                .and_then(|unit| unit.encode());
            assert!(whole.is_ok(), "{}/{}: {whole:?}", job.env_name, job.test_id);
            assert_eq!(
                resumed, whole,
                "{}/{} on {}",
                job.env_name, job.test_id, job.platform
            );
        }
        planned.jobs.len()
    }

    #[test]
    fn resumed_units_equal_whole_unit_assembly() {
        use crate::basefuncs::BaseFuncsStyle;
        use advm_gen::{ConstrainedRandom, GlobalsConstraints, ScenarioEngine};

        let mut standard = Vec::new();
        for derivative in DerivativeId::ALL {
            for style in [BaseFuncsStyle::V1Only, BaseFuncsStyle::VersionAware] {
                let config = EnvConfig::new(derivative, PlatformId::GoldenModel).with_style(style);
                standard.extend(crate::presets::standard_system(config));
            }
        }
        let cells: usize = standard.iter().map(|e| e.cells().len()).sum();
        assert_eq!(
            assert_resumed_units_match_whole_units(Campaign::new().envs(standard)),
            cells * PlatformId::ALL.len()
        );

        let programs = advm_fuzz::ProgramSource::new(1).generate(64);
        let fuzz = programs.iter().map(crate::fuzz::program_env);
        assert_eq!(
            assert_resumed_units_match_whole_units(Campaign::new().envs(fuzz)),
            64 * PlatformId::ALL.len()
        );

        let scenarios = ScenarioEngine::new(7)
            .source(ConstrainedRandom::new(
                GlobalsConstraints::new(DerivativeId::Sc88B, PlatformId::GoldenModel)
                    .with_knob("SCN_KNOB", 1..=9),
            ))
            .batch(6)
            .plan()
            .unwrap()
            .into_scenarios();
        assert!(assert_resumed_units_match_whole_units(Campaign::new().scenarios(scenarios)) > 0);

        // Names with line breaks stay inside the wrapper's comment line,
        // so the cells of an environment still share one frame.
        let named = ModuleTestEnv::new(
            "PAGE\n.ORG 0x4000",
            crate::presets::default_config(),
            vec![passing_cell("TEST_A"), passing_cell("TEST_B\n.ORG 0x5000")],
        );
        assert_eq!(
            assert_resumed_units_match_whole_units(Campaign::new().env(named)),
            2 * PlatformId::ALL.len()
        );
    }

    #[test]
    fn frame_checkpoints_count_the_contexts_a_campaign_builds() {
        let envs = || {
            [DerivativeId::Sc88A, DerivativeId::Sc88C]
                .into_iter()
                .flat_map(|d| {
                    crate::presets::standard_system(EnvConfig::new(d, PlatformId::GoldenModel))
                })
        };
        // One checkpoint per distinct (library, `Globals.inc`) among the
        // jobs that assemble an image: the first job of each content key.
        let planned = Campaign::new().envs(envs()).workers(2).plan().unwrap();
        let contexts: std::collections::HashSet<(&str, &str)> = planned
            .jobs
            .iter()
            .filter(|job| !job.planned_hit)
            .map(|job| {
                let file = |name| job.sources.get(name).unwrap();
                (file(BASE_FUNCTIONS_FILE), file(GLOBALS_FILE))
            })
            .collect();
        let expected = contexts.len() as u64;
        assert!(expected > 1, "{expected}");
        drop(contexts);
        let built = planned.build().unwrap();
        let perf = built.0.perf;
        assert_eq!(perf.frame_checkpoints, expected);
        assert!(perf.plan_wall <= perf.build_wall, "{perf:?}");

        // On a shared store, a re-run whose every image is a store hit
        // builds no checkpoint.
        let store = Arc::new(ArtifactStore::new(1024));
        let run = || {
            Campaign::new()
                .envs(envs())
                .workers(2)
                .artifact_store(Arc::clone(&store))
                .run()
                .unwrap()
        };
        let cold = run();
        assert_eq!(cold.perf().frame_checkpoints, expected);
        let warm = run();
        assert_eq!(warm.perf().artifact_hits as usize, warm.unique_builds());
        assert_eq!(warm.perf().frame_checkpoints, 0);
        assert!(warm.perf().plan_wall > Duration::ZERO);
        let json = warm.to_json();
        assert!(json.contains("\"frame_checkpoints\":0,"), "{json}");
        assert!(json.contains("\"plan_wall_ms\":"), "{json}");
    }

    #[test]
    fn json_escaping_handles_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// One exemplar of every event variant — the wire-format tests below
    /// must cover the whole enum (a new variant fails the match here).
    fn every_event() -> Vec<CampaignEvent> {
        let exemplar = |variant: &CampaignEvent| match variant {
            CampaignEvent::Started { .. }
            | CampaignEvent::JobStarted { .. }
            | CampaignEvent::JobBuilt { .. }
            | CampaignEvent::JobFinished { .. }
            | CampaignEvent::JobFailed { .. }
            | CampaignEvent::CheckerViolation { .. }
            | CampaignEvent::DivergenceDetected { .. }
            | CampaignEvent::Finished { .. } => {}
        };
        let events = vec![
            CampaignEvent::Started {
                jobs: 12,
                unique_builds: 5,
                workers: 4,
            },
            CampaignEvent::JobStarted {
                env: "PAGE".into(),
                test_id: "TEST_A".into(),
                platform: PlatformId::GoldenModel,
            },
            CampaignEvent::JobBuilt {
                env: "PAGE".into(),
                test_id: "TEST_A".into(),
                platform: PlatformId::RtlSim,
                cache_hit: true,
            },
            CampaignEvent::JobFinished {
                env: "PAGE".into(),
                test_id: "TEST_A".into(),
                platform: PlatformId::GateSim,
                passed: false,
            },
            CampaignEvent::JobFailed {
                env: "PAGE".into(),
                test_id: "TEST_\"Q\"".into(),
                platform: PlatformId::Accelerator,
                error: "unknown mnemonic \"FROB\"\nline 2".into(),
            },
            CampaignEvent::CheckerViolation {
                env: "FUZZ_0003".into(),
                test_id: "TEST_FUZZ_0003".into(),
                platform: PlatformId::RtlSim,
                checker: "readback[0xe0108&0x0000ffff]".into(),
                detail: "read 0x0 at cycle 41, expected 0x1234".into(),
            },
            CampaignEvent::DivergenceDetected {
                test: "PAGE/TEST_READBACK".into(),
                divergent: vec![PlatformId::RtlSim, PlatformId::Bondout],
            },
            CampaignEvent::Finished {
                total: 12,
                passed: 10,
                failed: 2,
                cache_hits: 7,
            },
        ];
        events.iter().for_each(exemplar);
        events
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for event in every_event() {
            let json = event.to_json();
            let back = CampaignEvent::from_json(&json).unwrap_or_else(|e| {
                panic!("{json} failed to parse back: {e}");
            });
            assert_eq!(back, event, "{json}");
            // The wire form is itself well-formed JSON with a type tag.
            let value = crate::wire::JsonValue::parse(&json).unwrap();
            assert_eq!(value.str_field("type").unwrap(), event.kind());
        }
    }

    #[test]
    fn event_wire_format_is_a_stable_contract() {
        // Golden strings: changing any of these breaks every deployed
        // NDJSON consumer, so a diff here must be a deliberate protocol
        // bump, not a refactor side-effect.
        let golden = [
            r#"{"type":"started","jobs":12,"unique_builds":5,"workers":4}"#,
            r#"{"type":"job_started","env":"PAGE","test":"TEST_A","platform":"golden"}"#,
            r#"{"type":"job_built","env":"PAGE","test":"TEST_A","platform":"rtl","cache_hit":true}"#,
            r#"{"type":"job_finished","env":"PAGE","test":"TEST_A","platform":"gate","passed":false}"#,
            r#"{"type":"job_failed","env":"PAGE","test":"TEST_\"Q\"","platform":"accel","error":"unknown mnemonic \"FROB\"\nline 2"}"#,
            r#"{"type":"checker_violation","env":"FUZZ_0003","test":"TEST_FUZZ_0003","platform":"rtl","checker":"readback[0xe0108&0x0000ffff]","detail":"read 0x0 at cycle 41, expected 0x1234"}"#,
            r#"{"type":"divergence","test":"PAGE/TEST_READBACK","divergent":["rtl","bondout"]}"#,
            r#"{"type":"finished","total":12,"passed":10,"failed":2,"cache_hits":7}"#,
        ];
        for (event, expected) in every_event().iter().zip(golden) {
            assert_eq!(event.to_json(), expected);
        }
    }

    #[test]
    fn malformed_events_are_rejected_with_shape_errors() {
        for bad in [
            "",
            "{}",
            r#"{"type":"nope"}"#,
            r#"{"type":"started","jobs":1}"#,
            r#"{"type":"job_started","env":"E","test":"T","platform":"vax"}"#,
            r#"{"type":"finished","total":-1,"passed":0,"failed":0,"cache_hits":0}"#,
        ] {
            assert!(CampaignEvent::from_json(bad).is_err(), "{bad:?}");
        }
    }

    /// Writes PAGE_MAP and reads it back into a sink register without
    /// ever branching on the value: a map-write fault changes only the
    /// sink read, which the differential verdict cannot see.
    fn sink_readback_cell() -> TestCell {
        TestCell::new(
            "TEST_MAP_SINK",
            "map readback into a sink register",
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #0x1234
    STORE [PAGE_MAP_ADDR], d1
    LOAD d2, [PAGE_MAP_ADDR]
    CALL Base_Report_Pass
    RETURN
",
        )
    }

    /// The sc88a page module's MAP register, 16 writable bits.
    fn map_checker() -> TraceAssertion {
        TraceAssertion::ReadbackEquals {
            addr: 0xE0108,
            mask: 0xFFFF,
        }
    }

    #[test]
    fn checkers_catch_differentially_invisible_faults() {
        let e = env(vec![sink_readback_cell()]);
        let log = EventLog::new();
        let report = Campaign::new()
            .env(e)
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .fault(PlatformId::RtlSim, PlatformFault::PageMapWriteIgnored)
            .checkers([map_checker()])
            .observe(log.clone())
            .run()
            .unwrap();
        // The verdict passes everywhere and no divergence is raised —
        // the fault is invisible to the differential layer...
        assert_eq!(report.failed(), 0, "{}", report.matrix());
        assert!(report.divergences().is_empty());
        // ...but the mined checker sees the ignored write.
        assert_eq!(report.checkers_armed(), 1);
        let violations = report.checker_violations();
        assert!(!violations.is_empty());
        for v in violations {
            assert_eq!(v.platform, PlatformId::RtlSim, "{v:?}");
            assert_eq!(v.env, "PAGE");
            assert_eq!(v.test_id, "TEST_MAP_SINK");
            assert!(v.checker.starts_with("readback[0xe0108"), "{v:?}");
        }
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, CampaignEvent::CheckerViolation { .. })));
        let json = report.to_json();
        assert!(json.contains("\"checkers\":{\"armed\":1,"), "{json}");
        assert!(json.contains("\"checker\":\"readback[0xe0108"), "{json}");
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn fault_free_runs_satisfy_armed_checkers() {
        let e = env(vec![sink_readback_cell()]);
        let report = Campaign::new()
            .env(e)
            .checkers([map_checker()])
            .run()
            .unwrap();
        assert_eq!(report.total(), 6);
        assert_eq!(report.failed(), 0);
        assert!(report.checker_violations().is_empty());
        assert!(report.to_json().contains("\"violations\":[]"));
    }

    #[test]
    fn zero_and_one_capacity_monitors_never_fire_spurious_violations() {
        // Capacity 0 retains nothing (every transaction is "dropped");
        // capacity 1 retains only the newest. Both must run the checker
        // campaign to completion with no panic and no violations: every
        // checker anchors on *retained* writes, so a truncated ring
        // degrades to a vacuous pass, never a false positive.
        let baseline = Campaign::new()
            .env(env(vec![sink_readback_cell()]))
            .run()
            .unwrap();
        for capacity in [0usize, 1] {
            let report = Campaign::new()
                .env(env(vec![sink_readback_cell()]))
                .checkers([map_checker()])
                .monitor_capacity(capacity)
                .run()
                .unwrap();
            assert_eq!(report.total(), baseline.total(), "capacity {capacity}");
            assert_eq!(report.failed(), baseline.failed(), "capacity {capacity}");
            assert!(
                report.checker_violations().is_empty(),
                "capacity {capacity}: truncation must skip, not fire"
            );
            // Verdicts are checker-independent.
            for run in baseline.runs() {
                let twin = report
                    .run_of(&run.env, &run.test_id, run.platform)
                    .expect("same job set");
                assert_eq!(twin.result.passed(), run.result.passed());
            }
        }
    }

    #[test]
    fn checked_runs_never_fork_and_unchecked_reports_omit_the_block() {
        let e = env(vec![sink_readback_cell()]);
        // A store that forks is attached but checkers force from-reset
        // execution: snapshots do not carry the MMIO monitor.
        let checked = Campaign::new()
            .env(e.clone())
            .artifact_store(prefix_store(8))
            .checkers([map_checker()])
            .monitor_capacity(256)
            .run()
            .unwrap();
        assert_eq!(checked.perf().forked_runs, 0, "{:?}", checked.perf());
        assert_eq!(checked.perf().prefix_saved, 0);
        assert!(checked.checker_violations().is_empty());

        // Without checkers the report JSON keeps its pre-existing
        // layout: no "checkers" block at all.
        let plain = Campaign::new().env(e).run().unwrap();
        assert_eq!(plain.checkers_armed(), 0);
        assert!(!plain.to_json().contains("\"checkers\""));
    }

    #[test]
    fn artifact_store_reuse_is_perf_only_and_counted() {
        let e = env(vec![passing_cell("TEST_A"), failing_cell("TEST_F")]);
        let baseline = Campaign::new().env(e.clone()).run().unwrap();

        let store = Arc::new(ArtifactStore::new(64));
        let cold = Campaign::new()
            .env(e.clone())
            .artifact_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(cold.perf().artifact_hits, 0, "cold run populates");
        let after_cold = store.stats();
        assert_eq!(after_cold.hits, 0);
        assert_eq!(after_cold.misses as usize, cold.unique_builds());

        let warm = Campaign::new()
            .env(e)
            .artifact_store(Arc::clone(&store))
            .run()
            .unwrap();
        assert_eq!(
            warm.perf().artifact_hits as usize,
            warm.unique_builds(),
            "every distinct key is served by the store on the warm run"
        );
        assert_eq!(store.stats().hits, warm.perf().artifact_hits);

        // Reuse is perf-only: report-level counters and every verdict
        // match both the cold store run and the storeless baseline.
        for report in [&cold, &warm] {
            assert_eq!(report.total(), baseline.total());
            assert_eq!(report.cache_hits(), baseline.cache_hits());
            assert_eq!(report.unique_builds(), baseline.unique_builds());
            for run in baseline.runs() {
                let twin = report
                    .run_of(&run.env, &run.test_id, run.platform)
                    .expect("same job set");
                assert_eq!(twin.result.passed(), run.result.passed());
                assert_eq!(twin.result.insns, run.result.insns);
            }
        }
    }
}
