//! Job specifications — the one description of a run.
//!
//! A [`JobSpec`] abstracts over the four run types the engine exposes
//! ([`Campaign`], [`FaultAudit`], [`Exploration`], [`Fuzz`]) as one
//! serializable value, and [`JobSpec::run`] is the one mapping from that
//! value onto the drivers: what `advm-cli submit` sends over the socket
//! is exactly what a daemon worker later runs, and `advm-cli
//! regress|audit|explore|fuzz` parse the same flags into the same spec
//! and run it in process. Field names mirror the CLI's flag surfaces
//! (`--workers`, `--fuel`, `--all-platforms`, …).
//!
//! A job's size fields are capped on the wire ([`MAX_PROGRAMS`],
//! [`MAX_SCENARIOS`], [`MAX_BATCH`], [`MAX_ROUNDS`]), and so is its
//! thread count ([`MAX_WORKERS`]): a job sized past what memory holds,
//! or one asking for more threads than the host can start, would abort
//! the whole daemon, which no job-level error handling can catch.

use std::path::Path;
use std::sync::Arc;

use advm::artifacts::ArtifactStore;
use advm::audit::{FaultAudit, FaultAuditReport};
use advm::campaign::{Campaign, CampaignPerf, CampaignReport, ObserverFactory};
use advm::env::ModuleTestEnv;
use advm::fuzz::{Fuzz, FuzzReport};
use advm::stimulus::{Exploration, ExplorationReport};
use advm::wire::{json_string, JsonValue, WireError};
use advm_soc::{DerivativeId, PlatformId};

/// The most programs one fuzz job generates (`programs`). A fuzz run
/// builds every program up front.
pub const MAX_PROGRAMS: u64 = 1024;

/// The most scenarios one audit job's escape round draws (`scenarios`).
pub const MAX_SCENARIOS: u64 = 256;

/// The most scenarios one exploration round draws (`batch`).
pub const MAX_BATCH: u64 = 256;

/// The most rounds one exploration job runs (`rounds`).
pub const MAX_ROUNDS: u64 = 32;

/// The most workers one job of any kind runs on (`workers`). A campaign
/// starts up to this many threads in each stage, and an audit sweeps
/// this many cells at once.
pub const MAX_WORKERS: u64 = 256;

/// Looks up a platform by its wire name (`golden`, `rtl`, …).
fn platform_by_name(name: &str) -> Result<PlatformId, WireError> {
    PlatformId::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| WireError::shape(format!("unknown platform `{name}`")))
}

/// Reads an optional `u64` field.
fn opt_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(_) => value.u64_field(key).map(Some),
    }
}

/// Reads an optional `u64` size field, rejecting a value above `cap`.
fn opt_size(value: &JsonValue, key: &str, cap: u64) -> Result<Option<u64>, WireError> {
    let size = opt_u64(value, key)?;
    match size {
        Some(n) if n > cap => Err(WireError::shape(format!(
            "`{key}` is {n}, above the cap of {cap}"
        ))),
        _ => Ok(size),
    }
}

/// Reads an optional platform-name array field.
fn opt_platforms(value: &JsonValue, key: &str) -> Result<Vec<PlatformId>, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(Vec::new()),
        Some(items) => items
            .as_array()
            .ok_or_else(|| WireError::shape(format!("`{key}` must be an array")))?
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| WireError::shape(format!("`{key}` holds a non-string")))
                    .and_then(platform_by_name)
            })
            .collect(),
    }
}

/// Reads an optional boolean field (absent = false).
fn opt_bool(value: &JsonValue, key: &str) -> Result<bool, WireError> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(_) => value.bool_field(key),
    }
}

/// Renders `"key":n,` for a present optional.
fn push_opt_u64(out: &mut String, key: &str, value: Option<u64>) {
    if let Some(value) = value {
        out.push_str(&format!(",\"{key}\":{value}"));
    }
}

/// One executable verification job: a local CLI run or one submitted
/// over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A regression campaign over one on-disk environment:
    /// `advm-cli regress`.
    Regress {
        /// Directory holding the environment tree, as the running
        /// process resolves it (`submit` sends an absolute path).
        dir: String,
        /// Environment name inside the tree.
        env: String,
        /// Explicit target platforms; empty means the environment's
        /// configured platform (or every platform with `all_platforms`).
        platforms: Vec<PlatformId>,
        /// Run the full six-platform matrix.
        all_platforms: bool,
        /// Campaign worker override.
        workers: Option<u64>,
        /// Per-run instruction budget override.
        fuel: Option<u64>,
    },
    /// A suite-strength fault audit: `advm-cli audit`.
    Audit {
        /// Audited platforms; empty keeps the audit default (rtl).
        platforms: Vec<PlatformId>,
        /// Audit every non-reference platform.
        all_platforms: bool,
        /// Escape-round scenario batch size.
        scenarios: Option<u64>,
        /// Master seed of the escape-driven plan.
        seed: Option<u64>,
        /// Worker count override (see `FaultAudit::workers`).
        workers: Option<u64>,
        /// Per-run instruction budget override.
        fuel: Option<u64>,
    },
    /// A closed-loop coverage exploration: `advm-cli explore`.
    Explore {
        /// Closed-loop round count.
        rounds: Option<u64>,
        /// Master seed.
        seed: Option<u64>,
        /// Scenarios per round.
        batch: Option<u64>,
        /// Campaign worker override.
        workers: Option<u64>,
        /// Derivative under exploration.
        derivative: Option<DerivativeId>,
        /// Explore the full six-platform matrix.
        all_platforms: bool,
    },
    /// A program-fuzzing campaign with optional assertion mining:
    /// `advm-cli fuzz`.
    Fuzz {
        /// Generated program count override.
        programs: Option<u64>,
        /// Program source master seed.
        seed: Option<u64>,
        /// Mine trace assertions from fault-free runs and arm them.
        mine: bool,
        /// Explicit target platforms; empty keeps the fuzz default
        /// (all six).
        platforms: Vec<PlatformId>,
        /// Run the full six-platform matrix.
        all_platforms: bool,
        /// Campaign worker override.
        workers: Option<u64>,
        /// Per-run instruction budget override.
        fuel: Option<u64>,
    },
}

impl JobSpec {
    /// The wire tag (`regress` / `audit` / `explore` / `fuzz`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Regress { .. } => "regress",
            JobSpec::Audit { .. } => "audit",
            JobSpec::Explore { .. } => "explore",
            JobSpec::Fuzz { .. } => "fuzz",
        }
    }

    /// Renders the spec as one compact JSON object.
    pub fn to_json(&self) -> String {
        let platform_list = |platforms: &[PlatformId]| {
            let names: Vec<String> = platforms
                .iter()
                .map(|p| format!("\"{}\"", p.name()))
                .collect();
            format!("[{}]", names.join(","))
        };
        match self {
            JobSpec::Regress {
                dir,
                env,
                platforms,
                all_platforms,
                workers,
                fuel,
            } => {
                let mut out = format!(
                    "{{\"kind\":\"regress\",\"dir\":{},\"env\":{},\
                     \"platforms\":{},\"all_platforms\":{all_platforms}",
                    json_string(dir),
                    json_string(env),
                    platform_list(platforms)
                );
                push_opt_u64(&mut out, "workers", *workers);
                push_opt_u64(&mut out, "fuel", *fuel);
                out.push('}');
                out
            }
            JobSpec::Audit {
                platforms,
                all_platforms,
                scenarios,
                seed,
                workers,
                fuel,
            } => {
                let mut out = format!(
                    "{{\"kind\":\"audit\",\"platforms\":{},\
                     \"all_platforms\":{all_platforms}",
                    platform_list(platforms)
                );
                push_opt_u64(&mut out, "scenarios", *scenarios);
                push_opt_u64(&mut out, "seed", *seed);
                push_opt_u64(&mut out, "workers", *workers);
                push_opt_u64(&mut out, "fuel", *fuel);
                out.push('}');
                out
            }
            JobSpec::Explore {
                rounds,
                seed,
                batch,
                workers,
                derivative,
                all_platforms,
            } => {
                let mut out = format!("{{\"kind\":\"explore\",\"all_platforms\":{all_platforms}");
                push_opt_u64(&mut out, "rounds", *rounds);
                push_opt_u64(&mut out, "seed", *seed);
                push_opt_u64(&mut out, "batch", *batch);
                push_opt_u64(&mut out, "workers", *workers);
                if let Some(derivative) = derivative {
                    out.push_str(&format!(
                        ",\"derivative\":{}",
                        json_string(derivative.name())
                    ));
                }
                out.push('}');
                out
            }
            JobSpec::Fuzz {
                programs,
                seed,
                mine,
                platforms,
                all_platforms,
                workers,
                fuel,
            } => {
                let mut out = format!(
                    "{{\"kind\":\"fuzz\",\"mine\":{mine},\"platforms\":{},\
                     \"all_platforms\":{all_platforms}",
                    platform_list(platforms)
                );
                push_opt_u64(&mut out, "programs", *programs);
                push_opt_u64(&mut out, "seed", *seed);
                push_opt_u64(&mut out, "workers", *workers);
                push_opt_u64(&mut out, "fuel", *fuel);
                out.push('}');
                out
            }
        }
    }

    /// Parses a spec from its wire object.
    ///
    /// # Errors
    ///
    /// [`WireError`] for a missing or mistyped field, an unknown kind,
    /// platform or derivative, or a size or `workers` field above its
    /// cap.
    pub(crate) fn from_value(value: &JsonValue) -> Result<Self, WireError> {
        match value.str_field("kind")? {
            "regress" => Ok(JobSpec::Regress {
                dir: value.str_field("dir")?.to_owned(),
                env: value.str_field("env")?.to_owned(),
                platforms: opt_platforms(value, "platforms")?,
                all_platforms: opt_bool(value, "all_platforms")?,
                workers: opt_size(value, "workers", MAX_WORKERS)?,
                fuel: opt_u64(value, "fuel")?,
            }),
            "audit" => Ok(JobSpec::Audit {
                platforms: opt_platforms(value, "platforms")?,
                all_platforms: opt_bool(value, "all_platforms")?,
                scenarios: opt_size(value, "scenarios", MAX_SCENARIOS)?,
                seed: opt_u64(value, "seed")?,
                workers: opt_size(value, "workers", MAX_WORKERS)?,
                fuel: opt_u64(value, "fuel")?,
            }),
            "explore" => Ok(JobSpec::Explore {
                rounds: opt_size(value, "rounds", MAX_ROUNDS)?,
                seed: opt_u64(value, "seed")?,
                batch: opt_size(value, "batch", MAX_BATCH)?,
                workers: opt_size(value, "workers", MAX_WORKERS)?,
                derivative: match value.get("derivative") {
                    None | Some(JsonValue::Null) => None,
                    Some(_) => {
                        let name = value.str_field("derivative")?;
                        Some(
                            DerivativeId::ALL
                                .into_iter()
                                .find(|d| d.name().eq_ignore_ascii_case(name))
                                .ok_or_else(|| {
                                    WireError::shape(format!("unknown derivative `{name}`"))
                                })?,
                        )
                    }
                },
                all_platforms: opt_bool(value, "all_platforms")?,
            }),
            "fuzz" => Ok(JobSpec::Fuzz {
                programs: opt_size(value, "programs", MAX_PROGRAMS)?,
                seed: opt_u64(value, "seed")?,
                mine: opt_bool(value, "mine")?,
                platforms: opt_platforms(value, "platforms")?,
                all_platforms: opt_bool(value, "all_platforms")?,
                workers: opt_size(value, "workers", MAX_WORKERS)?,
                fuel: opt_u64(value, "fuel")?,
            }),
            other => Err(WireError::shape(format!("unknown job kind `{other}`"))),
        }
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        Self::from_value(&JsonValue::parse(text)?)
    }

    /// Runs the spec on the driver its kind names. Every internal
    /// campaign looks its builds up in `store` when one is given, and
    /// streams its events to a fresh observer from `observe`. The
    /// daemon passes its shared store and a job's event streamer; the
    /// CLI passes no store, and its progress printer for `regress` and
    /// `fuzz`. Reports are identical with or without either, but for
    /// the `perf` block.
    ///
    /// A regress run reads its environment from `dir`, bisects every
    /// divergence, and targets the environment's own platform when the
    /// spec names none.
    ///
    /// # Errors
    ///
    /// The cause, as text: an unreadable directory or environment, or
    /// the driver's own error.
    pub fn run(
        &self,
        store: Option<Arc<ArtifactStore>>,
        observe: Option<ObserverFactory>,
    ) -> Result<JobReport, String> {
        match self {
            JobSpec::Regress {
                dir,
                env,
                platforms,
                all_platforms,
                workers,
                fuel,
            } => {
                let tree = advm::fsio::read_tree(Path::new(dir))
                    .map_err(|e| format!("reading `{dir}`: {e}"))?;
                let env = ModuleTestEnv::from_tree(env, &tree)
                    .map_err(|e| format!("environment `{env}` in `{dir}`: {e}"))?;
                let targets = targets(*all_platforms, platforms)
                    .unwrap_or_else(|| vec![env.config().platform]);
                let campaign = Campaign::new().env(env).bisect(true).platforms(targets);
                let campaign = set(campaign, workers.map(|n| n as usize), Campaign::workers);
                let campaign = set(campaign, *fuel, Campaign::fuel);
                let campaign = set(campaign, store, Campaign::artifact_store);
                let campaign = set(
                    campaign,
                    observe.map(|factory| factory()),
                    Campaign::observe,
                );
                campaign
                    .run()
                    .map(JobReport::Regress)
                    .map_err(|e| e.to_string())
            }
            JobSpec::Audit {
                platforms,
                all_platforms,
                scenarios,
                seed,
                workers,
                fuel,
            } => {
                let audit = FaultAudit::new();
                let audit = set(
                    audit,
                    targets(*all_platforms, platforms),
                    FaultAudit::platforms,
                );
                let audit = set(audit, scenarios.map(|n| n as usize), FaultAudit::scenarios);
                let audit = set(audit, *seed, FaultAudit::seed);
                let audit = set(audit, workers.map(|n| n as usize), FaultAudit::workers);
                let audit = set(audit, *fuel, FaultAudit::fuel);
                let audit = set(audit, store, FaultAudit::artifact_store);
                let audit = set(audit, observe, FaultAudit::observe_with);
                audit.run().map(JobReport::Audit).map_err(|e| e.to_string())
            }
            JobSpec::Explore {
                rounds,
                seed,
                batch,
                workers,
                derivative,
                all_platforms,
            } => {
                let explore = Exploration::new();
                let explore = set(
                    explore,
                    targets(*all_platforms, &[]),
                    Exploration::platforms,
                );
                let explore = set(explore, rounds.map(|n| n as usize), Exploration::rounds);
                let explore = set(explore, *seed, Exploration::master_seed);
                let explore = set(explore, batch.map(|n| n as usize), Exploration::batch);
                let explore = set(explore, workers.map(|n| n as usize), Exploration::workers);
                let explore = set(explore, *derivative, Exploration::derivative);
                let explore = set(explore, store, Exploration::artifact_store);
                let explore = set(explore, observe, Exploration::observe_with);
                explore
                    .run()
                    .map(JobReport::Explore)
                    .map_err(|e| e.to_string())
            }
            JobSpec::Fuzz {
                programs,
                seed,
                mine,
                platforms,
                all_platforms,
                workers,
                fuel,
            } => {
                let fuzz = Fuzz::new().mine(*mine);
                let fuzz = set(fuzz, targets(*all_platforms, platforms), Fuzz::platforms);
                let fuzz = set(fuzz, programs.map(|n| n as usize), Fuzz::programs);
                let fuzz = set(fuzz, *seed, Fuzz::seed);
                let fuzz = set(fuzz, workers.map(|n| n as usize), Fuzz::workers);
                let fuzz = set(fuzz, *fuel, Fuzz::fuel);
                let fuzz = set(fuzz, store, Fuzz::artifact_store);
                let fuzz = set(fuzz, observe, Fuzz::observe_with);
                fuzz.run().map(JobReport::Fuzz).map_err(|e| e.to_string())
            }
        }
    }
}

/// Applies one builder setter when the spec gives its value; with
/// `None` the builder keeps its own default.
fn set<B, T>(builder: B, value: Option<T>, setter: impl FnOnce(B, T) -> B) -> B {
    match value {
        Some(value) => setter(builder, value),
        None => builder,
    }
}

/// The platforms a spec asks for: all six with `all`, else the listed
/// ones, else `None` for the driver's own default.
fn targets(all: bool, listed: &[PlatformId]) -> Option<Vec<PlatformId>> {
    if all {
        Some(PlatformId::ALL.to_vec())
    } else if listed.is_empty() {
        None
    } else {
        Some(listed.to_vec())
    }
}

/// The typed report of a finished run, one variant per [`JobSpec`]
/// kind.
#[derive(Debug, Clone)]
pub enum JobReport {
    /// A regression campaign's report.
    Regress(CampaignReport),
    /// A fault audit's report.
    Audit(FaultAuditReport),
    /// A coverage exploration's report.
    Explore(ExplorationReport),
    /// A fuzz run's report.
    Fuzz(FuzzReport),
}

impl JobReport {
    /// The run-level verdict: every test passed (regress), no audit
    /// cell is broken (audit), no exploration run failed (explore), or
    /// no failure, divergence or checker violation (fuzz).
    pub fn ok(&self) -> bool {
        match self {
            JobReport::Regress(report) => report.failed() == 0,
            JobReport::Audit(report) => report.broken() == 0,
            JobReport::Explore(report) => report.failed() == 0,
            JobReport::Fuzz(report) => report.ok(),
        }
    }

    /// The report as one JSON object: what `advm-cli <kind> --json`
    /// prints and a daemon job's `done` line carries.
    pub fn to_json(&self) -> String {
        match self {
            JobReport::Regress(report) => report.to_json(),
            JobReport::Audit(report) => report.to_json(),
            JobReport::Explore(report) => report.to_json(),
            JobReport::Fuzz(report) => report.to_json(),
        }
    }

    /// The run's campaign perf with every internal campaign absorbed
    /// (an exploration sums its rounds).
    pub fn perf(&self) -> CampaignPerf {
        match self {
            JobReport::Regress(report) => *report.perf(),
            JobReport::Audit(report) => *report.perf(),
            JobReport::Explore(report) => {
                let mut perf = CampaignPerf::default();
                for round in report.rounds() {
                    perf.absorb(round.campaign.perf());
                }
                perf
            }
            JobReport::Fuzz(report) => *report.campaign().perf(),
        }
    }
}

/// The lifecycle of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; `ok` is the run's own verdict (all tests passed / no
    /// broken audit cells / no failing exploration runs).
    Done {
        /// The run-level verdict.
        ok: bool,
    },
    /// The run could not execute (build error, bad directory, …).
    Failed {
        /// Human-readable cause.
        error: String,
    },
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec::Regress {
                dir: "/tmp/envs".into(),
                env: "PAGE".into(),
                platforms: vec![PlatformId::GoldenModel, PlatformId::RtlSim],
                all_platforms: false,
                workers: Some(2),
                fuel: None,
            },
            JobSpec::Audit {
                platforms: vec![],
                all_platforms: true,
                scenarios: Some(4),
                seed: Some(7),
                workers: None,
                fuel: Some(2_000),
            },
            JobSpec::Explore {
                rounds: Some(2),
                seed: None,
                batch: Some(3),
                workers: None,
                derivative: Some(DerivativeId::Sc88B),
                all_platforms: false,
            },
            JobSpec::Fuzz {
                programs: Some(8),
                seed: Some(11),
                mine: true,
                platforms: vec![PlatformId::GoldenModel, PlatformId::RtlSim],
                all_platforms: false,
                workers: Some(2),
                fuel: None,
            },
            JobSpec::Fuzz {
                programs: None,
                seed: None,
                mine: false,
                platforms: vec![],
                all_platforms: true,
                workers: None,
                fuel: None,
            },
        ]
    }

    #[test]
    fn every_spec_round_trips() {
        for spec in specs() {
            let json = spec.to_json();
            let back = JobSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "{}",
            r#"{"kind":"frobnicate"}"#,
            r#"{"kind":"regress","dir":"d"}"#,
            r#"{"kind":"regress","dir":"d","env":"E","platforms":["vax"]}"#,
            r#"{"kind":"explore","derivative":"PDP-11"}"#,
            r#"{"kind":"fuzz","platforms":["vax"]}"#,
            r#"{"kind":"fuzz","mine":"yes"}"#,
        ] {
            assert!(JobSpec::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn size_fields_are_accepted_at_their_cap_and_rejected_above_it() {
        for (kind, field, cap) in [
            ("fuzz", "programs", MAX_PROGRAMS),
            ("audit", "scenarios", MAX_SCENARIOS),
            ("explore", "batch", MAX_BATCH),
            ("explore", "rounds", MAX_ROUNDS),
            ("regress", "workers", MAX_WORKERS),
            ("audit", "workers", MAX_WORKERS),
            ("explore", "workers", MAX_WORKERS),
            ("fuzz", "workers", MAX_WORKERS),
        ] {
            // A regress job also names its directory and environment.
            let required = if kind == "regress" {
                r#","dir":"envs","env":"PAGE""#
            } else {
                ""
            };
            let spec = |n: u64| format!(r#"{{"kind":"{kind}"{required},"{field}":{n}}}"#);
            let at_cap = JobSpec::from_json(&spec(cap)).unwrap_or_else(|e| panic!("{e}"));
            assert!(at_cap.to_json().contains(&format!("\"{field}\":{cap}")));
            let err = JobSpec::from_json(&spec(cap + 1)).unwrap_err().to_string();
            assert!(err.contains(&format!("`{field}`")), "{err}");
            assert!(err.contains(&format!("cap of {cap}")), "{err}");
        }
        // The size that once aborted the daemon, and a thread count
        // that would start thousands of threads per stage.
        let huge = JobSpec::from_json(r#"{"kind":"fuzz","programs":1000000000}"#);
        assert!(huge.is_err());
        let threads = JobSpec::from_json(r#"{"kind":"fuzz","workers":1000000}"#);
        assert!(threads.is_err());
    }
}
