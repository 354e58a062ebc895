//! The three workloads' operations, known answers and exact counters.
//!
//! Everything here goes through the builders' top-level API (`Fuzz`,
//! `FaultAudit`, the daemon's socket), exactly as a user of the system
//! calls it; the traced replay in the ledger binary reuses these to get
//! the untraced reference of each operation.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use advm::campaign::{CampaignEvent, CampaignObserver, ObserverFactory};
use advm::{ArtifactStore, ArtifactStoreStats, FaultAudit, FaultAuditReport, Fuzz, FuzzReport};
use advm_serve::{Client, Daemon, DaemonConfig, JobSpec, Server};
use advm_sim::PlatformFault;
use advm_soc::PlatformId;

use crate::{fnv1a, json_u64, nproc, strip_perf, Counters, FNV_BASIS, STATE_DIR};

/// Jobs planned and distinct images, summed over every campaign a
/// builder runs (from their `started` events).
#[derive(Debug, Default)]
struct PlanCount {
    jobs: AtomicU64,
    unique: AtomicU64,
}

struct PlanCounter(Arc<PlanCount>);

impl CampaignObserver for PlanCounter {
    fn on_event(&mut self, event: &CampaignEvent) {
        if let CampaignEvent::Started {
            jobs,
            unique_builds,
            ..
        } = event
        {
            self.0.jobs.fetch_add(*jobs as u64, Ordering::Relaxed);
            self.0
                .unique
                .fetch_add(*unique_builds as u64, Ordering::Relaxed);
        }
    }
}

/// A fresh plan count and the observer factory that feeds it.
fn plan_counter() -> (Arc<PlanCount>, ObserverFactory) {
    let counts = Arc::new(PlanCount::default());
    let shared = Arc::clone(&counts);
    let factory: ObserverFactory =
        Arc::new(move || Box::new(PlanCounter(Arc::clone(&shared))) as Box<dyn CampaignObserver>);
    (counts, factory)
}

/// What a `cold_fuzz` operation must produce.
#[derive(Debug, Clone, Copy)]
pub struct FuzzExpect {
    /// Verdict-bearing runs: programs × platforms.
    pub runs: usize,
}

/// The known answer of every `cold_fuzz` operation.
pub const FUZZ_EXPECT: FuzzExpect = FuzzExpect {
    runs: advm::DEFAULT_FUZZ_PROGRAMS * PlatformId::ALL.len(),
};

/// One `cold_fuzz` operation: the body of `advm-cli fuzz --mine` over all
/// six platforms, without an artifact store.
///
/// # Errors
///
/// The fuzz error, rendered.
pub fn fuzz_op(seed: u64, workers: usize) -> Result<FuzzReport, String> {
    Fuzz::new()
        .mine(true)
        .seed(seed)
        .platforms(PlatformId::ALL)
        .workers(workers)
        .run()
        .map_err(|e| format!("fuzz seed {seed}: {e}"))
}

/// The `cold_fuzz` known answer: a clean report of the expected size.
///
/// # Errors
///
/// What differs from the expectation.
pub fn check_fuzz(report: &FuzzReport, expect: FuzzExpect) -> Result<(), String> {
    let campaign = report.campaign();
    if !report.ok() {
        return Err(format!(
            "fuzz seed {}: {} failed runs, {} divergences, {} checker violations",
            report.seed(),
            campaign.failed(),
            campaign.divergences().len(),
            report.violations().len()
        ));
    }
    if campaign.total() != expect.runs {
        return Err(format!(
            "fuzz seed {}: {} runs, expected {}",
            report.seed(),
            campaign.total(),
            expect.runs
        ));
    }
    Ok(())
}

/// A `cold_fuzz` operation's deterministic counters.
pub fn fuzz_counters(report: &FuzzReport) -> Counters {
    let campaign = report.campaign();
    let perf = campaign.perf();
    let json = strip_perf(&report.to_json());
    let mut c = Counters::default();
    c.set("runs", campaign.total() as u64)
        .set("passed", campaign.passed() as u64)
        .set("insns", perf.instructions)
        .set("decode_misses", perf.decode_misses)
        .set("block_dispatches", perf.block_dispatches)
        .set("block_insns", perf.block_insns)
        .set("forked_runs", perf.forked_runs)
        .set("unique_images", campaign.unique_builds() as u64)
        .set("cache_hits", campaign.cache_hits() as u64)
        .set("mined", report.mined().len() as u64)
        .set("violations", report.violations().len() as u64)
        .set("json_bytes", json.len() as u64)
        .set("json_fnv", fnv1a(FNV_BASIS, json.as_bytes()));
    c
}

/// What an `audit_matrix` operation must produce.
#[derive(Debug, Clone, Copy)]
pub struct AuditExpect {
    /// Matrix cells, every one detected.
    pub cells: usize,
}

/// The known answer of every `audit_matrix` operation: every catalogued
/// fault on every non-reference platform.
pub const AUDIT_EXPECT: AuditExpect = AuditExpect {
    cells: PlatformFault::ALL.len() * (PlatformId::ALL.len() - 1),
};

/// The escape-round seed of every `audit_matrix` operation (the value
/// `FaultAudit::new()` defaults to).
pub const AUDIT_ESCAPE_SEED: u64 = 0xFA017;

/// What one `audit_matrix` operation produced.
#[derive(Debug)]
pub struct AuditRun {
    /// The audit's report.
    pub report: FaultAuditReport,
    /// The operation's store counters.
    pub store: ArtifactStoreStats,
    /// Jobs planned over every campaign of the audit (from their
    /// `started` events); a campaign's jobs are its verdict-bearing runs.
    pub planned_jobs: u64,
    /// Distinct images planned over every campaign of the audit.
    pub planned_images: u64,
}

/// One `audit_matrix` operation: an all-platform fault audit on a fresh
/// artifact store, as the daemon's audit job runs it. Its inputs are the
/// catalogued suite, fault catalog and [`AUDIT_ESCAPE_SEED`], so every
/// operation does the same work.
///
/// # Errors
///
/// The audit error, rendered.
pub fn audit_op(workers: usize) -> Result<AuditRun, String> {
    let store = Arc::new(ArtifactStore::default());
    let (planned, factory) = plan_counter();
    let report = FaultAudit::new()
        .platforms(PlatformId::ALL)
        .seed(AUDIT_ESCAPE_SEED)
        .workers(workers)
        .artifact_store(Arc::clone(&store))
        .observe_with(factory)
        .run()
        .map_err(|e| format!("audit: {e}"))?;
    Ok(AuditRun {
        report,
        store: store.stats(),
        planned_jobs: planned.jobs.load(Ordering::Relaxed),
        planned_images: planned.unique.load(Ordering::Relaxed),
    })
}

/// The `audit_matrix` known answer: every cell detected, nothing broken
/// or escaped, kill rate 1.
///
/// # Errors
///
/// What differs from the expectation.
pub fn check_audit(report: &FaultAuditReport, expect: AuditExpect) -> Result<(), String> {
    let cells = report.cells().len();
    let detected = report.detected();
    if cells != expect.cells || detected != expect.cells {
        return Err(format!(
            "audit: {detected}/{cells} cells detected, expected {0}/{0}",
            expect.cells
        ));
    }
    if report.broken() != 0 || !report.escapes().is_empty() || report.kill_rate() != 1.0 {
        return Err(format!(
            "audit: {} broken, {} escapes, kill rate {}",
            report.broken(),
            report.escapes().len(),
            report.kill_rate()
        ));
    }
    Ok(())
}

/// An `audit_matrix` operation's deterministic counters.
pub fn audit_counters(run: &AuditRun) -> Counters {
    let (report, store) = (&run.report, &run.store);
    let perf = report.perf();
    let json = strip_perf(&report.to_json());
    let mut c = Counters::default();
    c.set("cells", report.cells().len() as u64)
        .set("detected", report.detected() as u64)
        .set("scenarios", report.scenarios_generated() as u64)
        .set("insns", perf.instructions)
        .set("decode_misses", perf.decode_misses)
        .set("block_dispatches", perf.block_dispatches)
        .set("block_insns", perf.block_insns)
        .set("forked_runs", perf.forked_runs)
        .set("prefix_saved", perf.prefix_saved)
        .set("artifact_hits", perf.artifact_hits)
        .set("store_hits", store.hits)
        .set("store_misses", store.misses)
        .set("store_evictions", store.evictions)
        .set("json_bytes", json.len() as u64)
        .set("json_fnv", fnv1a(FNV_BASIS, json.as_bytes()));
    c
}

/// One environment directory the daemon serves.
#[derive(Debug, Clone)]
pub struct EnvTarget {
    /// Environment name inside the tree.
    pub name: String,
    /// The directory holding its tree (daemon-side path).
    pub dir: String,
}

/// What one watched job looked like from the client.
#[derive(Debug, Clone)]
pub struct JobObservation {
    /// `submit` sent → `done` line read.
    pub latency: Duration,
    /// `submit` sent → first event line read (queue wait, load, plan).
    pub first_line: Duration,
    /// Last event line → `done` line.
    pub tail: Duration,
    /// Event lines before the `done` line.
    pub event_lines: u64,
    /// Bytes of those event lines (newlines excluded).
    pub event_bytes: u64,
    /// The job's first event line (the campaign's `started` event).
    pub first_event: String,
    /// The final `done` line.
    pub done: String,
}

impl JobObservation {
    /// The job's report with the perf block stripped.
    pub fn stripped_report(&self) -> String {
        let report = self
            .done
            .find("\"report\":")
            .map_or("", |at| &self.done[at..]);
        strip_perf(report)
    }

    /// The job's deterministic counters.
    pub fn counters(&self) -> Counters {
        let stripped = self.stripped_report();
        let num = |key: &str| json_u64(&self.done, key).unwrap_or(u64::MAX);
        let mut c = Counters::default();
        c.set("runs", num("total"))
            .set("passed", num("passed"))
            .set("insns", num("instructions"))
            .set("decode_misses", num("decode_misses"))
            .set("block_dispatches", num("block_dispatches"))
            .set("forked_runs", num("forked_runs"))
            .set("prefix_saved", num("prefix_saved"))
            .set("artifact_hits", num("artifact_hits"))
            .set("event_lines", self.event_lines)
            .set("json_bytes", stripped.len() as u64)
            .set("json_fnv", fnv1a(FNV_BASIS, stripped.as_bytes()));
        c
    }
}

/// The reference a warm job of one environment must reproduce.
#[derive(Debug, Clone)]
pub struct JobReference {
    /// The warm reference report, perf stripped.
    pub stripped: String,
    /// The warm reference job's counters.
    pub counters: Counters,
}

/// A resident daemon on a Unix socket inside the checkout, serving the
/// paper's standard system environments from disk, with a warm store.
pub struct DaemonHarness {
    work: PathBuf,
    socket: PathBuf,
    server: Option<JoinHandle<io::Result<()>>>,
    /// The environments, in round-robin order.
    pub envs: Vec<EnvTarget>,
    /// Per environment, the warm reference job.
    pub references: Vec<JobReference>,
}

impl std::fmt::Debug for DaemonHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHarness")
            .field("socket", &self.socket)
            .field("envs", &self.envs.len())
            .finish_non_exhaustive()
    }
}

impl DaemonHarness {
    /// Set-up: writes every standard-system environment tree to its own
    /// directory, starts a daemon with one worker per core behind a
    /// socket, then submits every environment twice — the first pass
    /// fills the store, the second records each environment's warm
    /// reference.
    ///
    /// # Errors
    ///
    /// Any I/O, socket or job failure, rendered.
    pub fn start(tag: &str) -> Result<Self, String> {
        let work = Path::new(STATE_DIR).join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let mut envs = Vec::new();
        for env in advm::presets::standard_system(advm::presets::default_config()) {
            let dir = work.join("envs").join(env.name());
            advm::fsio::write_tree(&dir, &env.tree())
                .map_err(|e| format!("writing {}: {e}", dir.display()))?;
            envs.push(EnvTarget {
                name: env.name().to_owned(),
                dir: dir.to_string_lossy().into_owned(),
            });
        }
        let socket = work.join("d.sock");
        let daemon = Daemon::start(DaemonConfig {
            workers: nproc(),
            ..DaemonConfig::default()
        });
        let server = Server::bind(daemon, &socket)
            .map_err(|e| format!("binding {}: {e}", socket.display()))?;
        let server = std::thread::Builder::new()
            .name("loopbench-server".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the server thread: {e}"))?;
        let mut harness = Self {
            work,
            socket,
            server: Some(server),
            envs,
            references: Vec::new(),
        };
        let mut client = harness.connect()?;
        for pass in 0..2 {
            for env in 0..harness.envs.len() {
                let job = harness.run_job(&mut client, env)?;
                if !job.done.contains("\"ok\":true") {
                    return Err(format!("warm-up job failed: {}", job.done));
                }
                if pass == 1 {
                    harness.references.push(JobReference {
                        stripped: job.stripped_report(),
                        counters: job.counters(),
                    });
                }
            }
        }
        Ok(harness)
    }

    /// Opens one client connection.
    ///
    /// # Errors
    ///
    /// The connect error, rendered.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connecting: {e}"))
    }

    /// The job spec of one environment: the whole six-platform matrix at
    /// one campaign worker.
    fn spec(&self, env: usize) -> JobSpec {
        JobSpec::Regress {
            dir: self.envs[env].dir.clone(),
            env: self.envs[env].name.clone(),
            platforms: Vec::new(),
            all_platforms: true,
            workers: Some(1),
            fuel: None,
        }
    }

    /// Submits one environment's job and watches it to its `done` line.
    ///
    /// # Errors
    ///
    /// Socket and protocol errors, rendered.
    pub fn run_job(&self, client: &mut Client, env: usize) -> Result<JobObservation, String> {
        let started = Instant::now();
        let id = client
            .submit(self.spec(env))
            .map_err(|e| format!("submit: {e}"))?;
        let mut first_line = None;
        let mut last_line = started;
        let mut event_lines = 0u64;
        let mut event_bytes = 0u64;
        let mut first_event = String::new();
        let done = client
            .watch(id, |line| {
                let now = Instant::now();
                if first_line.is_none() {
                    first_line = Some(now - started);
                    first_event = line.to_owned();
                }
                last_line = now;
                event_lines += 1;
                event_bytes += line.len() as u64;
            })
            .map_err(|e| format!("watch: {e}"))?;
        let finished = Instant::now();
        Ok(JobObservation {
            latency: finished - started,
            first_line: first_line.unwrap_or(finished - started),
            tail: finished - last_line,
            event_lines,
            event_bytes,
            first_event,
            done,
        })
    }

    /// The `warm_daemon` known answer: `"ok":true`, and the report
    /// (perf stripped) and counters equal the environment's warm
    /// reference. Returns the job's counters.
    ///
    /// # Errors
    ///
    /// What differs from the reference.
    pub fn check_job(&self, env: usize, job: &JobObservation) -> Result<Counters, String> {
        let name = &self.envs[env].name;
        if !job.done.contains("\"done\":true,\"ok\":true") {
            return Err(format!("job on {name} not ok: {}", job.done));
        }
        let reference = &self.references[env];
        if job.stripped_report() != reference.stripped {
            return Err(format!(
                "job on {name}: report differs from the warm reference"
            ));
        }
        let counters = job.counters();
        if counters != reference.counters {
            return Err(format!(
                "job on {name}: counters [{}] differ from the warm reference [{}]",
                counters.render(),
                reference.counters.render()
            ));
        }
        Ok(counters)
    }

    /// Shuts the daemon down, joins the server thread and removes the
    /// work directory.
    ///
    /// # Errors
    ///
    /// Shutdown and join failures, rendered.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let sent = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| format!("shutdown: {e}")));
        // Without a delivered shutdown the accept loop never returns, so
        // joining would hang; the thread then ends with the process.
        let joined = sent.and_then(|_| {
            server
                .join()
                .map_err(|_| "the server thread panicked".to_owned())
                .and_then(|r| r.map_err(|e| format!("server: {e}")))
        });
        let _ = std::fs::remove_dir_all(&self.work);
        joined
    }
}

impl Drop for DaemonHarness {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
