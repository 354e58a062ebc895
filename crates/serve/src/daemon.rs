//! The resident verification daemon: a shared job queue, a worker pool
//! running [`JobSpec`]s through [`JobSpec::run`], and per-job event
//! streams.
//!
//! The daemon is deliberately transport-free — it is driven either
//! in-process (tests, doctests, embedding) or by the Unix-socket
//! front-end in [`crate::server`]. What makes it more than a thread
//! pool is the shared [`ArtifactStore`]: every campaign of every job is
//! dressed with one store, so builds, predecoded programs and prefix
//! snapshots survive from job to job. A warm resubmission of the same
//! suite skips assembly entirely and reports the reuse in its `perf`
//! JSON (`artifact_hits`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use advm::artifacts::{ArtifactStore, DEFAULT_ARTIFACT_CAPACITY};
use advm::campaign::{CampaignEvent, CampaignObserver, CampaignPerf, ObserverFactory};

use crate::job::{JobReport, JobSpec, JobState};

/// Daemon construction knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Concurrent jobs (worker threads). Each job additionally runs its
    /// own campaign worker pool, so the default is deliberately small.
    pub workers: usize,
    /// Image-slot capacity of the shared [`ArtifactStore`].
    pub cache_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_capacity: DEFAULT_ARTIFACT_CAPACITY,
        }
    }
}

/// The append-only event stream of one job plus its subscriber list.
struct JobStream {
    /// Every line emitted so far (events, then one final `done` line).
    lines: Vec<String>,
    /// Live watchers; a dropped receiver is pruned on the next push.
    subscribers: Vec<Sender<String>>,
    /// Set once the final line is pushed.
    finished: bool,
}

/// One submitted job: spec, lifecycle state, and its event stream.
pub struct JobRecord {
    id: u64,
    spec: JobSpec,
    state: Mutex<JobState>,
    stream: Mutex<JobStream>,
    /// Signalled on every pushed line and on finish.
    cv: Condvar,
    seq: AtomicU64,
    /// The final `done` line, also present at the end of the stream.
    result: OnceLock<String>,
    /// The finished job's aggregated campaign perf (all internal
    /// campaigns absorbed), for the status/list phase split.
    perf: OnceLock<CampaignPerf>,
}

impl JobRecord {
    fn new(id: u64, spec: JobSpec) -> Self {
        Self {
            id,
            spec,
            state: Mutex::new(JobState::Queued),
            stream: Mutex::new(JobStream {
                lines: Vec::new(),
                subscribers: Vec::new(),
                finished: false,
            }),
            cv: Condvar::new(),
            seq: AtomicU64::new(0),
            result: OnceLock::new(),
            perf: OnceLock::new(),
        }
    }

    /// The job's queue id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The submitted spec.
    pub(crate) fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// A snapshot of the lifecycle state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job state poisoned").clone()
    }

    /// Moves a queued job to `Running` in one step under the state
    /// lock. False when the job already left the queue (a cancel won
    /// the race), so the worker must not run it.
    fn start(&self) -> bool {
        self.leave_queue(JobState::Running)
    }

    /// Cancels the job if it is still queued, sealing its stream with a
    /// `cancelled` done line, and returns the reply line. A job that
    /// already started runs to completion (`"cancelled":false`).
    fn cancel(&self) -> String {
        let cancelled = self.leave_queue(JobState::Cancelled);
        if cancelled {
            self.finish(
                JobState::Cancelled,
                format!(
                    "{{\"job\":{},\"done\":true,\"ok\":false,\"cancelled\":true}}",
                    self.id
                ),
            );
        }
        format!(
            "{{\"ok\":true,\"job\":{},\"cancelled\":{cancelled}}}",
            self.id
        )
    }

    /// Moves a `Queued` job to `next`; false, with the state unchanged,
    /// for a job in any other state.
    fn leave_queue(&self, next: JobState) -> bool {
        let mut state = self.state.lock().expect("job state poisoned");
        let queued = *state == JobState::Queued;
        if queued {
            *state = next;
        }
        queued
    }

    /// Appends one line and fans it out to live subscribers.
    fn push_line(&self, line: String, last: bool) {
        let mut stream = self.stream.lock().expect("job stream poisoned");
        stream
            .subscribers
            .retain(|tx| tx.send(line.clone()).is_ok());
        stream.lines.push(line);
        if last {
            stream.finished = true;
            stream.subscribers.clear();
        }
        drop(stream);
        self.cv.notify_all();
    }

    /// The stream so far, plus a live receiver when the job is still
    /// running (`None` once finished — the backlog is complete). The
    /// snapshot and the subscription are atomic: no line is lost or
    /// duplicated between them.
    pub(crate) fn subscribe(&self) -> (Vec<String>, Option<Receiver<String>>) {
        let mut stream = self.stream.lock().expect("job stream poisoned");
        let backlog = stream.lines.clone();
        if stream.finished {
            (backlog, None)
        } else {
            let (tx, rx) = std::sync::mpsc::channel();
            stream.subscribers.push(tx);
            (backlog, Some(rx))
        }
    }

    /// Blocks until the job reaches a terminal state, returning its
    /// final `done` line.
    pub fn wait(&self) -> String {
        let mut stream = self.stream.lock().expect("job stream poisoned");
        while !stream.finished {
            stream = self.cv.wait(stream).expect("job stream poisoned");
        }
        drop(stream);
        self.result
            .get()
            .expect("finished job has a result")
            .clone()
    }

    /// The final `done` line, if the job already finished.
    #[cfg(test)]
    pub(crate) fn result_line(&self) -> Option<String> {
        self.result.get().cloned()
    }

    /// The finished job's aggregated campaign perf, if it completed
    /// successfully (`None` while queued/running and for failures).
    pub(crate) fn perf(&self) -> Option<&CampaignPerf> {
        self.perf.get()
    }

    /// Emits one campaign event into the stream.
    fn push_event(&self, event: &CampaignEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push_line(
            format!(
                "{{\"job\":{},\"seq\":{seq},\"event\":{}}}",
                self.id,
                event.to_json()
            ),
            false,
        );
    }

    /// Seals the job with its final state and line.
    fn finish(&self, state: JobState, line: String) {
        *self.state.lock().expect("job state poisoned") = state;
        let _ = self.result.set(line.clone());
        self.push_line(line, true);
    }
}

/// An observer handle forwarding one campaign's events into a job's
/// stream; the audit/exploration drivers build one per internal
/// campaign via [`ObserverFactory`].
struct EventStreamer(Arc<JobRecord>);

impl CampaignObserver for EventStreamer {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.0.push_event(event);
    }
}

/// Queue state behind the daemon's mutex.
struct QueueState {
    queue: VecDeque<u64>,
    jobs: Vec<Arc<JobRecord>>,
    shutdown: bool,
}

struct Shared {
    store: Arc<ArtifactStore>,
    state: Mutex<QueueState>,
    cv: Condvar,
    workers: usize,
}

/// The resident verification service. See the [module docs](self).
pub struct Daemon {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("workers", &self.shared.workers)
            .field("store", &self.shared.store)
            .finish()
    }
}

impl Default for Daemon {
    fn default() -> Self {
        Self::start(DaemonConfig::default())
    }
}

impl Daemon {
    /// Starts the worker pool (threads are named `advm-serve-N`).
    pub fn start(config: DaemonConfig) -> Self {
        Self::start_with(config, execute)
    }

    /// Starts the worker pool with `execute` as every job's body.
    fn start_with(config: DaemonConfig, execute: Executor) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            store: Arc::new(ArtifactStore::new(config.cache_capacity)),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                jobs: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            workers,
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("advm-serve-{i}"))
                    .spawn(move || worker_loop(&shared, execute))
                    .expect("spawning daemon worker")
            })
            .collect();
        Self { shared, threads }
    }

    /// The shared cross-job artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.shared.store
    }

    /// Enqueues a job, returning its id.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let mut state = self.shared.state.lock().expect("daemon state poisoned");
        let id = state.jobs.len() as u64;
        state.jobs.push(Arc::new(JobRecord::new(id, spec)));
        state.queue.push_back(id);
        drop(state);
        self.shared.cv.notify_one();
        id
    }

    /// Looks up a job record.
    pub fn job(&self, id: u64) -> Option<Arc<JobRecord>> {
        let state = self.shared.state.lock().expect("daemon state poisoned");
        state.jobs.get(id as usize).cloned()
    }

    /// Cancels a queued job. Running jobs are not interrupted — the
    /// reply says whether the cancel took effect.
    pub(crate) fn cancel(&self, id: u64) -> String {
        match self.job(id) {
            Some(record) => record.cancel(),
            None => crate::protocol::error_line(&format!("no such job {id}")),
        }
    }

    /// One-line daemon summary: job counts by state, worker count, the
    /// artifact store's hit/miss/eviction counters, and the per-phase
    /// wall split (plan/build/exec/report/mine) summed over every
    /// finished job.
    pub(crate) fn status_line(&self) -> String {
        let state = self.shared.state.lock().expect("daemon state poisoned");
        let mut counts = [0usize; 5];
        let mut phases = CampaignPerf::default();
        for job in &state.jobs {
            let index = match job.state() {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done { .. } => 2,
                JobState::Failed { .. } => 3,
                JobState::Cancelled => 4,
            };
            counts[index] += 1;
            if let Some(perf) = job.perf() {
                phases.absorb(perf);
            }
        }
        drop(state);
        format!(
            "{{\"ok\":true,\"workers\":{},\"queued\":{},\"running\":{},\
             \"done\":{},\"failed\":{},\"cancelled\":{},\"artifacts\":{},\
             \"phases\":{}}}",
            self.shared.workers,
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4],
            self.shared.store.stats().to_json(),
            phases_json(&phases)
        )
    }

    /// One line listing every known job: id, kind, state, and — once
    /// the job finished — its per-phase wall split.
    pub(crate) fn list_line(&self) -> String {
        let state = self.shared.state.lock().expect("daemon state poisoned");
        let jobs: Vec<String> = state
            .jobs
            .iter()
            .map(|job| {
                let mut line = format!(
                    "{{\"job\":{},\"kind\":\"{}\",\"state\":\"{}\"",
                    job.id(),
                    job.spec().kind(),
                    job.state().name()
                );
                if let Some(perf) = job.perf() {
                    line.push_str(&format!(",\"phases\":{}", phases_json(perf)));
                }
                line.push('}');
                line
            })
            .collect();
        format!("{{\"ok\":true,\"jobs\":[{}]}}", jobs.join(","))
    }

    /// Signals shutdown: workers exit after their current job; queued
    /// jobs are abandoned.
    pub(crate) fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("daemon state poisoned");
        state.shutdown = true;
        drop(state);
        self.shared.cv.notify_all();
    }

    /// Shuts down and joins the worker pool (what dropping the daemon
    /// does).
    pub fn join(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Renders a perf block's phase split: plan (source generation, content
/// keys and build slots; part of build), build (planning + assembly),
/// exec (the run itself), report (sealing, divergence, bisection) and
/// mine (a fuzz job's assertion-mining pass; zero for every other job)
/// wall, in milliseconds.
fn phases_json(perf: &CampaignPerf) -> String {
    format!(
        "{{\"plan_ms\":{:.3},\"build_ms\":{:.3},\"exec_ms\":{:.3},\"report_ms\":{:.3},\
         \"mine_ms\":{:.3}}}",
        perf.plan_wall.as_secs_f64() * 1e3,
        perf.build_wall.as_secs_f64() * 1e3,
        perf.exec_wall.as_secs_f64() * 1e3,
        perf.report_wall.as_secs_f64() * 1e3,
        perf.mine_wall.as_secs_f64() * 1e3
    )
}

/// What a job body yields: the run's report, or the error that ended
/// the job.
type JobOutcome = Result<JobReport, String>;

/// A job body; the daemon runs [`execute`].
type Executor = fn(&JobSpec, &Arc<ArtifactStore>, &Arc<JobRecord>) -> JobOutcome;

/// One worker: pull, execute, seal, repeat.
fn worker_loop(shared: &Shared, execute: Executor) {
    loop {
        let record = {
            let mut state = shared.state.lock().expect("daemon state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    break Arc::clone(&state.jobs[id as usize]);
                }
                state = shared.cv.wait(state).expect("daemon state poisoned");
            }
        };
        // A cancel may have landed between enqueue and pickup.
        if !record.start() {
            continue;
        }
        seal(&record, || execute(record.spec(), &shared.store, &record));
    }
}

/// Runs one job body and seals the job with its outcome. A body that
/// panics is sealed `Failed` with a `panic: <message>` error, so its
/// watchers still get the `done` line and the worker lives on to serve
/// the next job.
fn seal(record: &JobRecord, body: impl FnOnce() -> JobOutcome) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(payload.as_ref()))));
    match outcome {
        Ok(report) => {
            let ok = report.ok();
            let _ = record.perf.set(report.perf());
            record.finish(
                JobState::Done { ok },
                format!(
                    "{{\"job\":{},\"done\":true,\"ok\":{ok},\"report\":{}}}",
                    record.id(),
                    report.to_json()
                ),
            );
        }
        Err(error) => record.finish(
            JobState::Failed {
                error: error.clone(),
            },
            format!(
                "{{\"job\":{},\"done\":true,\"ok\":false,\"error\":{}}}",
                record.id(),
                advm::wire::json_string(&error)
            ),
        ),
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

/// Builds the observer factory handing each internal campaign a fresh
/// stream handle onto `record`.
fn streamer_factory(record: &Arc<JobRecord>) -> ObserverFactory {
    let record = Arc::clone(record);
    Arc::new(move || Box::new(EventStreamer(Arc::clone(&record))) as Box<dyn CampaignObserver>)
}

/// Runs one job spec against the shared store, streaming its events to
/// the record.
fn execute(spec: &JobSpec, store: &Arc<ArtifactStore>, record: &Arc<JobRecord>) -> JobOutcome {
    spec.run(Some(Arc::clone(store)), Some(streamer_factory(record)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use advm::wire::JsonValue;

    fn tiny_env_dir() -> tempdir::TempDir {
        let env = advm::presets::page_env(advm::presets::default_config(), 1);
        let dir = tempdir::TempDir::new("advm-serve-test");
        advm::fsio::write_tree(dir.path(), &env.tree()).expect("writing env tree");
        dir
    }

    /// Minimal self-cleaning temp dir (no external crate available).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);
        static NEXT: AtomicU64 = AtomicU64::new(0);

        impl TempDir {
            pub fn new(prefix: &str) -> Self {
                let path = std::env::temp_dir().join(format!(
                    "{prefix}-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).expect("creating temp dir");
                Self(path)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    fn regress_spec(dir: &std::path::Path) -> JobSpec {
        JobSpec::Regress {
            dir: dir.display().to_string(),
            env: "PAGE".into(),
            platforms: vec![
                advm_soc::PlatformId::GoldenModel,
                advm_soc::PlatformId::RtlSim,
            ],
            all_platforms: false,
            workers: Some(2),
            fuel: None,
        }
    }

    #[test]
    fn submitted_job_runs_streams_and_seals() {
        let dir = tiny_env_dir();
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            cache_capacity: 32,
        });
        let id = daemon.submit(regress_spec(dir.path()));
        let record = daemon.job(id).expect("job exists");
        let line = record.wait();
        assert!(
            matches!(record.state(), JobState::Done { ok: true }),
            "{line}"
        );
        let value = JsonValue::parse(&line).unwrap();
        assert!(value.bool_field("done").unwrap());
        assert!(value.bool_field("ok").unwrap());
        assert!(value.get("report").is_some(), "{line}");
        // The backlog is a complete, ordered event stream.
        let (backlog, live) = record.subscribe();
        assert!(live.is_none(), "finished job has no live tail");
        let first = JsonValue::parse(&backlog[0]).unwrap();
        assert_eq!(
            first.get("event").unwrap().str_field("type").unwrap(),
            "started"
        );
        assert_eq!(backlog.last().unwrap(), &line);
        daemon.join();
    }

    #[test]
    fn warm_job_reuses_cold_jobs_artifacts() {
        let dir = tiny_env_dir();
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            cache_capacity: 32,
        });
        let cold = daemon.job(daemon.submit(regress_spec(dir.path()))).unwrap();
        let cold_line = cold.wait();
        let warm = daemon.job(daemon.submit(regress_spec(dir.path()))).unwrap();
        let warm_line = warm.wait();

        let perf_hits = |line: &str| {
            JsonValue::parse(line)
                .unwrap()
                .get("report")
                .and_then(|r| r.get("perf"))
                .map(|p| p.u64_field("artifact_hits").unwrap())
                .expect("report carries perf")
        };
        assert_eq!(perf_hits(&cold_line), 0, "{cold_line}");
        assert!(perf_hits(&warm_line) > 0, "{warm_line}");
        assert!(daemon.store().stats().hits > 0);
        daemon.join();
    }

    #[test]
    fn cancel_only_reaches_queued_jobs() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            cache_capacity: 8,
        });
        // No worker will ever run job 1 before job 0 finishes; cancel
        // it while queued.
        let dir = tiny_env_dir();
        let first = daemon.submit(regress_spec(dir.path()));
        let second = daemon.submit(regress_spec(dir.path()));
        let reply = daemon.cancel(second);
        assert!(reply.contains("\"cancelled\":true"), "{reply}");
        let record = daemon.job(second).unwrap();
        assert_eq!(record.wait(), record.result_line().unwrap());
        assert_eq!(record.state(), JobState::Cancelled);
        // The first job still completes.
        assert!(matches!(
            daemon.job(first).unwrap().wait(),
            line if line.contains("\"done\":true")
        ));
        let missing = daemon.cancel(99);
        assert!(missing.contains("no such job"), "{missing}");
        daemon.join();
    }

    #[test]
    fn a_job_is_either_started_or_cancelled_never_both() {
        let spec = || JobSpec::Explore {
            rounds: None,
            seed: None,
            batch: None,
            workers: None,
            derivative: None,
            all_platforms: false,
        };
        // Cancel first: the worker's start is refused, so the stream
        // ends with the one `cancelled` done line and nothing after it.
        let record = JobRecord::new(0, spec());
        let reply = record.cancel();
        assert!(reply.contains("\"cancelled\":true"), "{reply}");
        assert!(!record.start(), "a cancelled job must not start");
        assert_eq!(record.state(), JobState::Cancelled);
        let (lines, live) = record.subscribe();
        assert!(live.is_none(), "the stream is finished");
        assert_eq!(
            lines,
            ["{\"job\":0,\"done\":true,\"ok\":false,\"cancelled\":true}"]
        );
        // A second cancel finds the job gone from the queue.
        assert!(record.cancel().contains("\"cancelled\":false"));

        // Start first: the cancel is refused and the job stays running.
        let record = JobRecord::new(1, spec());
        assert!(record.start());
        let reply = record.cancel();
        assert_eq!(reply, "{\"ok\":true,\"job\":1,\"cancelled\":false}");
        assert_eq!(record.state(), JobState::Running);
        let (lines, live) = record.subscribe();
        assert!(lines.is_empty() && live.is_some(), "{lines:?}");
        assert!(!record.start(), "a job starts once");
    }

    #[test]
    fn panicking_job_is_sealed_failed_and_the_worker_keeps_serving() {
        let dir = tiny_env_dir();
        // One worker whose audit jobs panic; every other job runs as the
        // daemon runs it.
        let daemon = Daemon::start_with(
            DaemonConfig {
                workers: 1,
                cache_capacity: 8,
            },
            |spec, store, record| {
                if matches!(spec, JobSpec::Audit { .. }) {
                    panic!("job body exploded");
                }
                execute(spec, store, record)
            },
        );
        let bad = daemon.submit(JobSpec::Audit {
            platforms: Vec::new(),
            all_platforms: false,
            scenarios: None,
            seed: None,
            workers: None,
            fuel: None,
        });
        let next = daemon.submit(regress_spec(dir.path()));
        // A watcher's view of a job: its backlog, then the live tail. The
        // timeout turns a worker that died with its job into a failure
        // instead of a hang.
        let watch = |id: u64| {
            let (mut lines, live) = daemon.job(id).unwrap().subscribe();
            if let Some(live) = live {
                while let Ok(line) = live.recv_timeout(std::time::Duration::from_secs(60)) {
                    lines.push(line);
                }
            }
            let done = lines.last().expect("the watcher gets the done line");
            let value = JsonValue::parse(done).unwrap();
            assert!(value.bool_field("done").unwrap(), "{done}");
            value
        };

        let done = watch(bad);
        assert!(!done.bool_field("ok").unwrap());
        assert_eq!(done.str_field("error").unwrap(), "panic: job body exploded");
        assert_eq!(
            daemon.job(bad).unwrap().state(),
            JobState::Failed {
                error: "panic: job body exploded".into()
            }
        );
        // The same worker serves the next job.
        assert!(watch(next).bool_field("ok").unwrap());
        assert!(matches!(
            daemon.job(next).unwrap().state(),
            JobState::Done { ok: true }
        ));
        daemon.join();
    }

    #[test]
    fn fuzz_job_mines_checkers_and_streams_events() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            cache_capacity: 32,
        });
        let id = daemon.submit(JobSpec::Fuzz {
            programs: Some(3),
            seed: Some(11),
            mine: true,
            platforms: vec![
                advm_soc::PlatformId::GoldenModel,
                advm_soc::PlatformId::RtlSim,
            ],
            all_platforms: false,
            workers: Some(2),
            fuel: None,
        });
        let record = daemon.job(id).expect("job exists");
        let line = record.wait();
        assert!(
            matches!(record.state(), JobState::Done { ok: true }),
            "{line}"
        );
        let value = JsonValue::parse(&line).unwrap();
        let report = value.get("report").expect("report present");
        assert_eq!(report.u64_field("programs").unwrap(), 3);
        assert_eq!(report.u64_field("seed").unwrap(), 11);
        assert!(
            !report.get("mined").unwrap().as_array().unwrap().is_empty(),
            "{line}"
        );
        let checkers = report.get("campaign").unwrap().get("checkers").unwrap();
        assert!(checkers.u64_field("armed").unwrap() > 0, "{line}");
        assert!(
            checkers
                .get("violations")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{line}"
        );
        // The stream carries campaign events, fuzz-run provenance included.
        let (backlog, _) = record.subscribe();
        assert!(
            backlog
                .iter()
                .any(|l| l.contains("\"type\":\"job_started\"") && l.contains("FUZZ_")),
            "stream must carry fuzz runs"
        );
        // The mining pass is timed in the job's phases.
        assert!(!record.perf().unwrap().mine_wall.is_zero());
        let list = JsonValue::parse(&daemon.list_line()).unwrap();
        let phases = list.get("jobs").unwrap().as_array().unwrap()[0]
            .get("phases")
            .unwrap();
        assert!(phases.get("mine_ms").unwrap().as_f64().unwrap() > 0.0);
        daemon.join();
    }

    #[test]
    fn status_and_list_lines_are_wellformed() {
        let daemon = Daemon::start(DaemonConfig {
            workers: 1,
            cache_capacity: 8,
        });
        let dir = tiny_env_dir();
        let id = daemon.submit(regress_spec(dir.path()));
        daemon.job(id).unwrap().wait();
        let status = JsonValue::parse(&daemon.status_line()).unwrap();
        assert_eq!(status.u64_field("done").unwrap(), 1);
        assert!(status.get("artifacts").is_some());
        let phases = status.get("phases").unwrap();
        for key in ["plan_ms", "build_ms", "exec_ms", "report_ms", "mine_ms"] {
            assert!(phases.get(key).is_some(), "status phases lack {key}");
        }
        let list = JsonValue::parse(&daemon.list_line()).unwrap();
        let jobs = list.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].str_field("kind").unwrap(), "regress");
        assert_eq!(jobs[0].str_field("state").unwrap(), "done");
        let phases = jobs[0].get("phases").unwrap();
        for key in ["plan_ms", "build_ms", "exec_ms", "report_ms", "mine_ms"] {
            assert!(phases.get(key).is_some(), "job phases lack {key}");
        }
        // Planning is part of the build stage's wall.
        let ms = |key| phases.get(key).unwrap().as_f64().unwrap();
        assert!(ms("plan_ms") > 0.0 && ms("plan_ms") <= ms("build_ms"));
        // Only fuzz jobs mine.
        assert_eq!(phases.get("mine_ms").unwrap().as_f64(), Some(0.0));
        daemon.join();
    }
}
