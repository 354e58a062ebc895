//! End-to-end tests of the verification daemon: the full socket round
//! trip, cross-job artifact reuse, concurrent submitters, and
//! sharding-independence of job results.
//!
//! The acceptance property of the daemon is checked here: a cold and a
//! warm submission of the same regress job against one daemon produce
//! byte-identical (perf-stripped) reports — and the warm one's `perf`
//! block proves it reused the cold job's artifacts (`artifact_hits`).
//! Every kind of job the daemon serves also reports exactly what the
//! same spec reports when run locally, as the CLI runs it.

mod common;
use common::strip_perf;

use std::path::{Path, PathBuf};

use advm::wire::JsonValue;
use advm_serve::daemon::{Daemon, DaemonConfig};
use advm_serve::{JobSpec, JobState};
use advm_soc::PlatformId;

use proptest::prelude::*;

/// Minimal self-cleaning temp dir (no external crate available).
struct TempDir(PathBuf);

impl TempDir {
    fn new(prefix: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("creating temp dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the two-test PAGE preset to disk and returns its directory.
fn env_on_disk() -> TempDir {
    let dir = TempDir::new("advm-e2e");
    let env = advm::presets::page_env(advm::presets::default_config(), 2);
    advm::fsio::write_tree(dir.path(), &env.tree()).expect("writing env tree");
    dir
}

fn regress_spec(dir: &Path, platforms: &[PlatformId], workers: u64) -> JobSpec {
    JobSpec::Regress {
        dir: dir.display().to_string(),
        env: "PAGE".into(),
        platforms: platforms.to_vec(),
        all_platforms: false,
        workers: Some(workers),
        fuel: None,
    }
}

/// The report of `spec` run locally, as `advm-cli` runs it but without
/// its progress printer: no store, no observer. A daemon job of the same
/// spec must reproduce it byte for byte (modulo the measured `perf`
/// block).
fn local_report(spec: &JobSpec) -> String {
    spec.run(None, None).expect("local run").to_json()
}

/// Extracts the raw `"report"` object from a final `done` line, byte
/// for byte (the object runs to the line's closing brace).
fn report_slice(done_line: &str) -> &str {
    let start = done_line
        .find("\"report\":")
        .expect("done line carries a report")
        + "\"report\":".len();
    &done_line[start..done_line.len() - 1]
}

/// Reads `report.perf.artifact_hits` out of a final `done` line.
fn artifact_hits(done_line: &str) -> u64 {
    JsonValue::parse(done_line)
        .expect("done line parses")
        .get("report")
        .and_then(|r| r.get("perf"))
        .map(|p| p.u64_field("artifact_hits").expect("artifact_hits"))
        .expect("report carries perf")
}

#[cfg(unix)]
mod socket {
    use super::*;
    use advm_serve::{Client, Server};

    /// Binds a server on a fresh socket path and runs it on its own
    /// thread; the returned guard shuts it down on drop.
    struct RunningServer {
        path: PathBuf,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl RunningServer {
        fn start(config: DaemonConfig) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "advm-e2e-{}-{}.sock",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let server = Server::bind(Daemon::start(config), &path).expect("binding test socket");
            let handle = std::thread::spawn(move || server.run().expect("server run"));
            Self {
                path,
                handle: Some(handle),
            }
        }

        fn client(&self) -> Client {
            Client::connect(&self.path).expect("connecting to test socket")
        }
    }

    impl Drop for RunningServer {
        fn drop(&mut self) {
            if let Ok(mut client) = Client::connect(&self.path) {
                let _ = client.shutdown();
            }
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// The tentpole acceptance test: cold then warm identical regress
    /// jobs over the socket. The warm job's perf JSON shows nonzero
    /// cross-job cache hits, and both verdicts are byte-identical
    /// (perf-stripped) to a local run of the same spec.
    #[test]
    fn warm_job_reuses_artifacts_and_matches_in_process_run() {
        let dir = env_on_disk();
        let platforms = [PlatformId::GoldenModel, PlatformId::RtlSim];
        let server = RunningServer::start(DaemonConfig {
            workers: 1,
            cache_capacity: 64,
        });
        let mut client = server.client();

        let spec = regress_spec(dir.path(), &platforms, 2);
        let cold_id = client.submit(spec.clone()).expect("submit cold");
        let cold_done = client.watch(cold_id, |_| {}).expect("watch cold");
        let warm_id = client.submit(spec.clone()).expect("submit warm");
        let warm_done = client.watch(warm_id, |_| {}).expect("watch warm");

        // Cross-job reuse: cold builds, warm hits.
        assert_eq!(artifact_hits(&cold_done), 0, "{cold_done}");
        assert!(artifact_hits(&warm_done) > 0, "{warm_done}");
        // The daemon's own status counters agree.
        let status = client.status().expect("status");
        let stats = JsonValue::parse(&status).unwrap();
        let hits = stats.get("artifacts").unwrap().u64_field("hits").unwrap();
        assert!(hits > 0, "{status}");

        // Reuse is perf-only: both reports match a local run byte for
        // byte once the measured perf block is stripped.
        let reference = local_report(&spec);
        assert_eq!(strip_perf(report_slice(&cold_done)), strip_perf(&reference));
        assert_eq!(strip_perf(report_slice(&warm_done)), strip_perf(&reference));
    }

    /// A fuzz job over the socket: the daemon generates the programs,
    /// mines checkers, verifies them violation-free, and the final
    /// report is byte-identical (perf-stripped) to a local run of the
    /// same spec.
    #[test]
    fn fuzz_job_round_trips_with_mined_checkers() {
        let server = RunningServer::start(DaemonConfig {
            workers: 1,
            cache_capacity: 64,
        });
        let mut client = server.client();
        let spec = JobSpec::Fuzz {
            programs: Some(3),
            seed: Some(11),
            mine: true,
            platforms: vec![PlatformId::GoldenModel, PlatformId::RtlSim],
            all_platforms: false,
            workers: Some(2),
            fuel: None,
        };
        let id = client.submit(spec.clone()).expect("submit fuzz");
        let mut events = Vec::new();
        let done = client
            .watch(id, |line| events.push(line.to_owned()))
            .expect("watch fuzz");

        let value = JsonValue::parse(&done).expect("done line parses");
        assert!(value.bool_field("ok").unwrap(), "{done}");
        let report = value.get("report").expect("report present");
        assert_eq!(report.u64_field("programs").unwrap(), 3);
        assert!(!report.get("mined").unwrap().as_array().unwrap().is_empty());
        let checkers = report.get("campaign").unwrap().get("checkers").unwrap();
        assert!(checkers.u64_field("armed").unwrap() > 0, "{done}");
        assert!(
            checkers
                .get("violations")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{done}"
        );
        // Generated-program runs streamed live, labelled with the job id.
        assert!(
            events
                .iter()
                .any(|l| l.contains("\"type\":\"job_started\"") && l.contains("FUZZ_")),
            "stream must carry fuzz runs"
        );

        // Byte-identical to the same fuzz run locally (perf aside).
        let reference = local_report(&spec);
        assert_eq!(strip_perf(report_slice(&done)), strip_perf(&reference));
    }

    /// Request lines are read with a bound: a line longer than the cap
    /// gets one error line and the connection closes, a line that is
    /// not UTF-8 gets an error line and the connection keeps serving,
    /// and neither stops the daemon from serving new connections.
    #[test]
    fn overlong_and_non_utf8_request_lines_get_error_replies() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let server = RunningServer::start(DaemonConfig {
            workers: 1,
            cache_capacity: 8,
        });
        let connect = || {
            let stream = UnixStream::connect(&server.path).expect("connecting");
            // A server that never answers fails the test instead of
            // hanging it.
            let timeout = std::time::Duration::from_secs(30);
            stream.set_read_timeout(Some(timeout)).unwrap();
            let reader = BufReader::new(stream.try_clone().expect("cloning stream"));
            (stream, reader)
        };
        let error_of = |line: &str| {
            let value = JsonValue::parse(line.trim_end()).expect("reply is JSON");
            assert!(!value.bool_field("ok").unwrap(), "{line}");
            value.str_field("error").unwrap().to_owned()
        };

        let (mut writer, mut reader) = connect();
        writer
            .write_all(b"{\"cmd\":\"stat\xFFus\"}\n{\"cmd\":\"status\"}\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(error_of(&line).contains("UTF-8"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        let status = JsonValue::parse(line.trim_end()).unwrap();
        assert!(status.bool_field("ok").unwrap(), "{line}");

        // 2 MiB with no newline. The server stops reading at the cap and
        // hangs up, so the tail of this write may be refused.
        let (mut writer, reader) = connect();
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        let replies: Vec<String> = reader.lines().map_while(Result::ok).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        let error = error_of(&replies[0]);
        let cap = advm_serve::server::MAX_REQUEST_LINE;
        assert!(
            error.contains(&format!("longer than {cap} bytes")),
            "{error}"
        );

        let status = server
            .client()
            .status()
            .expect("status on a new connection");
        assert!(JsonValue::parse(&status).unwrap().bool_field("ok").unwrap());
    }

    /// Hostile requests get error lines, not a dead daemon: a request
    /// line of 1 MiB of `[` (nested past the wire layer's depth cap) and
    /// a fuzz job sized past its program cap are each answered with an
    /// error on the same connection, and the daemon still answers
    /// `status` on a new one.
    #[test]
    fn deep_nesting_and_oversized_jobs_get_error_replies() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let server = RunningServer::start(DaemonConfig {
            workers: 1,
            cache_capacity: 8,
        });
        let stream = UnixStream::connect(&server.path).expect("connecting");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().expect("cloning stream"));
        let mut writer = stream;
        let mut error_reply = |request: &[u8]| {
            writer.write_all(request).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("a reply line");
            let value = JsonValue::parse(line.trim_end()).expect("reply is JSON");
            assert!(!value.bool_field("ok").unwrap(), "{line}");
            value.str_field("error").unwrap().to_owned()
        };

        let deep = vec![b'['; advm_serve::server::MAX_REQUEST_LINE];
        let error = error_reply(&deep);
        assert!(error.contains("nesting deeper than"), "{error}");

        let huge = br#"{"cmd":"submit","job":{"kind":"fuzz","programs":1000000000}}"#;
        let error = error_reply(huge);
        let cap = advm_serve::job::MAX_PROGRAMS;
        assert!(error.contains(&format!("cap of {cap}")), "{error}");

        let status = server
            .client()
            .status()
            .expect("status on a new connection");
        let status = JsonValue::parse(&status).unwrap();
        assert!(status.bool_field("ok").unwrap());
        for state in ["queued", "running", "done", "failed"] {
            assert_eq!(status.u64_field(state).unwrap(), 0, "no job was accepted");
        }
    }

    /// Four clients submit and watch concurrently: two regress jobs, an
    /// audit and an exploration. Each stream is complete, correctly
    /// labelled and in order, and each report equals a local run of the
    /// same spec, so every kind of job reports the same served or local
    /// (regress and fuzz are also checked above).
    #[test]
    fn concurrent_submitters_get_interleaved_but_intact_streams() {
        let dir = env_on_disk();
        let server = RunningServer::start(DaemonConfig {
            workers: 2,
            cache_capacity: 64,
        });
        let specs = [
            regress_spec(
                dir.path(),
                &[PlatformId::GoldenModel, PlatformId::RtlSim],
                1,
            ),
            regress_spec(dir.path(), &[PlatformId::GateSim], 1),
            JobSpec::Audit {
                platforms: vec![PlatformId::GateSim],
                all_platforms: false,
                scenarios: Some(1),
                seed: Some(5),
                workers: Some(2),
                fuel: Some(200_000),
            },
            JobSpec::Explore {
                rounds: Some(2),
                seed: Some(7),
                batch: Some(2),
                workers: Some(2),
                derivative: Some(advm_soc::DerivativeId::Sc88B),
                all_platforms: false,
            },
        ];
        let results: Vec<(u64, Vec<String>, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let server = &server;
                    scope.spawn(move || {
                        let mut client = server.client();
                        let id = client.submit(spec.clone()).expect("submit");
                        let mut events = Vec::new();
                        let done = client
                            .watch(id, |line| events.push(line.to_owned()))
                            .expect("watch");
                        (id, events, done)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((id, events, done), spec) in results.iter().zip(&specs) {
            // Every line belongs to the watched job and seq is dense.
            for (expected_seq, line) in events.iter().enumerate() {
                let value = JsonValue::parse(line).unwrap();
                assert_eq!(value.u64_field("job").unwrap(), *id, "{line}");
                assert_eq!(value.u64_field("seq").unwrap(), expected_seq as u64);
            }
            let first = JsonValue::parse(&events[0]).unwrap();
            assert_eq!(
                first.get("event").unwrap().str_field("type").unwrap(),
                "started"
            );
            assert_eq!(
                strip_perf(report_slice(done)),
                strip_perf(&local_report(spec)),
                "{}",
                spec.kind()
            );
        }
    }
}

/// A platform listed twice runs once: the report equals the one of the
/// list without the repeat, for regress and fuzz specs alike (the CLI's
/// `--platforms rtl,rtl` and a wire job's `platforms` array both reach
/// the campaign's platform list).
#[test]
fn repeated_platforms_run_once() {
    let dir = env_on_disk();
    let (rtl, golden) = (PlatformId::RtlSim, PlatformId::GoldenModel);
    let fuzz = |platforms: Vec<PlatformId>| JobSpec::Fuzz {
        programs: Some(2),
        seed: Some(3),
        mine: false,
        platforms,
        all_platforms: false,
        workers: Some(2),
        fuel: None,
    };
    for (repeated, once) in [
        (
            regress_spec(dir.path(), &[rtl, rtl, golden], 2),
            regress_spec(dir.path(), &[rtl, golden], 2),
        ),
        (fuzz(vec![rtl, rtl, golden]), fuzz(vec![rtl, golden])),
    ] {
        assert_eq!(
            strip_perf(&local_report(&repeated)),
            strip_perf(&local_report(&once)),
            "{}",
            repeated.kind()
        );
    }
}

#[test]
fn failed_jobs_seal_with_the_error() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        cache_capacity: 8,
    });
    let id = daemon.submit(JobSpec::Regress {
        dir: "/nonexistent/advm-envs".into(),
        env: "PAGE".into(),
        platforms: vec![],
        all_platforms: false,
        workers: None,
        fuel: None,
    });
    let record = daemon.job(id).expect("job exists");
    let line = record.wait();
    assert!(matches!(record.state(), JobState::Failed { .. }), "{line}");
    let value = JsonValue::parse(&line).unwrap();
    assert!(!value.bool_field("ok").unwrap());
    assert!(value.str_field("error").unwrap().contains("/nonexistent"));
    daemon.join();
}

proptest! {
    // Each case runs full campaigns through two daemons; a few cases
    // keep the property meaningful without dominating suite runtime.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Job results are independent of the worker-pool sharding: the
    /// same spec run serially (workers=1) and sharded (workers=N)
    /// produces byte-identical perf-stripped reports, warm or cold.
    #[test]
    fn job_reports_are_sharding_independent(workers in 2u64..=6) {
        let dir = env_on_disk();
        let platforms = [PlatformId::GoldenModel, PlatformId::RtlSim];
        let mut reports = Vec::new();
        for campaign_workers in [1, workers] {
            let daemon = Daemon::start(DaemonConfig { workers: 1, cache_capacity: 64 });
            let spec = regress_spec(dir.path(), &platforms, campaign_workers);
            // Cold, then warm on the same daemon: sharding must not
            // change the report even when every artifact is prebuilt.
            for _ in 0..2 {
                let record = daemon.job(daemon.submit(spec.clone())).unwrap();
                reports.push(strip_perf(report_slice(&record.wait())));
            }
            daemon.join();
        }
        let first = &reports[0];
        for report in &reports[1..] {
            prop_assert_eq!(first, report);
        }
    }
}
