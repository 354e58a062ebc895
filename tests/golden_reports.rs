//! Golden reports: the loop's verdicts and work counters are pinned.
//!
//! Each test runs one standard job through [`JobSpec::run`], the path
//! `advm-cli regress|audit|explore|fuzz` and the daemon share, and
//! compares its `--json` report byte for byte with a committed file
//! under `tests/golden/reports/`. One more pins every line a daemon
//! streams to `advm-cli submit --watch regress`.
//!
//! A golden drops only timings: each `perf` object's `*_ms` keys and
//! `steps_per_sec`. Every verdict and every counter stays, so a change
//! that moves one verdict, one retired-instruction count or one store
//! hit fails here. Regenerate after an intended change with
//! `UPDATE_GOLDEN=1 cargo test --test golden_reports`, and say in
//! CHANGES.md which golden moved and why.

#[path = "common/harness.rs"]
mod harness;

use std::path::Path;

use advm::env::EnvConfig;
use advm_serve::JobSpec;
use advm_soc::{DerivativeId, PlatformId};
use harness::TempDir;

/// Removes the measured timings from every `"perf":{...}` object of a
/// report or event stream: keys ending in `_ms`, and `steps_per_sec`.
/// Perf objects are flat, so each runs to the next `}`.
fn strip_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("\"perf\":{") {
        let open = start + "\"perf\":{".len();
        let close = open + rest[open..].find('}').expect("perf object closes");
        out.push_str(&rest[..open]);
        let kept: Vec<&str> = rest[open..close]
            .split(',')
            .filter(|entry| {
                let key = entry.split(':').next().unwrap_or_default();
                !key.ends_with("_ms\"") && key != "\"steps_per_sec\""
            })
            .collect();
        out.push_str(&kept.join(","));
        rest = &rest[close..];
    }
    out.push_str(rest);
    out
}

/// Compares `actual` with `tests/golden/reports/<name>`, or rewrites the
/// file when `UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/reports")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("creating golden dir");
        std::fs::write(&path, actual).expect("writing golden report");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} moved; if the change is intended, rerun with UPDATE_GOLDEN=1 \
         and name the golden in CHANGES.md\n  golden: {expected}\n  actual: {actual}"
    );
}

/// Runs `spec` as the CLI does (no store, no observer) and pins its
/// timing-stripped report, newline-terminated.
fn pin_report(name: &str, spec: &JobSpec) {
    let report = spec.run(None, None).expect("job runs");
    check(name, &(strip_timings(&report.to_json()) + "\n"));
}

/// Writes the two-test PAGE environment (SC88-A, golden model) to disk.
fn page_env_on_disk() -> TempDir {
    let dir = TempDir::new("advm-golden");
    let config = EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel);
    let env = advm::presets::page_env(config, 2);
    advm::fsio::write_tree(dir.path(), &env.tree()).expect("writing env tree");
    dir
}

/// A regress job of the PAGE environment in `dir` on `platforms`, or
/// on all six (`--all-platforms`) when `platforms` is empty.
fn regress_spec(dir: &Path, platforms: Vec<PlatformId>, workers: u64) -> JobSpec {
    JobSpec::Regress {
        dir: dir.display().to_string(),
        env: "PAGE".into(),
        all_platforms: platforms.is_empty(),
        platforms,
        workers: Some(workers),
        fuel: None,
    }
}

fn fuzz_spec(seed: u64) -> JobSpec {
    JobSpec::Fuzz {
        programs: Some(16),
        seed: Some(seed),
        mine: true,
        platforms: Vec::new(),
        all_platforms: true,
        workers: Some(2),
        fuel: None,
    }
}

/// `advm-cli regress <dir> PAGE --all-platforms --workers 2 --json`.
#[test]
fn regress_page_all_platforms() {
    let dir = page_env_on_disk();
    pin_report(
        "regress_page_all_platforms.json",
        &regress_spec(dir.path(), Vec::new(), 2),
    );
}

/// `advm-cli explore --rounds 2 --batch 3 --seed 7 --workers 2 --json`.
#[test]
fn explore_two_rounds_seed_7() {
    let spec = JobSpec::Explore {
        rounds: Some(2),
        seed: Some(7),
        batch: Some(3),
        workers: Some(2),
        derivative: None,
        all_platforms: false,
    };
    pin_report("explore_rounds2_batch3_seed7.json", &spec);
}

/// `advm-cli fuzz --programs 16 --mine --all-platforms --seed 1 --workers 2 --json`.
#[test]
fn fuzz_mine_all_platforms_seed_1() {
    pin_report("fuzz_programs16_mine_seed1.json", &fuzz_spec(1));
}

/// The held-out fuzz seed.
#[test]
fn fuzz_mine_all_platforms_seed_7919() {
    pin_report("fuzz_programs16_mine_seed7919.json", &fuzz_spec(7919));
}

/// `advm-cli audit --scenarios 8 --workers 2 --json`.
#[test]
fn audit_eight_scenarios() {
    let spec = JobSpec::Audit {
        platforms: Vec::new(),
        all_platforms: false,
        scenarios: Some(8),
        seed: None,
        workers: Some(2),
        fuel: None,
    };
    pin_report("audit_scenarios8.json", &spec);
}

/// Every line `advm-cli submit --watch regress <dir> PAGE --platform rtl`
/// prints against a fresh daemon: the submit echo, each event line and
/// the `done` line with its report. One worker keeps the event order
/// fixed.
#[cfg(unix)]
#[test]
fn served_regress_watch_stream() {
    use advm_serve::daemon::DaemonConfig;

    let dir = page_env_on_disk();
    let server = harness::RunningServer::start(DaemonConfig {
        workers: 1,
        cache_capacity: 64,
    });
    let mut client = server.client();
    let spec = regress_spec(dir.path(), vec![PlatformId::RtlSim], 1);
    let job = client.submit(spec).expect("submit");
    let mut stream = format!("{{\"ok\":true,\"job\":{job}}}\n");
    let done = client
        .watch(job, |line| {
            stream.push_str(line);
            stream.push('\n');
        })
        .expect("watch");
    stream.push_str(&done);
    stream.push('\n');
    check("served_regress_watch.ndjson", &strip_timings(&stream));
}

#[test]
fn strip_timings_keeps_every_counter() {
    let perf = "{\"perf\":{\"instructions\":7,\"wall_ms\":1.500,\"steps_per_sec\":4667,\
                \"decode_hit_rate\":1.0000,\"mine_wall_ms\":0.000},\"ok\":true}";
    assert_eq!(
        strip_timings(perf),
        "{\"perf\":{\"instructions\":7,\"decode_hit_rate\":1.0000},\"ok\":true}"
    );
}
