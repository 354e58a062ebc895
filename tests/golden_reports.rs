//! Golden reports: the loop's verdicts and work counters are pinned.
//!
//! Each test runs one standard job through [`JobSpec::run`], the path
//! `advm-cli regress|audit|explore|fuzz` and the daemon share, and
//! compares its `--json` report byte for byte with a committed file
//! under `tests/golden/reports/`. One more pins every line a daemon
//! streams to `advm-cli submit --watch regress`, and two pin every event
//! an audit and an exploration hand their observer factory's observers.
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
use std::sync::Arc;

use advm::campaign::{CampaignEvent, CampaignObserver, EventLog, ObserverFactory};
use advm::env::EnvConfig;
use advm::wire::JsonValue;
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

/// The first value where `actual` departs from `golden`, as
/// `path: golden X, actual Y`, or `None` when the two are equal.
fn value_difference(path: &str, golden: &JsonValue, actual: &JsonValue) -> Option<String> {
    let at = |key: &str| match path {
        "" => key.to_owned(),
        _ => format!("{path}.{key}"),
    };
    let here = |what: String| match path {
        "" => Some(what),
        _ => Some(format!("{path}: {what}")),
    };
    match (golden, actual) {
        (JsonValue::Object(pairs), JsonValue::Object(others)) => {
            for (key, value) in pairs {
                let found = match actual.get(key) {
                    Some(other) => value_difference(&at(key), value, other),
                    None => Some(format!(
                        "{}: golden {}, actual absent",
                        at(key),
                        value.to_json()
                    )),
                };
                if found.is_some() {
                    return found;
                }
            }
            if let Some((key, other)) = others.iter().find(|(key, _)| golden.get(key).is_none()) {
                return Some(format!(
                    "{}: golden absent, actual {}",
                    at(key),
                    other.to_json()
                ));
            }
            let keys = |pairs: &[(String, JsonValue)]| -> Vec<String> {
                pairs.iter().map(|(key, _)| key.clone()).collect()
            };
            let (order, other_order) = (keys(pairs), keys(others));
            if order != other_order {
                return here(format!(
                    "key order: golden {order:?}, actual {other_order:?}"
                ));
            }
            None
        }
        (JsonValue::Array(items), JsonValue::Array(others)) => {
            let found = items
                .iter()
                .zip(others)
                .enumerate()
                .find_map(|(i, (item, other))| {
                    value_difference(&format!("{path}[{i}]"), item, other)
                });
            if found.is_none() && items.len() != others.len() {
                return here(format!(
                    "golden {} items, actual {}",
                    items.len(),
                    others.len()
                ));
            }
            found
        }
        _ if golden == actual => None,
        _ => here(format!(
            "golden {}, actual {}",
            golden.to_json(),
            actual.to_json()
        )),
    }
}

/// Where `actual` first departs from `expected`, compared line by line
/// (a report is one line, a served stream one line per event) and named
/// by its JSON path, as in `perf.forked_runs: golden 414, actual 0`.
fn first_difference(expected: &str, actual: &str) -> String {
    let golden: Vec<&str> = expected.lines().collect();
    let lines: Vec<&str> = actual.lines().collect();
    let Some(i) = (0..golden.len().max(lines.len())).find(|&i| golden.get(i) != lines.get(i))
    else {
        return "line breaks differ".to_owned();
    };
    let place = if golden.len().max(lines.len()) > 1 {
        format!("line {}: ", i + 1)
    } else {
        String::new()
    };
    let (Some(golden_line), Some(line)) = (golden.get(i), lines.get(i)) else {
        return format!(
            "{place}golden has {} lines, actual {}",
            golden.len(),
            lines.len()
        );
    };
    let found = match (JsonValue::parse(golden_line), JsonValue::parse(line)) {
        (Ok(golden_value), Ok(value)) => value_difference("", &golden_value, &value)
            .unwrap_or_else(|| "equal values, written differently".to_owned()),
        (Err(e), _) | (_, Err(e)) => format!("not JSON: {e}"),
    };
    format!("{place}{found}")
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
        "{name} moved at {}; if the change is intended, rerun with UPDATE_GOLDEN=1 \
         and name the golden in CHANGES.md\n  golden: {expected}\n  actual: {actual}",
        first_difference(&expected, actual)
    );
}

/// Runs `spec` as the CLI does (no store, no observer) and pins its
/// timing-stripped report, newline-terminated.
fn pin_report(name: &str, spec: &JobSpec) {
    let report = spec.run(None, None).expect("job runs");
    check(name, &(strip_timings(&report.to_json()) + "\n"));
}

/// Runs `spec` as the daemon does, with an observer factory but no
/// store, and pins the events its observers receive in delivery order:
/// one line per internal campaign, holding its `started` and `finished`
/// events, its event count and the FNV-1a digest of all its event
/// lines, so a moved event names its campaign.
fn pin_events(name: &str, spec: &JobSpec) {
    let log = EventLog::new();
    let sink = log.clone();
    let factory: ObserverFactory =
        Arc::new(move || Box::new(sink.clone()) as Box<dyn CampaignObserver>);
    spec.run(None, Some(factory)).expect("job runs");
    let mut pinned = String::new();
    let mut campaign: Vec<String> = Vec::new();
    for event in log.events() {
        campaign.push(event.to_json());
        if let CampaignEvent::Finished { .. } = event {
            let digest = campaign
                .iter()
                .fold(0xcbf2_9ce4_8422_2325_u64, |hash, line| {
                    (line.bytes().chain([b'\n'])).fold(hash, |hash, byte| {
                        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
                    })
                });
            pinned.push_str(&format!(
                "{{\"started\":{},\"finished\":{},\"events\":{},\"fnv1a\":\"{digest:016x}\"}}\n",
                campaign[0],
                campaign[campaign.len() - 1],
                campaign.len()
            ));
            campaign.clear();
        }
    }
    assert!(
        campaign.is_empty(),
        "every campaign's stream ends `finished`"
    );
    check(name, &pinned);
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

/// `advm-cli explore --rounds 2 --batch 3 --seed 7 --workers 2`.
fn explore_spec() -> JobSpec {
    JobSpec::Explore {
        rounds: Some(2),
        seed: Some(7),
        batch: Some(3),
        workers: Some(2),
        derivative: None,
        all_platforms: false,
    }
}

/// `advm-cli explore --rounds 2 --batch 3 --seed 7 --workers 2 --json`.
#[test]
fn explore_two_rounds_seed_7() {
    pin_report("explore_rounds2_batch3_seed7.json", &explore_spec());
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

/// `advm-cli audit --scenarios 8 --workers 2`.
fn audit_spec() -> JobSpec {
    JobSpec::Audit {
        platforms: Vec::new(),
        all_platforms: false,
        scenarios: Some(8),
        seed: None,
        workers: Some(2),
        fuel: None,
    }
}

/// `advm-cli audit --scenarios 8 --workers 2 --json`.
#[test]
fn audit_eight_scenarios() {
    pin_report("audit_scenarios8.json", &audit_spec());
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

/// Every event the audit of [`audit_eight_scenarios`] streams: the
/// suite baseline, each cell, the escape round's baseline and its cells.
#[test]
fn audit_eight_scenarios_event_stream() {
    pin_events("audit_scenarios8_events.ndjson", &audit_spec());
}

/// Every event the two rounds of [`explore_two_rounds_seed_7`] stream.
#[test]
fn explore_two_rounds_seed_7_event_stream() {
    pin_events(
        "explore_rounds2_batch3_seed7_events.ndjson",
        &explore_spec(),
    );
}

#[test]
fn a_mismatch_names_the_first_value_that_moved() {
    let golden = "{\"perf\":{\"instructions\":7,\"forked_runs\":414},\"tests\":[\"A\",\"B\"]}";
    let moved = |actual: &str| first_difference(golden, actual);
    assert_eq!(
        moved("{\"perf\":{\"instructions\":7,\"forked_runs\":0},\"tests\":[\"A\",\"B\"]}"),
        "perf.forked_runs: golden 414, actual 0"
    );
    assert_eq!(
        moved("{\"perf\":{\"instructions\":7,\"forked_runs\":414},\"tests\":[\"A\"]}"),
        "tests: golden 2 items, actual 1"
    );
    assert_eq!(
        moved("{\"perf\":{\"instructions\":7},\"tests\":[\"A\",\"C\"]}"),
        "perf.forked_runs: golden 414, actual absent"
    );
    assert_eq!(
        moved("{\"tests\":[\"A\",\"B\"],\"perf\":{\"instructions\":7,\"forked_runs\":414}}"),
        "key order: golden [\"perf\", \"tests\"], actual [\"tests\", \"perf\"]"
    );
    // A stream is compared line by line.
    assert_eq!(
        first_difference(
            "{\"ok\":true}\n{\"seq\":0}\n",
            "{\"ok\":true}\n{\"seq\":1}\n"
        ),
        "line 2: seq: golden 0, actual 1"
    );
    assert_eq!(
        first_difference("{\"ok\":true}\n{\"seq\":0}\n", "{\"ok\":true}\n"),
        "line 2: golden has 2 lines, actual 1"
    );
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
