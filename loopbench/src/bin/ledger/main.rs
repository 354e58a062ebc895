//! Traced runs of the ADVM loop benchmark: the per-layer ledger.
//!
//! `loopbench-ledger --workload <name> --seed <n> --seconds <s> --trace 1`
//! runs each operation twice: once untraced through the builders' API at
//! one worker (the reference: its wall time, `CampaignPerf` and report
//! counts), then replayed on the calling thread through each layer's
//! public functions with a span around every call. It checks counter
//! parity between the two, prints each layer's self time and share of
//! the blocking path plus the tracing overhead, writes the spans out, and
//! prints the per-layer metrics (per-operation means) as the result line.

mod replay;
mod tracer;

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use advm::campaign::{Campaign, CampaignEvent, CampaignReport};
use advm::env::{EnvConfig, ModuleTestEnv};
use advm::{presets, program_env, DEFAULT_FUZZ_PROGRAMS};
use advm_fuzz::{ProgramSource, TraceAssertion};
use advm_gen::{CoverageDirected, CoverageFeedback, GlobalsConstraints, Scenario, ScenarioEngine};
use advm_sim::{compare, Platform, PlatformFault, RunResult, DEFAULT_FUEL};
use advm_soc::{Derivative, PlatformId};
use loopbench::workloads::{
    audit_op, check_audit, check_fuzz, fuzz_op, DaemonHarness, EnvTarget, AUDIT_ESCAPE_SEED,
    AUDIT_EXPECT, FUZZ_EXPECT,
};
use loopbench::{
    enter_repo_root, finish, json_f64, json_u64, ms, Args, CounterBook, Counters, Metric,
    Provenance, Tally, Workload, STATE_DIR,
};

use replay::{assemble, campaign, link, CampaignPlan, Store};
use tracer::Tracer;

/// The encode round-trip base `advm::Fuzz` validates programs at.
const ENCODE_CHECK_BASE: u32 = 0x0_0400;

/// Layers in pipeline order, as the ledger table lists them.
const LAYERS: [&str; 16] = [
    "gen",
    "load",
    "plan",
    "asm.preprocess",
    "asm.assemble",
    "link",
    "predecode",
    "mine",
    "machine",
    "fork",
    "exec",
    "check",
    "compare",
    "report",
    "wire",
    "op",
];

/// Everything a traced run accumulates besides the tracer itself.
#[derive(Default)]
struct Ledger {
    ops: u64,
    /// Replay wall per operation.
    traced_ms: Vec<f64>,
    /// Untraced reference wall per operation.
    untraced_ms: Vec<f64>,
    /// Sums over operations of the reference's own phase walls and
    /// store counters, and of the daemon client's observations.
    sums: HashMap<&'static str, f64>,
}

impl Ledger {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    fn per_op(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("loopbench-ledger: {error}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if !args.trace {
        return Err("untraced runs are made by loopbench".to_owned());
    }
    enter_repo_root()?;
    let provenance = Provenance::collect(args);
    let mut book = CounterBook::open(provenance.source_digest, args.workload, args.seed, true);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut ledger = Ledger::default();
    match args.workload {
        Workload::ColdFuzz => cold_fuzz(args, &mut tracer, &mut ledger, &mut tally, &mut book)?,
        Workload::WarmDaemon => warm_daemon(args, &mut tracer, &mut ledger, &mut tally, &mut book)?,
        Workload::AuditMatrix => {
            audit_matrix(args, &mut tracer, &mut ledger, &mut tally, &mut book)?
        }
    }
    book.save()?;
    print_ledger(args, &tracer, &ledger);
    let spans = Path::new(STATE_DIR).join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_spans(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    finish(&provenance, &tally, &metrics(&tracer, &ledger));
    Ok(())
}

/// Runs `op` for operation ids 0, 1, … until `seconds` have passed (at
/// least once).
fn timed_loop(seconds: f64, mut op: impl FnMut(u64)) {
    let started = Instant::now();
    let mut index = 0;
    loop {
        op(index);
        index += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Replays one operation inside an `op` span, timing it.
fn traced<R>(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    op: u64,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, Counters) {
    let before = counter_snapshot(tracer);
    tracer.set_op(op as u32);
    let started = Instant::now();
    let result = tracer.span("op", f);
    ledger.traced_ms.push(ms(started.elapsed()));
    ledger.ops += 1;
    let mut delta = Counters::default();
    for (name, value) in counter_snapshot(tracer) {
        let was = before.get(name).copied().unwrap_or(0.0);
        delta.set(name, (value - was).round() as u64);
    }
    (result, delta)
}

/// Every counter the ledger reports, with its current total.
fn counter_snapshot(tracer: &Tracer) -> HashMap<&'static str, f64> {
    COUNTERS
        .iter()
        .map(|&name| (name, tracer.count(name)))
        .collect()
}

/// Every deterministic counter the replay records.
const COUNTERS: [&str; 30] = [
    "gen.programs",
    "gen.insns",
    "load.bytes",
    "plan.jobs",
    "plan.unique_images",
    "asm.source_bytes",
    "asm.lines",
    "asm.words",
    "link.image_bytes",
    "predecode.slots",
    "machine.count",
    "exec.runs",
    "exec.insns",
    "exec.block_dispatches",
    "exec.block_insns",
    "exec.decode_hits",
    "exec.decode_misses",
    "fork.forked_runs",
    "fork.prefix_saved",
    "mine.traces",
    "mine.assertions",
    "check.evaluations",
    "check.violations",
    "compare.tests",
    "compare.divergences",
    "report.json_bytes",
    "wire.events",
    "wire.bytes",
    "store.hits",
    "store.misses",
];

/// Checks the replay's parity counters against the untraced reference.
fn check_parity(delta: &Counters, expected: &[(&str, u64)]) -> Result<(), String> {
    let broken: Vec<String> = expected
        .iter()
        .filter(|(name, want)| delta.get(name) != Some(*want))
        .map(|(name, want)| format!("{name}: replay {:?} vs untraced {want}", delta.get(name)))
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("counter parity broken: {}", broken.join(", ")))
    }
}

/// `cold_fuzz` operation *i*: seed `seed + i`, generate → mine → verify.
fn cold_fuzz(
    args: Args,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    tally: &mut Tally,
    book: &mut CounterBook,
) -> Result<(), String> {
    timed_loop(args.seconds, |index| {
        let seed = args.seed.wrapping_add(index);
        let started = Instant::now();
        let real = match fuzz_op(seed, 1) {
            Ok(real) => real,
            Err(error) => return tally.record(Err(error)),
        };
        ledger.untraced_ms.push(ms(started.elapsed()));
        let perf = *real.campaign().perf();
        ledger.add("campaign.build_ms", ms(perf.build_wall));
        ledger.add("campaign.exec_ms", ms(perf.exec_wall));
        ledger.add("campaign.report_ms", ms(perf.report_wall));
        let (replayed, delta) = traced(tracer, ledger, index, |t| replay_fuzz(t, seed, &real));
        let verdict = check_fuzz(&real, FUZZ_EXPECT)
            .and(replayed)
            .and_then(|()| {
                check_parity(
                    &delta,
                    &[
                        ("exec.insns", perf.instructions),
                        ("exec.block_dispatches", perf.block_dispatches),
                        ("exec.decode_misses", perf.decode_misses),
                        ("plan.jobs", real.campaign().total() as u64),
                        ("plan.unique_images", real.campaign().unique_builds() as u64),
                        ("fork.forked_runs", perf.forked_runs),
                        ("store.hits", perf.artifact_hits),
                        ("mine.assertions", real.mined().len() as u64),
                        ("check.violations", real.violations().len() as u64),
                    ],
                )
            })
            .and_then(|()| book.check(&format!("op{index}"), &delta));
        tally.record(verdict);
    });
    Ok(())
}

fn replay_fuzz(t: &mut Tracer, seed: u64, real: &advm::FuzzReport) -> Result<(), String> {
    let envs = t.span("gen", |_| {
        let programs = ProgramSource::new(seed).generate(DEFAULT_FUZZ_PROGRAMS);
        for program in &programs {
            program.check_encoding(ENCODE_CHECK_BASE)?;
        }
        let insns: usize = programs.iter().map(|p| p.len()).sum();
        let envs: Vec<ModuleTestEnv> = programs.iter().map(program_env).collect();
        Ok::<_, String>((envs, insns))
    });
    let (envs, insns) = envs?;
    t.add("gen.programs", envs.len() as f64);
    t.add("gen.insns", insns as f64);
    let mined = t.span("mine", |t| mine(t, &envs))?;
    let outcome = campaign(
        t,
        &CampaignPlan {
            envs: &envs,
            platforms: &PlatformId::ALL,
            fault: None,
            checkers: &mined,
        },
        None,
    )?;
    report_json(t, || real.to_json());
    let failed = outcome.runs.iter().filter(|r| !r.result.passed()).count();
    if failed + outcome.divergent_tests + outcome.violations > 0 {
        return Err(format!(
            "replay of fuzz seed {seed}: {failed} failed runs, {} divergences, {} violations",
            outcome.divergent_tests, outcome.violations
        ));
    }
    Ok(())
}

/// Mining, as `advm::Fuzz` does it: every program fault-free on every
/// platform with the MMIO monitor armed, each image built directly
/// (uncached), then checkers mined from the traces. Assembly and link
/// are the front-end layers' spans; the golden runs count as mining.
fn mine(t: &mut Tracer, envs: &[ModuleTestEnv]) -> Result<Vec<TraceAssertion>, String> {
    let mut traces = Vec::new();
    for env in envs {
        for platform in PlatformId::ALL {
            let mut ported = env.clone();
            ported.reconfigure(EnvConfig {
                platform,
                ..env.config()
            });
            let cell = ported.cells()[0].id().to_owned();
            let sources = advm::build::unit_sources(&ported, &cell).map_err(|e| e.to_string())?;
            let unit = assemble(t, advm::build::UNIT_FILE, &sources)?;
            let es_sources =
                advm_asm::SourceSet::new().with("<input>", advm::build::es_rom_source(&ported));
            let es = assemble(t, "<input>", &es_sources)?;
            let image = link(t, &unit, &es)?;
            let derivative = Derivative::from_id(ported.config().derivative);
            let mut machine = Platform::new(platform, &derivative);
            machine.set_fuel(DEFAULT_FUEL);
            machine.enable_mmio_trace(advm::DEFAULT_MONITOR_CAPACITY);
            machine.load_image(&image);
            machine.run();
            traces.push(machine.mmio_trace().expect("the monitor was armed").clone());
        }
    }
    t.add("mine.traces", traces.len() as f64);
    let refs: Vec<_> = traces.iter().collect();
    let mined = advm_fuzz::mine(&refs);
    t.add("mine.assertions", mined.len() as f64);
    Ok(mined)
}

/// Times report sealing to JSON and counts its bytes.
fn report_json(t: &mut Tracer, render: impl FnOnce() -> String) {
    let json = t.span("report", |_| render());
    t.add("report.json_bytes", json.len() as f64);
}

/// `audit_matrix` operation *i*: the all-platform audit on a fresh store.
fn audit_matrix(
    args: Args,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    tally: &mut Tally,
    book: &mut CounterBook,
) -> Result<(), String> {
    timed_loop(args.seconds, |index| {
        let started = Instant::now();
        let real = match audit_op(1) {
            Ok(done) => done,
            Err(error) => return tally.record(Err(error)),
        };
        ledger.untraced_ms.push(ms(started.elapsed()));
        let perf = *real.report.perf();
        let store = real.store;
        ledger.add("campaign.build_ms", ms(perf.build_wall));
        ledger.add("campaign.exec_ms", ms(perf.exec_wall));
        ledger.add("campaign.report_ms", ms(perf.report_wall));
        ledger.add("store.hits", store.hits as f64);
        ledger.add("store.misses", store.misses as f64);
        ledger.add("store.evictions", store.evictions as f64);
        let (replayed, delta) = traced(tracer, ledger, index, |t| replay_audit(t, &real.report));
        let verdict = check_audit(&real.report, AUDIT_EXPECT)
            .and(replayed)
            .and_then(|()| {
                check_parity(
                    &delta,
                    &[
                        ("exec.insns", perf.instructions),
                        ("exec.block_dispatches", perf.block_dispatches),
                        ("exec.decode_misses", perf.decode_misses),
                        ("plan.jobs", real.planned_jobs),
                        ("plan.unique_images", real.planned_images),
                        ("fork.forked_runs", perf.forked_runs),
                        ("store.hits", store.hits),
                        ("fork.prefix_saved", perf.prefix_saved),
                    ],
                )
            })
            .and_then(|()| book.check("op", &delta));
        tally.record(verdict);
    });
    Ok(())
}

/// A matrix cell's classification, as `FaultAudit` makes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Detected,
    Masked,
    Broken,
}

/// The audit's sweep: the suite once on the reference, then every
/// (fault, platform) cell on its faulted platform; masked cells then get
/// one escape round of coverage-directed scenarios aimed at the escaped
/// faults' modules, re-audited the same way.
fn replay_audit(t: &mut Tracer, real: &advm::FaultAuditReport) -> Result<(), String> {
    let suite = t.span("gen", |_| {
        presets::standard_system(presets::default_config())
    });
    t.add(
        "gen.programs",
        suite.iter().map(|e| e.cells().len()).sum::<usize>() as f64,
    );
    let mut store = Store::default();
    let reference = PlatformId::GoldenModel;
    let baseline = run_on(t, &suite, reference, None, &mut store)?;
    let mut cells = Vec::new();
    for fault in PlatformFault::ALL {
        for platform in PlatformId::ALL.into_iter().filter(|&p| p != reference) {
            let faulted = run_on(t, &suite, platform, Some(fault), &mut store)?;
            cells.push((fault, platform, classify(t, platform, &baseline, &faulted)));
        }
    }
    let escaped: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].2 == Outcome::Masked)
        .collect();
    if !escaped.is_empty() {
        let weak: Vec<&str> = escaped
            .iter()
            .filter_map(|&i| cells[i].0.module())
            .collect();
        let derivative = suite[0].config().derivative;
        let plan = t.span("gen", |_| {
            ScenarioEngine::new(AUDIT_ESCAPE_SEED)
                .source(CoverageDirected::new(
                    GlobalsConstraints::new(derivative, reference).with_test_page_count(2),
                    CoverageFeedback::new().with_weak_modules(weak),
                ))
                .batch(AUDIT_SCENARIOS)
                .plan()
                .map_err(|e| e.to_string())
        })?;
        let envs = scenario_envs(t, plan.scenarios());
        let baseline = run_on(t, &envs, reference, None, &mut store)?;
        for i in escaped {
            let (fault, platform, _) = cells[i];
            let envs = scenario_envs(t, plan.scenarios());
            let faulted = run_on(t, &envs, platform, Some(fault), &mut store)?;
            let outcome = classify(t, platform, &baseline, &faulted);
            if outcome != Outcome::Masked {
                cells[i].2 = outcome;
            }
        }
    }
    report_json(t, || real.to_json());
    let detected = cells.iter().filter(|c| c.2 == Outcome::Detected).count();
    if detected != AUDIT_EXPECT.cells {
        return Err(format!(
            "replay of the audit: {detected}/{} cells detected",
            AUDIT_EXPECT.cells
        ));
    }
    Ok(())
}

/// The escape round's scenario batch size (`FaultAudit`'s default).
const AUDIT_SCENARIOS: usize = 8;

/// One audit campaign: `envs` on one platform, optionally faulted.
fn run_on(
    t: &mut Tracer,
    envs: &[ModuleTestEnv],
    platform: PlatformId,
    fault: Option<PlatformFault>,
    store: &mut Store,
) -> Result<replay::CampaignOutcome, String> {
    campaign(
        t,
        &CampaignPlan {
            envs,
            platforms: &[platform],
            fault: fault.map(|f| (platform, f)),
            checkers: &[],
        },
        Some(store),
    )
}

/// Materialises generated scenarios into environments, as a campaign
/// does, renaming any duplicate name.
fn scenario_envs(t: &mut Tracer, scenarios: &[Scenario]) -> Vec<ModuleTestEnv> {
    t.span("gen", |_| {
        let mut used: HashSet<String> = HashSet::new();
        scenarios
            .iter()
            .map(|scenario| {
                let mut scenario = scenario.clone();
                if used.contains(scenario.name()) {
                    let base = scenario.name().to_owned();
                    let name = (1..)
                        .map(|n| format!("{base}_{n}"))
                        .find(|c| !used.contains(c))
                        .expect("some suffix is free");
                    scenario = scenario.with_name(name);
                }
                used.insert(scenario.name().to_owned());
                advm::stimulus::scenario_env(&scenario)
            })
            .collect()
    })
}

/// Classifies one cell: each faulted run against the reference's run of
/// the same test (golden-anchored 1-vs-1 comparison).
fn classify(
    t: &mut Tracer,
    platform: PlatformId,
    baseline: &replay::CampaignOutcome,
    faulted: &replay::CampaignOutcome,
) -> Outcome {
    let reference: HashMap<(&str, &str), &RunResult> = baseline
        .runs
        .iter()
        .map(|r| ((r.env.as_str(), r.test.as_str()), &r.result))
        .collect();
    let (kills, missing) = t.span("compare", |_| {
        let mut kills = 0;
        let mut missing = 0;
        for run in &faulted.runs {
            match reference.get(&(run.env.as_str(), run.test.as_str())) {
                None => missing += 1,
                Some(g) => {
                    let killed = compare(&[(*g).clone(), run.result.clone()])
                        .is_ok_and(|r| !r.consistent && r.divergent.contains(&platform));
                    kills += usize::from(killed);
                }
            }
        }
        (kills, missing)
    });
    t.add("compare.tests", faulted.runs.len() as f64);
    t.add("compare.divergences", kills as f64);
    if missing > 0 {
        Outcome::Broken
    } else if kills > 0 {
        Outcome::Detected
    } else if faulted.runs.iter().any(|r| !r.result.passed()) {
        Outcome::Broken
    } else {
        Outcome::Masked
    }
}

/// `warm_daemon` operation *i*: one job of environment `i mod 8` through
/// the daemon (one client), then its replay against a warm replay store.
fn warm_daemon(
    args: Args,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    tally: &mut Tally,
    book: &mut CounterBook,
) -> Result<(), String> {
    let harness = DaemonHarness::start("ledger")?;
    let mut client = harness.connect()?;
    // The replay store is warmed like the daemon's; in-process reports
    // of the same campaigns stand in for the daemon's report rendering.
    let mut store = Store::default();
    let mut reports = Vec::new();
    for target in &harness.envs {
        let env = load(tracer, target)?;
        campaign(
            tracer,
            &CampaignPlan {
                envs: std::slice::from_ref(&env),
                platforms: &PlatformId::ALL,
                fault: None,
                checkers: &[],
            },
            Some(&mut store),
        )?;
        let report = Campaign::new()
            .env(env)
            .bisect(true)
            .platforms(PlatformId::ALL)
            .workers(1)
            .run()
            .map_err(|e| e.to_string())?;
        reports.push(report);
    }
    tracer.reset();
    let status_before = client.status().map_err(|e| format!("status: {e}"))?;

    timed_loop(args.seconds, |index| {
        let env = index as usize % harness.envs.len();
        let job = match harness.run_job(&mut client, env) {
            Ok(job) => job,
            Err(error) => return tally.record(Err(error)),
        };
        ledger.untraced_ms.push(ms(job.latency));
        ledger.add("serve.first_line_ms", ms(job.first_line));
        ledger.add("serve.tail_ms", ms(job.tail));
        ledger.add("serve.lines_per_job", (job.event_lines + 1) as f64);
        for (key, field) in [
            ("campaign.build_ms", "build_wall_ms"),
            ("campaign.exec_ms", "exec_wall_ms"),
            ("campaign.report_ms", "report_wall_ms"),
        ] {
            ledger.add(key, json_f64(&job.done, field).unwrap_or(0.0));
        }
        let id = json_u64(&job.done, "job").unwrap_or(0);
        let (replayed, delta) = traced(tracer, ledger, index, |t| {
            replay_job(t, &harness.envs[env], &mut store, &reports[env], id)
        });
        let num = |text: &str, key: &str| json_u64(text, key).unwrap_or(u64::MAX);
        let verdict = harness
            .check_job(env, &job)
            .and(replayed)
            .and_then(|()| {
                check_parity(
                    &delta,
                    &[
                        ("exec.insns", num(&job.done, "instructions")),
                        ("exec.block_dispatches", num(&job.done, "block_dispatches")),
                        ("exec.decode_misses", num(&job.done, "decode_misses")),
                        ("plan.jobs", num(&job.first_event, "jobs")),
                        ("plan.unique_images", num(&job.first_event, "unique_builds")),
                        ("fork.forked_runs", num(&job.done, "forked_runs")),
                        ("store.hits", num(&job.done, "artifact_hits")),
                        ("wire.events", job.event_lines),
                        ("wire.bytes", job.event_bytes),
                    ],
                )
            })
            .and_then(|()| {
                // Wire bytes carry the job id; everything else repeats.
                let mut delta = delta.clone();
                delta.set("wire.bytes", 0);
                book.check(&harness.envs[env].name, &delta)
            });
        tally.record(verdict);
    });

    let status_after = client.status().map_err(|e| format!("status: {e}"))?;
    for key in ["hits", "misses", "evictions"] {
        let store_delta = |status: &str| {
            let at = status.find("\"artifacts\":").unwrap_or(0);
            json_u64(&status[at..], key).unwrap_or(0) as f64
        };
        let value = store_delta(&status_after) - store_delta(&status_before);
        ledger.add(
            match key {
                "hits" => "store.hits",
                "misses" => "store.misses",
                _ => "store.evictions",
            },
            value,
        );
    }
    drop(client);
    harness.stop()
}

/// Env load, as the daemon's regress job does it: the tree from disk,
/// then the environment from the tree.
fn load(t: &mut Tracer, target: &EnvTarget) -> Result<ModuleTestEnv, String> {
    t.span("load", |t| {
        let tree = advm::fsio::read_tree(Path::new(&target.dir))
            .map_err(|e| format!("reading {}: {e}", target.dir))?;
        t.add(
            "load.bytes",
            tree.values().map(String::len).sum::<usize>() as f64,
        );
        ModuleTestEnv::from_tree(&target.name, &tree)
    })
}

fn replay_job(
    t: &mut Tracer,
    target: &EnvTarget,
    store: &mut Store,
    report: &CampaignReport,
    job_id: u64,
) -> Result<(), String> {
    let env = load(t, target)?;
    let outcome = campaign(
        t,
        &CampaignPlan {
            envs: std::slice::from_ref(&env),
            platforms: &PlatformId::ALL,
            fault: None,
            checkers: &[],
        },
        Some(store),
    )?;
    report_json(t, || report.to_json());
    // The job's NDJSON event stream, framed as the daemon frames it.
    t.span("wire", |t| {
        let passed = outcome.runs.iter().filter(|r| r.result.passed()).count();
        let mut events = vec![CampaignEvent::Started {
            jobs: outcome.runs.len(),
            unique_builds: outcome.unique,
            workers: 1,
        }];
        for run in &outcome.runs {
            let (env, test_id, platform) = (run.env.clone(), run.test.clone(), run.platform);
            events.push(CampaignEvent::JobStarted {
                env: env.clone(),
                test_id: test_id.clone(),
                platform,
            });
            events.push(CampaignEvent::JobBuilt {
                env: env.clone(),
                test_id: test_id.clone(),
                platform,
                cache_hit: run.planned_hit,
            });
            events.push(CampaignEvent::JobFinished {
                env,
                test_id,
                platform,
                passed: run.result.passed(),
            });
        }
        events.push(CampaignEvent::Finished {
            total: outcome.runs.len(),
            passed,
            failed: outcome.runs.len() - passed,
            cache_hits: outcome.cache_hits,
        });
        for (seq, event) in events.iter().enumerate() {
            let line = format!(
                "{{\"job\":{job_id},\"seq\":{seq},\"event\":{}}}",
                event.to_json()
            );
            t.add("wire.events", 1.0);
            t.add("wire.bytes", line.len() as f64);
        }
    });
    if outcome.runs.iter().any(|r| !r.result.passed()) || outcome.divergent_tests > 0 {
        return Err(format!("replay of a job on {}: a run failed", target.name));
    }
    Ok(())
}

/// The per-layer metrics: per-operation means over the run.
fn metrics(t: &Tracer, l: &Ledger) -> Vec<Metric> {
    let ops = l.ops.max(1) as f64;
    let count = |name: &str| t.count(name) / ops;
    let layer = |name: &str| t.self_ms(name) / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let traced = mean(&l.traced_ms);
    let untraced = mean(&l.untraced_ms);
    let metric = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut out = vec![
        metric("gen.ms", layer("gen"), "ms"),
        metric("gen.programs", count("gen.programs"), "count"),
        metric("gen.insns", count("gen.insns"), "count"),
        metric("load.ms", layer("load"), "ms"),
        metric("load.bytes", count("load.bytes"), "bytes"),
        metric("plan.ms", layer("plan"), "ms"),
        metric("plan.jobs", count("plan.jobs"), "count"),
        metric("plan.unique_images", count("plan.unique_images"), "count"),
        metric(
            "plan.dedup_ratio",
            1.0 - ratio(t.count("plan.unique_images"), t.count("plan.jobs")),
            "ratio",
        ),
        metric("asm.preprocess.ms", layer("asm.preprocess"), "ms"),
        metric("asm.source_bytes", count("asm.source_bytes"), "bytes"),
        metric("asm.lines", count("asm.lines"), "count"),
        metric("asm.assemble.ms", layer("asm.assemble"), "ms"),
        metric("asm.words", count("asm.words"), "count"),
        metric("link.ms", layer("link"), "ms"),
        metric("link.image_bytes", count("link.image_bytes"), "bytes"),
        metric("predecode.ms", layer("predecode"), "ms"),
        metric("predecode.slots", count("predecode.slots"), "count"),
        metric("machine.ms", layer("machine"), "ms"),
        metric("machine.count", count("machine.count"), "count"),
        metric("exec.ms", layer("exec"), "ms"),
        metric("exec.insns", count("exec.insns"), "count"),
        metric(
            "exec.steps_per_s",
            ratio(t.count("exec.insns"), t.self_ms("exec") / 1e3),
            "1/s",
        ),
        metric(
            "exec.block_dispatches",
            count("exec.block_dispatches"),
            "count",
        ),
        metric("exec.block_insns", count("exec.block_insns"), "count"),
        metric("exec.decode_misses", count("exec.decode_misses"), "count"),
        metric(
            "exec.decode_hit_rate",
            ratio(
                t.count("exec.decode_hits"),
                t.count("exec.decode_hits") + t.count("exec.decode_misses"),
            ),
            "ratio",
        ),
        metric("fork.ms", layer("fork"), "ms"),
        metric("fork.forked_runs", count("fork.forked_runs"), "count"),
        metric("fork.prefix_saved", count("fork.prefix_saved"), "count"),
        metric("mine.ms", layer("mine"), "ms"),
        metric("mine.traces", count("mine.traces"), "count"),
        metric("mine.assertions", count("mine.assertions"), "count"),
        metric("check.ms", layer("check"), "ms"),
        metric("check.evaluations", count("check.evaluations"), "count"),
        metric("check.violations", count("check.violations"), "count"),
        metric("compare.ms", layer("compare"), "ms"),
        metric("compare.tests", count("compare.tests"), "count"),
        metric("compare.divergences", count("compare.divergences"), "count"),
        metric("report.json_ms", layer("report"), "ms"),
        metric("report.json_bytes", count("report.json_bytes"), "bytes"),
        metric("wire.ms", layer("wire"), "ms"),
        metric("wire.events", count("wire.events"), "count"),
        metric("wire.bytes", count("wire.bytes"), "bytes"),
        metric("store.hits", l.per_op("store.hits"), "count"),
        metric("store.misses", l.per_op("store.misses"), "count"),
        metric("store.evictions", l.per_op("store.evictions"), "count"),
        metric(
            "store.hit_ratio",
            ratio(
                l.per_op("store.hits"),
                l.per_op("store.hits") + l.per_op("store.misses"),
            ),
            "ratio",
        ),
        metric("serve.first_line_ms", l.per_op("serve.first_line_ms"), "ms"),
        metric("serve.tail_ms", l.per_op("serve.tail_ms"), "ms"),
        metric(
            "serve.lines_per_job",
            l.per_op("serve.lines_per_job"),
            "count",
        ),
        metric("campaign.build_ms", l.per_op("campaign.build_ms"), "ms"),
        metric("campaign.exec_ms", l.per_op("campaign.exec_ms"), "ms"),
        metric("campaign.report_ms", l.per_op("campaign.report_ms"), "ms"),
        metric("trace.op_ms", traced, "ms"),
        metric("trace.untraced_op_ms", untraced, "ms"),
        metric("trace.overhead_ms", traced - untraced, "ms"),
        metric("trace.glue_ms", layer("op"), "ms"),
    ];
    out.retain(|m| m.value.is_finite());
    out
}

/// Prints the self-time ledger: per layer, self time per operation and
/// share of the blocking path (the replay is single-threaded, so every
/// span is on it), then the tracing overhead.
fn print_ledger(args: Args, t: &Tracer, l: &Ledger) {
    let ops = l.ops.max(1) as f64;
    let total: f64 = t.layers().map(|(_, ms)| ms).sum();
    eprintln!(
        "ledger: {} seed {} — {} operations, self time per operation:",
        args.workload.name(),
        args.seed,
        l.ops
    );
    for name in LAYERS {
        let self_ms = t.self_ms(name);
        let share = if total > 0.0 {
            100.0 * self_ms / total
        } else {
            0.0
        };
        eprintln!("  {name:<15} {:>10.3} ms  {share:>5.1} %", self_ms / ops);
    }
    let traced: f64 = l.traced_ms.iter().sum::<f64>() / ops;
    let untraced: f64 = l.untraced_ms.iter().sum::<f64>() / ops;
    eprintln!(
        "  traced {traced:.3} ms/op, untraced {untraced:.3} ms/op (one worker), \
         tracing overhead {:.3} ms/op ({:+.1} %)",
        traced - untraced,
        if untraced > 0.0 {
            100.0 * (traced / untraced - 1.0)
        } else {
            0.0
        }
    );
}
