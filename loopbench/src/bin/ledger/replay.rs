//! The traced replay of one campaign: plan → build → execute → compare,
//! through each layer's public functions, on the calling thread.
//!
//! It does the work `advm::Campaign::run` does for the same inputs — the
//! same jobs, the same content-keyed image dedup, the same artifact-store
//! reuse and prefix forks, the same checked runs — so its deterministic
//! counters must equal the campaign's own (the ledger's parity check).
//! Two deliberate differences, both visible as tracing overhead: images
//! are assembled with their listing (`preprocess` + `assemble_preprocessed`
//! instead of the lean parse), and from-reset runs always construct a
//! fresh machine (the campaign recycles one per worker).

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use advm::build::{es_rom_source, link_programs, unit_sources, UNIT_FILE};
use advm::env::{EnvConfig, ModuleTestEnv, GLOBALS_FILE};
use advm::prefix::DEFAULT_PREFIX_BUDGET;
use advm::DEFAULT_MONITOR_CAPACITY;
use advm_asm::{assemble_preprocessed, preprocess, Image, Program, SourceSet};
use advm_fuzz::TraceAssertion;
use advm_sim::{
    compare, DecodedProgram, EndReason, Platform, PlatformFault, RunResult, SaveState, DEFAULT_FUEL,
};
use advm_soc::{Derivative, PlatformId};

use crate::tracer::Tracer;

/// One built image and its predecode artifact.
struct Prebuilt {
    image: Image,
    decoded: DecodedProgram,
}

/// A fault-free prefix snapshot runs fork from.
struct PrefixEntry {
    state: SaveState,
    retired: u64,
    dbg_markers: Vec<u8>,
    /// Catalogued faults a fork may carry (byte-identical to reset).
    fork_safe: Vec<PlatformFault>,
}

impl PrefixEntry {
    fn safe_for(&self, fault: PlatformFault) -> bool {
        fault == PlatformFault::None || self.fork_safe.contains(&fault)
    }
}

/// The replay's artifact store: images by content key, ES ROMs by
/// source, prefix snapshots by (content key, platform), with the same
/// hit/miss accounting as `advm::ArtifactStore` (one lookup per distinct
/// key per campaign).
#[derive(Default)]
pub struct Store {
    images: HashMap<u64, Rc<Prebuilt>>,
    es: HashMap<String, Rc<Program>>,
    prefixes: HashMap<(u64, PlatformId), Option<Rc<PrefixEntry>>>,
}

/// What one campaign runs.
pub struct CampaignPlan<'a> {
    /// Environments, each swept over every platform.
    pub envs: &'a [ModuleTestEnv],
    /// Target platforms.
    pub platforms: &'a [PlatformId],
    /// The fault injected into one platform, if any.
    pub fault: Option<(PlatformId, PlatformFault)>,
    /// Mined checkers armed on every run (forces checked, unforked runs).
    pub checkers: &'a [TraceAssertion],
}

/// One replayed run.
pub struct Run {
    /// Environment name.
    pub env: String,
    /// Test cell id.
    pub test: String,
    /// Platform it ran on.
    pub platform: PlatformId,
    /// Whether the planner served the image from the build cache or store.
    pub planned_hit: bool,
    /// The run's result.
    pub result: RunResult,
}

/// A replayed campaign's runs and counts.
pub struct CampaignOutcome {
    /// Runs in plan order.
    pub runs: Vec<Run>,
    /// Distinct content keys (the campaign's `unique_builds`).
    pub unique: usize,
    /// Within-campaign build-cache hits.
    pub cache_hits: usize,
    /// Checker violations over every run.
    pub violations: usize,
    /// Tests whose platforms disagreed.
    pub divergent_tests: usize,
}

struct Job {
    env: usize,
    test: String,
    platform: PlatformId,
    sources: SourceSet,
    es_source: Rc<str>,
    derivative: Rc<Derivative>,
    fault: PlatformFault,
    key: u64,
    planned_hit: bool,
}

/// Replays one campaign. With `store`, images and prefix snapshots are
/// looked up in and kept by it, and from-reset runs fork from shared
/// prefixes where that is byte-identical (as with an attached
/// `ArtifactStore`); without, every distinct image builds once here.
///
/// # Errors
///
/// The first build error, rendered.
pub fn campaign(
    t: &mut Tracer,
    plan: &CampaignPlan<'_>,
    store: Option<&mut Store>,
) -> Result<CampaignOutcome, String> {
    let mut local = Store::default();
    let (jobs, cache_hits) = t.span("plan", |t| plan_jobs(t, plan, store.as_deref()))?;
    let forking = store.is_some() && plan.checkers.is_empty();
    let store = store.unwrap_or(&mut local);

    // Build phase: every distinct image the store lacks, in plan order.
    let mut images: HashMap<u64, Rc<Prebuilt>> = HashMap::new();
    for job in &jobs {
        if images.contains_key(&job.key) {
            continue;
        }
        let built = match store.images.get(&job.key) {
            Some(built) => Rc::clone(built),
            None => {
                let built = Rc::new(build(t, job, &mut store.es)?);
                store.images.insert(job.key, Rc::clone(&built));
                built
            }
        };
        images.insert(job.key, built);
    }

    // Execution phase.
    let mut runs = Vec::with_capacity(jobs.len());
    let mut violations = 0;
    for job in &jobs {
        let prebuilt = &images[&job.key];
        let result = if !plan.checkers.is_empty() {
            let (result, found) = execute_checked(t, job, prebuilt, plan.checkers);
            violations += found;
            result
        } else {
            let forked = if forking {
                fork(t, job, prebuilt, &mut store.prefixes)
            } else {
                None
            };
            forked.unwrap_or_else(|| execute_from_reset(t, job, prebuilt))
        };
        count_run(t, &result);
        runs.push(Run {
            env: plan.envs[job.env].name().to_owned(),
            test: job.test.clone(),
            platform: job.platform,
            planned_hit: job.planned_hit,
            result,
        });
    }

    // Report sealing: cross-platform comparison per test.
    let mut groups: Vec<((String, String), Vec<RunResult>)> = Vec::new();
    let mut group_of: HashMap<(String, String), usize> = HashMap::new();
    for run in &runs {
        let key = (run.env.clone(), run.test.clone());
        let index = *group_of.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[index].1.push(run.result.clone());
    }
    let mut divergent_tests = 0;
    for (_, results) in groups.iter().filter(|(_, r)| r.len() > 1) {
        let consistent = t.span("compare", |_| {
            compare(results).is_ok_and(|report| report.consistent)
        });
        t.add("compare.tests", 1.0);
        if !consistent {
            divergent_tests += 1;
            t.add("compare.divergences", 1.0);
        }
    }
    t.add("plan.jobs", jobs.len() as f64);
    t.add("plan.unique_images", (jobs.len() - cache_hits) as f64);
    t.add("check.violations", violations as f64);
    Ok(CampaignOutcome {
        runs,
        unique: jobs.len() - cache_hits,
        cache_hits,
        violations,
        divergent_tests,
    })
}

/// Plans the job list: per environment its ES ROM source and per-cell
/// fingerprints, then per platform the re-targeted abstraction layer,
/// each cell's unit sources and content key, and one store lookup per
/// distinct key.
fn plan_jobs(
    t: &mut Tracer,
    plan: &CampaignPlan<'_>,
    store: Option<&Store>,
) -> Result<(Vec<Job>, usize), String> {
    let mut jobs = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut cache_hits = 0;
    for (env_index, env) in plan.envs.iter().enumerate() {
        let es_source: Rc<str> = es_rom_source(env).into();
        let derivative = Rc::new(Derivative::from_id(env.config().derivative));
        let fingerprints = env
            .cells()
            .iter()
            .map(|cell| {
                unit_sources(env, cell.id())
                    .map(|sources| Fingerprint::new(&sources, &es_source))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        for &platform in plan.platforms {
            let mut ported = env.clone();
            ported.reconfigure(EnvConfig {
                platform,
                ..env.config()
            });
            let fault = match plan.fault {
                Some((p, f)) if p == platform => f,
                _ => PlatformFault::None,
            };
            for (cell_index, cell) in ported.cells().iter().enumerate() {
                let sources = unit_sources(&ported, cell.id()).map_err(|e| e.to_string())?;
                let key = fingerprints[cell_index].content_key(ported.globals_text());
                let planned_hit = if seen.insert(key) {
                    store.is_some_and(|store| {
                        let hit = store.images.contains_key(&key);
                        t.add(if hit { "store.hits" } else { "store.misses" }, 1.0);
                        hit
                    })
                } else {
                    cache_hits += 1;
                    true
                };
                jobs.push(Job {
                    env: env_index,
                    test: cell.id().to_owned(),
                    platform,
                    sources,
                    es_source: Rc::clone(&es_source),
                    derivative: Rc::clone(&derivative),
                    fault,
                    key,
                    planned_hit,
                });
            }
        }
    }
    Ok((jobs, cache_hits))
}

/// Preprocesses and assembles one source set, counting its front-end work.
pub fn assemble(t: &mut Tracer, entry: &str, sources: &SourceSet) -> Result<Program, String> {
    let bytes: usize = sources.iter().map(|(_, text)| text.len()).sum();
    let pre = t
        .span("asm.preprocess", |_| preprocess(entry, sources))
        .map_err(|e| e.to_string())?;
    t.add("asm.source_bytes", bytes as f64);
    t.add("asm.lines", pre.lines.len() as f64);
    let program = t
        .span("asm.assemble", |_| assemble_preprocessed(&pre))
        .map_err(|e| e.to_string())?;
    t.add("asm.words", (program.size_bytes() / 4) as f64);
    Ok(program)
}

/// The ES ROM program for a source, assembled once per store.
fn es_program(
    t: &mut Tracer,
    source: &str,
    cache: &mut HashMap<String, Rc<Program>>,
) -> Result<Rc<Program>, String> {
    if let Some(program) = cache.get(source) {
        return Ok(Rc::clone(program));
    }
    let sources = SourceSet::new().with("<input>", source);
    let program = Rc::new(assemble(t, "<input>", &sources)?);
    cache.insert(source.to_owned(), Rc::clone(&program));
    Ok(program)
}

/// Links a unit against its ES ROM.
pub fn link(t: &mut Tracer, unit: &Program, es: &Program) -> Result<Image, String> {
    let image = t
        .span("link", |_| link_programs(unit, es))
        .map_err(|e| e.to_string())?;
    t.add("link.image_bytes", image.len() as f64);
    Ok(image)
}

/// Assembles, links and predecodes one job's image.
fn build(
    t: &mut Tracer,
    job: &Job,
    es_cache: &mut HashMap<String, Rc<Program>>,
) -> Result<Prebuilt, String> {
    let unit = assemble(t, UNIT_FILE, &job.sources)?;
    let es = es_program(t, &job.es_source, es_cache)?;
    let image = link(t, &unit, &es)?;
    let decoded = t.span("predecode", |_| DecodedProgram::from_image(&image));
    t.add("predecode.slots", decoded.words() as f64);
    Ok(Prebuilt { image, decoded })
}

/// A fresh machine for one job, image and predecode artifact loaded.
fn machine(t: &mut Tracer, job: &Job, prebuilt: &Prebuilt, monitor: bool) -> Platform {
    t.add("machine.count", 1.0);
    t.span("machine", |_| {
        let mut platform = Platform::with_fault(job.platform, &job.derivative, job.fault);
        platform.set_fuel(DEFAULT_FUEL);
        if monitor {
            platform.enable_mmio_trace(DEFAULT_MONITOR_CAPACITY);
        }
        platform.set_superblocks(true);
        platform.load_prebuilt(&prebuilt.image, &prebuilt.decoded);
        platform
    })
}

fn execute_from_reset(t: &mut Tracer, job: &Job, prebuilt: &Prebuilt) -> RunResult {
    let mut platform = machine(t, job, prebuilt, false);
    t.span("exec", |_| platform.run())
}

/// A checked run: MMIO monitor armed, every checker evaluated on the
/// captured trace. Returns the result and the violations found.
fn execute_checked(
    t: &mut Tracer,
    job: &Job,
    prebuilt: &Prebuilt,
    checkers: &[TraceAssertion],
) -> (RunResult, usize) {
    let mut platform = machine(t, job, prebuilt, true);
    let result = t.span("exec", |_| platform.run());
    let trace = platform.mmio_trace().expect("the monitor was armed");
    let violations = t.span("check", |_| {
        checkers.iter().map(|c| c.check(trace).len()).sum::<usize>()
    });
    t.add("check.evaluations", checkers.len() as f64);
    (result, violations)
}

/// Runs one job from the shared fault-free prefix of its image, capturing
/// that prefix first if no job has; `None` when the prefix halted inside
/// its budget or forking would not be byte-identical to reset.
fn fork(
    t: &mut Tracer,
    job: &Job,
    prebuilt: &Prebuilt,
    prefixes: &mut HashMap<(u64, PlatformId), Option<Rc<PrefixEntry>>>,
) -> Option<RunResult> {
    let entry = prefixes
        .entry((job.key, job.platform))
        .or_insert_with(|| {
            t.span("fork", |_| capture_prefix(job, prebuilt))
                .map(Rc::new)
        })
        .clone()?;
    if !entry.safe_for(job.fault) {
        return None;
    }
    let mut platform = t.span("fork", |_| {
        let mut platform =
            Platform::from_snapshot(&entry.state, &job.derivative, job.fault).ok()?;
        platform.set_fuel(DEFAULT_FUEL);
        platform.set_superblocks(true);
        platform.bus().seed_decoded(&prebuilt.decoded);
        Some(platform)
    })?;
    let mut result = t.span("exec", |_| platform.run());
    let mut markers = entry.dbg_markers.clone();
    markers.append(&mut result.dbg_markers);
    result.dbg_markers = markers;
    t.add("fork.forked_runs", 1.0);
    t.add("fork.prefix_saved", entry.retired as f64);
    Some(result)
}

fn capture_prefix(job: &Job, prebuilt: &Prebuilt) -> Option<PrefixEntry> {
    let budget = DEFAULT_PREFIX_BUDGET.min(DEFAULT_FUEL);
    if budget == 0 {
        return None;
    }
    let derivative = &job.derivative;
    let mut prefix = Platform::new(job.platform, derivative);
    prefix.set_fuel(budget);
    prefix.set_superblocks(true);
    prefix.load_prebuilt(&prebuilt.image, &prebuilt.decoded);
    let result = prefix.run();
    (result.end == EndReason::OutOfFuel).then(|| PrefixEntry {
        fork_safe: PlatformFault::ALL
            .into_iter()
            .filter(|&f| prefix.fork_safe(f))
            .collect(),
        state: prefix.snapshot(),
        retired: result.insns,
        dbg_markers: result.dbg_markers,
    })
}

/// Adds one verdict-bearing run's execution counters.
fn count_run(t: &mut Tracer, result: &RunResult) {
    t.add("exec.runs", 1.0);
    t.add("exec.insns", result.insns as f64);
    t.add(
        "exec.block_dispatches",
        result.decode.block_dispatches as f64,
    );
    t.add("exec.block_insns", result.decode.block_insns as f64);
    t.add("exec.decode_hits", result.decode.hits as f64);
    t.add("exec.decode_misses", result.decode.misses as f64);
}

/// FNV-1a as the campaign's build cache seeds it (0 means the basis).
fn fnv(seed: u64, bytes: &[u8]) -> u64 {
    let basis = if seed == 0 {
        loopbench::FNV_BASIS
    } else {
        seed
    };
    loopbench::fnv1a(basis, bytes)
}

fn is_inert_line(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.is_empty() || trimmed.starts_with(';')
}

fn collect_tokens(line: &str, out: &mut HashSet<String>) {
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

/// The campaign's content key, restated: a hash of every non-comment
/// unit line except `Globals.inc`, plus the ES ROM, completed per
/// platform by the `Globals.inc` defines the unit references (directly
/// or through other live defines). Equal keys share one image.
struct Fingerprint {
    invariant_hash: u64,
    referenced: HashSet<String>,
}

impl Fingerprint {
    fn new(sources: &SourceSet, es_source: &str) -> Self {
        let mut referenced = HashSet::new();
        let mut hash = 0;
        for (name, text) in sources.iter() {
            if name == GLOBALS_FILE {
                continue;
            }
            hash = fnv(hash, name.as_bytes());
            for line in text.lines().filter(|l| !is_inert_line(l)) {
                collect_tokens(line, &mut referenced);
                hash = fnv(hash, line.as_bytes());
                hash = fnv(hash, b"\n");
            }
        }
        hash = fnv(hash, b"\x00es\x00");
        for line in es_source.lines().filter(|l| !is_inert_line(l)) {
            hash = fnv(hash, line.as_bytes());
            hash = fnv(hash, b"\n");
        }
        Self {
            invariant_hash: hash,
            referenced,
        }
    }

    fn content_key(&self, globals_text: &str) -> u64 {
        let defines: Vec<(&str, &str)> = globals_text
            .lines()
            .filter(|l| !is_inert_line(l))
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
        let mut extra: HashSet<String> = HashSet::new();
        let mut changed = true;
        while changed {
            changed = false;
            for (i, (name, line)) in defines.iter().enumerate() {
                if !live[i] && (self.referenced.contains(*name) || extra.contains(*name)) {
                    live[i] = true;
                    collect_tokens(line, &mut extra);
                    changed = true;
                }
            }
        }
        let mut hash = self.invariant_hash;
        for (i, (_, line)) in defines.iter().enumerate() {
            if live[i] {
                hash = fnv(hash, line.as_bytes());
                hash = fnv(hash, b"\n");
            }
        }
        hash
    }
}
