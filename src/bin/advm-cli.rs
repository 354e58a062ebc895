//! `advm-cli` — drive the ADVM methodology from the command line.
//!
//! ```text
//! advm-cli scaffold <dir> [--tests N] [--derivative D] [--platform P]
//! advm-cli validate <dir> <env-name>
//! advm-cli check <dir> <env-name>              # abstraction-layer violations
//! advm-cli run <dir> <env-name> <test-id>
//! advm-cli regress <dir> <env-name> [--platform P | --all-platforms]
//!                  [--workers N] [--fuel N] [--json]
//! advm-cli explore [--rounds N] [--seed S] [--batch N] [--workers N]
//!                  [--derivative D] [--all-platforms] [--json]
//! advm-cli audit [--platforms P1,P2 | --all-platforms] [--workers N]
//!                [--scenarios N] [--seed S] [--fuel N] [--json]
//! advm-cli fuzz [--programs N] [--seed S] [--mine] [--workers N]
//!               [--fuel N] [--platforms P1,P2 | --all-platforms] [--json]
//! advm-cli port <dir> <env-name> --derivative D [--platform P]
//! advm-cli asm <file.asm>                      # assemble + listing
//! advm-cli serve --socket <path> [--workers N] [--cache N]
//! advm-cli submit --socket <path> [--watch] regress|audit|explore|fuzz [...]
//! advm-cli watch --socket <path> <job>
//! advm-cli status --socket <path>
//! advm-cli list --socket <path>
//! advm-cli cancel --socket <path> <job>
//! advm-cli shutdown --socket <path>
//! ```
//!
//! Environments on disk use exactly the paper's Figure 3 layout; `port`
//! rewrites only the abstraction layer and prints the change-set.
//!
//! `regress`, `audit`, `explore` and `fuzz` share one flag surface and
//! one runner with the daemon: their arguments parse into a
//! [`JobSpec`], which runs in process through [`JobSpec::run`], and
//! `submit` sends the same spec, parsed by the same code, to a daemon
//! whose workers run it through the same function. A flag the job kind
//! does not take is a usage error naming it; besides the kind's own
//! flags, the local commands take `--json` and `submit` takes `--socket`
//! and `--watch`. `serve` is the
//! server: it starts the resident daemon on a Unix-domain socket, and
//! `watch` streams a job's NDJSON events to stdout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use advm::campaign::{ObserverFactory, ProgressObserver};
use advm::env::{EnvConfig, ModuleTestEnv};
use advm::fsio::{read_tree, write_tree};
use advm::porting::port_env;
use advm_serve::{JobReport, JobSpec};
use advm_soc::{DerivativeId, PlatformId};

/// One CLI failure: what went wrong, which token caused it (when a
/// specific one did), and whether the usage text helps.
///
/// Every error path funnels through here — unknown subcommands, missing
/// positionals and malformed flags used to format their own messages
/// three different ways (usage inline, usage missing, token missing).
#[derive(Debug, Clone, PartialEq, Eq)]
struct CliError {
    message: String,
    /// The offending argument, verbatim, when one token is to blame.
    token: Option<String>,
    /// Parse-level mistakes print the usage text; runtime failures
    /// (I/O, failing tests) don't.
    show_usage: bool,
}

impl CliError {
    /// A parse-level error blamed on one specific token.
    fn bad_token(what: &str, token: &str) -> Self {
        Self {
            message: format!("{what} `{token}`"),
            token: Some(token.to_owned()),
            show_usage: true,
        }
    }

    /// A parse-level error with no single token to blame.
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            token: None,
            show_usage: true,
        }
    }
}

/// Runtime failures carry a plain message and skip the usage text.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self {
            message,
            token: None,
            show_usage: false,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("advm-cli: {error}");
            if error.show_usage {
                eprint!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("scaffold") => scaffold(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("regress" | "audit" | "explore" | "fuzz") => run_job(args),
        Some("port") => port(&args[1..]),
        Some("asm") => asm(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("watch") => watch(&args[1..]),
        Some("status") => status(&args[1..]),
        Some("list") => list(&args[1..]),
        Some("cancel") => cancel(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        Some("help") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(CliError::bad_token("unknown command", other)),
    }
}

fn usage() -> &'static str {
    "\
usage:
  advm-cli scaffold <dir> [--tests N] [--derivative D] [--platform P]
  advm-cli validate <dir> <env-name>
  advm-cli check <dir> <env-name>
  advm-cli run <dir> <env-name> <test-id>
  advm-cli regress <dir> <env-name> [--platform P | --all-platforms]
                   [--workers N] [--fuel N] [--json]
  advm-cli explore [--rounds N] [--seed S] [--batch N] [--workers N]
                   [--derivative D] [--all-platforms] [--json]
  advm-cli audit [--platforms P1,P2 | --all-platforms] [--workers N]
                 [--scenarios N] [--seed S] [--fuel N] [--json]
  advm-cli fuzz [--programs N] [--seed S] [--mine] [--workers N]
                [--fuel N] [--platforms P1,P2 | --all-platforms] [--json]
  advm-cli port <dir> <env-name> --derivative D [--platform P]
  advm-cli asm <file.asm>
  advm-cli serve --socket <path> [--workers N] [--cache N]
  advm-cli submit --socket <path> [--watch] regress|audit|explore|fuzz [...]
  advm-cli watch --socket <path> <job>
  advm-cli status --socket <path>
  advm-cli list --socket <path>
  advm-cli cancel --socket <path> <job>
  advm-cli shutdown --socket <path>

explore runs closed-loop coverage-directed stimulus: round 1 draws
constrained-random Globals.inc scenarios, every later round biases its
draws toward the coverage holes the previous campaigns measured, and
each round prints its page/register coverage delta.

audit mutation-tests the testbench itself: every catalog fault is
injected into each audited platform (default: rtl), the seed suite runs
against the golden model, and each (fault, platform) cell is classified
detected / masked / broken. Escapes feed one coverage-directed scenario
round (--scenarios controls the batch) aimed at killing the survivors;
the final matrix, per-test kill counts and kill rate are printed.

fuzz generates constrained-random guest programs (deterministic per
seed, independent of worker count) and runs them differentially across
the target platforms (default: all six). With --mine, every program
first runs fault-free with the MMIO monitor armed, trace assertions are
mined from the captured traces, and the verification campaign re-checks
them on every run — catching faults the differential verdict cannot see.

serve is the verification server: it starts the resident daemon on a
Unix-domain socket, and submit/watch/status/list/cancel/shutdown talk
to it. submit takes the arguments of regress, audit, explore or fuzz
and runs the same job on the daemon, with the same report; a flag the
job does not take is an error, not ignored. The daemon
keeps built images, predecoded programs and prefix snapshots warm
across jobs, so a resubmitted suite skips its builds (see the
`artifact_hits` perf counter in job reports and the `artifacts` block
of `status`).

derivatives: SC88-A SC88-B SC88-C SC88-D
platforms:   golden rtl gate accel bondout silicon
"
}

fn parse_derivative(text: &str) -> Result<DerivativeId, CliError> {
    DerivativeId::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(text))
        .ok_or_else(|| CliError::bad_token("unknown derivative", text))
}

fn parse_platform(text: &str) -> Result<PlatformId, CliError> {
    PlatformId::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(text))
        .ok_or_else(|| CliError::bad_token("unknown platform", text))
}

/// Pulls `--flag value` pairs out of an argument list.
///
/// A value may not itself look like a flag: `--workers --json` is a
/// missing `--workers` value, not a request for `"--json"` workers —
/// silently swallowing the next flag used to turn one typo into two
/// bugs. A trailing valued flag with nothing after it errors the same
/// way.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        Some(value) if !value.starts_with("--") => Ok(Some(value)),
        Some(_) | None => Err(CliError {
            message: format!("flag {flag} requires a value"),
            token: Some(flag.to_owned()),
            show_usage: true,
        }),
    }
}

fn positional(args: &[String], index: usize, what: &str) -> Result<String, CliError> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| !a.starts_with("--"))
        .filter(|(i, _)| {
            // Skip values consumed by a preceding value-taking flag. The
            // real index matters: matching by value would misclassify a
            // repeated argument (e.g. `run envs PAGE PAGE`) because every
            // occurrence would resolve to the first one's position.
            *i == 0
                || !args[*i - 1].starts_with("--")
                || FLAGS_WITHOUT_VALUE.contains(&args[*i - 1].as_str())
        })
        .map(|(_, a)| a)
        .nth(index)
        .cloned()
        .ok_or_else(|| CliError::usage(format!("missing {what}")))
}

/// Flags that take no value; a positional may directly follow them.
const FLAGS_WITHOUT_VALUE: [&str; 4] = ["--all-platforms", "--json", "--watch", "--mine"];

fn load_env(dir: &str, name: &str) -> Result<ModuleTestEnv, String> {
    let tree = read_tree(Path::new(dir)).map_err(|e| format!("reading `{dir}`: {e}"))?;
    ModuleTestEnv::from_tree(name, &tree)
        .map_err(|e| format!("environment `{name}` in `{dir}`: {e}"))
}

fn scaffold(args: &[String]) -> Result<(), CliError> {
    let dir = positional(args, 0, "target directory")?;
    let tests: usize = int_flag(args, "--tests")?.unwrap_or(3);
    let derivative = flag_value(args, "--derivative")?
        .map(parse_derivative)
        .transpose()?
        .unwrap_or(DerivativeId::Sc88A);
    let platform = flag_value(args, "--platform")?
        .map(parse_platform)
        .transpose()?
        .unwrap_or(PlatformId::GoldenModel);

    let env = advm::presets::page_env(EnvConfig::new(derivative, platform), tests);
    write_tree(Path::new(&dir), &env.tree()).map_err(|e| format!("writing `{dir}`: {e}"))?;
    println!(
        "scaffolded {} ({} tests, {} on {}) under {dir}",
        env.name(),
        tests,
        derivative.name(),
        platform
    );
    Ok(())
}

fn validate(args: &[String]) -> Result<(), CliError> {
    let dir = positional(args, 0, "directory")?;
    let name = positional(args, 1, "environment name")?;
    let tree = read_tree(Path::new(&dir)).map_err(|e| format!("reading `{dir}`: {e}"))?;
    let scoped: BTreeMap<String, String> = tree
        .into_iter()
        .filter(|(p, _)| p.starts_with(&format!("{name}/")))
        .collect();
    let issues = advm::validate_layout(&name, &scoped);
    if issues.is_empty() {
        println!("{name}: layout OK ({} files)", scoped.len());
        Ok(())
    } else {
        for issue in &issues {
            println!("{name}: {issue}");
        }
        Err(format!("{} layout issue(s)", issues.len()).into())
    }
}

fn check(args: &[String]) -> Result<(), CliError> {
    let dir = positional(args, 0, "directory")?;
    let name = positional(args, 1, "environment name")?;
    let env = load_env(&dir, &name)?;
    let violations = advm::check_env(&env);
    if violations.is_empty() {
        println!("{name}: no abstraction-layer violations");
        Ok(())
    } else {
        for v in &violations {
            println!("{v}");
        }
        Err(format!("{} violation(s)", violations.len()).into())
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let dir = positional(args, 0, "directory")?;
    let name = positional(args, 1, "environment name")?;
    let test_id = positional(args, 2, "test id")?;
    let env = load_env(&dir, &name)?;
    let result = advm::run_cell(&env, &test_id).map_err(|e| e.to_string())?;
    println!("{result}");
    if result.passed() {
        Ok(())
    } else {
        Err("test failed".to_owned().into())
    }
}

/// Runs `regress`, `audit`, `explore` or `fuzz` in process: the
/// arguments parse into the [`JobSpec`] `submit` would send, and
/// [`JobSpec::run`] runs it as a daemon worker does, without a store.
fn run_job(args: &[String]) -> Result<(), CliError> {
    let spec = job_spec(args, &LOCAL_FLAGS)?;
    let json = args.iter().any(|a| a == "--json");
    // Live progress streams to stderr; verdicts stay on stdout.
    let progress: Option<ObserverFactory> = match spec {
        JobSpec::Regress { .. } | JobSpec::Fuzz { .. } if !json => {
            Some(Arc::new(|| Box::new(ProgressObserver::new())))
        }
        _ => None,
    };
    let report = spec.run(None, progress)?;
    if json {
        println!("{}", report.to_json());
    } else {
        print_summary(&report);
    }
    if report.ok() {
        Ok(())
    } else {
        Err(failure(&report).into())
    }
}

/// Prints a finished run's human-readable summary.
fn print_summary(report: &JobReport) {
    match report {
        JobReport::Regress(report) => {
            println!("{}", report.matrix());
            println!(
                "{}/{} passed ({} cache hits, {} builds)",
                report.passed(),
                report.total(),
                report.cache_hits(),
                report.unique_builds()
            );
            println!("{}", perf_line(report.perf()));
            for (test, divergence) in report.divergences() {
                println!("divergence in {test}:\n{divergence}");
            }
        }
        JobReport::Audit(report) => {
            println!("{}", report.matrix());
            let killed = report
                .faults()
                .iter()
                .filter(|&&f| report.killed(f))
                .count();
            println!(
                "kill rate: {killed}/{} faults ({:.1}%) across {} platform(s), {} suite tests, {} generated scenarios",
                report.faults().len(),
                100.0 * report.kill_rate(),
                report.platforms().len(),
                report.suite_tests(),
                report.scenarios_generated(),
            );
            println!("{}", perf_line(report.perf()));
            for cell in report.escapes() {
                println!("ESCAPE: {} on {}", cell.fault, cell.platform);
            }
            println!("strongest killers:");
            for (test, kills) in report.kill_counts().iter().take(5) {
                println!("  {kills:>3}  {test}");
            }
        }
        JobReport::Explore(report) => {
            println!("{report}");
            let last = report.rounds().last().expect("at least one round");
            println!(
                "final: {}/{} pages ({:.1}%), {:.1}% registers after {} rounds",
                last.pages_hit,
                report.page_space(),
                100.0 * last.page_coverage,
                100.0 * last.register_coverage,
                report.rounds().len(),
            );
        }
        JobReport::Fuzz(report) => {
            println!("{}", report.campaign().matrix());
            println!(
                "{} program(s) from seed {}, {} mined checker(s), {} violation(s)",
                report.programs(),
                report.seed(),
                report.mined().len(),
                report.violations().len(),
            );
            for checker in report.mined() {
                println!("  armed {}", checker.name());
            }
            let perf = report.campaign().perf();
            println!(
                "{}, mining {:.1}ms",
                perf_line(perf),
                perf.mine_wall.as_secs_f64() * 1e3
            );
            for v in report.violations() {
                println!(
                    "VIOLATION: {}/{} @ {} {}: {}",
                    v.env, v.test_id, v.platform, v.checker, v.detail
                );
            }
        }
    }
}

/// The error a run whose verdict is not ok exits with.
fn failure(report: &JobReport) -> String {
    match report {
        JobReport::Regress(report) => format!("{} failure(s)", report.failed()),
        JobReport::Audit(report) => format!("{} broken audit cell(s)", report.broken()),
        JobReport::Explore(report) => format!("{} failing run(s)", report.failed()),
        JobReport::Fuzz(report) => format!(
            "{} failure(s), {} divergence(s), {} checker violation(s)",
            report.campaign().failed(),
            report.campaign().divergences().len(),
            report.violations().len(),
        ),
    }
}

/// Renders one human-readable execution-perf line.
fn perf_line(perf: &advm::campaign::CampaignPerf) -> String {
    format!(
        "perf: {} insns in {:.1}ms ({:.2}M steps/s, decode hit rate {:.1}%)",
        perf.instructions,
        perf.wall.as_secs_f64() * 1e3,
        perf.steps_per_sec() / 1e6,
        100.0 * perf.decode_hit_rate(),
    )
}

/// Parses an integer-valued flag, reporting the offending value.
fn int_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::bad_token(&format!("bad {flag} value"), v))
        })
        .transpose()
}

fn port(args: &[String]) -> Result<(), CliError> {
    let dir = positional(args, 0, "directory")?;
    let name = positional(args, 1, "environment name")?;
    let env = load_env(&dir, &name)?;
    let derivative = flag_value(args, "--derivative")?
        .map(parse_derivative)
        .transpose()?
        .unwrap_or(env.config().derivative);
    let platform = flag_value(args, "--platform")?
        .map(parse_platform)
        .transpose()?
        .unwrap_or(env.config().platform);

    let outcome = port_env(&env, EnvConfig::new(derivative, platform));
    write_tree(Path::new(&dir), &outcome.env.tree())
        .map_err(|e| format!("writing `{dir}`: {e}"))?;
    println!(
        "ported {name} to {} on {platform}:\n{}",
        derivative.name(),
        outcome.changes
    );
    println!(
        "test files touched: {}",
        advm::porting::test_files_touched(&outcome.changes)
    );
    Ok(())
}

fn asm(args: &[String]) -> Result<(), CliError> {
    let file = positional(args, 0, "assembler source file")?;
    let path = PathBuf::from(&file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading `{file}`: {e}"))?;
    let program = advm_asm::assemble_str(&text).map_err(|e| e.to_string())?;
    print!("{}", program.render_listing());
    println!("; {} bytes emitted", program.size_bytes());
    Ok(())
}

// ---------------------------------------------------------------------------
// Daemon subcommands (`serve` plus its clients).
// ---------------------------------------------------------------------------

/// The daemon socket path every `serve`-family subcommand requires.
fn socket_path(args: &[String]) -> Result<PathBuf, CliError> {
    flag_value(args, "--socket")?
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage("missing required flag --socket"))
}

/// The flags a local `regress`/`audit`/`explore`/`fuzz` run takes
/// besides its job kind's own.
const LOCAL_FLAGS: [&str; 1] = ["--json"];

/// The flags `submit` takes besides its job kind's own.
const SUBMIT_FLAGS: [&str; 2] = ["--socket", "--watch"];

/// Builds the [`JobSpec`] an argument list describes: its first
/// positional is the job kind, the rest are that command's arguments.
/// `regress`/`audit`/`explore`/`fuzz` and `submit` share this one flag
/// surface. A flag that is neither the kind's own nor one of the
/// caller's `extra` flags is a usage error naming it: ignoring it would
/// run a job other than the one asked for.
fn job_spec(args: &[String], extra: &[&str]) -> Result<JobSpec, CliError> {
    let all_platforms = args.iter().any(|a| a == "--all-platforms");
    let kind = positional(args, 0, "job kind (regress|audit|explore|fuzz)")?;
    let spec = match kind.as_str() {
        "regress" => JobSpec::Regress {
            dir: positional(args, 1, "directory")?,
            env: positional(args, 2, "environment name")?,
            platforms: flag_value(args, "--platform")?
                .map(parse_platform)
                .transpose()?
                .into_iter()
                .collect(),
            all_platforms,
            workers: int_flag(args, "--workers")?,
            fuel: int_flag(args, "--fuel")?,
        },
        "audit" => JobSpec::Audit {
            platforms: flag_value(args, "--platforms")?
                .map(|list| list.split(',').map(parse_platform).collect())
                .transpose()?
                .unwrap_or_default(),
            all_platforms,
            scenarios: int_flag(args, "--scenarios")?,
            seed: int_flag(args, "--seed")?,
            workers: int_flag(args, "--workers")?,
            fuel: int_flag(args, "--fuel")?,
        },
        "explore" => JobSpec::Explore {
            rounds: int_flag(args, "--rounds")?,
            seed: int_flag(args, "--seed")?,
            batch: int_flag(args, "--batch")?,
            workers: int_flag(args, "--workers")?,
            derivative: flag_value(args, "--derivative")?
                .map(parse_derivative)
                .transpose()?,
            all_platforms,
        },
        "fuzz" => JobSpec::Fuzz {
            programs: int_flag(args, "--programs")?,
            seed: int_flag(args, "--seed")?,
            mine: args.iter().any(|a| a == "--mine"),
            platforms: flag_value(args, "--platforms")?
                .map(|list| list.split(',').map(parse_platform).collect())
                .transpose()?
                .unwrap_or_default(),
            all_platforms,
            workers: int_flag(args, "--workers")?,
            fuel: int_flag(args, "--fuel")?,
        },
        other => return Err(CliError::bad_token("unknown job kind", other)),
    };
    // The flags read above, per kind.
    let read: &[&str] = match spec {
        JobSpec::Regress { .. } => &["--platform", "--all-platforms", "--workers", "--fuel"],
        JobSpec::Audit { .. } => &[
            "--platforms",
            "--all-platforms",
            "--scenarios",
            "--seed",
            "--workers",
            "--fuel",
        ],
        JobSpec::Explore { .. } => &[
            "--rounds",
            "--seed",
            "--batch",
            "--workers",
            "--derivative",
            "--all-platforms",
        ],
        JobSpec::Fuzz { .. } => &[
            "--programs",
            "--seed",
            "--mine",
            "--platforms",
            "--all-platforms",
            "--workers",
            "--fuel",
        ],
    };
    match args
        .iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !read.contains(a) && !extra.contains(a))
    {
        Some(unknown) => Err(CliError::bad_token(
            &format!("unknown {kind} flag"),
            unknown,
        )),
        None => Ok(spec),
    }
}

#[cfg(unix)]
fn connect(args: &[String]) -> Result<advm_serve::Client, CliError> {
    let path = socket_path(args)?;
    advm_serve::Client::connect(&path)
        .map_err(|e| format!("connecting to `{}`: {e}", path.display()).into())
}

/// Streams one job to completion on stdout; the exit status follows the
/// job's own verdict.
#[cfg(unix)]
fn watch_job(client: &mut advm_serve::Client, job: u64) -> Result<(), CliError> {
    let done = client
        .watch(job, |line| println!("{line}"))
        .map_err(|e| format!("watching job {job}: {e}"))?;
    println!("{done}");
    let ok = advm::wire::JsonValue::parse(&done)
        .ok()
        .and_then(|v| v.bool_field("ok").ok())
        .unwrap_or(false);
    if ok {
        Ok(())
    } else {
        Err(format!("job {job} did not succeed").into())
    }
}

#[cfg(unix)]
fn serve(args: &[String]) -> Result<(), CliError> {
    use advm_serve::daemon::{Daemon, DaemonConfig};

    let path = socket_path(args)?;
    let mut config = DaemonConfig::default();
    if let Some(workers) = int_flag(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(cache) = int_flag(args, "--cache")? {
        config.cache_capacity = cache;
    }
    let server = advm_serve::Server::bind(Daemon::start(config), &path)
        .map_err(|e| format!("binding `{}`: {e}", path.display()))?;
    eprintln!("advm-cli: serving on {}", path.display());
    server
        .run()
        .map_err(|e| format!("serving `{}`: {e}", path.display()).into())
}

#[cfg(unix)]
fn submit(args: &[String]) -> Result<(), CliError> {
    let mut spec = job_spec(args, &SUBMIT_FLAGS)?;
    // The daemon resolves the path from its own working directory;
    // submit an absolute one when the tree exists locally so both sides
    // mean the same files.
    if let JobSpec::Regress { dir, .. } = &mut spec {
        if let Ok(path) = std::fs::canonicalize(&*dir) {
            *dir = path.display().to_string();
        }
    }
    let mut client = connect(args)?;
    let job = client
        .submit(spec)
        .map_err(|e| format!("submitting: {e}"))?;
    println!("{{\"ok\":true,\"job\":{job}}}");
    if args.iter().any(|a| a == "--watch") {
        watch_job(&mut client, job)?;
    }
    Ok(())
}

#[cfg(unix)]
fn watch(args: &[String]) -> Result<(), CliError> {
    let job = positional(args, 0, "job id")?;
    let job: u64 = job
        .parse()
        .map_err(|_| CliError::bad_token("bad job id", &job))?;
    watch_job(&mut connect(args)?, job)
}

#[cfg(unix)]
fn status(args: &[String]) -> Result<(), CliError> {
    let line = connect(args)?
        .status()
        .map_err(|e| format!("status: {e}"))?;
    println!("{line}");
    Ok(())
}

#[cfg(unix)]
fn list(args: &[String]) -> Result<(), CliError> {
    let line = connect(args)?.list().map_err(|e| format!("list: {e}"))?;
    println!("{line}");
    Ok(())
}

#[cfg(unix)]
fn cancel(args: &[String]) -> Result<(), CliError> {
    let job = positional(args, 0, "job id")?;
    let job: u64 = job
        .parse()
        .map_err(|_| CliError::bad_token("bad job id", &job))?;
    let line = connect(args)?
        .cancel(job)
        .map_err(|e| format!("cancelling job {job}: {e}"))?;
    println!("{line}");
    Ok(())
}

#[cfg(unix)]
fn shutdown(args: &[String]) -> Result<(), CliError> {
    let line = connect(args)?
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    println!("{line}");
    Ok(())
}

#[cfg(not(unix))]
fn unsupported() -> Result<(), CliError> {
    Err(
        "daemon subcommands need Unix-domain sockets on this platform"
            .to_owned()
            .into(),
    )
}

#[cfg(not(unix))]
fn serve(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn submit(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn watch(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn status(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn list(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn cancel(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(not(unix))]
fn shutdown(_args: &[String]) -> Result<(), CliError> {
    unsupported()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn positional_skips_flag_values() {
        let a = args(&["dir", "--platform", "rtl", "NAME"]);
        assert_eq!(positional(&a, 0, "dir").unwrap(), "dir");
        assert_eq!(positional(&a, 1, "name").unwrap(), "NAME");
        assert!(positional(&a, 2, "extra").is_err());
    }

    #[test]
    fn positional_handles_repeated_values() {
        // A positional equal to a flag's value used to be misclassified:
        // the old index lookup matched the first occurrence ("rtl" at
        // index 2, consumed by --platform) and dropped the real one.
        let a = args(&["dir", "--platform", "rtl", "rtl"]);
        assert_eq!(positional(&a, 1, "name").unwrap(), "rtl");
        let b = args(&["envs", "PAGE", "PAGE"]);
        assert_eq!(positional(&b, 1, "name").unwrap(), "PAGE");
        assert_eq!(positional(&b, 2, "test").unwrap(), "PAGE");
    }

    #[test]
    fn positional_counts_after_boolean_flags() {
        let a = args(&["--all-platforms", "dir", "NAME"]);
        assert_eq!(positional(&a, 0, "dir").unwrap(), "dir");
        assert_eq!(positional(&a, 1, "name").unwrap(), "NAME");
    }

    #[test]
    fn flag_value_extracts_its_value() {
        let a = args(&["dir", "--workers", "4", "--json"]);
        assert_eq!(flag_value(&a, "--workers"), Ok(Some("4")));
        assert_eq!(flag_value(&a, "--fuel"), Ok(None));
    }

    #[test]
    fn flag_value_rejects_a_flag_as_value() {
        // `--workers --json` used to silently take "--json" as the
        // worker count (and then fail the parse with a baffling
        // message) — and eat the --json flag in the process.
        let a = args(&["dir", "--workers", "--json"]);
        let err = flag_value(&a, "--workers").unwrap_err();
        assert!(err.message.contains("--workers requires a value"), "{err}");
        assert!(int_flag::<usize>(&a, "--workers").is_err());
    }

    #[test]
    fn trailing_valued_flag_is_a_proper_error() {
        let a = args(&["dir", "NAME", "--platform"]);
        let err = flag_value(&a, "--platform").unwrap_err();
        assert!(err.message.contains("--platform requires a value"), "{err}");
    }

    #[test]
    fn unknown_command_names_the_token_and_shows_usage() {
        let err = dispatch(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.token.as_deref(), Some("frobnicate"));
        assert!(err.show_usage);
        assert!(err.message.contains("`frobnicate`"), "{err}");
    }

    #[test]
    fn missing_positional_shows_usage_without_a_token() {
        let err = dispatch(&args(&["run"])).unwrap_err();
        assert!(err.show_usage);
        assert_eq!(err.token, None);
        assert!(err.message.contains("missing directory"), "{err}");
    }

    #[test]
    fn malformed_flag_names_the_offending_value() {
        let a = args(&["--workers", "many"]);
        let err = int_flag::<usize>(&a, "--workers").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("many"));
        assert!(err.show_usage);
        assert!(err.message.contains("bad --workers value `many`"), "{err}");
    }

    #[test]
    fn unknown_platform_is_a_token_error() {
        let err = parse_platform("vax").unwrap_err();
        assert_eq!(err.token.as_deref(), Some("vax"));
        assert!(err.show_usage);
    }

    #[test]
    fn runtime_errors_skip_the_usage_text() {
        let err = CliError::from("campaign exploded".to_owned());
        assert!(!err.show_usage);
        assert_eq!(err.token, None);
    }

    #[test]
    fn daemon_subcommands_require_a_socket() {
        let err = socket_path(&args(&["regress", "envs", "PAGE"])).unwrap_err();
        assert!(err.show_usage);
        assert!(err.message.contains("--socket"), "{err}");
    }

    #[test]
    fn submit_spec_mirrors_the_regress_flag_surface() {
        // The dir stays as given: only `submit` canonicalizes it.
        let a = args(&[
            "regress",
            "no-such-envs",
            "PAGE",
            "--platform",
            "rtl",
            "--workers",
            "2",
            "--socket",
            "/tmp/advm.sock",
        ]);
        let spec = job_spec(&a, &SUBMIT_FLAGS).unwrap();
        assert_eq!(
            spec,
            JobSpec::Regress {
                dir: "no-such-envs".into(),
                env: "PAGE".into(),
                platforms: vec![PlatformId::RtlSim],
                all_platforms: false,
                workers: Some(2),
                fuel: None,
            }
        );
    }

    #[test]
    fn submit_spec_mirrors_the_fuzz_flag_surface() {
        let a = args(&[
            "fuzz",
            "--programs",
            "8",
            "--seed",
            "11",
            "--mine",
            "--platforms",
            "golden,rtl",
            "--workers",
            "2",
            "--socket",
            "/tmp/advm.sock",
        ]);
        assert_eq!(
            job_spec(&a, &SUBMIT_FLAGS).unwrap(),
            JobSpec::Fuzz {
                programs: Some(8),
                seed: Some(11),
                mine: true,
                platforms: vec![PlatformId::GoldenModel, PlatformId::RtlSim],
                all_platforms: false,
                workers: Some(2),
                fuel: None,
            }
        );
    }

    #[test]
    fn submit_spec_rejects_unknown_kinds() {
        let err = job_spec(&args(&["deploy"]), &LOCAL_FLAGS).unwrap_err();
        assert_eq!(err.token.as_deref(), Some("deploy"));
        assert!(err.show_usage);
    }

    #[test]
    fn submit_spec_builds_audit_and_explore_jobs() {
        // The local command's arguments and `submit`'s give one spec.
        let local = job_spec(
            &args(&["audit", "--platforms", "rtl,gate", "--seed", "9", "--json"]),
            &LOCAL_FLAGS,
        );
        let submitted = job_spec(
            &args(&[
                "--socket",
                "/tmp/advm.sock",
                "--watch",
                "audit",
                "--platforms",
                "rtl,gate",
                "--seed",
                "9",
            ]),
            &SUBMIT_FLAGS,
        );
        assert_eq!(local, submitted);
        assert_eq!(
            local.unwrap(),
            JobSpec::Audit {
                platforms: vec![PlatformId::RtlSim, PlatformId::GateSim],
                all_platforms: false,
                scenarios: None,
                seed: Some(9),
                workers: None,
                fuel: None,
            }
        );
        let explore = job_spec(
            &args(&["explore", "--rounds", "2", "--all-platforms"]),
            &LOCAL_FLAGS,
        );
        assert_eq!(
            explore.unwrap(),
            JobSpec::Explore {
                rounds: Some(2),
                seed: None,
                batch: None,
                workers: None,
                derivative: None,
                all_platforms: true,
            }
        );
    }

    /// The usage error an argument list gets, which must name `token`.
    fn rejects_flag(list: &[&str], token: &str) {
        let err = dispatch(&args(list)).unwrap_err();
        assert_eq!(err.token.as_deref(), Some(token), "{err}");
        assert!(err.show_usage, "{err}");
        assert!(err.message.contains(&format!("`{token}`")), "{err}");
    }

    #[test]
    fn a_flag_of_another_kind_is_a_usage_error() {
        // `--platforms` is audit's and fuzz's; regress takes `--platform`.
        // It used to run on the environment's own platform and pass.
        rejects_flag(
            &[
                "regress",
                "no-such-envs",
                "PAGE",
                "--platforms",
                "gate",
                "--json",
            ],
            "--platforms",
        );
        // explore has no fuel budget; a 5-instruction one used to be
        // ignored and every run passed.
        rejects_flag(
            &["explore", "--rounds", "1", "--batch", "1", "--fuel", "5"],
            "--fuel",
        );
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error_locally_and_on_submit() {
        rejects_flag(
            &["regress", "no-such-envs", "PAGE", "--bogus-flag"],
            "--bogus-flag",
        );
        // `submit` parses before it connects.
        rejects_flag(
            &[
                "submit",
                "--socket",
                "/nonexistent/advm.sock",
                "regress",
                "no-such-envs",
                "PAGE",
                "--bogus-flag",
            ],
            "--bogus-flag",
        );
        // `--json` is a local flag, `--socket` and `--watch` are submit's.
        rejects_flag(
            &[
                "submit",
                "--socket",
                "/nonexistent/advm.sock",
                "fuzz",
                "--json",
            ],
            "--json",
        );
        rejects_flag(&["fuzz", "--programs", "2", "--watch"], "--watch");
    }
}
