//! Shared harness of the ADVM loop benchmark: command line, result line,
//! known-answer tally, exact-counter book, host provenance, and the three
//! workloads' operations (see [`workloads`]).
//!
//! Two binaries sit on top: `loopbench` measures the end-to-end metrics
//! with tracing off, `loopbench-ledger` replays the same seeded inputs
//! through each layer's public functions and prints the per-layer
//! ledger. `run.py` builds whichever one a run needs and starts it.

pub mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Set-ups made per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// The default workload seed, and the held-out seed no tuning used.
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7919;

/// Where runs keep their state (counter book, result log, spans, work
/// directories), relative to the repository root.
pub const STATE_DIR: &str = ".loopbench";

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated `advm::Fuzz` operations with mining, every image new.
    ColdFuzz,
    /// A closed loop of regress jobs against a resident, warm daemon.
    WarmDaemon,
    /// Repeated all-platform fault audits, each on a fresh store.
    AuditMatrix,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdFuzz,
        Workload::WarmDaemon,
        Workload::AuditMatrix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFuzz => "cold_fuzz",
            Workload::WarmDaemon => "warm_daemon",
            Workload::AuditMatrix => "audit_matrix",
        }
    }
}

/// A parsed command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input is generated from.
    pub seed: u64,
    /// How long the measured loop runs (at least one operation).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let key = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => flag,
                other => return Err(format!("unknown argument `{other}`")),
            };
            let value = args.next().ok_or(format!("`{key}` needs a value"))?;
            values.insert(key, value);
        }
        let get = |key: &str| values.get(key).ok_or(format!("missing `{key}`"));
        let name = get("--workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or(format!("unknown workload `{name}`"))?;
        let seed = get("--seed")?
            .parse()
            .map_err(|_| "`--seed` must be a whole number".to_owned())?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|_| "`--seconds` must be a number".to_owned())?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("`--seconds` must lie in (0, 600]".to_owned());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace` must be 0 or 1, not `{other}`")),
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// The repository root (the parent of this package), where every run
/// reads sources and keeps its state.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Makes the repository root the working directory, so every path a run
/// uses (the daemon socket included) is short and inside the checkout.
///
/// # Errors
///
/// The I/O error, rendered.
pub fn enter_repo_root() -> Result<(), String> {
    let root = repo_root();
    std::env::set_current_dir(&root).map_err(|e| format!("entering {}: {e}", root.display()))?;
    std::fs::create_dir_all(STATE_DIR).map_err(|e| format!("creating {STATE_DIR}: {e}"))
}

/// Worker threads, daemon workers and client connections per run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Known-answer bookkeeping: every checked operation is attempted, every
/// failed check is failed. Nothing is dropped silently.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation and its verdict.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = check {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(error);
            }
        }
    }

    /// Whether at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Failed operations ÷ operations attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the run's last stdout line.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// Prints the provenance line and the result line to stdout, the
/// failures to stderr, and appends both lines to the run log.
pub fn finish(provenance: &Provenance, tally: &Tally, metrics: &[Metric]) {
    for error in &tally.errors {
        eprintln!("loopbench: FAILED: {error}");
    }
    eprintln!(
        "loopbench: {} attempted, {} failed, failed_ratio {}",
        tally.attempted,
        tally.failed,
        tally.failed_ratio()
    );
    let provenance = provenance.to_json(tally.failed_ratio());
    let result = result_line(tally, metrics);
    let log = Path::new(STATE_DIR).join("results.jsonl");
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        let _ = writeln!(file, "{provenance}\n{result}");
    }
    println!("{provenance}");
    println!("{result}");
}

/// Median of a sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile (`0.0..=1.0`) of a sample, interpolated linearly
/// between the two nearest order statistics (0.0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process in MB (the kernel's `VmHWM`).
/// Each run is its own process and runs one workload, so this is the
/// workload's peak.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// FNV-1a over bytes: the digest the counter book uses for report
/// bytes and the source tree.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Removes every `"perf":{...}` object (the strippable telemetry block)
/// and one adjoining comma, leaving only verdict-bearing bytes.
pub fn strip_perf(json: &str) -> String {
    const KEY: &str = "\"perf\":{";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        let mut depth = 0usize;
        let mut end = rest.len();
        for (i, c) in rest[at + KEY.len() - 1..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = at + KEY.len() - 1 + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        let mut head = &rest[..at];
        let mut tail = &rest[end..];
        if let Some(t) = tail.strip_prefix(',') {
            tail = t;
        } else if let Some(h) = head.strip_suffix(',') {
            head = h;
        }
        out.push_str(head);
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// The first `"key":<unsigned integer>` in a JSON text.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The first `"key":<number>` in a JSON text.
pub fn json_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let text: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    text.parse().ok()
}

/// Deterministic work counters of one operation, compared exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Sets one counter.
    pub fn set(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.0.insert(name, value);
        self
    }

    /// Reads one counter.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.get(name).copied()
    }

    /// `name=value` pairs in name order, space-separated.
    pub fn render(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(" ")
    }
}

/// Counters per operation key, checked for exact repetition within the
/// run and against earlier runs of the same source tree, workload and
/// seed (kept under [`STATE_DIR`]).
#[derive(Debug)]
pub struct CounterBook {
    path: PathBuf,
    earlier: BTreeMap<String, String>,
    this_run: BTreeMap<String, String>,
}

impl CounterBook {
    /// Opens the book of one (source tree, workload, seed).
    pub fn open(source_digest: u64, workload: Workload, seed: u64, trace: bool) -> Self {
        let mode = if trace { "traced" } else { "untraced" };
        let path = Path::new(STATE_DIR).join("counters").join(format!(
            "{source_digest:016x}-{}-{seed}-{mode}.tsv",
            workload.name()
        ));
        let earlier = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| line.split_once('\t'))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        Self {
            path,
            earlier,
            this_run: BTreeMap::new(),
        }
    }

    /// Checks one operation's counters against every earlier record of
    /// the same key, then records them.
    ///
    /// # Errors
    ///
    /// Both renderings when they differ.
    pub fn check(&mut self, key: &str, counters: &Counters) -> Result<(), String> {
        let now = counters.render();
        for (when, book) in [
            ("this run", &self.this_run),
            ("an earlier run", &self.earlier),
        ] {
            if let Some(before) = book.get(key) {
                if *before != now {
                    return Err(format!(
                        "counters of `{key}` differ from {when}: [{before}] vs [{now}]"
                    ));
                }
            }
        }
        self.this_run.insert(key.to_owned(), now);
        Ok(())
    }

    /// Writes the merged book back.
    ///
    /// # Errors
    ///
    /// The I/O error, rendered.
    pub fn save(&self) -> Result<(), String> {
        let mut merged = self.earlier.clone();
        merged.extend(self.this_run.clone());
        let text: String = merged.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&self.path, text)
            .map_err(|e| format!("writing {}: {e}", self.path.display()))
    }
}

/// Where a result came from: numbers from another host are never read
/// as a gate.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The run's arguments.
    pub args: Args,
    /// `available_parallelism()` of this host.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unavailable` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the program's and the benchmark's sources (see
    /// [`source_digest`]); names the code even where there is no git.
    pub source_digest: u64,
    /// `rustc --version`.
    pub rustc: String,
}

impl Provenance {
    /// Collects the provenance of a run started from the repository root.
    pub fn collect(args: Args) -> Self {
        let root = repo_root();
        let ceiling = root.parent().unwrap_or(&root).to_path_buf();
        let commit = command_line(
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling),
        );
        let rustc = command_line(std::process::Command::new("rustc").arg("--version"));
        Self {
            args,
            nproc: nproc(),
            commit,
            source_digest: source_digest(&root),
            rustc,
        }
    }

    /// One JSON line, with the run's failed-operation ratio.
    pub fn to_json(&self, failed_ratio: f64) -> String {
        format!(
            "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"nproc\":{},\"commit\":\"{}\",\"source_digest\":\"{:016x}\",\"rustc\":\"{}\",\
             \"failed_ratio\":{failed_ratio:?}}}}}",
            self.args.workload.name(),
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            self.nproc,
            self.commit,
            self.source_digest,
            self.rustc.replace('"', "'"),
        )
    }
}

/// Runs a command to completion and returns its first stdout line, or
/// `unavailable`.
fn command_line(command: &mut std::process::Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// FNV-1a over the path and bytes of every source file of the program
/// the benchmark measures (the root manifest and lock file, `src/`,
/// `crates/`, `vendor/`) and of the benchmark itself, in path order.
/// Build output and run state are skipped.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in [
        &root.join("src"),
        &root.join("crates"),
        &root.join("vendor"),
        bench,
    ] {
        walk(dir, &mut files);
    }
    files.sort();
    let mut hash = FNV_BASIS;
    for file in files {
        let relative = file.strip_prefix(root).unwrap_or(&file);
        hash = fnv1a(hash, relative.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &std::fs::read(&file).unwrap_or_default());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_perf_removes_nested_and_trailing_blocks() {
        let json = "{\"a\":1,\"perf\":{\"x\":2},\"b\":{\"perf\":{\"y\":3}}}";
        assert_eq!(strip_perf(json), "{\"a\":1,\"b\":{}}");
        assert_eq!(strip_perf("{\"perf\":{\"z\":1},\"c\":2}"), "{\"c\":2}");
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn args_reject_unknown_and_malformed_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload cold_fuzz --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(ok.workload, Workload::ColdFuzz);
        assert!(ok.trace);
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload cold_fuzz --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload cold_fuzz --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload cold_fuzz --seed 3 --trace 0").is_err());
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(Err("wrong".to_owned()));
        assert!(!tally.correct());
        let line = result_line(&tally, &[]);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"),
            "{line}"
        );
    }

    #[test]
    fn counter_book_flags_a_changed_counter_within_a_run() {
        let mut book = CounterBook::open(0, Workload::ColdFuzz, u64::MAX, false);
        book.earlier.clear();
        let mut a = Counters::default();
        a.set("insns", 10);
        assert!(book.check("op0", &a).is_ok());
        assert!(book.check("op0", &a).is_ok());
        a.set("insns", 11);
        assert!(book.check("op0", &a).is_err());
    }
}
