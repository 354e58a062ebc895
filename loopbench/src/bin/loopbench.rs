//! End-to-end (untraced) runs of the ADVM loop benchmark.
//!
//! `loopbench --workload <cold_fuzz|warm_daemon|audit_matrix> --seed <n>
//! --seconds <s> --trace 0` sets the workload up several times, runs its
//! operations for `--seconds`, checks every operation against its known
//! answer and its exact counters, and prints the provenance line and the
//! result line. See README.md for the metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use loopbench::workloads::{
    audit_counters, audit_op, check_audit, check_fuzz, fuzz_counters, fuzz_op, DaemonHarness,
    AUDIT_EXPECT, FUZZ_EXPECT,
};
use loopbench::{
    enter_repo_root, finish, median, ms, nproc, peak_rss_mb, percentile, Args, CounterBook, Metric,
    Provenance, Tally, Workload, SETUP_REPS,
};

/// One finished operation (one job on `warm_daemon`).
struct Op {
    /// When it finished, from the start of the measured loop.
    end: Duration,
    latency: Duration,
    /// Verdict-bearing runs it completed (0 when its check failed).
    runs: u64,
}

/// What a measured loop produced, before it becomes metrics.
#[derive(Default)]
struct Measured {
    ops: Vec<Op>,
    /// Wall time of the measured loop.
    wall: Duration,
    /// Wall time of each set-up.
    setups: Vec<Duration>,
    /// Peak resident memory taken during the loop, when the workload
    /// does not take it at the end.
    peak_rss: Option<Result<f64, String>>,
}

/// `warm_daemon` reads its peak resident memory when this many measured
/// jobs have finished: the daemon keeps every job's event stream for
/// `status`/`list`/`watch`, so its memory grows with the jobs it served,
/// and a fixed job count keeps the metric independent of throughput.
const RSS_JOBS: usize = 1000;

/// `warm_daemon`'s throughput and p90 latency are medians over windows
/// of this length: a neighbour's burst on a shared host then moves the
/// few windows it covers, not the run's figure. Each window holds
/// hundreds of jobs, so tens of samples lie beyond its p90.
const WINDOW: Duration = Duration::from_secs(1);

/// `warm_daemon` set-ups per run: they take a fraction of a second, so
/// more of them steady the median.
const DAEMON_SETUP_REPS: usize = 5;

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("loopbench: {error}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if args.trace {
        return Err("traced runs are made by loopbench-ledger".to_owned());
    }
    enter_repo_root()?;
    let provenance = Provenance::collect(args);
    let mut book = CounterBook::open(provenance.source_digest, args.workload, args.seed, false);
    let mut tally = Tally::default();
    let measured = match args.workload {
        Workload::ColdFuzz => cold_fuzz(args, &mut tally, &mut book)?,
        Workload::WarmDaemon => warm_daemon(args, &mut tally, &mut book)?,
        Workload::AuditMatrix => audit_matrix(args, &mut tally, &mut book)?,
    };
    book.save()?;
    let latencies: Vec<f64> = measured.ops.iter().map(|op| ms(op.latency)).collect();
    let (runs_per_s, p90) = if args.workload == Workload::WarmDaemon {
        windowed(&measured)
    } else {
        // Long operations: each one's own rate, then the median.
        let rates: Vec<f64> = measured
            .ops
            .iter()
            .map(|op| op.runs as f64 / op.latency.as_secs_f64())
            .collect();
        (median(&rates), percentile(&latencies, 0.9))
    };
    let setups: Vec<f64> = measured.setups.iter().map(Duration::as_secs_f64).collect();
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = [
        metric("runs_per_s", runs_per_s, "runs/s"),
        metric("job_latency_p50_ms", percentile(&latencies, 0.5), "ms"),
        metric("job_latency_p90_ms", p90, "ms"),
        metric("setup_s", median(&setups), "s"),
        metric(
            "peak_rss_mb",
            measured.peak_rss.unwrap_or_else(peak_rss_mb)?,
            "MB",
        ),
    ];
    eprintln!(
        "loopbench: {} — {} operations, {} runs in {:.3} s",
        args.workload.name(),
        measured.ops.len(),
        measured.ops.iter().map(|op| op.runs).sum::<u64>(),
        measured.wall.as_secs_f64()
    );
    finish(&provenance, &tally, &metrics);
    Ok(())
}

/// Median over whole [`WINDOW`]s of the loop of (runs finished in the
/// window per second, p90 latency of the jobs finished in it).
fn windowed(measured: &Measured) -> (f64, f64) {
    let windows = ((measured.wall.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let mut rates = Vec::with_capacity(windows);
    let mut p90s = Vec::with_capacity(windows);
    for w in 0..windows {
        let (from, to) = (WINDOW * w as u32, WINDOW * (w as u32 + 1));
        let inside: Vec<&Op> = measured
            .ops
            .iter()
            .filter(|op| op.end >= from && op.end < to)
            .collect();
        rates.push(inside.iter().map(|op| op.runs).sum::<u64>() as f64 / WINDOW.as_secs_f64());
        let latencies: Vec<f64> = inside.iter().map(|op| ms(op.latency)).collect();
        if !latencies.is_empty() {
            p90s.push(percentile(&latencies, 0.9));
        }
    }
    (median(&rates), median(&p90s))
}

/// Repeats `op` until `seconds` have passed (at least once), timing each;
/// `op` returns the runs it completed.
fn timed_loop(seconds: f64, measured: &mut Measured, mut op: impl FnMut(u64) -> u64) {
    let started = Instant::now();
    let mut index = 0u64;
    loop {
        let t = Instant::now();
        let runs = op(index);
        measured.ops.push(Op {
            end: started.elapsed(),
            latency: t.elapsed(),
            runs,
        });
        index += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    measured.wall = started.elapsed();
}

/// `cold_fuzz`: operation *i* fuzzes with seed `seed + i`. Each set-up is
/// one warm-up operation with the seed of operation 0, whose counters the
/// measured operation 0 must repeat.
fn cold_fuzz(args: Args, tally: &mut Tally, book: &mut CounterBook) -> Result<Measured, String> {
    let workers = nproc();
    let mut measured = Measured::default();
    let mut check = |index: u64, tally: &mut Tally| -> u64 {
        let seed = args.seed.wrapping_add(index);
        let verdict = fuzz_op(seed, workers).and_then(|report| {
            check_fuzz(&report, FUZZ_EXPECT)?;
            book.check(&format!("op{index}"), &fuzz_counters(&report))?;
            Ok(report.campaign().total() as u64)
        });
        let runs = *verdict.as_ref().unwrap_or(&0);
        tally.record(verdict.map(drop));
        runs
    };
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        check(0, tally);
        measured.setups.push(t.elapsed());
    }
    timed_loop(args.seconds, &mut measured, |index| check(index, tally));
    Ok(measured)
}

/// `warm_daemon`: `nproc` clients in a closed loop, each submitting the
/// next environment round-robin and watching its job to `done`.
fn warm_daemon(args: Args, tally: &mut Tally, book: &mut CounterBook) -> Result<Measured, String> {
    let clients = nproc();
    let mut measured = Measured::default();
    let mut harness = None;
    for rep in 0..DAEMON_SETUP_REPS {
        let t = Instant::now();
        let started = DaemonHarness::start(&rep.to_string())?;
        measured.setups.push(t.elapsed());
        if let Some(previous) = harness.replace(started) {
            DaemonHarness::stop(previous)?;
        }
    }
    let harness = harness.expect("at least one set-up");
    for (env, reference) in harness.envs.iter().zip(&harness.references) {
        tally.record(book.check(&env.name, &reference.counters));
    }

    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let rss_at_count = OnceLock::new();
    // Per job only its end, latency and verdict outlive the client's
    // loop, so the process's memory is the daemon's, not its reports.
    let jobs = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let clients: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = harness.connect()?;
                    loop {
                        let env = next.fetch_add(1, Ordering::Relaxed) % harness.envs.len();
                        let job = harness.run_job(&mut client, env);
                        let end = started.elapsed();
                        if finished.fetch_add(1, Ordering::Relaxed) + 1 == RSS_JOBS {
                            let _ = rss_at_count.set(peak_rss_mb());
                        }
                        let outcome = job.map(|job| {
                            let runs = harness
                                .check_job(env, &job)
                                .map(|counters| counters.get("runs").unwrap_or(0));
                            (job.latency, runs)
                        });
                        jobs.lock()
                            .expect("no client panics holding the job list")
                            .push((end, outcome));
                        if Instant::now() >= deadline {
                            return Ok(());
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    measured.wall = started.elapsed();
    measured.peak_rss = rss_at_count.into_inner();
    clients.into_iter().collect::<Result<(), String>>()?;
    // Each job's counters equal its environment's reference, whose
    // counters the book checked above.
    for (end, outcome) in jobs.into_inner().expect("every client joined") {
        let verdict = outcome.and_then(|(latency, runs)| {
            measured.ops.push(Op {
                end,
                latency,
                runs: *runs.as_ref().unwrap_or(&0),
            });
            runs
        });
        tally.record(verdict.map(drop));
    }
    harness.stop()?;
    Ok(measured)
}

/// `audit_matrix`: every operation is the same audit on a fresh store,
/// so every one must repeat the counters of the set-up's warm-ups.
fn audit_matrix(args: Args, tally: &mut Tally, book: &mut CounterBook) -> Result<Measured, String> {
    let workers = nproc();
    let mut measured = Measured::default();
    let mut check = |tally: &mut Tally| -> u64 {
        let verdict = audit_op(workers).and_then(|run| {
            check_audit(&run.report, AUDIT_EXPECT)?;
            book.check("op", &audit_counters(&run))?;
            Ok(run.planned_jobs)
        });
        let runs = *verdict.as_ref().unwrap_or(&0);
        tally.record(verdict.map(drop));
        runs
    };
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        check(tally);
        measured.setups.push(t.elapsed());
    }
    timed_loop(args.seconds, &mut measured, |_| check(tally));
    Ok(measured)
}
