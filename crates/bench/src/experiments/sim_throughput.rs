//! Simulator throughput: the no-fault six-platform sweep, measured as
//! simulated instructions per wall-clock second, across the four
//! decode modes — uncached (re-decode every fetch, the pre-refactor
//! baseline), cached (lazy per-bus memoisation), predecoded (cache
//! seeded from a shared [`DecodedProgram`] artifact) and superblock
//! (predecoded plus whole-block dispatch, the campaign default).
//! Timing covers execution only — machine construction and predecode
//! seeding are excluded (see [`sweep`]).
//!
//! The harness emits and checks `BENCH_sim_throughput.json`, the
//! repo's committed perf trajectory: CI re-measures in smoke mode and
//! fails on a steps/sec regression beyond tolerance in *any* mode, a
//! predecoded-vs-uncached speedup collapse, or a
//! superblock-vs-predecoded speedup below 2×.

use std::time::{Duration, Instant};

use advm_asm::{assemble_str, Image};
use advm_sim::{DecodedProgram, EndReason, Platform};
use advm_soc::{Derivative, PlatformId};

/// How the decode path is configured for a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Decode cache disabled: every fetch re-decodes.
    Uncached,
    /// Decode cache enabled, cold: decode-on-first-fetch.
    Cached,
    /// Decode cache seeded from a shared predecode artifact, block
    /// tier off: the per-instruction fast path in isolation.
    Predecoded,
    /// Predecoded plus superblock dispatch (the platform default):
    /// straight-line runs execute as whole blocks with the run-loop
    /// checks hoisted to block boundaries.
    Superblock,
}

impl DecodeMode {
    /// All modes, in measurement order.
    pub const ALL: [DecodeMode; 4] = [
        DecodeMode::Uncached,
        DecodeMode::Cached,
        DecodeMode::Predecoded,
        DecodeMode::Superblock,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DecodeMode::Uncached => "uncached",
            DecodeMode::Cached => "cached",
            DecodeMode::Predecoded => "predecoded",
            DecodeMode::Superblock => "superblock",
        }
    }
}

/// One measured mode.
#[derive(Debug, Clone)]
pub struct ModeSample {
    /// Which decode configuration ran.
    pub mode: DecodeMode,
    /// Instructions one sweep retires.
    pub insns: u64,
    /// Execution wall time of the fastest sweep.
    pub wall: Duration,
}

impl ModeSample {
    /// Simulated instructions per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        advm::campaign::CampaignPerf {
            instructions: self.insns,
            wall: self.wall,
            ..advm::campaign::CampaignPerf::default()
        }
        .steps_per_sec()
    }
}

/// The sealed measurement.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// One sample per [`DecodeMode`], in [`DecodeMode::ALL`] order.
    pub samples: Vec<ModeSample>,
    /// Instructions one six-platform sweep retires.
    pub sweep_insns: u64,
}

impl ThroughputReport {
    /// The sample for one mode.
    pub fn sample(&self, mode: DecodeMode) -> &ModeSample {
        self.samples
            .iter()
            .find(|s| s.mode == mode)
            .expect("every mode is measured")
    }

    /// Predecoded-vs-uncached speedup: the headline number of the
    /// execution-core refactor.
    pub fn speedup(&self) -> f64 {
        let base = self.sample(DecodeMode::Uncached).steps_per_sec();
        if base <= 0.0 {
            0.0
        } else {
            self.sample(DecodeMode::Predecoded).steps_per_sec() / base
        }
    }

    /// Superblock-vs-predecoded speedup: the headline number of the
    /// block-dispatch tier.
    pub fn block_speedup(&self) -> f64 {
        let base = self.sample(DecodeMode::Predecoded).steps_per_sec();
        if base <= 0.0 {
            0.0
        } else {
            self.sample(DecodeMode::Superblock).steps_per_sec() / base
        }
    }

    /// Renders the committed-baseline JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"sweep_insns\":{},", self.sweep_insns));
        s.push_str("\"modes\":[");
        for (i, sample) in self.samples.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"mode\":\"{}\",\"steps_per_sec\":{:.0}}}",
                sample.mode.name(),
                sample.steps_per_sec()
            ));
        }
        s.push_str(&format!(
            "],\"speedup_predecoded_vs_uncached\":{:.2},\
             \"speedup_superblock_vs_predecoded\":{:.2}}}",
            self.speedup(),
            self.block_speedup()
        ));
        s
    }
}

/// The benchmark workload: a ~500k-instruction ALU/branch loop (the
/// same shape the `sim/platforms` bench uses, 10× longer so per-run
/// constant costs and timer noise amortize below the gate tolerances).
pub fn workload() -> Image {
    let program = assemble_str(
        "\
_main:
    LOAD d1, #100000
    MOVI d2, #0
loop:
    ADD d2, d2, d1
    XOR d2, d2, d1
    SUB d1, d1, #1
    CMP d1, #0
    JNE loop
    HALT #0
",
    )
    .expect("workload assembles");
    let mut image = Image::new();
    image.load_program(&program).expect("workload links");
    image
}

/// Runs the no-fault six-platform sweep once in one decode mode and
/// returns the instructions retired and the *execution* wall time.
///
/// Only the [`Platform::run`] calls are timed: machine construction,
/// image load and predecode seeding are setup, not simulation, and
/// dwarf a 50k-instruction run — timing them would measure the
/// allocator, not the dispatch tiers the report compares.
pub fn sweep(image: &Image, decoded: &DecodedProgram, mode: DecodeMode) -> (u64, Duration) {
    let derivative = Derivative::sc88a();
    let mut insns = 0;
    let mut wall = Duration::ZERO;
    for id in PlatformId::ALL {
        let mut platform = Platform::new(id, &derivative);
        // Superblocks default on; the three per-instruction modes
        // measure the legacy tiers and must switch them off.
        match mode {
            DecodeMode::Uncached => {
                platform.set_superblocks(false);
                platform.set_decode_cache(false);
                platform.load_image(image);
            }
            DecodeMode::Cached => {
                platform.set_superblocks(false);
                platform.load_image(image);
            }
            DecodeMode::Predecoded => {
                platform.set_superblocks(false);
                platform.load_prebuilt(image, decoded);
            }
            DecodeMode::Superblock => platform.load_prebuilt(image, decoded),
        }
        let started = Instant::now();
        let result = platform.run();
        wall += started.elapsed();
        assert!(
            matches!(result.end, EndReason::Halt(0)),
            "workload must halt cleanly: {result}"
        );
        insns += result.insns;
    }
    (insns, wall)
}

/// Measures every mode over `reps` sweeps each (after one untimed
/// warm-up round) and seals the report.
///
/// The modes run round-robin, and each mode reports its *fastest*
/// sweep: a noisy neighbour or a frequency-scaling dip then disturbs
/// every mode alike instead of one mode's whole measurement window,
/// and the minimum converges on the undisturbed cost — which is what
/// the committed trajectory and the speedup gates are about.
pub fn run(reps: usize) -> ThroughputReport {
    let image = workload();
    let decoded = DecodedProgram::from_image(&image);
    let (sweep_insns, _) = sweep(&image, &decoded, DecodeMode::Cached);
    for mode in DecodeMode::ALL {
        sweep(&image, &decoded, mode); // warm-up
    }
    let mut insns = [0u64; DecodeMode::ALL.len()];
    let mut best = [Duration::MAX; DecodeMode::ALL.len()];
    for _ in 0..reps.max(1) {
        for (i, mode) in DecodeMode::ALL.into_iter().enumerate() {
            let (n, wall) = sweep(&image, &decoded, mode);
            insns[i] = n;
            best[i] = best[i].min(wall);
        }
    }
    let samples = DecodeMode::ALL
        .into_iter()
        .enumerate()
        .map(|(i, mode)| ModeSample {
            mode,
            insns: insns[i],
            wall: best[i],
        })
        .collect();
    ThroughputReport {
        samples,
        sweep_insns,
    }
}

/// Pulls `"key":number` out of a flat JSON document — enough to read
/// the committed baseline without a JSON dependency.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The steps/sec a baseline document records for one mode.
pub(crate) fn baseline_steps_per_sec(json: &str, mode: DecodeMode) -> Option<f64> {
    let marker = format!("\"mode\":\"{}\"", mode.name());
    let at = json.find(&marker)?;
    json_number(&json[at..], "steps_per_sec")
}

/// Gates a fresh measurement against the committed baseline: every
/// mode's steps/sec must be within `tolerance` of its committed number
/// (e.g. `0.8` = no more than 20% slower), the predecoded-vs-uncached
/// speedup must hold at ≥ 2×, and the superblock-vs-predecoded speedup
/// must hold at ≥ 2×.
///
/// A mode missing from the baseline document is skipped (not an error)
/// so a freshly added mode gates only once its number is committed —
/// except `predecoded`, which has been in every baseline and whose
/// absence means the document is malformed.
///
/// # Errors
///
/// A human-readable explanation of the first failed gate.
pub fn check_against(
    report: &ThroughputReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<(), String> {
    baseline_steps_per_sec(baseline_json, DecodeMode::Predecoded)
        .ok_or("baseline JSON lacks a predecoded steps_per_sec entry")?;
    for mode in DecodeMode::ALL {
        let Some(committed) = baseline_steps_per_sec(baseline_json, mode) else {
            continue;
        };
        let measured = report.sample(mode).steps_per_sec();
        if measured < committed * tolerance {
            return Err(format!(
                "throughput regression ({}): {measured:.0} steps/s vs committed \
                 {committed:.0} (allowed floor {:.0})",
                mode.name(),
                committed * tolerance
            ));
        }
    }
    let speedup = report.speedup();
    if speedup < 2.0 {
        return Err(format!(
            "decode-cache speedup collapsed: {speedup:.2}x predecoded-vs-uncached (need >= 2x)"
        ));
    }
    let block_speedup = report.block_speedup();
    if block_speedup < 2.0 {
        return Err(format!(
            "superblock speedup collapsed: {block_speedup:.2}x superblock-vs-predecoded \
             (need >= 2x)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_across_modes() {
        let image = workload();
        let decoded = DecodedProgram::from_image(&image);
        let counts: Vec<u64> = DecodeMode::ALL
            .into_iter()
            .map(|mode| sweep(&image, &decoded, mode).0)
            .collect();
        assert!(counts[0] > 450_000 * 6, "six runs of the ~500k workload");
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert_eq!(counts[2], counts[3], "block dispatch retires identically");
    }

    #[test]
    fn json_roundtrips_through_the_baseline_reader() {
        let report = run(1);
        let json = report.to_json();
        let read = baseline_steps_per_sec(&json, DecodeMode::Predecoded).unwrap();
        let actual = report.sample(DecodeMode::Predecoded).steps_per_sec();
        assert!((read - actual).abs() <= 1.0, "{read} vs {actual}");
        assert!(json_number(&json, "sweep_insns").unwrap() > 0.0);
        let block = baseline_steps_per_sec(&json, DecodeMode::Superblock).unwrap();
        assert!(block > 0.0);
        assert!(json_number(&json, "speedup_superblock_vs_predecoded").is_some());
    }

    #[test]
    fn check_gates_on_regression_and_speedup() {
        let report = run(1);
        let fast = format!(
            "{{\"modes\":[{{\"mode\":\"predecoded\",\"steps_per_sec\":{:.0}}}]}}",
            report.sample(DecodeMode::Predecoded).steps_per_sec() * 100.0
        );
        assert!(check_against(&report, &fast, 0.8).is_err());
        let slow = "{\"modes\":[{\"mode\":\"predecoded\",\"steps_per_sec\":1}]}";
        // Against a tiny committed number only the speedup gate remains;
        // either outcome is legitimate on a loaded CI box, so just make
        // sure it does not panic.
        let _ = check_against(&report, slow, 0.8);
        assert!(check_against(&report, "{}", 0.8).is_err(), "missing key");
    }
}
