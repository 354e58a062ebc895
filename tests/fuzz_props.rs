//! Properties of the program-fuzzing subsystem, plus its acceptance
//! run: ≥64 generated programs across all six platforms with zero
//! decode errors and zero spurious mined-assertion violations.
//!
//! The determinism property mirrors the rest of the engine: a fuzz
//! run's report is a pure function of its spec — worker count shards
//! the work, never the verdict.

mod common;
use common::strip_perf;

use advm::build::build_cell;
use advm::campaign::{Campaign, CampaignPerf, DEFAULT_MONITOR_CAPACITY};
use advm::env::EnvConfig;
use advm::fuzz::{program_env, Fuzz};
use advm_fuzz::{mine, ProgramSource, TraceAssertion};
use advm_sim::{Platform, PlatformFault, DEFAULT_FUEL};
use advm_soc::{Derivative, PlatformId};

use proptest::prelude::*;

/// The subsystem's acceptance run, exactly as CI drives it through the
/// CLI: 64 generated programs, all six platforms, mining on. Zero
/// build/decode errors, zero failures, zero divergences and — because
/// the checking runs replay the mining runs — zero spurious violations.
#[test]
fn acceptance_64_programs_by_six_platforms_mine_clean() {
    let report = Fuzz::new()
        .programs(64)
        .mine(true)
        .platforms(PlatformId::ALL)
        .run()
        .expect("fuzz matrix must build and run");
    assert_eq!(report.programs(), 64);
    assert_eq!(report.campaign().total(), 64 * PlatformId::ALL.len());
    assert_eq!(
        report.campaign().failed(),
        0,
        "{}",
        report.campaign().matrix()
    );
    assert!(report.campaign().divergences().is_empty());
    assert!(!report.mined().is_empty(), "the batch must mine checkers");
    assert!(
        report.violations().is_empty(),
        "fault-free runs may never violate checkers mined from them: {:?}",
        report.violations()
    );
    assert!(report.ok());
}

/// Serial reference mining: per program × platform, a direct build of
/// the program's cell, a fresh fault-free machine with the monitor
/// armed, and `mine` over every trace.
fn reference_mined(seed: u64, programs: usize) -> Vec<TraceAssertion> {
    let mut traces = Vec::new();
    for program in ProgramSource::new(seed).generate(programs) {
        let env = program_env(&program);
        for platform in PlatformId::ALL {
            let mut ported = env.clone();
            ported.reconfigure(EnvConfig {
                platform,
                ..env.config()
            });
            let image = build_cell(&ported, ported.cells()[0].id()).expect("program builds");
            let derivative = Derivative::from_id(ported.config().derivative);
            let mut machine = Platform::new(platform, &derivative);
            machine.set_fuel(DEFAULT_FUEL);
            machine.enable_mmio_trace(DEFAULT_MONITOR_CAPACITY);
            machine.load_image(&image);
            machine.run();
            traces.push(machine.mmio_trace().expect("monitor armed").clone());
        }
    }
    mine(&traces.iter().collect::<Vec<_>>())
}

/// The deterministic execution counters of a perf block: instructions,
/// `decode_*` and `block_*`.
fn exec_counters(perf: &CampaignPerf) -> [u64; 7] {
    [
        perf.instructions,
        perf.decode_hits,
        perf.decode_misses,
        perf.decode_preloaded,
        perf.blocks_built,
        perf.block_dispatches,
        perf.block_insns,
    ]
}

/// Mining inside the verify campaign's pipeline (its builds, its worker
/// pool, per-worker miners) mines exactly what the serial reference
/// mines, at any worker count and with a fault injected into the verify
/// run — and adds nothing to the verify report's execution counters,
/// which equal a plain checked campaign's over the same programs.
#[test]
fn pipelined_mining_matches_the_serial_reference() {
    const PROGRAMS: usize = 16;
    for seed in [1, 2, 7919] {
        let expected = reference_mined(seed, PROGRAMS);
        assert!(!expected.is_empty(), "seed {seed} mines nothing");
        let fuzz = Fuzz::new()
            .programs(PROGRAMS)
            .seed(seed)
            .mine(true)
            .platforms(PlatformId::ALL);
        for workers in [1, 8] {
            let what = format!("seed {seed}, {workers} worker(s)");
            let report = fuzz.clone().workers(workers).run().expect("fuzz run");
            assert_eq!(report.mined(), expected, "{what}");
            let faulted = fuzz
                .clone()
                .workers(workers)
                .fault(PlatformId::RtlSim, PlatformFault::PageMapWriteIgnored)
                .run()
                .expect("faulted fuzz run");
            assert_eq!(faulted.mined(), expected, "{what}, faulted");

            let plain = Campaign::new()
                .envs(
                    ProgramSource::new(seed)
                        .generate(PROGRAMS)
                        .iter()
                        .map(program_env),
                )
                .platforms(PlatformId::ALL)
                .workers(workers)
                .checkers(expected.iter().copied())
                .run()
                .expect("plain checked campaign");
            assert_eq!(
                exec_counters(report.campaign().perf()),
                exec_counters(plain.perf()),
                "{what}"
            );
            assert!(!report.campaign().perf().mine_wall.is_zero(), "{what}");
            assert!(plain.perf().mine_wall.is_zero(), "{what}");
        }
    }
}

proptest! {
    // Full builds and six-platform runs per case; a few cases keep the
    // properties meaningful without dominating suite runtime.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every generated instruction survives the encode→decode round
    /// trip at any word-aligned load address — for any seed, not just
    /// the defaults the other tests pin.
    #[test]
    fn generated_programs_round_trip_their_encodings(
        seed in any::<u64>(),
        base in (0u32..0x3FF0).prop_map(|w| w * 4),
    ) {
        for program in ProgramSource::new(seed).generate(4) {
            prop_assert!(
                program.check_encoding(base).is_ok(),
                "{} fails at base {base:#x}",
                program.name()
            );
        }
    }

    /// Every generated program terminates within the default fuel on
    /// every platform, reporting PASS: the generator's control-flow
    /// constraints (forward-only branches, bounded loops) hold.
    #[test]
    fn generated_programs_terminate_on_all_platforms(seed in any::<u64>()) {
        let mut campaign = Campaign::new().platforms(PlatformId::ALL);
        for program in ProgramSource::new(seed).generate(2) {
            campaign = campaign.env(program_env(&program));
        }
        let report = campaign.run().expect("fuzz programs must build");
        prop_assert_eq!(report.failed(), 0, "{}", report.matrix());
        prop_assert!(report.divergences().is_empty());
    }

    /// A mined fuzz campaign's report is byte-identical (perf-stripped)
    /// whether one worker or eight execute it — generation, mining and
    /// violation collection are all sharding-independent.
    #[test]
    fn fuzz_reports_are_worker_count_independent(seed in any::<u64>()) {
        let run = |workers: usize| {
            Fuzz::new()
                .programs(4)
                .seed(seed)
                .mine(true)
                .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
                .workers(workers)
                .run()
                .expect("fuzz run")
                .to_json()
        };
        prop_assert_eq!(strip_perf(&run(1)), strip_perf(&run(8)));
    }
}
