//! Cross-crate superblock equivalence: every fuzz-generated program,
//! built for each platform, retires the same run with the block tier on
//! or off. The block tier may only ever show up in the decode counters
//! and the measured `"perf"` object. (Worker-count independence of the
//! fuzz reports is `tests/fuzz_props.rs`'s.)

use advm::build::build_cell;
use advm::campaign::Campaign;
use advm::env::EnvConfig;
use advm::fuzz::program_env;
use advm_fuzz::ProgramSource;
use advm_sim::{Platform, RunResult};
use advm_soc::{Derivative, PlatformId};

use proptest::prelude::*;

proptest! {
    // Each case is 3 programs × 6 platforms × 2 runs; a few cases keep
    // the property meaningful without dominating suite runtime.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any generation seed: each program's image, run on each
    /// platform with blocks on and with blocks off, yields equal
    /// `RunResult`s apart from the decode counters.
    #[test]
    fn fuzz_campaign_reports_are_block_mode_independent(seed in any::<u64>()) {
        for program in ProgramSource::new(seed).generate(3) {
            let env = program_env(&program);
            let cell = env.cells()[0].id().to_owned();
            let derivative = Derivative::from_id(env.config().derivative);
            for platform in PlatformId::ALL {
                let mut ported = env.clone();
                ported.reconfigure(EnvConfig {
                    platform,
                    ..env.config()
                });
                let image = build_cell(&ported, &cell).expect("fuzz programs must build");
                let run = |blocks: bool| {
                    let mut machine = Platform::new(platform, &derivative);
                    machine.set_superblocks(blocks);
                    machine.load_image(&image);
                    machine.run()
                };
                let (on, off) = (run(true), run(false));
                prop_assert_eq!(
                    RunResult {
                        decode: on.decode,
                        ..off
                    },
                    on,
                    "{} on {}",
                    cell,
                    platform
                );
            }
        }
    }
}

/// The block tier's perf counters surface through the campaign report:
/// a campaign (blocks always on) over straight-line-heavy fuzz programs
/// dispatches blocks, and its block instructions are a subset of its
/// decode hits.
#[test]
fn block_counters_reach_campaign_perf_and_stay_perf_only() {
    let mut campaign = Campaign::new().platforms([PlatformId::GoldenModel, PlatformId::RtlSim]);
    for program in ProgramSource::new(0xB10C).generate(4) {
        campaign = campaign.env(program_env(&program));
    }
    let on = campaign.run().expect("fuzz programs must build");
    assert!(on.perf().blocks_built > 0, "{:?}", on.perf());
    assert!(on.perf().block_dispatches > 0, "{:?}", on.perf());
    assert!(
        on.perf().block_insns <= on.perf().decode_hits,
        "block insns are a subset of hits: {:?}",
        on.perf()
    );
}
