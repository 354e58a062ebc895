//! Cross-crate superblock equivalence: fuzz-generated programs executed
//! through full campaigns must produce byte-identical (perf-stripped)
//! reports whether the block tier is on or off, and whether one worker
//! or eight execute the matrix. The block tier may only ever show up in
//! the measured `"perf"` object.

mod common;
use common::strip_perf;

use advm::campaign::Campaign;
use advm::fuzz::program_env;
use advm_fuzz::ProgramSource;
use advm_soc::PlatformId;

use proptest::prelude::*;

fn campaign(seed: u64, superblocks: bool, workers: usize) -> String {
    let mut campaign = Campaign::new()
        .platforms(PlatformId::ALL)
        .superblocks(superblocks)
        .workers(workers);
    for program in ProgramSource::new(seed).generate(3) {
        campaign = campaign.env(program_env(&program));
    }
    campaign.run().expect("fuzz programs must build").to_json()
}

proptest! {
    // Each case is 4 six-platform campaigns; a few cases keep the
    // property meaningful without dominating suite runtime.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any generation seed: block-mode and per-instruction
    /// campaigns over the same fuzz programs — sharded over one worker
    /// or eight — agree byte-for-byte once perf is stripped.
    #[test]
    fn fuzz_campaign_reports_are_block_mode_independent(seed in any::<u64>()) {
        let blocked = strip_perf(&campaign(seed, true, 1));
        prop_assert_eq!(&blocked, &strip_perf(&campaign(seed, false, 1)));
        prop_assert_eq!(&blocked, &strip_perf(&campaign(seed, true, 8)));
        prop_assert_eq!(&blocked, &strip_perf(&campaign(seed, false, 8)));
    }
}

/// The block tier's perf counters surface through the campaign report:
/// a default (blocks-on) run over straight-line-heavy fuzz programs
/// dispatches blocks; the same campaign with blocks off reports zeros,
/// with identical verdicts.
#[test]
fn block_counters_reach_campaign_perf_and_stay_perf_only() {
    let build = |superblocks: bool| {
        let mut campaign = Campaign::new()
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .superblocks(superblocks);
        for program in ProgramSource::new(0xB10C).generate(4) {
            campaign = campaign.env(program_env(&program));
        }
        campaign.run().expect("fuzz programs must build")
    };
    let on = build(true);
    let off = build(false);
    assert!(on.perf().blocks_built > 0, "{:?}", on.perf());
    assert!(on.perf().block_dispatches > 0, "{:?}", on.perf());
    assert!(
        on.perf().block_insns <= on.perf().decode_hits,
        "block insns are a subset of hits: {:?}",
        on.perf()
    );
    assert_eq!(off.perf().blocks_built, 0, "{:?}", off.perf());
    assert_eq!(off.perf().block_dispatches, 0);
    assert_eq!(off.perf().block_insns, 0);
    assert_eq!(strip_perf(&on.to_json()), strip_perf(&off.to_json()));
}
