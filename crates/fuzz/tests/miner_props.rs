//! The incremental [`Miner`] is order-free: miners fed disjoint shares
//! of a trace set merge, in any order, into the miner that observed the
//! whole set — the property per-worker mining relies on.

use advm_asm::Image;
use advm_fuzz::{mine, Miner, ProgramSource};
use advm_isa::RESET_PC;
use advm_sim::{MmioTrace, Platform, PlatformFault};
use advm_soc::{Derivative, PlatformId};
use proptest::prelude::*;

/// Programs per generated batch.
const PROGRAMS: usize = 6;

/// Traces per batch: every program on every platform, fault-free and
/// faulted.
const TRACES: usize = PROGRAMS * PlatformId::ALL.len() * 2;

/// The MMIO traces of one generated batch. Each program is assembled
/// standalone at the reset PC (the programs call nothing and end the
/// simulation themselves) and runs on every platform with the monitor
/// armed: once fault-free, and once with a catalogued fault, rotating
/// through the catalog, so the set also holds readbacks that break and
/// status bits that rise late or never.
fn batch_traces(seed: u64) -> Vec<MmioTrace> {
    let derivative = Derivative::sc88a();
    let mut traces = Vec::with_capacity(TRACES);
    for program in ProgramSource::new(seed).generate(PROGRAMS) {
        let source = format!(".ORG {RESET_PC:#x}\n{}", program.asm());
        let assembled = advm_asm::assemble_str(&source).expect("program assembles");
        let mut image = Image::new();
        image.load_program(&assembled).expect("program links");
        for (index, platform) in PlatformId::ALL.into_iter().enumerate() {
            let catalogued =
                PlatformFault::ALL[(program.index() + index) % PlatformFault::ALL.len()];
            for fault in [PlatformFault::None, catalogued] {
                let mut machine = Platform::with_fault(platform, &derivative, fault);
                machine.enable_mmio_trace(4096);
                machine.load_image(&image);
                let result = machine.run();
                assert!(
                    fault != PlatformFault::None || result.passed(),
                    "{} on {platform}",
                    program.name()
                );
                traces.push(machine.mmio_trace().expect("monitor armed").clone());
            }
        }
    }
    traces
}

#[test]
fn generated_batches_mine_checkers() {
    let traces = batch_traces(1);
    let refs: Vec<&MmioTrace> = traces.iter().collect();
    assert!(
        !mine(&refs).is_empty(),
        "the property below must not be vacuous"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Split a batch's traces across 1–8 miners, then merge random pairs
    /// (either side first) until one is left: it equals the miner that
    /// observed every trace in order, and finishes to exactly what `mine`
    /// returns over the full list.
    #[test]
    fn miners_merge_in_any_order_to_what_mine_returns(
        seed in any::<u64>(),
        miners in 1usize..=8,
        shares in proptest::collection::vec(any::<u64>(), TRACES),
        picks in proptest::collection::vec(any::<u64>(), 3 * 8),
    ) {
        let traces = batch_traces(seed);
        let mut pool: Vec<Miner> = vec![Miner::new(); miners];
        let mut whole = Miner::new();
        for (trace, share) in traces.iter().zip(&shares) {
            pool[(*share % miners as u64) as usize].observe(trace);
            whole.observe(trace);
        }
        let mut picks = picks.into_iter();
        let mut pick = |len: usize| (picks.next().expect("enough picks") % len as u64) as usize;
        while pool.len() > 1 {
            let a = pool.swap_remove(pick(pool.len()));
            let b = pool.swap_remove(pick(pool.len()));
            pool.push(if pick(2) == 0 { a.merge(b) } else { b.merge(a) });
        }
        let merged = pool.pop().expect("one miner left");
        prop_assert_eq!(&merged, &whole);
        let refs: Vec<&MmioTrace> = traces.iter().collect();
        prop_assert_eq!(merged.finish(), mine(&refs));
    }
}
