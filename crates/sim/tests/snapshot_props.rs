//! Snapshot semantics: byte-stability, restore fidelity, and the core
//! fork guarantee — a run resumed from a snapshot is byte-identical to
//! one that never stopped.

use advm_asm::{assemble_str, Image};
use advm_sim::{Platform, PlatformFault, SaveState, SaveStateError};
use advm_soc::testbench::PlatformId;
use advm_soc::Derivative;
use proptest::prelude::*;

fn image(asm: &str) -> Image {
    let program = assemble_str(asm).unwrap_or_else(|e| panic!("{e}"));
    let mut image = Image::new();
    image.load_program(&program).unwrap();
    image
}

fn busy_test() -> Image {
    // Touches registers, RAM, the page module and the mailbox before
    // passing — enough machine-state churn to make a shallow snapshot
    // visibly wrong.
    image(
        "\
_main:
    LOAD d1, #0xDEADBEEF
    STORE [0x40100], d1
    LOAD d2, [0x40100]
    MOVI d14, #0
    INSERT d14, d14, #3, 0, 5
    ORI d14, d14, #0x100
    STORE [0xE0100], d14
    LOAD d3, [0xE0104]
    LOAD d4, #25
loop:
    SUB d4, d4, #1
    CMP d4, #0
    JNE loop
    LOAD d5, #0x600D0000
    STORE [0xEFF00], d5
    STORE [0xEFF08], d5
    HALT #0
",
    )
}

/// Touches all three memories: code in ROM, data stores in RAM and an
/// image word in NVM, then an NVM program and a page erase through the
/// controller (the erase wipes the image's NVM words), then passes.
fn nvm_test() -> Image {
    image(
        "\
NVMC .EQU 0xE0500
_main:
    LOAD d1, #0xDEADBEEF
    STORE [0x40100], d1
    LOAD d4, [0x80100]
    STORE [0x5F000], d4
    CALL unlock
    LOAD d2, #0x20
    LOAD d3, #0x600DF00D
    STORE [NVMC + 0x08], d2
    STORE [NVMC + 0x0C], d3
    LOAD d3, #1              ; CMD_WRITE
    STORE [NVMC + 0x14], d3
    CALL wait
    CALL unlock
    LOAD d2, #0x100
    STORE [NVMC + 0x08], d2
    LOAD d3, #2              ; CMD_ERASE
    STORE [NVMC + 0x14], d3
    CALL wait
    LOAD d5, [0x80020]
    LOAD d6, [0x80100]
    LOAD d7, #0x600D0000
    STORE [0xEFF00], d7
    STORE [0xEFF08], d7
    HALT #0
unlock:
    LOAD d3, #0x55
    STORE [NVMC], d3
    LOAD d3, #0xAA
    STORE [NVMC], d3
    RETURN
wait:
    LOAD d3, [NVMC + 0x10]   ; STATUS
    ANDI d3, d3, #1          ; BUSY
    CMP d3, #0
    JNE wait
    RETURN
.ORG 0x80100
    .WORD 0x12345678
    .WORD 0x9ABCDEF0
",
    )
}

/// Strips per-run observability (dbg markers are run-local by design;
/// decode stats are perf telemetry) so two results compare on
/// architectural outcome only.
fn arch_result(r: &advm_sim::RunResult) -> (String, u64, String, Vec<u8>) {
    (
        format!("{:?}", r.end),
        r.insns,
        r.console.clone(),
        r.uart_tx.clone(),
    )
}

#[test]
fn snapshot_bytes_are_stable_across_capture_and_restore() {
    let deriv = Derivative::sc88a();
    let mut p = Platform::new(PlatformId::RtlSim, &deriv);
    p.enable_trace(8);
    p.load_image(&busy_test());
    p.set_fuel(10);
    p.run();

    let snap = p.snapshot();
    assert_eq!(
        snap.as_bytes(),
        p.snapshot().as_bytes(),
        "capturing twice without running is byte-identical"
    );

    let mut q = Platform::new(PlatformId::RtlSim, &deriv);
    q.restore(&snap).unwrap();
    assert_eq!(
        q.snapshot().as_bytes(),
        snap.as_bytes(),
        "restore → snapshot reproduces the blob byte-for-byte"
    );
    assert_eq!(q.state_digest(), p.state_digest());
}

#[test]
fn restore_rejects_wrong_platform_and_fault() {
    let deriv = Derivative::sc88a();
    let mut p = Platform::new(PlatformId::GoldenModel, &deriv);
    p.load_image(&busy_test());
    let snap = p.snapshot();

    let mut other = Platform::new(PlatformId::GateSim, &deriv);
    assert_eq!(other.restore(&snap), Err(SaveStateError::PlatformMismatch));

    let mut faulted = Platform::with_fault(
        PlatformId::GoldenModel,
        &deriv,
        PlatformFault::UartDropsBytes,
    );
    assert_eq!(faulted.restore(&snap), Err(SaveStateError::FaultMismatch));

    // from_snapshot is the sanctioned way to re-target the fault.
    let forked = Platform::from_snapshot(&snap, &deriv, PlatformFault::UartDropsBytes).unwrap();
    assert_eq!(forked.fault(), PlatformFault::UartDropsBytes);
    assert_eq!(forked.state_digest(), p.state_digest());
}

#[test]
fn fork_safety_tracks_mmio_coverage() {
    let deriv = Derivative::sc88a();
    let mut p = Platform::new(PlatformId::ProductSilicon, &deriv);
    p.load_image(&busy_test());

    // Nothing run yet: no MMIO touched, every per-module fault forks.
    assert!(p.fork_safe(PlatformFault::None));
    assert!(p.fork_safe(PlatformFault::PageActiveOffByOne));
    assert!(p.fork_safe(PlatformFault::BusExtraWaitStates));
    assert!(
        !p.fork_safe(PlatformFault::EsDispatchSkewed),
        "ROM dispatch-table fetches are not MMIO-tracked, never forkable"
    );

    p.run();
    // The run selected a page and wrote the mailbox: those faults can
    // no longer fork, but untouched modules still can.
    assert!(!p.fork_safe(PlatformFault::PageActiveOffByOne));
    assert!(!p.fork_safe(PlatformFault::MailboxScratchStuck));
    assert!(!p.fork_safe(PlatformFault::BusExtraWaitStates));
    assert!(p.fork_safe(PlatformFault::UartDropsBytes));
    assert!(p.fork_safe(PlatformFault::TimerNeverExpires));
    assert!(p.fork_safe(PlatformFault::None));
}

#[test]
fn snapshot_round_trips_after_nvm_program_and_erase() {
    let deriv = Derivative::sc88a();
    let mut p = Platform::new(PlatformId::RtlSim, &deriv);
    p.load_image(&nvm_test());
    let result = p.run();
    assert!(result.passed(), "{result}");
    assert_eq!(p.bus().nvm_word(0x20), 0x600D_F00D, "programmed");
    assert_eq!(p.bus().nvm_word(0x100), 0xFFFF_FFFF, "erased");
    assert_eq!(p.bus().nvm_word(0x104), 0xFFFF_FFFF, "erased");
    assert_eq!(
        p.cpu().d(advm_isa::DataReg::D4),
        0x1234_5678,
        "read before erase"
    );
    assert_eq!(
        p.cpu().d(advm_isa::DataReg::D6),
        0xFFFF_FFFF,
        "read after erase"
    );

    let snap = p.snapshot();
    let mut q = Platform::new(PlatformId::RtlSim, &deriv);
    q.restore(&snap).unwrap();
    assert_eq!(q.snapshot().as_bytes(), snap.as_bytes());
    assert_eq!(q.state_digest(), p.state_digest());
    let forked = Platform::from_snapshot(&snap, &deriv, PlatformFault::None).unwrap();
    assert_eq!(forked.snapshot().as_bytes(), snap.as_bytes());
    assert_eq!(forked.state_digest(), p.state_digest());
}

/// The snapshot the decoder proptest mutates: taken mid-run with the
/// trace armed, so it carries a trace ring, ROM code, RAM data, the NVM
/// image word and an NVM program in flight.
fn live_snapshot() -> Vec<u8> {
    let mut p = Platform::new(PlatformId::RtlSim, &Derivative::sc88a());
    p.enable_trace(8);
    p.load_image(&nvm_test());
    p.set_fuel(22);
    p.run();
    let snap = p.snapshot().into_bytes();
    let busy = p.bus().read32(0xE_0510).unwrap() & 1;
    assert_eq!(busy, 1, "the snapshot must catch the NVM program in flight");
    snap
}

/// Restores a decoded snapshot every way a caller can and runs what
/// results for a bounded number of further instructions: whatever the
/// blob held, nothing here may panic.
fn exercise(state: &SaveState) {
    let deriv = Derivative::sc88a();
    let run_bounded = |p: &mut Platform| {
        p.set_fuel(p.cpu().retired().saturating_add(2_000));
        p.run();
        let _ = (p.snapshot(), p.state_digest());
    };
    let mut restored = Platform::new(PlatformId::RtlSim, &deriv);
    restored.enable_trace(8);
    if restored.restore(state).is_ok() {
        run_bounded(&mut restored);
    }
    if let Ok(mut forked) = Platform::from_snapshot(state, &deriv, PlatformFault::None) {
        run_bounded(&mut forked);
    }
}

proptest! {
    // 2048 edited snapshots per run: enough to reach the offset of the
    // in-flight NVM operation, which the decoder must reject when it
    // points outside NVM.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hostile snapshot bytes: a real snapshot with one byte flipped or
    /// its tail cut off either fails to decode with a typed error or
    /// decodes to a machine that restores, runs and snapshots again —
    /// never a panic.
    #[test]
    fn mutated_snapshots_never_panic(
        edits in proptest::collection::vec((any::<u32>(), 1u8..=255, any::<bool>()), 16),
    ) {
        let blob = live_snapshot();
        for (at, flip, truncate) in edits {
            let at = at as usize % blob.len();
            let mut bytes = blob.clone();
            if truncate {
                bytes.truncate(at);
            } else {
                bytes[at] ^= flip;
            }
            if let Ok(state) = SaveState::from_bytes(&bytes) {
                exercise(&state);
            }
        }
    }
}

proptest! {
    // Pinned so CI case counts don't drift with proptest defaults.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fork guarantee, on every platform: stop a machine after `k`
    /// instructions, snapshot, resume a *fresh* machine from the blob —
    /// the end state digests equal a machine that ran straight through,
    /// and the observable result agrees.
    #[test]
    fn resumed_run_equals_straight_run(
        split in 1u64..30,
        platform_idx in 0usize..PlatformId::ALL.len(),
    ) {
        let platform_id = PlatformId::ALL[platform_idx];
        let deriv = Derivative::sc88a();
        let img = busy_test();

        let mut straight = Platform::new(platform_id, &deriv);
        straight.enable_trace(16);
        straight.load_image(&img);
        let full = straight.run();

        let mut prefix = Platform::new(platform_id, &deriv);
        prefix.enable_trace(16);
        prefix.load_image(&img);
        prefix.set_fuel(split);
        prefix.run();

        let mut resumed = Platform::from_snapshot(
            &prefix.snapshot(), &deriv, PlatformFault::None,
        ).expect("live snapshot applies");
        resumed.set_fuel(advm_sim::DEFAULT_FUEL);
        let rest = resumed.run();

        prop_assert_eq!(resumed.state_digest(), straight.state_digest());
        prop_assert_eq!(arch_result(&rest), arch_result(&full));
        prop_assert_eq!(resumed.cpu().retired(), straight.cpu().retired());
        if let (Some(a), Some(b)) = (resumed.trace(), straight.trace()) {
            prop_assert_eq!(a.signature(), b.signature(), "trace survives the seam");
            prop_assert_eq!(a.records(), b.records());
        }
        // Cycle-accurate timing also survives the seam.
        prop_assert_eq!(resumed.bus().now(), straight.bus().now());
    }

    /// Register/memory state after arbitrary ALU work round-trips
    /// through a snapshot exactly.
    #[test]
    fn alu_state_survives_snapshot(ops in proptest::collection::vec(0u8..6, 1..40)) {
        let mut text = String::from("_main:\n");
        for (i, op) in ops.iter().enumerate() {
            let d = 1 + (i % 10);
            let imm = (i as u32).wrapping_mul(37) % 4000;
            match op {
                0 => text.push_str(&format!("    ADD d{d}, d{d}, #{imm}\n")),
                1 => text.push_str(&format!("    SUB d{d}, d{d}, #{imm}\n")),
                2 => text.push_str(&format!("    ORI d{d}, d{d}, #{imm}\n")),
                3 => text.push_str(&format!("    ANDI d{d}, d{d}, #{imm}\n")),
                4 => text.push_str(&format!("    MOVI d{d}, #{imm}\n")),
                _ => text.push_str(&format!("    XORI d{d}, d{d}, #{imm}\n")),
            }
        }
        text.push_str("    HALT #0\n");
        let img = image(&text);

        let mut p = Platform::new(PlatformId::GoldenModel, &Derivative::sc88a());
        p.load_image(&img);
        p.run();

        let mut q = Platform::new(PlatformId::GoldenModel, &Derivative::sc88a());
        q.restore(&p.snapshot()).unwrap();
        prop_assert_eq!(q.cpu().pc(), p.cpu().pc());
        prop_assert_eq!(q.state_digest(), p.state_digest());
        prop_assert_eq!(q.snapshot().as_bytes(), p.snapshot().as_bytes());
    }
}
