//! The test-bench mailbox: how assembler tests talk to the platform.
//!
//! The paper's tests run unmodified on six very different platforms (§1).
//! That requires a platform-independent way for a test to say *"I passed"*
//! or *"I failed"* and to end the simulation. SC88 uses a memory-mapped
//! mailbox at the top of the MMIO region; every platform implements it
//! (silicon via a debug/test port, simulators natively), and the
//! abstraction layer's `Globals.inc` publishes its addresses so tests
//! never hardwire them.

use std::fmt;

/// Identity of an execution platform, as reported by the mailbox's
/// `PLATFORM` register. These are the six development platforms the paper
/// lists in §1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlatformId {
    /// The golden reference model — the software simulator supplied to the
    /// customer for software development.
    GoldenModel,
    /// HDL-RTL simulation of the design for silicon.
    RtlSim,
    /// Post-synthesis gate-level simulation.
    GateSim,
    /// Hardware accelerator / emulator (the paper names Quickturn, IKOS).
    Accelerator,
    /// Bondout silicon with extra debug capabilities.
    Bondout,
    /// Final product silicon.
    ProductSilicon,
}

impl PlatformId {
    /// All platforms in the paper's §1 order.
    pub const ALL: [PlatformId; 6] = [
        PlatformId::GoldenModel,
        PlatformId::RtlSim,
        PlatformId::GateSim,
        PlatformId::Accelerator,
        PlatformId::Bondout,
        PlatformId::ProductSilicon,
    ];

    /// The identity code readable from the mailbox `PLATFORM` register.
    pub fn code(self) -> u32 {
        match self {
            PlatformId::GoldenModel => 1,
            PlatformId::RtlSim => 2,
            PlatformId::GateSim => 3,
            PlatformId::Accelerator => 4,
            PlatformId::Bondout => 5,
            PlatformId::ProductSilicon => 6,
        }
    }

    /// Decodes a `PLATFORM` register value.
    pub fn from_code(code: u32) -> Option<PlatformId> {
        PlatformId::ALL.into_iter().find(|p| p.code() == code)
    }

    /// Short name used in reports and directory layouts.
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::GoldenModel => "golden",
            PlatformId::RtlSim => "rtl",
            PlatformId::GateSim => "gate",
            PlatformId::Accelerator => "accel",
            PlatformId::Bondout => "bondout",
            PlatformId::ProductSilicon => "silicon",
        }
    }

    /// Whether the platform exposes debug visibility (trace of `DBG`
    /// markers, register watchpoints). Only the golden model, RTL
    /// simulation and the bondout device do.
    pub fn has_debug_visibility(self) -> bool {
        matches!(
            self,
            PlatformId::GoldenModel | PlatformId::RtlSim | PlatformId::Bondout
        )
    }

    /// Rough relative execution speed (instructions per wall-clock unit),
    /// used to model platform-dependent polling budgets. Gate-level
    /// simulation is orders of magnitude slower than silicon.
    #[cfg(test)]
    pub(crate) fn speed_class(self) -> u32 {
        match self {
            PlatformId::GateSim => 1,
            PlatformId::RtlSim => 10,
            PlatformId::GoldenModel => 1_000,
            PlatformId::Accelerator => 10_000,
            PlatformId::Bondout => 100_000,
            PlatformId::ProductSilicon => 100_000,
        }
    }
}

impl fmt::Display for PlatformId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The mailbox register block. Base address and offsets are identical on
/// every derivative — the mailbox belongs to the verification environment,
/// not the chip — but tests still reach it through `Globals.inc` defines,
/// as the methodology requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mailbox {
    base: u32,
}

impl Mailbox {
    /// Standard mailbox base address, at the top of the MMIO region.
    pub const BASE: u32 = 0xE_FF00;

    /// `RESULT` register offset: tests write [`Mailbox::PASS_MAGIC`] or
    /// [`Mailbox::FAIL_MAGIC`] (OR-ed with a detail code) here.
    pub const RESULT: u32 = 0x00;
    /// `CHAROUT` register offset: console byte output.
    pub const CHAROUT: u32 = 0x04;
    /// `SIM_END` register offset: any write terminates the platform run.
    pub const SIM_END: u32 = 0x08;
    /// `TICKS` register offset: read the platform cycle counter.
    pub const TICKS: u32 = 0x0C;
    /// `PLATFORM` register offset: read the [`PlatformId`] code.
    pub const PLATFORM: u32 = 0x10;
    /// `SCRATCH` register offset: free read/write word for tests.
    pub const SCRATCH: u32 = 0x14;

    /// Magic prefix for a passing result (low 16 bits carry a detail code).
    pub const PASS_MAGIC: u32 = 0x600D_0000;
    /// Magic prefix for a failing result (low 16 bits carry a detail code).
    pub const FAIL_MAGIC: u32 = 0xBAD0_0000;
    /// Mask selecting the magic prefix of a result word.
    pub const MAGIC_MASK: u32 = 0xFFFF_0000;

    /// A mailbox at the standard base.
    pub fn new() -> Self {
        Self { base: Self::BASE }
    }

    /// A mailbox at a custom base (used by fault-injection tests).
    pub fn at(base: u32) -> Self {
        Self { base }
    }

    /// The mailbox base address.
    pub fn base(self) -> u32 {
        self.base
    }

    /// Absolute address of a register given its offset constant.
    pub fn reg(self, offset: u32) -> u32 {
        self.base + offset
    }

    /// Interprets a word written to `RESULT`.
    pub fn classify_result(word: u32) -> Option<TestOutcome> {
        match word & Self::MAGIC_MASK {
            Self::PASS_MAGIC => Some(TestOutcome::Pass {
                detail: (word & 0xFFFF) as u16,
            }),
            Self::FAIL_MAGIC => Some(TestOutcome::Fail {
                detail: (word & 0xFFFF) as u16,
            }),
            _ => None,
        }
    }
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome reported by a test through the mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestOutcome {
    /// The test wrote `PASS_MAGIC | detail`.
    Pass {
        /// Test-specific detail code (usually 0).
        detail: u16,
    },
    /// The test wrote `FAIL_MAGIC | detail`.
    Fail {
        /// Test-specific failure code (usually a check number).
        detail: u16,
    },
}

impl TestOutcome {
    /// Whether the outcome is a pass.
    pub fn passed(self) -> bool {
        matches!(self, TestOutcome::Pass { .. })
    }
}

impl fmt::Display for TestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestOutcome::Pass { detail } => write!(f, "PASS({detail})"),
            TestOutcome::Fail { detail } => write!(f, "FAIL({detail})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_codes_roundtrip() {
        for p in PlatformId::ALL {
            assert_eq!(PlatformId::from_code(p.code()), Some(p));
        }
        assert_eq!(PlatformId::from_code(0), None);
        assert_eq!(PlatformId::from_code(7), None);
    }

    #[test]
    fn platform_codes_distinct() {
        let mut codes: Vec<u32> = PlatformId::ALL.iter().map(|p| p.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), PlatformId::ALL.len());
    }

    #[test]
    fn debug_visibility_matches_paper() {
        // The bondout device is "enhanced to include extra hardware
        // debugging capabilities"; product silicon is not.
        assert!(PlatformId::Bondout.has_debug_visibility());
        assert!(!PlatformId::ProductSilicon.has_debug_visibility());
        assert!(!PlatformId::Accelerator.has_debug_visibility());
    }

    #[test]
    fn gate_sim_is_slowest() {
        let gate = PlatformId::GateSim.speed_class();
        for p in PlatformId::ALL {
            assert!(p.speed_class() >= gate);
        }
    }

    #[test]
    fn mailbox_addresses() {
        let mb = Mailbox::new();
        assert_eq!(mb.reg(Mailbox::RESULT), 0xE_FF00);
        assert_eq!(mb.reg(Mailbox::PLATFORM), 0xE_FF10);
        assert_eq!(Mailbox::at(0x1000).reg(Mailbox::SIM_END), 0x1008);
    }

    #[test]
    fn result_classification() {
        assert_eq!(
            Mailbox::classify_result(Mailbox::PASS_MAGIC),
            Some(TestOutcome::Pass { detail: 0 })
        );
        assert_eq!(
            Mailbox::classify_result(Mailbox::FAIL_MAGIC | 7),
            Some(TestOutcome::Fail { detail: 7 })
        );
        assert_eq!(Mailbox::classify_result(0xDEAD_BEEF), None);
        assert!(TestOutcome::Pass { detail: 1 }.passed());
        assert!(!TestOutcome::Fail { detail: 0 }.passed());
    }

    #[test]
    fn outcome_display() {
        assert_eq!(TestOutcome::Pass { detail: 0 }.to_string(), "PASS(0)");
        assert_eq!(TestOutcome::Fail { detail: 3 }.to_string(), "FAIL(3)");
    }
}
