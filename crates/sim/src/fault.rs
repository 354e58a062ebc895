//! Platform fault injection — the catalog the suite-strength audit sweeps.
//!
//! The methodology's cross-platform claim is only testable if platforms
//! can *disagree*: a design bug that exists in the RTL but not in the
//! golden model must show up as a cross-platform divergence caught by the
//! shared test suite. These injectable faults model such bugs.
//!
//! Each variant models one concrete hardware defect class (stuck bits,
//! dropped writes, dead interrupt wiring, decoder skew, bus wait-states).
//! [`crate::bus::SocBus::new`] wires the selected fault into exactly one
//! peripheral or bus path, leaving the no-fault path untouched; the
//! `FaultAudit` driver in the methodology engine sweeps the whole catalog
//! across platforms and classifies which faults the suite detects.

use std::fmt;

/// A hardware bug injectable into one platform's peripheral models.
///
/// Variants are grouped by fault site; the doc comment of each variant
/// names the real-world defect it stands in for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlatformFault {
    /// No fault: the platform implements the specification.
    #[default]
    None,

    // ---- page module ---------------------------------------------------
    /// The page module reports `ACTIVE_PAGE` one higher than selected —
    /// a classic *read-path* bug (status mux off by one) that only a
    /// read-back test catches.
    PageActiveOffByOne,
    /// Bit 0 of the `PAGE` control field is stuck at zero on the *write*
    /// path: odd page selections silently land on the even page below
    /// (a tied-low data line into the control register).
    PageSelectDropsLowBit,
    /// Writes to the `PAGE_MAP` register are ignored — the register
    /// reads back its reset value forever (a dead write-enable strobe).
    /// Reset-value tests pass over it; only a write/read-back sweep of
    /// the register catches it.
    PageMapWriteIgnored,

    // ---- UART ----------------------------------------------------------
    /// The UART silently drops every second transmitted byte (transmit
    /// FIFO pointer bug).
    UartDropsBytes,
    /// `STATUS.TX_READY` never asserts — the framing state machine is
    /// stuck busy, so correctly written software that polls before
    /// sending hangs forever.
    UartTxStuckBusy,
    /// Every accepted byte is transmitted *twice* (shift-register reload
    /// bug). The payload still arrives, so echo tests pass; the
    /// duplicate shows up only as a spurious receive `OVERRUN`.
    UartDuplicatesBytes,

    // ---- timer ---------------------------------------------------------
    /// The timer never expires (clock-gating bug).
    TimerNeverExpires,
    /// Periodic mode fails to reload: the timer behaves as one-shot
    /// (reload mux wired to the mode bit's complement).
    TimerPeriodicNoReload,
    /// Expiry sets the `EXPIRED` status flag but the interrupt edge is
    /// never raised (dead wire between timer and interrupt controller).
    TimerIrqSuppressed,

    // ---- test-bench mailbox ---------------------------------------------
    /// Writes to the mailbox `SCRATCH` register are dropped; it reads
    /// zero forever (write-enable stuck inactive).
    MailboxScratchStuck,
    /// The mailbox `TICKS` counter reads zero forever (counter clock
    /// gated off), so time appears to stand still.
    MailboxTicksFrozen,

    // ---- ES ROM / bus --------------------------------------------------
    /// Instruction fetches from the embedded-software ROM *jump table*
    /// return the next slot's word (address decoder off by one row):
    /// every ES entry point dispatches to the wrong routine.
    EsDispatchSkewed,
    /// Every MMIO access inserts extra bus wait-states (a misprogrammed
    /// bus bridge). Functionally invisible to polling software — only a
    /// test that *measures* relative bus timing catches it.
    BusExtraWaitStates,
}

/// Extra cycles [`PlatformFault::BusExtraWaitStates`] charges per MMIO
/// access.
pub const BUS_WAIT_STATE_CYCLES: u64 = 8;

impl PlatformFault {
    /// All injectable faults (excluding `None`), in catalog order.
    pub const ALL: [PlatformFault; 13] = [
        PlatformFault::PageActiveOffByOne,
        PlatformFault::PageSelectDropsLowBit,
        PlatformFault::PageMapWriteIgnored,
        PlatformFault::UartDropsBytes,
        PlatformFault::UartTxStuckBusy,
        PlatformFault::UartDuplicatesBytes,
        PlatformFault::TimerNeverExpires,
        PlatformFault::TimerPeriodicNoReload,
        PlatformFault::TimerIrqSuppressed,
        PlatformFault::MailboxScratchStuck,
        PlatformFault::MailboxTicksFrozen,
        PlatformFault::EsDispatchSkewed,
        PlatformFault::BusExtraWaitStates,
    ];

    /// The register-map module whose stimulus exercises this fault site.
    ///
    /// The suite-strength audit feeds the modules of *escaped* faults
    /// into the scenario engine's weak-module feedback, so generation
    /// can aim stimulus at the surviving faults. `None` maps to no
    /// module.
    pub fn module(self) -> Option<&'static str> {
        match self {
            PlatformFault::None => None,
            PlatformFault::PageActiveOffByOne
            | PlatformFault::PageSelectDropsLowBit
            | PlatformFault::PageMapWriteIgnored => Some("PAGE"),
            PlatformFault::UartDropsBytes
            | PlatformFault::UartTxStuckBusy
            | PlatformFault::UartDuplicatesBytes => Some("UART"),
            PlatformFault::TimerNeverExpires
            | PlatformFault::TimerPeriodicNoReload
            | PlatformFault::TimerIrqSuppressed => Some("TIMER"),
            // The mailbox and the bus have no dedicated stimulus preset of
            // their own; the testbench (`TB`) cells exercise both.
            PlatformFault::MailboxScratchStuck
            | PlatformFault::MailboxTicksFrozen
            | PlatformFault::BusExtraWaitStates => Some("TB"),
            PlatformFault::EsDispatchSkewed => Some("ES"),
        }
    }

    /// Parses the stable kebab-case name rendered by `Display`.
    pub fn parse(text: &str) -> Option<Self> {
        std::iter::once(PlatformFault::None)
            .chain(PlatformFault::ALL)
            .find(|f| f.to_string() == text)
    }
}

impl fmt::Display for PlatformFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlatformFault::None => "none",
            PlatformFault::PageActiveOffByOne => "page-active-off-by-one",
            PlatformFault::PageSelectDropsLowBit => "page-select-drops-low-bit",
            PlatformFault::PageMapWriteIgnored => "page-map-write-ignored",
            PlatformFault::UartDropsBytes => "uart-drops-bytes",
            PlatformFault::UartTxStuckBusy => "uart-tx-stuck-busy",
            PlatformFault::UartDuplicatesBytes => "uart-duplicates-bytes",
            PlatformFault::TimerNeverExpires => "timer-never-expires",
            PlatformFault::TimerPeriodicNoReload => "timer-periodic-no-reload",
            PlatformFault::TimerIrqSuppressed => "timer-irq-suppressed",
            PlatformFault::MailboxScratchStuck => "mailbox-scratch-stuck",
            PlatformFault::MailboxTicksFrozen => "mailbox-ticks-frozen",
            PlatformFault::EsDispatchSkewed => "es-dispatch-skewed",
            PlatformFault::BusExtraWaitStates => "bus-extra-wait-states",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert_eq!(PlatformFault::default(), PlatformFault::None);
    }

    #[test]
    fn all_excludes_none() {
        assert!(!PlatformFault::ALL.contains(&PlatformFault::None));
        assert!(PlatformFault::ALL.len() >= 10, "catalog must stay ≥ 10");
    }

    #[test]
    fn names_are_unique_and_parse_roundtrips() {
        let mut seen = std::collections::HashSet::new();
        for fault in std::iter::once(PlatformFault::None).chain(PlatformFault::ALL) {
            let name = fault.to_string();
            assert!(seen.insert(name.clone()), "duplicate name {name}");
            assert_eq!(PlatformFault::parse(&name), Some(fault));
        }
        assert_eq!(PlatformFault::parse("bogus"), None);
    }

    #[test]
    fn every_fault_names_a_stimulus_module() {
        assert_eq!(PlatformFault::None.module(), None);
        for fault in PlatformFault::ALL {
            assert!(fault.module().is_some(), "{fault} has no module");
        }
    }
}
