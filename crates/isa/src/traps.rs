//! Trap and interrupt architecture.
//!
//! The paper's system-level environment (Figure 5) carries a global
//! "Trap Handlers" library shared by all module test environments. SC88
//! gives that library real hardware to talk to: a vector table in low
//! memory, hardware trap vectors for CPU faults, and a window of vectors
//! driven by the interrupt controller.

use std::fmt;

/// Byte address of the vector table. Entry `n` is a 32-bit handler address
/// at `VECTOR_BASE + n * VECTOR_ENTRY_BYTES`.
pub const VECTOR_BASE: u32 = 0x0000_0000;

/// Number of vector-table entries.
pub const VECTOR_COUNT: u32 = 32;

/// Size of one vector-table entry in bytes.
pub const VECTOR_ENTRY_BYTES: u32 = 4;

/// The program counter after reset, immediately above the vector table.
pub const RESET_PC: u32 = 0x0000_0100;

/// Classification of a trap or interrupt cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Undecodable or invalid instruction word.
    IllegalInsn,
    /// Word access to a non-word-aligned address.
    Misaligned,
    /// Access to an unmapped address.
    BusError,
    /// Watchdog timer expiry.
    Watchdog,
    /// Explicit `TRAP #n` instruction.
    Software(u8),
    /// External interrupt request line `n` from the interrupt controller.
    Irq(u8),
}

impl TrapKind {
    /// Vector-table entry used for hardware trap causes.
    pub const ILLEGAL_VECTOR: u8 = 1;
    /// Vector-table entry for misaligned accesses.
    pub const MISALIGNED_VECTOR: u8 = 2;
    /// Vector-table entry for bus errors.
    pub const BUS_ERROR_VECTOR: u8 = 3;
    /// Vector-table entry for the watchdog.
    pub const WATCHDOG_VECTOR: u8 = 4;
    /// First vector-table entry used by external interrupts; IRQ line `n`
    /// maps to vector `IRQ_VECTOR_BASE + n`.
    pub const IRQ_VECTOR_BASE: u8 = 16;

    /// The vector-table index this cause dispatches through.
    ///
    /// Software traps use their literal vector number; IRQ lines are offset
    /// by [`TrapKind::IRQ_VECTOR_BASE`]. The result is always below
    /// [`VECTOR_COUNT`] for representable causes.
    pub fn vector(self) -> u8 {
        match self {
            TrapKind::IllegalInsn => Self::ILLEGAL_VECTOR,
            TrapKind::Misaligned => Self::MISALIGNED_VECTOR,
            TrapKind::BusError => Self::BUS_ERROR_VECTOR,
            TrapKind::Watchdog => Self::WATCHDOG_VECTOR,
            TrapKind::Software(n) => n,
            TrapKind::Irq(n) => Self::IRQ_VECTOR_BASE + n,
        }
    }

    /// Whether the cause is asynchronous (interrupts) rather than a fault
    /// of the executing instruction.
    #[cfg(test)]
    pub(crate) fn is_interrupt(self) -> bool {
        matches!(self, TrapKind::Irq(_) | TrapKind::Watchdog)
    }
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::IllegalInsn => write!(f, "illegal instruction"),
            TrapKind::Misaligned => write!(f, "misaligned access"),
            TrapKind::BusError => write!(f, "bus error"),
            TrapKind::Watchdog => write!(f, "watchdog expiry"),
            TrapKind::Software(n) => write!(f, "software trap #{n}"),
            TrapKind::Irq(n) => write!(f, "irq {n}"),
        }
    }
}

/// Byte address of the vector-table entry for vector `n`.
///
/// # Panics
///
/// Panics if `n >= VECTOR_COUNT`.
pub fn vector_entry_addr(n: u8) -> u32 {
    assert!(
        u32::from(n) < VECTOR_COUNT,
        "vector {n} out of range (max {VECTOR_COUNT})"
    );
    VECTOR_BASE + u32::from(n) * VECTOR_ENTRY_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_table_fits_below_reset_pc() {
        const { assert!(VECTOR_BASE + VECTOR_COUNT * VECTOR_ENTRY_BYTES <= RESET_PC) }
    }

    #[test]
    fn hardware_vectors_are_distinct() {
        let vs = [
            TrapKind::IllegalInsn.vector(),
            TrapKind::Misaligned.vector(),
            TrapKind::BusError.vector(),
            TrapKind::Watchdog.vector(),
        ];
        for (i, a) in vs.iter().enumerate() {
            for b in &vs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn irq_vectors_offset_into_table() {
        assert_eq!(TrapKind::Irq(0).vector(), 16);
        assert_eq!(TrapKind::Irq(15).vector(), 31);
        assert!(u32::from(TrapKind::Irq(15).vector()) < VECTOR_COUNT);
    }

    #[test]
    fn interrupt_classification() {
        assert!(TrapKind::Irq(3).is_interrupt());
        assert!(TrapKind::Watchdog.is_interrupt());
        assert!(!TrapKind::Software(9).is_interrupt());
        assert!(!TrapKind::BusError.is_interrupt());
    }

    #[test]
    fn entry_addresses_are_word_spaced() {
        assert_eq!(vector_entry_addr(0), 0);
        assert_eq!(vector_entry_addr(4), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn entry_address_bounds_checked() {
        vector_entry_addr(32);
    }
}
