//! The program status word: arithmetic flags and interrupt enable.

use std::fmt;

/// The SC88 program status word.
///
/// Bit layout (only the low five bits are architecturally defined):
///
/// | bit | flag | meaning |
/// |-----|------|---------|
/// | 0   | `Z`  | result was zero |
/// | 1   | `N`  | result was negative (bit 31 set) |
/// | 2   | `C`  | carry / unsigned borrow |
/// | 3   | `V`  | signed overflow |
/// | 4   | `IE` | interrupts enabled |
///
/// ```
/// use advm_isa::Psw;
///
/// let mut psw = Psw::default();
/// psw.set_carry(true);
/// assert!(psw.carry());
/// assert_eq!(psw.bits() & 0b100, 0b100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Psw {
    bits: u32,
}

const Z: u32 = 1 << 0;
const N: u32 = 1 << 1;
const C: u32 = 1 << 2;
const V: u32 = 1 << 3;
const IE: u32 = 1 << 4;
const DEFINED: u32 = Z | N | C | V | IE;

impl Psw {
    /// A status word with all flags clear and interrupts disabled
    /// (the architectural reset state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a status word from raw bits; undefined bits are masked.
    pub fn from_bits(bits: u32) -> Self {
        Self {
            bits: bits & DEFINED,
        }
    }

    /// The raw bit representation.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The zero flag.
    pub fn zero(self) -> bool {
        self.bits & Z != 0
    }

    /// The negative flag.
    pub fn negative(self) -> bool {
        self.bits & N != 0
    }

    /// The carry flag.
    pub fn carry(self) -> bool {
        self.bits & C != 0
    }

    /// The signed-overflow flag.
    pub fn overflow(self) -> bool {
        self.bits & V != 0
    }

    /// Whether maskable interrupts are enabled.
    pub fn interrupts_enabled(self) -> bool {
        self.bits & IE != 0
    }

    /// Sets the zero flag.
    pub(crate) fn set_zero(&mut self, value: bool) {
        self.set(Z, value);
    }

    /// Sets the negative flag.
    pub(crate) fn set_negative(&mut self, value: bool) {
        self.set(N, value);
    }

    /// Sets the carry flag.
    pub fn set_carry(&mut self, value: bool) {
        self.set(C, value);
    }

    /// Sets the signed-overflow flag.
    pub fn set_overflow(&mut self, value: bool) {
        self.set(V, value);
    }

    /// Enables or disables maskable interrupts.
    pub fn set_interrupts_enabled(&mut self, value: bool) {
        self.set(IE, value);
    }

    /// Updates `Z` and `N` from an ALU result, leaving `C` and `V` alone.
    pub fn set_zn(&mut self, result: u32) {
        self.set_zero(result == 0);
        self.set_negative(result & 0x8000_0000 != 0);
    }

    /// Updates all four arithmetic flags from a subtraction `a - b`,
    /// the comparison semantics used by `CMP`.
    pub fn set_compare(&mut self, a: u32, b: u32) {
        let (result, borrow) = a.overflowing_sub(b);
        self.set_zn(result);
        self.set_carry(borrow);
        self.set_overflow((a as i32).overflowing_sub(b as i32).1);
    }

    fn set(&mut self, mask: u32, value: bool) {
        if value {
            self.bits |= mask;
        } else {
            self.bits &= !mask;
        }
    }
}

impl fmt::Display for Psw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}{}{}{}]",
            if self.zero() { 'Z' } else { '-' },
            if self.negative() { 'N' } else { '-' },
            if self.carry() { 'C' } else { '-' },
            if self.overflow() { 'V' } else { '-' },
            if self.interrupts_enabled() { 'I' } else { '-' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_clear() {
        let psw = Psw::new();
        assert_eq!(psw.bits(), 0);
        assert!(!psw.zero() && !psw.negative() && !psw.carry() && !psw.overflow());
        assert!(!psw.interrupts_enabled());
    }

    #[test]
    fn from_bits_masks_undefined() {
        let psw = Psw::from_bits(0xFFFF_FFFF);
        assert_eq!(psw.bits(), 0b11111);
    }

    #[test]
    fn compare_equal_sets_only_zero() {
        let mut psw = Psw::new();
        psw.set_compare(7, 7);
        assert!(psw.zero());
        assert!(!psw.negative() && !psw.carry() && !psw.overflow());
    }

    #[test]
    fn compare_unsigned_borrow_sets_carry() {
        let mut psw = Psw::new();
        psw.set_compare(3, 5);
        assert!(psw.carry(), "3 - 5 borrows");
        assert!(psw.negative());
        assert!(!psw.overflow());
    }

    #[test]
    fn compare_signed_overflow() {
        let mut psw = Psw::new();
        psw.set_compare(i32::MIN as u32, 1);
        assert!(psw.overflow(), "MIN - 1 overflows signed range");
        assert!(!psw.negative(), "wrapped result is positive");
    }

    #[test]
    fn set_zn_tracks_sign_bit() {
        let mut psw = Psw::new();
        psw.set_zn(0x8000_0000);
        assert!(psw.negative());
        assert!(!psw.zero());
        psw.set_zn(0);
        assert!(psw.zero());
        assert!(!psw.negative());
    }

    #[test]
    fn display_shows_flags() {
        let mut psw = Psw::new();
        psw.set_zero(true);
        psw.set_carry(true);
        assert_eq!(psw.to_string(), "[Z-C--]");
    }
}
