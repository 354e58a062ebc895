//! Interrupt controller: 16 lines, enable mask, pending latch.

use crate::savestate::{put_u32, SaveReader, SaveStateError};

/// Enable-mask register offset.
pub const ENABLE: u32 = 0x00;
/// Pending-lines register offset.
pub const PENDING: u32 = 0x04;
/// Acknowledge register offset (write a line number to clear it).
pub const ACK: u32 = 0x08;
/// Software-raise register offset (write a line number to assert it).
pub const RAISE: u32 = 0x0C;

/// The interrupt controller.
///
/// Lines latch into `PENDING` regardless of the enable mask; the mask
/// gates which lines reach the CPU. Software acknowledges a line by
/// writing its number to `ACK`.
#[derive(Debug, Clone, Default)]
pub struct Intc {
    enable: u32,
    pending: u32,
}

impl Intc {
    /// Creates a controller with all lines masked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32) -> u32 {
        match offset {
            ENABLE => self.enable,
            PENDING => self.pending,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32) {
        match offset {
            ENABLE => self.enable = value & 0xFFFF,
            ACK => {
                let line = value & 0xF;
                self.pending &= !(1 << line);
            }
            RAISE => self.raise((value & 0xF) as u8),
            _ => {}
        }
    }

    /// Asserts interrupt line `line`.
    pub fn raise(&mut self, line: u8) {
        self.pending |= 1 << u32::from(line & 0xF);
    }

    /// The lowest-numbered pending *and enabled* line, if any.
    pub(crate) fn active_line(&self) -> Option<u8> {
        let masked = self.pending & self.enable;
        if masked == 0 {
            None
        } else {
            Some(masked.trailing_zeros() as u8)
        }
    }

    /// Serializes the controller state.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.enable);
        put_u32(out, self.pending);
    }

    /// Restores the controller state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.enable = r.take_u32()?;
        self.pending = r.take_u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_line_latches_but_does_not_fire() {
        let mut intc = Intc::new();
        intc.raise(3);
        assert_eq!(intc.active_line(), None);
        assert_eq!(intc.read(PENDING), 1 << 3, "latched while masked");
        intc.write(ENABLE, 1 << 3);
        assert_eq!(intc.active_line(), Some(3), "fires once unmasked");
    }

    #[test]
    fn ack_clears_line() {
        let mut intc = Intc::new();
        intc.write(ENABLE, 0xFFFF);
        intc.raise(5);
        assert_eq!(intc.active_line(), Some(5));
        intc.write(ACK, 5);
        assert_eq!(intc.active_line(), None);
    }

    #[test]
    fn lowest_line_wins() {
        let mut intc = Intc::new();
        intc.write(ENABLE, 0xFFFF);
        intc.raise(7);
        intc.raise(2);
        assert_eq!(intc.active_line(), Some(2));
    }

    #[test]
    fn software_raise_register() {
        let mut intc = Intc::new();
        intc.write(ENABLE, 0xFFFF);
        intc.write(RAISE, 9);
        assert_eq!(intc.active_line(), Some(9));
    }
}
