//! NVM controller: unlock sequence, timed word writes and page erase.
//!
//! Direct stores to the NVM region are bus errors; software must use this
//! controller — which is why the embedded software exposes
//! `ES_Nvm_Unlock` / `ES_Nvm_Write_Word`, and why the abstraction layer
//! wraps them.

use crate::savestate::{put_bool, put_u32, put_u64, put_u8, SaveReader, SaveStateError};

/// Key register offset (write `0x55` then `0xAA` to unlock).
pub const KEY: u32 = 0x00;
/// Control register offset.
pub const CTRL: u32 = 0x04;
/// Target-address register offset.
pub const ADDR: u32 = 0x08;
/// Data register offset.
pub const DATA: u32 = 0x0C;
/// Status register offset.
pub const STATUS: u32 = 0x10;
/// Command register offset.
pub const CMD: u32 = 0x14;

const STATUS_BUSY: u32 = 1 << 0;
const STATUS_UNLOCKED: u32 = 1 << 1;
const STATUS_ERROR: u32 = 1 << 2;

/// Command: program one word.
pub const CMD_WRITE: u32 = 1;
/// Command: erase the 256-byte page containing `ADDR` (to `0xFF`).
pub const CMD_ERASE: u32 = 2;

/// Cycles a word program takes.
pub const WRITE_CYCLES: u64 = 10;
/// Cycles a page erase takes.
pub const ERASE_CYCLES: u64 = 100;

/// Erase page granularity in bytes.
pub const PAGE_BYTES: u32 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyState {
    Locked,
    HalfKey,
    Unlocked,
}

/// A committed NVM operation, applied to the NVM array by the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmOp {
    /// Write `value` at the relative NVM offset `offset`.
    Write {
        /// Byte offset within the NVM region.
        offset: u32,
        /// Word value to program.
        value: u32,
    },
    /// Erase the page containing `offset`.
    Erase {
        /// Byte offset within the NVM region.
        offset: u32,
    },
}

/// The NVM controller peripheral.
#[derive(Debug, Clone)]
pub struct NvmController {
    key_state: KeyState,
    addr: u32,
    data: u32,
    error: bool,
    busy_until: u64,
    pending: Option<(u64, NvmOp)>,
    nvm_size: u32,
}

impl NvmController {
    /// Creates a locked controller for an NVM region of `nvm_size` bytes.
    pub fn new(nvm_size: u32) -> Self {
        Self {
            key_state: KeyState::Locked,
            addr: 0,
            data: 0,
            error: false,
            busy_until: 0,
            pending: None,
            nvm_size,
        }
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32, now: u64) -> u32 {
        match offset {
            ADDR => self.addr,
            DATA => self.data,
            STATUS => {
                let mut s = 0;
                if now < self.busy_until {
                    s |= STATUS_BUSY;
                }
                if self.key_state == KeyState::Unlocked {
                    s |= STATUS_UNLOCKED;
                }
                if self.error {
                    s |= STATUS_ERROR;
                }
                s
            }
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32, now: u64) {
        match offset {
            KEY => {
                self.key_state = match (self.key_state, value & 0xFF) {
                    (KeyState::Locked, 0x55) => KeyState::HalfKey,
                    (KeyState::HalfKey, 0xAA) => KeyState::Unlocked,
                    (KeyState::Unlocked, _) => KeyState::Unlocked,
                    _ => KeyState::Locked,
                };
            }
            ADDR => self.addr = value & 0xF_FFFF,
            DATA => self.data = value,
            CMD => self.command(value, now),
            CTRL => {}
            _ => {}
        }
    }

    fn command(&mut self, cmd: u32, now: u64) {
        if self.key_state != KeyState::Unlocked || now < self.busy_until {
            self.error = true;
            return;
        }
        if !self.addr.is_multiple_of(4) || self.addr >= self.nvm_size {
            self.error = true;
            return;
        }
        self.error = false;
        match cmd {
            CMD_WRITE => {
                self.busy_until = now + WRITE_CYCLES;
                self.pending = Some((
                    self.busy_until,
                    NvmOp::Write {
                        offset: self.addr,
                        value: self.data,
                    },
                ));
            }
            CMD_ERASE => {
                self.busy_until = now + ERASE_CYCLES;
                self.pending = Some((self.busy_until, NvmOp::Erase { offset: self.addr }));
            }
            _ => self.error = true,
        }
    }

    /// Whether a program/erase operation is in flight — i.e. advancing
    /// time must keep polling [`NvmController::take_completed`].
    pub fn op_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Takes the completed operation at time `now`, if one just finished.
    pub fn take_completed(&mut self, now: u64) -> Option<NvmOp> {
        match self.pending {
            Some((due, op)) if now >= due => {
                self.pending = None;
                Some(op)
            }
            _ => None,
        }
    }

    /// Serializes the dynamic state, including the in-flight operation
    /// (`nvm_size` is configuration, re-derived on restore).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u8(
            out,
            match self.key_state {
                KeyState::Locked => 0,
                KeyState::HalfKey => 1,
                KeyState::Unlocked => 2,
            },
        );
        put_u32(out, self.addr);
        put_u32(out, self.data);
        put_bool(out, self.error);
        put_u64(out, self.busy_until);
        match self.pending {
            None => put_bool(out, false),
            Some((due, op)) => {
                put_bool(out, true);
                put_u64(out, due);
                match op {
                    NvmOp::Write { offset, value } => {
                        put_u8(out, 0);
                        put_u32(out, offset);
                        put_u32(out, value);
                    }
                    NvmOp::Erase { offset } => {
                        put_u8(out, 1);
                        put_u32(out, offset);
                        put_u32(out, 0);
                    }
                }
            }
        }
    }

    /// Restores the dynamic state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.key_state = match r.take_u8()? {
            0 => KeyState::Locked,
            1 => KeyState::HalfKey,
            2 => KeyState::Unlocked,
            _ => return Err(SaveStateError::Corrupt("NVMC key state out of range")),
        };
        self.addr = r.take_u32()?;
        self.data = r.take_u32()?;
        self.error = r.take_bool()?;
        self.busy_until = r.take_u64()?;
        self.pending = if r.take_bool()? {
            let due = r.take_u64()?;
            let tag = r.take_u8()?;
            let offset = r.take_u32()?;
            let value = r.take_u32()?;
            // `command` only queues aligned in-range offsets; a blob
            // holding any other would commit outside NVM.
            if !offset.is_multiple_of(4) || offset >= self.nvm_size {
                return Err(SaveStateError::Corrupt("NVMC op offset out of range"));
            }
            let op = match tag {
                0 => NvmOp::Write { offset, value },
                1 => NvmOp::Erase { offset },
                _ => return Err(SaveStateError::Corrupt("NVMC op tag out of range")),
            };
            Some((due, op))
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlocked(now: u64) -> NvmController {
        let mut c = NvmController::new(0x1_0000);
        c.write(KEY, 0x55, now);
        c.write(KEY, 0xAA, now);
        c
    }

    #[test]
    fn unlock_sequence() {
        let mut c = NvmController::new(0x1_0000);
        assert_eq!(c.read(STATUS, 0) & STATUS_UNLOCKED, 0);
        c.write(KEY, 0x55, 0);
        c.write(KEY, 0xAA, 0);
        assert_ne!(c.read(STATUS, 0) & STATUS_UNLOCKED, 0);
    }

    #[test]
    fn wrong_key_order_relocks() {
        let mut c = NvmController::new(0x1_0000);
        c.write(KEY, 0xAA, 0);
        c.write(KEY, 0x55, 0);
        assert_eq!(c.read(STATUS, 0) & STATUS_UNLOCKED, 0);
    }

    #[test]
    fn locked_write_sets_error() {
        let mut c = NvmController::new(0x1_0000);
        c.write(ADDR, 0x100, 0);
        c.write(DATA, 42, 0);
        c.write(CMD, CMD_WRITE, 0);
        assert_ne!(c.read(STATUS, 0) & STATUS_ERROR, 0);
        assert_eq!(c.take_completed(1000), None);
    }

    #[test]
    fn write_completes_after_busy_time() {
        let mut c = unlocked(0);
        c.write(ADDR, 0x100, 0);
        c.write(DATA, 0xDEAD_BEEF, 0);
        c.write(CMD, CMD_WRITE, 0);
        assert_ne!(c.read(STATUS, 5) & STATUS_BUSY, 0);
        assert_eq!(c.take_completed(5), None, "not done yet");
        assert_eq!(
            c.take_completed(WRITE_CYCLES),
            Some(NvmOp::Write {
                offset: 0x100,
                value: 0xDEAD_BEEF
            })
        );
        assert_eq!(c.read(STATUS, WRITE_CYCLES) & STATUS_BUSY, 0);
    }

    #[test]
    fn command_while_busy_errors() {
        let mut c = unlocked(0);
        c.write(ADDR, 0x100, 0);
        c.write(CMD, CMD_WRITE, 0);
        c.write(CMD, CMD_WRITE, 1);
        assert_ne!(c.read(STATUS, 1) & STATUS_ERROR, 0);
    }

    #[test]
    fn misaligned_or_out_of_range_address_errors() {
        let mut c = unlocked(0);
        c.write(ADDR, 0x101, 0);
        c.write(CMD, CMD_WRITE, 0);
        assert_ne!(c.read(STATUS, 0) & STATUS_ERROR, 0);
        let mut c = unlocked(0);
        c.write(ADDR, 0x2_0000, 0);
        c.write(CMD, CMD_WRITE, 0);
        assert_ne!(c.read(STATUS, 0) & STATUS_ERROR, 0);
    }

    #[test]
    fn erase_schedules_page_op() {
        let mut c = unlocked(0);
        c.write(ADDR, 0x300, 0);
        c.write(CMD, CMD_ERASE, 0);
        assert_eq!(
            c.take_completed(ERASE_CYCLES),
            Some(NvmOp::Erase { offset: 0x300 })
        );
    }
}
