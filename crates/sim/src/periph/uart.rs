//! UART model with loopback and cycle-accurate transmit timing.

use crate::savestate::{put_bool, put_bytes, put_u32, put_u64, put_u8, SaveReader, SaveStateError};

/// UART register offsets.
pub const CTRL: u32 = 0x00;
/// Status register offset.
pub const STATUS: u32 = 0x04;
/// Data register offset.
pub const DATA: u32 = 0x08;
/// Baud divider register offset.
pub const BAUD: u32 = 0x0C;

const CTRL_EN: u32 = 1 << 0;
const CTRL_LOOPBACK: u32 = 1 << 4;
const STATUS_TX_READY: u32 = 1 << 0;
const STATUS_RX_VALID: u32 = 1 << 1;
const STATUS_OVERRUN: u32 = 1 << 2;

/// The UART peripheral.
///
/// On cycle-accurate platforms (RTL, gate level) a transmitted byte keeps
/// the transmitter busy for `8 * BAUD.DIV` cycles; functional platforms
/// transmit instantly. Software that polls `TX_READY` — as the embedded
/// software's `ES_Uart_Send_Byte` does — behaves identically on both.
#[derive(Debug, Clone)]
pub struct Uart {
    ctrl: u32,
    baud: u32,
    tx_log: Vec<u8>,
    rx_byte: Option<u8>,
    overrun: bool,
    tx_busy_until: u64,
    cycle_accurate: bool,
    /// Fault injection: drop every other transmitted byte.
    drop_bytes: bool,
    /// Fault injection: `TX_READY` never asserts.
    tx_stuck_busy: bool,
    /// Fault injection: every accepted byte transmits twice.
    duplicate_bytes: bool,
    tx_count: u64,
}

impl Uart {
    /// Creates a UART. `cycle_accurate` enables transmit busy timing.
    pub fn new(cycle_accurate: bool) -> Self {
        Self {
            ctrl: 0,
            baud: 0x10,
            tx_log: Vec::new(),
            rx_byte: None,
            overrun: false,
            tx_busy_until: 0,
            cycle_accurate,
            drop_bytes: false,
            tx_stuck_busy: false,
            duplicate_bytes: false,
            tx_count: 0,
        }
    }

    /// Enables the byte-dropping fault (platform fault injection).
    pub(crate) fn inject_drop_bytes(&mut self) {
        self.drop_bytes = true;
    }

    /// Enables the stuck-busy transmitter fault: `TX_READY` never
    /// asserts, so polling senders hang.
    pub(crate) fn inject_tx_stuck_busy(&mut self) {
        self.tx_stuck_busy = true;
    }

    /// Enables the byte-duplication fault: every accepted byte is
    /// shifted out twice (and echoes twice through loopback).
    pub(crate) fn inject_duplicate_bytes(&mut self) {
        self.duplicate_bytes = true;
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32, now: u64) -> u32 {
        match offset {
            CTRL => self.ctrl,
            STATUS => {
                let mut s = 0;
                if now >= self.tx_busy_until && !self.tx_stuck_busy {
                    s |= STATUS_TX_READY;
                }
                if self.rx_byte.is_some() {
                    s |= STATUS_RX_VALID;
                }
                if self.overrun {
                    s |= STATUS_OVERRUN;
                }
                s
            }
            DATA => {
                let b = self.rx_byte.take().unwrap_or(0);
                u32::from(b)
            }
            BAUD => self.baud,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32, now: u64) {
        match offset {
            CTRL => self.ctrl = value & 0x1F,
            DATA => {
                if self.ctrl & CTRL_EN == 0 {
                    return; // transmitter disabled: write ignored
                }
                if now < self.tx_busy_until {
                    return; // busy: byte lost (software must poll TX_READY)
                }
                let byte = (value & 0xFF) as u8;
                self.tx_count += 1;
                let dropped = self.drop_bytes && self.tx_count.is_multiple_of(2);
                let copies = match (dropped, self.duplicate_bytes) {
                    (true, _) => 0,
                    (false, true) => 2, // shift register reloads: byte goes out twice
                    (false, false) => 1,
                };
                for _ in 0..copies {
                    self.tx_log.push(byte);
                    if self.ctrl & CTRL_LOOPBACK != 0 {
                        if self.rx_byte.is_some() {
                            self.overrun = true;
                        }
                        self.rx_byte = Some(byte);
                    }
                }
                if self.cycle_accurate {
                    self.tx_busy_until = now + 8 * u64::from(self.baud.max(1));
                }
            }
            BAUD => self.baud = value & 0xFFFF,
            _ => {}
        }
    }

    /// Everything transmitted so far.
    pub(crate) fn tx_log(&self) -> &[u8] {
        &self.tx_log
    }

    /// Serializes the dynamic register state (fault wiring and the
    /// `cycle_accurate` flag are configuration, re-derived on restore).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ctrl);
        put_u32(out, self.baud);
        put_bytes(out, &self.tx_log);
        match self.rx_byte {
            Some(b) => {
                put_bool(out, true);
                put_u8(out, b);
            }
            None => put_bool(out, false),
        }
        put_bool(out, self.overrun);
        put_u64(out, self.tx_busy_until);
        put_u64(out, self.tx_count);
    }

    /// Restores the dynamic register state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.ctrl = r.take_u32()?;
        self.baud = r.take_u32()?;
        self.tx_log = r.take_bytes()?.to_vec();
        self.rx_byte = if r.take_bool()? {
            Some(r.take_u8()?)
        } else {
            None
        };
        self.overrun = r.take_bool()?;
        self.tx_busy_until = r.take_u64()?;
        self.tx_count = r.take_u64()?;
        Ok(())
    }

    /// Appends architectural (timing-free) state for divergence digests.
    pub(crate) fn arch_bytes(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.tx_log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_uart_ignores_writes() {
        let mut uart = Uart::new(false);
        uart.write(DATA, b'X'.into(), 0);
        assert!(uart.tx_log().is_empty());
    }

    #[test]
    fn enabled_uart_transmits() {
        let mut uart = Uart::new(false);
        uart.write(CTRL, CTRL_EN, 0);
        uart.write(DATA, b'H'.into(), 0);
        uart.write(DATA, b'i'.into(), 0);
        assert_eq!(uart.tx_log(), b"Hi");
    }

    #[test]
    fn functional_uart_always_ready() {
        let mut uart = Uart::new(false);
        uart.write(CTRL, CTRL_EN, 0);
        uart.write(DATA, 1, 0);
        assert_ne!(uart.read(STATUS, 0) & STATUS_TX_READY, 0);
    }

    #[test]
    fn cycle_accurate_uart_goes_busy() {
        let mut uart = Uart::new(true);
        uart.write(CTRL, CTRL_EN, 0);
        uart.write(BAUD, 4, 0);
        uart.write(DATA, 1, 100);
        assert_eq!(
            uart.read(STATUS, 100) & STATUS_TX_READY,
            0,
            "busy right after tx"
        );
        assert_ne!(
            uart.read(STATUS, 100 + 32) & STATUS_TX_READY,
            0,
            "ready after 8*div"
        );
        // A write while busy is lost.
        uart.write(DATA, 2, 101);
        assert_eq!(uart.tx_log(), &[1]);
    }

    #[test]
    fn loopback_receives_and_overruns() {
        let mut uart = Uart::new(false);
        uart.write(CTRL, CTRL_EN | CTRL_LOOPBACK, 0);
        uart.write(DATA, 0xAB, 0);
        assert_ne!(uart.read(STATUS, 0) & STATUS_RX_VALID, 0);
        uart.write(DATA, 0xCD, 0);
        assert_ne!(
            uart.read(STATUS, 0) & STATUS_OVERRUN,
            0,
            "second byte overruns"
        );
        assert_eq!(uart.read(DATA, 0), 0xCD);
        assert_eq!(uart.read(STATUS, 0) & STATUS_RX_VALID, 0, "fifo drained");
    }

    #[test]
    fn fault_injection_drops_alternate_bytes() {
        let mut uart = Uart::new(false);
        uart.inject_drop_bytes();
        uart.write(CTRL, CTRL_EN, 0);
        for b in [1u32, 2, 3, 4] {
            uart.write(DATA, b, 0);
        }
        assert_eq!(uart.tx_log(), &[1, 3]);
    }

    #[test]
    fn fault_injection_tx_stuck_busy_never_reports_ready() {
        let mut uart = Uart::new(false);
        uart.inject_tx_stuck_busy();
        uart.write(CTRL, CTRL_EN, 0);
        assert_eq!(uart.read(STATUS, 0) & STATUS_TX_READY, 0);
        assert_eq!(uart.read(STATUS, 1_000_000) & STATUS_TX_READY, 0);
    }

    #[test]
    fn fault_injection_duplicates_bytes_and_overruns_loopback() {
        let mut uart = Uart::new(false);
        uart.inject_duplicate_bytes();
        uart.write(CTRL, CTRL_EN | CTRL_LOOPBACK, 0);
        uart.write(DATA, 0x5A, 0);
        assert_eq!(uart.tx_log(), &[0x5A, 0x5A], "byte shifted out twice");
        // The duplicate overruns the single receive register even though
        // only one byte was sent — that is the observable escape hatch.
        assert_ne!(uart.read(STATUS, 0) & STATUS_OVERRUN, 0);
        assert_eq!(uart.read(DATA, 0), 0x5A, "payload still arrives");
    }
}
