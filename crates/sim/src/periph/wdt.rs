//! Watchdog timer: must be serviced with the magic key or it bites.

use crate::savestate::{put_bool, put_u32, put_u64, SaveReader, SaveStateError};

/// Control register offset.
pub const CTRL: u32 = 0x00;
/// Service register offset (write the key to pet the dog).
pub const SERVICE: u32 = 0x04;
/// Period register offset.
pub const PERIOD: u32 = 0x08;

const CTRL_EN: u32 = 1 << 0;

/// The service key, published to tests as `WDT_SERVICE_KEY`.
pub const SERVICE_KEY: u32 = 0xA5;

/// The watchdog peripheral.
///
/// When enabled it counts down; writing [`SERVICE_KEY`] to `SERVICE`
/// reloads it. Expiry raises a non-maskable watchdog trap — which is why
/// slow platforms (gate-level simulation) disable it through the
/// `WDT_DISABLE` globals knob rather than pretending timing is realistic.
#[derive(Debug, Clone)]
pub struct Watchdog {
    ctrl: u32,
    period: u32,
    counter: u64,
    expired_edge: bool,
}

impl Watchdog {
    /// Default period in cycles.
    pub const DEFAULT_PERIOD: u32 = 0x1_0000;

    /// Creates a disabled watchdog.
    pub fn new() -> Self {
        Self {
            ctrl: 0,
            period: Self::DEFAULT_PERIOD,
            counter: u64::from(Self::DEFAULT_PERIOD),
            expired_edge: false,
        }
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32) -> u32 {
        match offset {
            CTRL => self.ctrl,
            PERIOD => self.period,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32) {
        match offset {
            CTRL => {
                let was = self.ctrl;
                self.ctrl = value & 1;
                if was & CTRL_EN == 0 && self.ctrl & CTRL_EN != 0 {
                    self.counter = u64::from(self.period);
                }
            }
            SERVICE if value & 0xFF == SERVICE_KEY => {
                self.counter = u64::from(self.period);
            }
            PERIOD => self.period = value & 0xFF_FFFF,
            _ => {}
        }
    }

    /// Advances the watchdog; sets the expiry edge when it bites.
    pub(crate) fn tick(&mut self, delta: u64) {
        if self.ctrl & CTRL_EN == 0 {
            return;
        }
        if self.counter <= delta {
            self.expired_edge = true;
            self.counter = u64::from(self.period);
        } else {
            self.counter -= delta;
        }
    }

    /// Takes the expiry edge, if any.
    pub(crate) fn take_expiry(&mut self) -> bool {
        std::mem::take(&mut self.expired_edge)
    }

    /// Whether the watchdog is enabled — i.e. ticking it can change
    /// state. The bus skips peripheral ticking while nothing is armed.
    pub fn armed(&self) -> bool {
        self.ctrl & CTRL_EN != 0
    }

    /// Serializes the watchdog state.
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ctrl);
        put_u32(out, self.period);
        put_u64(out, self.counter);
        put_bool(out, self.expired_edge);
    }

    /// Restores the watchdog state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.ctrl = r.take_u32()?;
        self.period = r.take_u32()?;
        self.counter = r.take_u64()?;
        self.expired_edge = r.take_bool()?;
        Ok(())
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_watchdog_never_bites() {
        let mut wdt = Watchdog::new();
        wdt.tick(1_000_000_000);
        assert!(!wdt.take_expiry());
    }

    #[test]
    fn unserviced_watchdog_bites() {
        let mut wdt = Watchdog::new();
        wdt.write(PERIOD, 100);
        wdt.write(CTRL, 1);
        wdt.tick(99);
        assert!(!wdt.take_expiry());
        wdt.tick(1);
        assert!(wdt.take_expiry());
    }

    #[test]
    fn serviced_watchdog_stays_quiet() {
        let mut wdt = Watchdog::new();
        wdt.write(PERIOD, 100);
        wdt.write(CTRL, 1);
        for _ in 0..10 {
            wdt.tick(60);
            wdt.write(SERVICE, SERVICE_KEY);
        }
        assert!(!wdt.take_expiry());
    }

    #[test]
    fn wrong_key_does_not_service() {
        let mut wdt = Watchdog::new();
        wdt.write(PERIOD, 100);
        wdt.write(CTRL, 1);
        wdt.tick(60);
        wdt.write(SERVICE, 0x5A);
        wdt.tick(60);
        assert!(wdt.take_expiry());
    }

    #[test]
    fn rearm_after_expiry() {
        let mut wdt = Watchdog::new();
        wdt.write(PERIOD, 10);
        wdt.write(CTRL, 1);
        wdt.tick(10);
        assert!(wdt.take_expiry());
        wdt.tick(10);
        assert!(wdt.take_expiry(), "watchdog re-arms");
    }
}
