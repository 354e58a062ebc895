//! Countdown timer with optional periodic reload and interrupt request.

use crate::savestate::{put_bool, put_u32, SaveReader, SaveStateError};

/// Control register offset.
pub const CTRL: u32 = 0x00;
/// Load register offset.
pub const LOAD: u32 = 0x04;
/// Current-value register offset.
pub const VALUE: u32 = 0x08;
/// Status register offset (write 1 to clear `EXPIRED`).
pub const STATUS: u32 = 0x0C;

const CTRL_EN: u32 = 1 << 0;
const CTRL_IE: u32 = 1 << 1;
const CTRL_PERIODIC: u32 = 1 << 2;
const STATUS_EXPIRED: u32 = 1 << 0;

/// The IRQ line the timer drives on the interrupt controller.
pub const TIMER_IRQ_LINE: u8 = 0;

/// The countdown timer peripheral.
#[derive(Debug, Clone, Default)]
pub struct Timer {
    ctrl: u32,
    load: u32,
    value: u32,
    expired: bool,
    irq_edge: bool,
    /// Fault injection: the timer never expires.
    never_expires: bool,
    /// Fault injection: periodic mode fails to reload (acts one-shot).
    periodic_no_reload: bool,
    /// Fault injection: expiry never raises the interrupt edge.
    irq_suppressed: bool,
}

impl Timer {
    /// Creates a stopped timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the never-expires fault (platform fault injection).
    pub(crate) fn inject_never_expires(&mut self) {
        self.never_expires = true;
    }

    /// Enables the no-reload fault: periodic mode degrades to one-shot.
    pub(crate) fn inject_periodic_no_reload(&mut self) {
        self.periodic_no_reload = true;
    }

    /// Enables the dead-IRQ-wire fault: expiry sets `EXPIRED` but never
    /// raises the interrupt edge.
    pub(crate) fn inject_irq_suppressed(&mut self) {
        self.irq_suppressed = true;
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32) -> u32 {
        match offset {
            CTRL => self.ctrl,
            LOAD => self.load,
            VALUE => self.value,
            STATUS if self.expired => STATUS_EXPIRED,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32) {
        match offset {
            CTRL => {
                let was_enabled = self.ctrl & CTRL_EN != 0;
                self.ctrl = value & 0x7;
                if !was_enabled && self.ctrl & CTRL_EN != 0 {
                    self.value = self.load;
                }
            }
            LOAD => self.load = value,
            STATUS if value & STATUS_EXPIRED != 0 => {
                self.expired = false;
            }
            _ => {}
        }
    }

    /// Advances the timer by `delta` cycles.
    pub(crate) fn tick(&mut self, delta: u64) {
        if self.ctrl & CTRL_EN == 0 || self.never_expires {
            return;
        }
        let mut remaining = delta;
        while remaining > 0 {
            let step = u64::from(self.value).min(remaining).max(1);
            if u64::from(self.value) > remaining {
                self.value -= remaining as u32;
                return;
            }
            remaining -= step;
            // Expiry.
            self.expired = true;
            if self.ctrl & CTRL_IE != 0 && !self.irq_suppressed {
                self.irq_edge = true;
            }
            if self.ctrl & CTRL_PERIODIC != 0 && self.load > 0 && !self.periodic_no_reload {
                self.value = self.load;
            } else {
                self.ctrl &= !CTRL_EN;
                self.value = 0;
                return;
            }
        }
    }

    /// Takes the pending interrupt edge, if any.
    pub(crate) fn take_irq(&mut self) -> bool {
        std::mem::take(&mut self.irq_edge)
    }

    /// Whether the timer is enabled — i.e. ticking it can change state.
    /// The bus skips peripheral ticking entirely while nothing is armed.
    pub fn armed(&self) -> bool {
        self.ctrl & CTRL_EN != 0
    }

    /// Serializes the dynamic state (fault wiring is configuration).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ctrl);
        put_u32(out, self.load);
        put_u32(out, self.value);
        put_bool(out, self.expired);
        put_bool(out, self.irq_edge);
    }

    /// Restores the dynamic state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.ctrl = r.take_u32()?;
        self.load = r.take_u32()?;
        self.value = r.take_u32()?;
        self.expired = r.take_bool()?;
        self.irq_edge = r.take_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_expires_once() {
        let mut t = Timer::new();
        t.write(LOAD, 10);
        t.write(CTRL, CTRL_EN);
        t.tick(9);
        assert_eq!(t.read(STATUS), 0);
        t.tick(1);
        assert_eq!(t.read(STATUS), STATUS_EXPIRED);
        assert_eq!(t.read(CTRL) & CTRL_EN, 0, "one-shot stops");
        assert!(!t.take_irq(), "IE was not set");
    }

    #[test]
    fn periodic_reloads_and_raises_irq() {
        let mut t = Timer::new();
        t.write(LOAD, 5);
        t.write(CTRL, CTRL_EN | CTRL_IE | CTRL_PERIODIC);
        t.tick(5);
        assert!(t.take_irq());
        assert_eq!(t.read(VALUE), 5, "reloaded");
        t.tick(5);
        assert!(t.take_irq(), "fires again");
    }

    #[test]
    fn status_write_clears_expired() {
        let mut t = Timer::new();
        t.write(LOAD, 1);
        t.write(CTRL, CTRL_EN);
        t.tick(1);
        assert_eq!(t.read(STATUS), STATUS_EXPIRED);
        t.write(STATUS, 1);
        assert_eq!(t.read(STATUS), 0);
    }

    #[test]
    fn disabled_timer_holds_value() {
        let mut t = Timer::new();
        t.write(LOAD, 10);
        t.tick(100);
        assert_eq!(t.read(STATUS), 0);
    }

    #[test]
    fn fault_never_expires() {
        let mut t = Timer::new();
        t.inject_never_expires();
        t.write(LOAD, 1);
        t.write(CTRL, CTRL_EN | CTRL_IE);
        t.tick(1000);
        assert_eq!(t.read(STATUS), 0);
        assert!(!t.take_irq());
    }

    #[test]
    fn fault_periodic_no_reload_degrades_to_one_shot() {
        let mut t = Timer::new();
        t.inject_periodic_no_reload();
        t.write(LOAD, 5);
        t.write(CTRL, CTRL_EN | CTRL_PERIODIC);
        t.tick(5);
        assert_eq!(t.read(STATUS), STATUS_EXPIRED, "first expiry happens");
        assert_eq!(t.read(CTRL) & CTRL_EN, 0, "but the timer stops");
        t.write(STATUS, 1);
        t.tick(100);
        assert_eq!(t.read(STATUS), 0, "no further expiry");
    }

    #[test]
    fn fault_irq_suppressed_sets_status_without_edge() {
        let mut t = Timer::new();
        t.inject_irq_suppressed();
        t.write(LOAD, 5);
        t.write(CTRL, CTRL_EN | CTRL_IE);
        t.tick(5);
        assert_eq!(t.read(STATUS), STATUS_EXPIRED, "status path intact");
        assert!(!t.take_irq(), "interrupt wire is dead");
    }

    #[test]
    fn large_delta_with_periodic_reload() {
        let mut t = Timer::new();
        t.write(LOAD, 3);
        t.write(CTRL, CTRL_EN | CTRL_PERIODIC);
        t.tick(10); // 3 expiries and counting
        assert_eq!(t.read(STATUS), STATUS_EXPIRED);
        assert!(t.read(VALUE) <= 3);
    }
}
