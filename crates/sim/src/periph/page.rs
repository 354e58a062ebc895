//! The page-mapping module — the peripheral at the heart of the paper's
//! Figure 6 example.
//!
//! Its control register holds a `PAGE` bit-field whose *position and
//! width differ between derivatives*: SC88-B moved it up one bit, SC88-C
//! widened it from 5 to 6 bits. The peripheral is constructed from the
//! derivative's field geometry, so a test built with the wrong
//! `Globals.inc` really does program the wrong bits and really does fail.

use advm_soc::Field;

use crate::savestate::{put_u32, SaveReader, SaveStateError};

/// Control register offset.
pub const CTRL: u32 = 0x00;
/// Status register offset.
pub const STATUS: u32 = 0x04;
/// Map register offset.
pub const MAP: u32 = 0x08;
/// Window register offset: reads `selected_page << WINDOW_SHIFT` when
/// the module is enabled — a geometry-independent observable.
pub const WINDOW: u32 = 0x0C;

/// Shift applied to the selected page to form the window base.
pub const WINDOW_SHIFT: u32 = 8;

/// The page-mapping peripheral.
#[derive(Debug, Clone)]
pub struct PageModule {
    ctrl: u32,
    map: u32,
    page_field: Field,
    enable_field: Field,
    active_field: Field,
    ready_field: Field,
    /// Fault injection: report `ACTIVE_PAGE` off by one.
    active_off_by_one: bool,
    /// Fault injection: bit 0 of the written page field is stuck at zero.
    select_drops_low_bit: bool,
    /// Fault injection: `MAP` writes are dropped (dead write enable).
    map_write_ignored: bool,
}

impl PageModule {
    /// Creates the module from the derivative's field geometry.
    pub fn new(
        page_field: Field,
        enable_field: Field,
        active_field: Field,
        ready_field: Field,
    ) -> Self {
        Self {
            ctrl: 0,
            map: 0,
            page_field,
            enable_field,
            active_field,
            ready_field,
            active_off_by_one: false,
            select_drops_low_bit: false,
            map_write_ignored: false,
        }
    }

    /// Enables the off-by-one readback fault (platform fault injection).
    pub(crate) fn inject_active_off_by_one(&mut self) {
        self.active_off_by_one = true;
    }

    /// Enables the stuck-at-zero page-select bit 0 fault (write path).
    pub(crate) fn inject_select_drops_low_bit(&mut self) {
        self.select_drops_low_bit = true;
    }

    /// Enables the dead `MAP` write-enable fault.
    pub(crate) fn inject_map_write_ignored(&mut self) {
        self.map_write_ignored = true;
    }

    /// Reads a register.
    pub fn read(&mut self, offset: u32) -> u32 {
        match offset {
            CTRL => self.ctrl,
            STATUS => {
                let mut status = self.ready_field.insert(0, 1);
                if self.enable_field.extract(self.ctrl) != 0 {
                    let mut page = self.page_field.extract(self.ctrl);
                    if self.active_off_by_one {
                        page = (page + 1) & self.active_field.value_mask();
                    }
                    status = self.active_field.insert(status, page);
                }
                status
            }
            MAP => self.map,
            WINDOW if self.enable_field.extract(self.ctrl) != 0 => {
                self.page_field.extract(self.ctrl) << WINDOW_SHIFT
            }
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write(&mut self, offset: u32, value: u32) {
        match offset {
            CTRL => {
                let mut value = value;
                if self.select_drops_low_bit {
                    let page = self.page_field.extract(value) & !1;
                    value = self.page_field.insert(value, page);
                }
                self.ctrl = value;
            }
            MAP if !self.map_write_ignored => self.map = value & 0xFFFF,
            _ => {}
        }
    }

    /// The currently selected page (hardware view).
    pub fn selected_page(&self) -> u32 {
        self.page_field.extract(self.ctrl)
    }

    /// Serializes the dynamic register state (field geometry and fault
    /// wiring are configuration, re-derived on restore).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ctrl);
        put_u32(out, self.map);
    }

    /// Restores the dynamic register state.
    pub(crate) fn apply_state(&mut self, r: &mut SaveReader<'_>) -> Result<(), SaveStateError> {
        self.ctrl = r.take_u32()?;
        self.map = r.take_u32()?;
        Ok(())
    }

    /// Appends architectural state for divergence digests.
    pub(crate) fn arch_bytes(&self, out: &mut Vec<u8>) {
        put_u32(out, self.ctrl);
        put_u32(out, self.map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc88a_page() -> PageModule {
        PageModule::new(
            Field::new("PAGE", 0, 5).unwrap(),
            Field::new("ENABLE", 8, 1).unwrap(),
            Field::new("ACTIVE_PAGE", 0, 5).unwrap(),
            Field::new("READY", 8, 1).unwrap(),
        )
    }

    fn sc88b_page() -> PageModule {
        // Field moved up one bit — the paper's spec change.
        PageModule::new(
            Field::new("PAGE", 1, 5).unwrap(),
            Field::new("ENABLE", 8, 1).unwrap(),
            Field::new("ACTIVE_PAGE", 1, 5).unwrap(),
            Field::new("READY", 8, 1).unwrap(),
        )
    }

    #[test]
    fn enabled_page_reads_back() {
        let mut page = sc88a_page();
        // PAGE=8, ENABLE=1 (what the Figure 6 test writes).
        page.write(CTRL, 8 | (1 << 8));
        let status = page.read(STATUS);
        assert_eq!(status & 0x1F, 8, "ACTIVE_PAGE");
        assert_ne!(status & (1 << 8), 0, "READY");
        assert_eq!(page.selected_page(), 8);
    }

    #[test]
    fn disabled_page_reads_zero_active() {
        let mut page = sc88a_page();
        page.write(CTRL, 8); // ENABLE clear
        assert_eq!(page.read(STATUS) & 0x1F, 0);
    }

    #[test]
    fn geometry_matters_across_derivatives() {
        // A test that writes the SC88-A bit pattern into SC88-B hardware
        // programs the wrong page: value 8 at bit 0 is page 4 at bit 1.
        let mut page = sc88b_page();
        page.write(CTRL, 8 | (1 << 8));
        assert_eq!(
            page.selected_page(),
            4,
            "stale geometry selects the wrong page"
        );
        // The correctly rebuilt test writes 8 << 1.
        page.write(CTRL, (8 << 1) | (1 << 8));
        assert_eq!(page.selected_page(), 8);
    }

    #[test]
    fn off_by_one_fault_corrupts_readback_only() {
        let mut page = sc88a_page();
        page.inject_active_off_by_one();
        page.write(CTRL, 8 | (1 << 8));
        assert_eq!(page.selected_page(), 8, "selection is correct");
        assert_eq!(page.read(STATUS) & 0x1F, 9, "readback is faulty");
    }

    #[test]
    fn select_drops_low_bit_fault_corrupts_odd_selections_only() {
        let mut page = sc88a_page();
        page.inject_select_drops_low_bit();
        page.write(CTRL, 8 | (1 << 8));
        assert_eq!(page.selected_page(), 8, "even pages unaffected");
        assert_eq!(page.read(STATUS) & 0x1F, 8, "readback agrees");
        page.write(CTRL, 7 | (1 << 8));
        assert_eq!(page.selected_page(), 6, "odd page lands one below");
        assert_eq!(
            page.read(STATUS) & 0x1F,
            6,
            "write-path bug: readback is consistent"
        );
    }

    #[test]
    fn map_write_ignored_fault_keeps_reset_value() {
        let mut page = sc88a_page();
        page.inject_map_write_ignored();
        page.write(MAP, 0x1234);
        assert_eq!(page.read(MAP), 0, "write dropped, reset value persists");
        page.write(CTRL, 8 | (1 << 8));
        assert_eq!(page.selected_page(), 8, "other registers unaffected");
    }

    #[test]
    fn window_is_geometry_independent() {
        // The same *numeric* page selected under two geometries yields
        // the same window — and a raw value interpreted differently
        // yields different windows. This is the observable that defeats
        // self-consistent hardwired tests.
        let mut a = sc88a_page();
        let mut b = sc88b_page();
        a.write(CTRL, 8 | (1 << 8)); // page 8 under A's geometry
        b.write(CTRL, (8 << 1) | (1 << 8)); // page 8 under B's geometry
        assert_eq!(a.read(WINDOW), b.read(WINDOW));
        assert_eq!(a.read(WINDOW), 8 << WINDOW_SHIFT);
        // Raw A-style value on B hardware selects page 4: wrong window.
        b.write(CTRL, 8 | (1 << 8));
        assert_eq!(b.read(WINDOW), 4 << WINDOW_SHIFT);
    }

    #[test]
    fn window_reads_zero_when_disabled() {
        let mut page = sc88a_page();
        page.write(CTRL, 8); // ENABLE clear
        assert_eq!(page.read(WINDOW), 0);
    }

    #[test]
    fn map_register_masks_to_16_bits() {
        let mut page = sc88a_page();
        page.write(MAP, 0xABCD_1234);
        assert_eq!(page.read(MAP), 0x1234);
    }
}
