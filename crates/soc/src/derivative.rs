//! Chip derivatives as first-class objects.
//!
//! §4 of the paper walks through the concrete change classes a derivative
//! (or a specification revision) can bring:
//!
//! * control bits **shifted** within a register ("the location of these
//!   control bits have been shifted by one"),
//! * a control field **widened** ("capable of handling more pages …
//!   the page control field size has increased by one bit"),
//! * a register **renamed** ("a register name has been changed for a new
//!   derivative"),
//! * embedded software **revised** ("re-written in such a way that the
//!   input registers have been swapped around", Figure 7),
//!
//! plus, implicitly, peripheral relocation between family members. Each is
//! a [`ChangeOp`]; a [`Derivative`] is the base chip plus a list of ops.
//! Applying the ops to the base register map yields the derivative's map,
//! from which `Globals.inc` is generated — so the experiments can measure
//! exactly how much of the test environment each change class touches.

use std::fmt;

use crate::es::EsVersion;
use crate::regmap::{Access, Field, Module, RegMap, RegMapError, Register};
use crate::testbench::Mailbox;

/// Identifier of a catalogued SC88 derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DerivativeId {
    /// SC88-A: the base chip.
    Sc88A,
    /// SC88-B: specification revision — the page field moved up one bit.
    Sc88B,
    /// SC88-C: more pages — the page field widened from 5 to 6 bits.
    Sc88C,
    /// SC88-D: register renamed, UART relocated, embedded software v2.
    Sc88D,
}

impl DerivativeId {
    /// All catalogued derivatives, base first.
    pub const ALL: [DerivativeId; 4] = [
        DerivativeId::Sc88A,
        DerivativeId::Sc88B,
        DerivativeId::Sc88C,
        DerivativeId::Sc88D,
    ];

    /// Numeric code published to tests via `DERIVATIVE_ID`.
    pub fn code(self) -> u32 {
        match self {
            DerivativeId::Sc88A => 0xA,
            DerivativeId::Sc88B => 0xB,
            DerivativeId::Sc88C => 0xC,
            DerivativeId::Sc88D => 0xD,
        }
    }

    /// Marketing-style name.
    pub fn name(self) -> &'static str {
        match self {
            DerivativeId::Sc88A => "SC88-A",
            DerivativeId::Sc88B => "SC88-B",
            DerivativeId::Sc88C => "SC88-C",
            DerivativeId::Sc88D => "SC88-D",
        }
    }
}

impl fmt::Display for DerivativeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One atomic change a derivative applies to the base register map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeOp {
    /// Move a field to a new bit position (same width).
    MoveField {
        /// Module name.
        module: String,
        /// Register name (base-map name).
        register: String,
        /// Field name.
        field: String,
        /// New least-significant bit position.
        new_pos: u8,
    },
    /// Resize a field in place (same position).
    ResizeField {
        /// Module name.
        module: String,
        /// Register name (base-map name).
        register: String,
        /// Field name.
        field: String,
        /// New width in bits.
        new_width: u8,
    },
    /// Rename a register.
    RenameRegister {
        /// Module name.
        module: String,
        /// Old register name.
        old: String,
        /// New register name.
        new: String,
    },
    /// Move a module to a new base address.
    RelocateModule {
        /// Module name.
        module: String,
        /// New base byte address.
        new_base: u32,
    },
}

impl ChangeOp {
    /// Applies this change to a register map.
    ///
    /// # Errors
    ///
    /// Propagates [`RegMapError`] if the change names an unknown entity or
    /// would create overlapping fields/registers/modules.
    pub fn apply(&self, map: &mut RegMap) -> Result<(), RegMapError> {
        match self {
            ChangeOp::MoveField {
                module,
                register,
                field,
                new_pos,
            } => map.module_mut(module)?.update_field(register, field, |f| {
                Field::new(f.name(), *new_pos, f.width())
            }),
            ChangeOp::ResizeField {
                module,
                register,
                field,
                new_width,
            } => map.module_mut(module)?.update_field(register, field, |f| {
                Field::new(f.name(), f.pos(), *new_width)
            }),
            ChangeOp::RenameRegister { module, old, new } => {
                map.module_mut(module)?.rename_register(old, new)
            }
            ChangeOp::RelocateModule { module, new_base } => map.relocate_module(module, *new_base),
        }
    }

    /// One-line description for change logs and experiment tables.
    pub fn describe(&self) -> String {
        match self {
            ChangeOp::MoveField {
                module,
                register,
                field,
                new_pos,
            } => {
                format!("move field {module}.{register}.{field} to bit {new_pos}")
            }
            ChangeOp::ResizeField {
                module,
                register,
                field,
                new_width,
            } => {
                format!("resize field {module}.{register}.{field} to {new_width} bits")
            }
            ChangeOp::RenameRegister { module, old, new } => {
                format!("rename register {module}.{old} to {new}")
            }
            ChangeOp::RelocateModule { module, new_base } => {
                format!("relocate module {module} to {new_base:#x}")
            }
        }
    }
}

impl fmt::Display for ChangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A chip derivative: the base map plus a change list and an
/// embedded-software version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivative {
    id: DerivativeId,
    changes: Vec<ChangeOp>,
    es_version: EsVersion,
    /// Register names that were renamed: (abstraction-layer name, actual
    /// hardware name on this derivative). The `Globals.inc` generator uses
    /// this to keep the *define* name stable while pointing at the renamed
    /// register — the paper's "re-map them using the Global Defines file".
    renames: Vec<(String, String)>,
}

impl Derivative {
    /// The base chip, SC88-A: no changes, embedded software v1.
    pub fn sc88a() -> Self {
        Self {
            id: DerivativeId::Sc88A,
            changes: Vec::new(),
            es_version: EsVersion::V1,
            renames: Vec::new(),
        }
    }

    /// SC88-B: the paper's *specification change* — "the location of these
    /// control bits have been shifted by one". The page field (and its
    /// read-back twin) move from bit 0 to bit 1.
    pub fn sc88b() -> Self {
        Self {
            id: DerivativeId::Sc88B,
            changes: vec![
                ChangeOp::MoveField {
                    module: "PAGE".into(),
                    register: "PAGE_CTRL".into(),
                    field: "PAGE".into(),
                    new_pos: 1,
                },
                ChangeOp::MoveField {
                    module: "PAGE".into(),
                    register: "PAGE_STATUS".into(),
                    field: "ACTIVE_PAGE".into(),
                    new_pos: 1,
                },
            ],
            es_version: EsVersion::V1,
            renames: Vec::new(),
        }
    }

    /// SC88-C: the paper's *derivative change* — "this version of the
    /// module is now capable of handling more pages … the page control
    /// field size has increased by one bit" (5 → 6 bits, 32 → 64 pages).
    pub fn sc88c() -> Self {
        Self {
            id: DerivativeId::Sc88C,
            changes: vec![
                ChangeOp::ResizeField {
                    module: "PAGE".into(),
                    register: "PAGE_CTRL".into(),
                    field: "PAGE".into(),
                    new_width: 6,
                },
                ChangeOp::ResizeField {
                    module: "PAGE".into(),
                    register: "PAGE_STATUS".into(),
                    field: "ACTIVE_PAGE".into(),
                    new_width: 6,
                },
            ],
            es_version: EsVersion::V1,
            renames: Vec::new(),
        }
    }

    /// SC88-D: the compound derivative — `PAGE_CTRL` renamed to
    /// `PAGE_CONF` (the paper's "register name has been changed for a new
    /// derivative"), the UART relocated, and the embedded software
    /// re-released as v2 with swapped input registers (Figure 7).
    pub fn sc88d() -> Self {
        Self {
            id: DerivativeId::Sc88D,
            changes: vec![
                ChangeOp::RenameRegister {
                    module: "PAGE".into(),
                    old: "PAGE_CTRL".into(),
                    new: "PAGE_CONF".into(),
                },
                ChangeOp::RelocateModule {
                    module: "UART".into(),
                    new_base: 0xE_0800,
                },
            ],
            es_version: EsVersion::V2,
            renames: vec![("PAGE_CTRL".to_owned(), "PAGE_CONF".to_owned())],
        }
    }

    /// Looks up a catalogued derivative by id.
    pub fn from_id(id: DerivativeId) -> Self {
        match id {
            DerivativeId::Sc88A => Self::sc88a(),
            DerivativeId::Sc88B => Self::sc88b(),
            DerivativeId::Sc88C => Self::sc88c(),
            DerivativeId::Sc88D => Self::sc88d(),
        }
    }

    /// The derivative's identifier.
    pub fn id(&self) -> DerivativeId {
        self.id
    }

    /// The change list relative to the base chip.
    pub fn changes(&self) -> &[ChangeOp] {
        &self.changes
    }

    /// The embedded-software release shipped with this derivative.
    pub fn es_version(&self) -> EsVersion {
        self.es_version
    }

    /// Resolves the hardware register name for an abstraction-layer name
    /// (identity unless the derivative renamed the register).
    pub fn hardware_register_name<'a>(&'a self, abstract_name: &'a str) -> &'a str {
        self.renames
            .iter()
            .find(|(a, _)| a == abstract_name)
            .map(|(_, hw)| hw.as_str())
            .unwrap_or(abstract_name)
    }

    /// The inverse of [`Derivative::hardware_register_name`]: maps a
    /// hardware register name back to the stable abstraction-layer name.
    pub(crate) fn abstract_register_name<'a>(&'a self, hardware_name: &'a str) -> &'a str {
        self.renames
            .iter()
            .find(|(_, hw)| hw == hardware_name)
            .map(|(a, _)| a.as_str())
            .unwrap_or(hardware_name)
    }

    /// The derivative's register map: the base map with all changes
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if a catalogued change list fails to apply — the catalogue
    /// is validated by tests, so this indicates a corrupted `Derivative`
    /// built outside the catalogue.
    pub fn regmap(&self) -> RegMap {
        let mut map = base_regmap();
        for change in &self.changes {
            change
                .apply(&mut map)
                .unwrap_or_else(|e| panic!("{}: change `{}` failed: {e}", self.id, change));
        }
        map
    }

    /// Number of pages the page-mapping module supports (2^width of the
    /// page field).
    ///
    /// Every `Globals.inc` regeneration asks for this, and building the
    /// register map is almost all of a re-target's cost. The count is a
    /// pure function of the derivative, so each catalogued derivative's
    /// count is computed once per process; any other derivative (one
    /// deserialized with a different change list, say) builds its map.
    pub fn page_count(&self) -> u32 {
        static CATALOGUE: std::sync::OnceLock<Vec<(Derivative, u32)>> = std::sync::OnceLock::new();
        let catalogue = CATALOGUE.get_or_init(|| {
            DerivativeId::ALL
                .into_iter()
                .map(|id| {
                    let derivative = Self::from_id(id);
                    let count = derivative.regmap_page_count();
                    (derivative, count)
                })
                .collect()
        });
        match catalogue.iter().find(|(derivative, _)| derivative == self) {
            Some(&(_, count)) => count,
            None => self.regmap_page_count(),
        }
    }

    /// [`Derivative::page_count`], read off a freshly built register map.
    fn regmap_page_count(&self) -> u32 {
        let map = self.regmap();
        let page_ctrl = self.hardware_register_name("PAGE_CTRL");
        let width = map
            .module("PAGE")
            .and_then(|m| m.register(page_ctrl))
            .and_then(|r| r.field("PAGE"))
            .map(|f| f.width())
            .expect("catalogued maps always have PAGE.PAGE_CTRL.PAGE");
        1 << width
    }
}

impl fmt::Display for Derivative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (ES {}, {} changes)",
            self.id,
            self.es_version,
            self.changes.len()
        )
    }
}

/// Builds the SC88-A base register map: every peripheral of the synthetic
/// chip-card SoC.
pub(crate) fn base_regmap() -> RegMap {
    // The unwraps below are on statically known-good definitions; the
    // `base_regmap_is_valid` test would catch any regression.
    fn field(name: &str, pos: u8, width: u8) -> Field {
        Field::new(name, pos, width).expect("static field definition")
    }
    fn reg(name: &str, offset: u32, access: Access, reset: u32, fields: Vec<Field>) -> Register {
        let mut r = Register::new(name, offset, access, reset).expect("static register");
        for f in fields {
            r = r.with_field(f).expect("static field set");
        }
        r
    }

    let uart = Module::new("UART", 0xE_0000, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "CTRL",
                0x00,
                Access::ReadWrite,
                0,
                vec![
                    field("EN", 0, 1),
                    field("PARITY", 1, 2),
                    field("STOP", 3, 1),
                    field("LOOPBACK", 4, 1),
                ],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "STATUS",
                0x04,
                Access::ReadOnly,
                0x1,
                vec![
                    field("TX_READY", 0, 1),
                    field("RX_VALID", 1, 1),
                    field("OVERRUN", 2, 1),
                ],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "DATA",
                0x08,
                Access::ReadWrite,
                0,
                vec![field("DATA", 0, 8)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "BAUD",
                0x0C,
                Access::ReadWrite,
                0x10,
                vec![field("DIV", 0, 16)],
            ))
        })
        .expect("static UART module");

    let page = Module::new("PAGE", 0xE_0100, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "PAGE_CTRL",
                0x00,
                Access::ReadWrite,
                0,
                vec![
                    field("PAGE", 0, 5),
                    field("ENABLE", 8, 1),
                    field("MODE", 9, 2),
                ],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "PAGE_STATUS",
                0x04,
                Access::ReadOnly,
                0x100,
                vec![field("ACTIVE_PAGE", 0, 5), field("READY", 8, 1)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "PAGE_MAP",
                0x08,
                Access::ReadWrite,
                0,
                vec![field("BASE", 0, 16)],
            ))
        })
        .and_then(|m| {
            // The mapped window base: `selected_page * 0x100`. Unlike
            // PAGE_STATUS (whose layout mirrors PAGE_CTRL and therefore
            // moves with the field geometry), this is a *semantic*
            // observable — a test that programmed the wrong bits reads a
            // wrong window here on every derivative.
            m.with_register(reg(
                "PAGE_WINDOW",
                0x0C,
                Access::ReadOnly,
                0,
                vec![field("BASE", 0, 16)],
            ))
        })
        .expect("static PAGE module");

    let timer = Module::new("TIMER", 0xE_0200, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "CTRL",
                0x00,
                Access::ReadWrite,
                0,
                vec![
                    field("EN", 0, 1),
                    field("IE", 1, 1),
                    field("PERIODIC", 2, 1),
                ],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "LOAD",
                0x04,
                Access::ReadWrite,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "VALUE",
                0x08,
                Access::ReadOnly,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "STATUS",
                0x0C,
                Access::ReadWrite,
                0,
                vec![field("EXPIRED", 0, 1)],
            ))
        })
        .expect("static TIMER module");

    let intc = Module::new("INTC", 0xE_0300, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "ENABLE",
                0x00,
                Access::ReadWrite,
                0,
                vec![field("LINES", 0, 16)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "PENDING",
                0x04,
                Access::ReadOnly,
                0,
                vec![field("LINES", 0, 16)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "ACK",
                0x08,
                Access::WriteOnly,
                0,
                vec![field("LINE", 0, 4)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "RAISE",
                0x0C,
                Access::WriteOnly,
                0,
                vec![field("LINE", 0, 4)],
            ))
        })
        .expect("static INTC module");

    let wdt = Module::new("WDT", 0xE_0400, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "CTRL",
                0x00,
                Access::ReadWrite,
                0,
                vec![field("EN", 0, 1)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "SERVICE",
                0x04,
                Access::WriteOnly,
                0,
                vec![field("KEY", 0, 8)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "PERIOD",
                0x08,
                Access::ReadWrite,
                0x1_0000,
                vec![field("CYCLES", 0, 24)],
            ))
        })
        .expect("static WDT module");

    let nvmc = Module::new("NVMC", 0xE_0500, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "KEY",
                0x00,
                Access::WriteOnly,
                0,
                vec![field("KEY", 0, 8)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "CTRL",
                0x04,
                Access::ReadWrite,
                0,
                vec![field("WE", 0, 1), field("ERASE", 1, 1)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "ADDR",
                0x08,
                Access::ReadWrite,
                0,
                vec![field("ADDR", 0, 20)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "DATA",
                0x0C,
                Access::ReadWrite,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "STATUS",
                0x10,
                Access::ReadOnly,
                0,
                vec![
                    field("BUSY", 0, 1),
                    field("UNLOCKED", 1, 1),
                    field("ERROR", 2, 1),
                ],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "CMD",
                0x14,
                Access::WriteOnly,
                0,
                vec![field("CMD", 0, 2)],
            ))
        })
        .expect("static NVMC module");

    let crc = Module::new("CRC", 0xE_0600, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "CTRL",
                0x00,
                Access::ReadWrite,
                0,
                vec![field("EN", 0, 1), field("INIT", 1, 1)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "DATA_IN",
                0x04,
                Access::WriteOnly,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "RESULT",
                0x08,
                Access::ReadOnly,
                0xFFFF_FFFF,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .expect("static CRC module");

    let tb = Module::new("TB", Mailbox::BASE, 0x100)
        .and_then(|m| {
            m.with_register(reg(
                "RESULT",
                Mailbox::RESULT,
                Access::WriteOnly,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "CHAROUT",
                Mailbox::CHAROUT,
                Access::WriteOnly,
                0,
                vec![field("CHAR", 0, 8)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "SIM_END",
                Mailbox::SIM_END,
                Access::WriteOnly,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "TICKS",
                Mailbox::TICKS,
                Access::ReadOnly,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "PLATFORM",
                Mailbox::PLATFORM,
                Access::ReadOnly,
                0,
                vec![field("ID", 0, 8)],
            ))
        })
        .and_then(|m| {
            m.with_register(reg(
                "SCRATCH",
                Mailbox::SCRATCH,
                Access::ReadWrite,
                0,
                vec![field("VALUE", 0, 32)],
            ))
        })
        .expect("static TB module");

    RegMap::new()
        .with_module(uart)
        .and_then(|m| m.with_module(page))
        .and_then(|m| m.with_module(timer))
        .and_then(|m| m.with_module(intc))
        .and_then(|m| m.with_module(wdt))
        .and_then(|m| m.with_module(nvmc))
        .and_then(|m| m.with_module(crc))
        .and_then(|m| m.with_module(tb))
        .expect("static SC88 register map")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_regmap_is_valid() {
        let map = base_regmap();
        assert_eq!(map.modules().len(), 8);
        for name in ["UART", "PAGE", "TIMER", "INTC", "WDT", "NVMC", "CRC", "TB"] {
            assert!(map.module(name).is_some(), "missing module {name}");
        }
    }

    #[test]
    fn all_derivatives_produce_valid_maps() {
        for id in DerivativeId::ALL {
            let d = Derivative::from_id(id);
            let map = d.regmap();
            assert!(!map.modules().is_empty(), "{id}");
        }
    }

    #[test]
    fn sc88b_moves_page_field() {
        let map = Derivative::sc88b().regmap();
        let f = map
            .module("PAGE")
            .unwrap()
            .register("PAGE_CTRL")
            .unwrap()
            .field("PAGE")
            .unwrap();
        assert_eq!((f.pos(), f.width()), (1, 5));
    }

    #[test]
    fn sc88c_widens_page_field_and_doubles_pages() {
        let c = Derivative::sc88c();
        let map = c.regmap();
        let f = map
            .module("PAGE")
            .unwrap()
            .register("PAGE_CTRL")
            .unwrap()
            .field("PAGE")
            .unwrap();
        assert_eq!((f.pos(), f.width()), (0, 6));
        assert_eq!(c.page_count(), 64);
        assert_eq!(Derivative::sc88a().page_count(), 32);
    }

    #[test]
    fn page_count_equals_the_register_map_value() {
        let from_map = |d: &Derivative| {
            let map = d.regmap();
            let width = map
                .module("PAGE")
                .and_then(|m| m.register(d.hardware_register_name("PAGE_CTRL")))
                .and_then(|r| r.field("PAGE"))
                .map(|f| f.width())
                .unwrap();
            1u32 << width
        };
        for id in DerivativeId::ALL {
            let d = Derivative::from_id(id);
            // Twice: the first call may fill the memo, the second reads it.
            assert_eq!(d.page_count(), from_map(&d), "{id}");
            assert_eq!(d.page_count(), from_map(&d), "{id}");
        }
        // A derivative outside the catalogue is not answered from the
        // catalogue's memo, even when it shares a catalogued id.
        let mut wide = Derivative::sc88c();
        wide.changes[0] = ChangeOp::ResizeField {
            module: "PAGE".into(),
            register: "PAGE_CTRL".into(),
            field: "PAGE".into(),
            new_width: 7,
        };
        assert_eq!(wide.page_count(), 128);
        assert_eq!(wide.page_count(), from_map(&wide));
    }

    #[test]
    fn sc88d_renames_and_relocates() {
        let d = Derivative::sc88d();
        let map = d.regmap();
        let page = map.module("PAGE").unwrap();
        assert!(page.register("PAGE_CTRL").is_none());
        assert!(page.register("PAGE_CONF").is_some());
        assert_eq!(map.module("UART").unwrap().base(), 0xE_0800);
        assert_eq!(d.es_version(), EsVersion::V2);
        assert_eq!(d.hardware_register_name("PAGE_CTRL"), "PAGE_CONF");
        assert_eq!(d.hardware_register_name("PAGE_STATUS"), "PAGE_STATUS");
    }

    #[test]
    fn derivative_codes_distinct() {
        let mut codes: Vec<u32> = DerivativeId::ALL.iter().map(|d| d.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DerivativeId::ALL.len());
    }

    #[test]
    fn change_op_describe() {
        let op = ChangeOp::ResizeField {
            module: "PAGE".into(),
            register: "PAGE_CTRL".into(),
            field: "PAGE".into(),
            new_width: 6,
        };
        assert!(op.describe().contains("6 bits"));
    }

    #[test]
    fn bad_change_reports_error() {
        let mut map = base_regmap();
        let op = ChangeOp::RenameRegister {
            module: "PAGE".into(),
            old: "NO_SUCH".into(),
            new: "X".into(),
        };
        assert!(op.apply(&mut map).is_err());
    }
}
