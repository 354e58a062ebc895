//! Generation of the abstraction layer's `Globals.inc`.
//!
//! §2 of the paper: *"Anywhere in the test code that would have previously
//! used a hardwired value will now be referenced in this global defines
//! file. This file should now contain derivative specific information …
//! the control of the test environment can be changed depending on the
//! target simulation platform using the same technique."*
//!
//! [`GlobalsSpec`] captures the two inputs — a [`Derivative`] and a
//! [`PlatformId`] — plus optional per-test target overrides, and renders a
//! complete `Globals.inc`: register addresses (remapped across renames),
//! field geometry (`PAGE_FIELD_START_POSITION`, `PAGE_FIELD_SIZE`),
//! platform knobs (`WDT_DISABLE`, `VERBOSE`, `POLL_LIMIT`), embedded-
//! software entry points and the paper's `TESTn_TARGET_PAGE` values.

use std::collections::BTreeMap;
use std::fmt;

use crate::derivative::Derivative;
use crate::es::EsFunction;
use crate::memmap::{self, MemoryMap};
use crate::testbench::{Mailbox, PlatformId};

/// The value of one `Globals.inc` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefineValue {
    /// A numeric `.EQU` value.
    Num(u32),
    /// A textual `.DEFINE` alias (e.g. `CallAddr` → `a12`).
    Alias(String),
}

/// One named entry of the globals file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Define {
    /// The symbol name tests and base functions reference.
    pub name: String,
    /// Its value.
    pub value: DefineValue,
}

/// Specification of a `Globals.inc` instance: derivative × platform ×
/// test-target overrides.
#[derive(Debug, Clone)]
pub struct GlobalsSpec {
    derivative: Derivative,
    platform: PlatformId,
    es_version: crate::es::EsVersion,
    test_pages: Vec<u32>,
    extra: BTreeMap<String, u32>,
}

impl GlobalsSpec {
    /// A spec with the paper's default test targets
    /// (`TEST1_TARGET_PAGE = 8`, `TEST2_TARGET_PAGE = 7`).
    pub fn new(derivative: Derivative, platform: PlatformId) -> Self {
        let es_version = derivative.es_version();
        Self {
            derivative,
            platform,
            es_version,
            test_pages: vec![8, 7],
            extra: BTreeMap::new(),
        }
    }

    /// Overrides the embedded-software release (the paper's Figure 7
    /// scenario updates the ES library under an otherwise unchanged chip).
    pub fn with_es_version(mut self, version: crate::es::EsVersion) -> Self {
        self.es_version = version;
        self
    }

    /// The embedded-software release this spec publishes.
    pub fn es_version(&self) -> crate::es::EsVersion {
        self.es_version
    }

    /// Replaces the test-target pages; entry *i* becomes
    /// `TEST{i+1}_TARGET_PAGE`.
    ///
    /// # Panics
    ///
    /// Panics if a page exceeds the derivative's page count — the
    /// constrained-random generator (advm-gen) guarantees this bound, and
    /// a hand-written spec violating it is a bug worth failing loudly on.
    pub fn with_test_pages(mut self, pages: Vec<u32>) -> Self {
        let max = self.derivative.page_count();
        for &p in &pages {
            assert!(
                p < max,
                "test page {p} exceeds page count {max} of {}",
                self.derivative.id()
            );
        }
        self.test_pages = pages;
        self
    }

    /// Generates `count` deterministic in-range test pages (used when
    /// scaling the Figure 6 experiment to N tests).
    pub fn with_generated_test_pages(self, count: usize) -> Self {
        let max = self.derivative.page_count();
        let pages = (0..count).map(|i| (i as u32 * 7 + 1) % max).collect();
        self.with_test_pages(pages)
    }

    /// Adds an extra numeric define.
    pub fn with_extra(mut self, name: impl Into<String>, value: u32) -> Self {
        self.extra.insert(name.into(), value);
        self
    }

    /// The derivative this spec targets.
    pub fn derivative(&self) -> &Derivative {
        &self.derivative
    }

    /// The platform this spec targets.
    pub fn platform(&self) -> PlatformId {
        self.platform
    }

    /// The test-target pages, in `TEST{i+1}_TARGET_PAGE` order.
    pub fn test_pages(&self) -> &[u32] {
        &self.test_pages
    }

    /// The extra numeric defines, in name order.
    pub fn extra(&self) -> impl Iterator<Item = (&str, u32)> {
        self.extra.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Renders the complete globals file.
    pub fn render(&self) -> GlobalsFile {
        let map = self.derivative.regmap();
        let mem = MemoryMap::sc88();
        let mut defines: Vec<Define> = Vec::new();
        let mut num = |name: &str, value: u32| {
            defines.push(Define {
                name: name.to_owned(),
                value: DefineValue::Num(value),
            });
        };

        // Identity.
        num("PLATFORM_ID", self.platform.code());
        num("DERIVATIVE_ID", self.derivative.id().code());
        num("ES_VERSION", self.es_version.code());

        // Memory map.
        num("ROM_BASE", memmap::ROM_START);
        num("RAM_BASE", memmap::RAM_START);
        num("RAM_SIZE", memmap::RAM_SIZE);
        num("STACK_TOP", mem.stack_top());
        num("NVM_BASE", memmap::NVM_START);
        num("NVM_SIZE", memmap::NVM_SIZE);
        // Global trap-library conventions, re-mapped here per the paper's
        // rule for global-layer definitions.
        num("HOOK_IRQ0_ADDR", memmap::HOOK_IRQ0);
        num("HOOK_IRQ1_ADDR", memmap::HOOK_IRQ1);
        num("HOOK_TRAP8_ADDR", memmap::HOOK_TRAP8);
        num("HOOK_WDT_ADDR", memmap::HOOK_WDT);
        num("TEST_DATA_BASE", memmap::TEST_DATA_BASE);

        // Register addresses and geometry. Abstraction-layer names stay
        // stable even when the derivative renames the hardware register —
        // the remap the paper prescribes for global-layer name changes.
        let reg_addr = |module: &str, abstract_reg: &str| -> u32 {
            let hw = self.derivative.hardware_register_name(abstract_reg);
            map.module(module)
                .and_then(|m| m.register_addr(hw))
                .unwrap_or_else(|| panic!("register {module}.{abstract_reg} missing"))
        };
        let field_of = |module: &str, abstract_reg: &str, field: &str| {
            let hw = self.derivative.hardware_register_name(abstract_reg);
            map.module(module)
                .and_then(|m| m.register(hw))
                .and_then(|r| r.field(field).cloned())
                .unwrap_or_else(|| panic!("field {module}.{abstract_reg}.{field} missing"))
        };

        // PAGE module — the Figure 6 registers.
        num("PAGE_BASE", map.module("PAGE").expect("PAGE module").base());
        num("PAGE_CTRL_ADDR", reg_addr("PAGE", "PAGE_CTRL"));
        num("PAGE_STATUS_ADDR", reg_addr("PAGE", "PAGE_STATUS"));
        num("PAGE_MAP_ADDR", reg_addr("PAGE", "PAGE_MAP"));
        num("PAGE_WINDOW_ADDR", reg_addr("PAGE", "PAGE_WINDOW"));
        num("PAGE_WINDOW_SHIFT", 8);
        let page_field = field_of("PAGE", "PAGE_CTRL", "PAGE");
        num("PAGE_FIELD_START_POSITION", u32::from(page_field.pos()));
        num("PAGE_FIELD_SIZE", u32::from(page_field.width()));
        num("PAGE_COUNT", 1 << page_field.width());
        let enable_field = field_of("PAGE", "PAGE_CTRL", "ENABLE");
        num("PAGE_ENABLE_POSITION", u32::from(enable_field.pos()));
        num("PAGE_ENABLE_MASK", enable_field.mask());
        let active_field = field_of("PAGE", "PAGE_STATUS", "ACTIVE_PAGE");
        num("ACTIVE_PAGE_POSITION", u32::from(active_field.pos()));
        num("ACTIVE_PAGE_SIZE", u32::from(active_field.width()));
        let ready_field = field_of("PAGE", "PAGE_STATUS", "READY");
        num("PAGE_READY_MASK", ready_field.mask());

        // UART.
        num("UART_BASE", map.module("UART").expect("UART module").base());
        num("UART_CTRL_ADDR", reg_addr("UART", "CTRL"));
        num("UART_STATUS_ADDR", reg_addr("UART", "STATUS"));
        num("UART_DATA_ADDR", reg_addr("UART", "DATA"));
        num("UART_BAUD_ADDR", reg_addr("UART", "BAUD"));
        num(
            "UART_TX_READY_MASK",
            field_of("UART", "STATUS", "TX_READY").mask(),
        );
        num(
            "UART_RX_VALID_MASK",
            field_of("UART", "STATUS", "RX_VALID").mask(),
        );
        num(
            "UART_OVERRUN_MASK",
            field_of("UART", "STATUS", "OVERRUN").mask(),
        );
        num("UART_EN_MASK", field_of("UART", "CTRL", "EN").mask());
        num(
            "UART_LOOPBACK_MASK",
            field_of("UART", "CTRL", "LOOPBACK").mask(),
        );

        // TIMER.
        num("TIMER_CTRL_ADDR", reg_addr("TIMER", "CTRL"));
        num("TIMER_LOAD_ADDR", reg_addr("TIMER", "LOAD"));
        num("TIMER_VALUE_ADDR", reg_addr("TIMER", "VALUE"));
        num("TIMER_STATUS_ADDR", reg_addr("TIMER", "STATUS"));
        num("TIMER_EN_MASK", field_of("TIMER", "CTRL", "EN").mask());
        num("TIMER_IE_MASK", field_of("TIMER", "CTRL", "IE").mask());
        num(
            "TIMER_PERIODIC_MASK",
            field_of("TIMER", "CTRL", "PERIODIC").mask(),
        );
        num(
            "TIMER_EXPIRED_MASK",
            field_of("TIMER", "STATUS", "EXPIRED").mask(),
        );

        // INTC.
        num("INTC_ENABLE_ADDR", reg_addr("INTC", "ENABLE"));
        num("INTC_PENDING_ADDR", reg_addr("INTC", "PENDING"));
        num("INTC_ACK_ADDR", reg_addr("INTC", "ACK"));
        num("INTC_RAISE_ADDR", reg_addr("INTC", "RAISE"));

        // WDT.
        num("WDT_CTRL_ADDR", reg_addr("WDT", "CTRL"));
        num("WDT_SERVICE_ADDR", reg_addr("WDT", "SERVICE"));
        num("WDT_PERIOD_ADDR", reg_addr("WDT", "PERIOD"));
        num("WDT_SERVICE_KEY", 0xA5);

        // NVMC.
        num("NVMC_KEY_ADDR", reg_addr("NVMC", "KEY"));
        num("NVMC_CTRL_ADDR", reg_addr("NVMC", "CTRL"));
        num("NVMC_ADDR_ADDR", reg_addr("NVMC", "ADDR"));
        num("NVMC_DATA_ADDR", reg_addr("NVMC", "DATA"));
        num("NVMC_STATUS_ADDR", reg_addr("NVMC", "STATUS"));
        num("NVMC_CMD_ADDR", reg_addr("NVMC", "CMD"));

        // CRC.
        num("CRC_CTRL_ADDR", reg_addr("CRC", "CTRL"));
        num("CRC_DATA_IN_ADDR", reg_addr("CRC", "DATA_IN"));
        num("CRC_RESULT_ADDR", reg_addr("CRC", "RESULT"));

        // Architectural reset values of read/write registers, for the
        // "control and status register test" class the paper mentions.
        for module in map.modules() {
            if module.name() == "TB" {
                continue;
            }
            for reg in module.registers() {
                if reg.access() == crate::regmap::Access::ReadWrite {
                    // Publish under the stable abstraction-layer name even
                    // when the derivative renamed the hardware register.
                    let stable = self.derivative.abstract_register_name(reg.name());
                    num(&format!("{}_{}_RESET", module.name(), stable), reg.reset());
                }
            }
        }

        // Test bench mailbox.
        let mb = Mailbox::new();
        num("TB_RESULT_ADDR", mb.reg(Mailbox::RESULT));
        num("TB_CHAROUT_ADDR", mb.reg(Mailbox::CHAROUT));
        num("TB_SIM_END_ADDR", mb.reg(Mailbox::SIM_END));
        num("TB_TICKS_ADDR", mb.reg(Mailbox::TICKS));
        num("TB_PLATFORM_ADDR", mb.reg(Mailbox::PLATFORM));
        num("TB_SCRATCH_ADDR", mb.reg(Mailbox::SCRATCH));
        num("RESULT_PASS", Mailbox::PASS_MAGIC);
        num("RESULT_FAIL", Mailbox::FAIL_MAGIC);

        // Platform knobs — the "control of the test environment can be
        // changed depending on the target simulation platform" mechanism.
        let (wdt_disable, verbose, poll_limit) = platform_knobs(self.platform);
        num("WDT_DISABLE", wdt_disable);
        num("VERBOSE", verbose);
        num("POLL_LIMIT", poll_limit);

        // Embedded-software entry points (stable jump-table slots).
        for func in EsFunction::ALL {
            num(func.define_name(), func.entry_addr());
        }

        // Test targets.
        for (i, &page) in self.test_pages.iter().enumerate() {
            num(&format!("TEST{}_TARGET_PAGE", i + 1), page);
        }
        num("TEST_PAGE_COUNT", self.test_pages.len() as u32);

        // Extra overrides.
        for (name, value) in &self.extra {
            num(name, *value);
        }

        // Register aliases (.DEFINE) — the paper's `CallAddr .DEFINE A12`.
        defines.push(Define {
            name: "CallAddr".to_owned(),
            value: DefineValue::Alias("a12".to_owned()),
        });
        defines.push(Define {
            name: "RetVal".to_owned(),
            value: DefineValue::Alias("d2".to_owned()),
        });
        defines.push(Define {
            name: "ArgA".to_owned(),
            value: DefineValue::Alias("d4".to_owned()),
        });
        defines.push(Define {
            name: "ArgB".to_owned(),
            value: DefineValue::Alias("d5".to_owned()),
        });

        GlobalsFile::new(
            format!(
                ";; Globals.inc — {} on {} (generated, abstraction layer)",
                self.derivative.id(),
                self.platform
            ),
            defines,
        )
    }
}

fn platform_knobs(platform: PlatformId) -> (u32, u32, u32) {
    // (WDT_DISABLE, VERBOSE, POLL_LIMIT)
    match platform {
        PlatformId::GoldenModel => (0, 1, 10_000),
        PlatformId::RtlSim => (0, 1, 10_000),
        // Gate-level simulation is too slow for realistic watchdog
        // timing and character output.
        PlatformId::GateSim => (1, 0, 50_000),
        // The accelerator runs quiet for throughput.
        PlatformId::Accelerator => (0, 0, 100_000),
        PlatformId::Bondout => (0, 1, 1_000_000),
        PlatformId::ProductSilicon => (0, 0, 1_000_000),
    }
}

/// A rendered `Globals.inc`: the text plus a structured view of every
/// define for introspection by experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalsFile {
    header: String,
    defines: Vec<Define>,
}

impl GlobalsFile {
    fn new(header: String, defines: Vec<Define>) -> Self {
        Self { header, defines }
    }

    /// All defines in render order.
    pub fn defines(&self) -> &[Define] {
        &self.defines
    }

    /// Looks up a numeric define by name.
    pub fn value(&self, name: &str) -> Option<u32> {
        self.defines
            .iter()
            .find_map(|d| match (&d.value, d.name == name) {
                (DefineValue::Num(v), true) => Some(*v),
                _ => None,
            })
    }

    /// Looks up an alias define by name.
    pub fn alias(&self, name: &str) -> Option<&str> {
        self.defines
            .iter()
            .find_map(|d| match (&d.value, d.name == name) {
                (DefineValue::Alias(a), true) => Some(a.as_str()),
                _ => None,
            })
    }

    /// Renders the assembler source text of the file.
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header);
        out.push('\n');
        for d in &self.defines {
            match &d.value {
                DefineValue::Num(v) => {
                    out.push_str(&format!("{} .EQU 0x{v:X}\n", d.name));
                }
                DefineValue::Alias(a) => {
                    out.push_str(&format!(".DEFINE {} {a}\n", d.name));
                }
            }
        }
        out
    }
}

impl fmt::Display for GlobalsFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivative::Derivative;

    fn render(d: Derivative, p: PlatformId) -> GlobalsFile {
        GlobalsSpec::new(d, p).render()
    }

    #[test]
    fn paper_defaults_present() {
        let g = render(Derivative::sc88a(), PlatformId::GoldenModel);
        assert_eq!(g.value("PAGE_FIELD_SIZE"), Some(5));
        assert_eq!(g.value("PAGE_FIELD_START_POSITION"), Some(0));
        assert_eq!(g.value("TEST1_TARGET_PAGE"), Some(8));
        assert_eq!(g.value("TEST2_TARGET_PAGE"), Some(7));
        assert_eq!(g.alias("CallAddr"), Some("a12"));
    }

    #[test]
    fn sc88b_shifts_field_position_only() {
        let a = render(Derivative::sc88a(), PlatformId::GoldenModel);
        let b = render(Derivative::sc88b(), PlatformId::GoldenModel);
        assert_eq!(b.value("PAGE_FIELD_START_POSITION"), Some(1));
        assert_eq!(b.value("PAGE_FIELD_SIZE"), a.value("PAGE_FIELD_SIZE"));
        assert_eq!(b.value("PAGE_CTRL_ADDR"), a.value("PAGE_CTRL_ADDR"));
    }

    #[test]
    fn sc88c_widens_field_and_doubles_pages() {
        let g = render(Derivative::sc88c(), PlatformId::GoldenModel);
        assert_eq!(g.value("PAGE_FIELD_SIZE"), Some(6));
        assert_eq!(g.value("PAGE_COUNT"), Some(64));
    }

    #[test]
    fn sc88d_remaps_renamed_register_and_moved_uart() {
        let a = render(Derivative::sc88a(), PlatformId::GoldenModel);
        let d = render(Derivative::sc88d(), PlatformId::GoldenModel);
        // The define name survives the hardware rename...
        assert_eq!(d.value("PAGE_CTRL_ADDR"), a.value("PAGE_CTRL_ADDR"));
        // ...and the relocated UART is picked up.
        assert_eq!(d.value("UART_DATA_ADDR"), Some(0xE_0808));
        assert_eq!(d.value("ES_VERSION"), Some(2));
    }

    #[test]
    fn platform_knobs_differ() {
        let golden = render(Derivative::sc88a(), PlatformId::GoldenModel);
        let gate = render(Derivative::sc88a(), PlatformId::GateSim);
        let accel = render(Derivative::sc88a(), PlatformId::Accelerator);
        assert_eq!(golden.value("WDT_DISABLE"), Some(0));
        assert_eq!(gate.value("WDT_DISABLE"), Some(1));
        assert_eq!(golden.value("VERBOSE"), Some(1));
        assert_eq!(accel.value("VERBOSE"), Some(0));
        assert_ne!(golden.value("POLL_LIMIT"), accel.value("POLL_LIMIT"));
    }

    #[test]
    fn es_entries_published() {
        let g = render(Derivative::sc88a(), PlatformId::GoldenModel);
        assert_eq!(
            g.value("ES_INIT_REGISTER"),
            Some(EsFunction::InitRegister.entry_addr())
        );
        assert_eq!(g.value("ES_MEMCPY"), Some(EsFunction::Memcpy.entry_addr()));
    }

    #[test]
    fn generated_test_pages_respect_page_count() {
        let spec = GlobalsSpec::new(Derivative::sc88a(), PlatformId::GoldenModel)
            .with_generated_test_pages(100);
        let g = spec.render();
        assert_eq!(g.value("TEST_PAGE_COUNT"), Some(100));
        for i in 1..=100 {
            let v = g.value(&format!("TEST{i}_TARGET_PAGE")).unwrap();
            assert!(v < 32, "page {v} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds page count")]
    fn out_of_range_test_page_panics() {
        let _ = GlobalsSpec::new(Derivative::sc88a(), PlatformId::GoldenModel)
            .with_test_pages(vec![32]);
    }

    #[test]
    fn text_renders_equ_and_define() {
        let g = render(Derivative::sc88a(), PlatformId::GoldenModel);
        let text = g.text();
        assert!(text.contains("PAGE_FIELD_SIZE .EQU 0x5"));
        assert!(text.contains(".DEFINE CallAddr a12"));
        assert!(text.starts_with(";; Globals.inc"));
    }

    #[test]
    fn extra_defines_rendered() {
        let g = GlobalsSpec::new(Derivative::sc88a(), PlatformId::GoldenModel)
            .with_extra("MY_KNOB", 42)
            .render();
        assert_eq!(g.value("MY_KNOB"), Some(42));
    }
}
