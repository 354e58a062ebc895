//! Hardwired test-suite generation and porting.

use std::collections::BTreeMap;
use std::fmt;

use advm_metrics::{diff_trees, ChangeSet};
use advm_soc::es::EsFunction;
use advm_soc::{Derivative, DerivativeId, EsVersion, GlobalsSpec, Mailbox, PlatformId};

/// The target triple a direct suite is hardwired for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Chip derivative the literals were taken from.
    pub derivative: DerivativeId,
    /// Platform whose knobs are baked in.
    pub platform: PlatformId,
    /// Embedded-software release whose conventions are baked in.
    pub es_version: EsVersion,
}

impl SuiteConfig {
    /// A config for a derivative on a platform, with the chip's shipped
    /// ES release.
    pub fn new(derivative: DerivativeId, platform: PlatformId) -> Self {
        Self {
            derivative,
            platform,
            es_version: Derivative::from_id(derivative).es_version(),
        }
    }

    /// Overrides the ES release.
    pub fn with_es_version(mut self, version: EsVersion) -> Self {
        self.es_version = version;
        self
    }
}

/// A suite of hardwired directed tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectSuite {
    name: String,
    config: SuiteConfig,
    cells: Vec<(String, String)>,
}

impl DirectSuite {
    /// The suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hardwired target.
    pub fn config(&self) -> SuiteConfig {
        self.config
    }

    /// `(test id, source)` pairs.
    pub fn cells(&self) -> &[(String, String)] {
        &self.cells
    }

    /// Looks up a test source by id.
    pub fn cell(&self, id: &str) -> Option<&str> {
        self.cells
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, s)| s.as_str())
    }

    /// Renders the suite as a flat file tree (one file per test).
    pub fn tree(&self) -> BTreeMap<String, String> {
        self.cells
            .iter()
            .map(|(id, src)| (format!("{}/{id}.asm", self.name), src.clone()))
            .collect()
    }

    /// Total source lines.
    pub fn total_lines(&self) -> usize {
        self.cells.iter().map(|(_, s)| s.lines().count()).sum()
    }
}

impl fmt::Display for DirectSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} hardwired tests for {} on {}]",
            self.name,
            self.cells.len(),
            self.config.derivative.name(),
            self.config.platform
        )
    }
}

/// Values an engineer would copy out of the datasheet when hardwiring a
/// test — the same numbers ADVM's `Globals.inc` would carry.
struct Baked {
    page_ctrl: u32,
    page_status: u32,
    page_pos: u8,
    page_width: u8,
    active_pos: u8,
    active_width: u8,
    enable_mask: u32,
    uart_ctrl: u32,
    uart_status: u32,
    uart_data: u32,
    nvm_base: u32,
    nvmc_status: u32,
    es_init: u32,
    es_memcpy: u32,
    es_checksum: u32,
    es_nvm_unlock: u32,
    es_nvm_write: u32,
    es_uart_send: u32,
    tb_result: u32,
    tb_sim_end: u32,
    tb_charout: u32,
    page_count: u32,
    ready_mask: u32,
    poll_limit: u32,
    verbose: bool,
}

fn bake(config: SuiteConfig) -> Baked {
    let derivative = Derivative::from_id(config.derivative);
    // Reuse the globals generator as the "datasheet": both approaches see
    // the same numbers; only where they *store* them differs.
    let globals = GlobalsSpec::new(derivative.clone(), config.platform)
        .with_es_version(config.es_version)
        .render();
    let value = |name: &str| {
        globals
            .value(name)
            .unwrap_or_else(|| panic!("datasheet value {name} missing"))
    };
    Baked {
        page_ctrl: value("PAGE_CTRL_ADDR"),
        page_status: value("PAGE_STATUS_ADDR"),
        page_pos: value("PAGE_FIELD_START_POSITION") as u8,
        page_width: value("PAGE_FIELD_SIZE") as u8,
        active_pos: value("ACTIVE_PAGE_POSITION") as u8,
        active_width: value("ACTIVE_PAGE_SIZE") as u8,
        enable_mask: value("PAGE_ENABLE_MASK"),
        uart_ctrl: value("UART_CTRL_ADDR"),
        uart_status: value("UART_STATUS_ADDR"),
        uart_data: value("UART_DATA_ADDR"),
        nvm_base: value("NVM_BASE"),
        nvmc_status: value("NVMC_STATUS_ADDR"),
        es_init: EsFunction::InitRegister.entry_addr(),
        es_memcpy: EsFunction::Memcpy.entry_addr(),
        es_checksum: EsFunction::Checksum.entry_addr(),
        es_nvm_unlock: EsFunction::NvmUnlock.entry_addr(),
        es_nvm_write: EsFunction::NvmWriteWord.entry_addr(),
        es_uart_send: EsFunction::UartSendByte.entry_addr(),
        tb_result: Mailbox::new().reg(Mailbox::RESULT),
        tb_sim_end: Mailbox::new().reg(Mailbox::SIM_END),
        tb_charout: Mailbox::new().reg(Mailbox::CHAROUT),
        page_count: value("PAGE_COUNT"),
        ready_mask: value("PAGE_READY_MASK"),
        poll_limit: value("POLL_LIMIT"),
        verbose: value("VERBOSE") != 0,
    }
}

fn epilogue(b: &Baked) -> String {
    // A hardwired test bakes the platform's verbosity knob too: quiet
    // platforms (accelerator, gate sim, silicon) get no console bytes.
    let pass_char = if b.verbose {
        format!(
            "    LOAD d3, #'P'\n    STORE [0x{:05X}], d3\n",
            b.tb_charout
        )
    } else {
        String::new()
    };
    let fail_char = if b.verbose {
        format!(
            "    LOAD d3, #'F'\n    STORE [0x{:05X}], d3\n",
            b.tb_charout
        )
    } else {
        String::new()
    };
    format!(
        "\
{pass_char}    LOAD d2, #0x{pass:08X}
    STORE [0x{result:05X}], d2
    STORE [0x{sim_end:05X}], d2
    RETURN
t_fail:
{fail_char}    LOAD d2, #0x{fail:08X}
    STORE [0x{result:05X}], d2
    STORE [0x{sim_end:05X}], d2
    RETURN
",
        pass = Mailbox::PASS_MAGIC,
        fail = Mailbox::FAIL_MAGIC | 1,
        result = b.tb_result,
        sim_end = b.tb_sim_end,
    )
}

/// Generates the hardwired page suite: `n` tests in the Figure 6 shape,
/// every value a literal.
pub fn direct_page_suite(config: SuiteConfig, n: usize) -> DirectSuite {
    let b = bake(config);
    let cells = (1..=n)
        .map(|i| {
            let page = (i as u32 * 7 + 1) % b.page_count;
            let source = format!(
                "\
;; direct test {i} — hardwired for {derivative} / {platform}
_main:
    LOAD a12, #0x{es_init:05X}      ; ES_Init_Register entry (hardwired)
    CALL a12
    MOVI d14, #0
    INSERT d14, d14, #{page}, {pos}, {width}
    ORI d14, d14, #0x{enable:X}
    STORE [0x{ctrl:05X}], d14
    LOAD d3, #{poll_limit}          ; platform polling budget (hardwired)
t_ready:
    CMP d3, #0
    JEQ t_fail
    SUB d3, d3, #1
    LOAD d1, [0x{status:05X}]
    ANDI d1, d1, #0x{ready:X}
    CMPI d1, #0
    JEQ t_ready
    LOAD d1, [0x{status:05X}]
    EXTRACT d1, d1, {apos}, {awidth}
    CMP d1, #{page}
    JNE t_fail
{epilogue}",
                poll_limit = b.poll_limit,
                ready = b.ready_mask,
                derivative = config.derivative.name(),
                platform = config.platform,
                es_init = b.es_init,
                pos = b.page_pos,
                width = b.page_width,
                enable = b.enable_mask,
                ctrl = b.page_ctrl,
                status = b.page_status,
                apos = b.active_pos,
                awidth = b.active_width,
                epilogue = epilogue(&b),
            );
            (format!("TEST_DIRECT_PAGE_{i:02}"), source)
        })
        .collect();
    DirectSuite {
        name: "DIRECT_PAGE".to_owned(),
        config,
        cells,
    }
}

/// Generates the hardwired embedded-software suite (the Figure 7
/// workload without wrappers): calling conventions are baked per the ES
/// release the suite targets.
pub fn direct_es_suite(config: SuiteConfig) -> DirectSuite {
    let b = bake(config);
    let v2 = config.es_version == EsVersion::V2;

    // Conventions the engineer read from the current ES release notes.
    let memcpy_setup = if v2 {
        // v2: a4 = src, a5 = dst.
        "    LOAD a5, #0x41100          ; dst (v2 convention)\n    LOAD a4, #0x41000          ; src\n"
    } else {
        "    LOAD a4, #0x41100          ; dst (v1 convention)\n    LOAD a5, #0x41000          ; src\n"
    };
    let checksum_result = if v2 { "d3" } else { "d2" };
    let uart_byte_reg = if v2 { "d5" } else { "d4" };
    let (nvm_addr_reg, nvm_val_reg) = if v2 { ("d5", "d4") } else { ("d4", "d5") };

    let init = (
        "TEST_DIRECT_ES_INIT".to_owned(),
        format!(
            "\
;; direct ES init — hardwired
_main:
    LOAD a12, #0x{es_init:05X}
    CALL a12
    LOAD d1, [0x{ctrl:05X}]
    ANDI d1, d1, #0x{enable:X}
    CMPI d1, #0
    JEQ t_fail
{epilogue}",
            es_init = b.es_init,
            ctrl = b.page_ctrl,
            enable = b.enable_mask,
            epilogue = epilogue(&b),
        ),
    );
    let memcpy = (
        "TEST_DIRECT_MEMCPY".to_owned(),
        format!(
            "\
;; direct memcpy — hardwired ES convention
_main:
    LOAD a4, #0x41000
    LOAD d1, #0xABCD0001
    STORE [a4], d1
    LOAD d1, #0xABCD0002
    STORE [a4 + 4], d1
{memcpy_setup}    LOAD d4, #2
    LOAD a12, #0x{es_memcpy:05X}
    CALL a12
    LOAD d1, [0x41104]
    LOAD d2, #0xABCD0002
    CMP d1, d2
    JNE t_fail
{epilogue}",
            es_memcpy = b.es_memcpy,
            epilogue = epilogue(&b),
        ),
    );
    let checksum = (
        "TEST_DIRECT_CHECKSUM".to_owned(),
        format!(
            "\
;; direct checksum — hardwired result register ({checksum_result})
_main:
    LOAD a4, #0x41000
    LOAD d1, #30
    STORE [a4], d1
    LOAD d1, #12
    STORE [a4 + 4], d1
    LOAD a4, #0x41000
    LOAD d4, #2
    LOAD a12, #0x{es_checksum:05X}
    CALL a12
    CMPI {checksum_result}, #42
    JNE t_fail
{epilogue}",
            es_checksum = b.es_checksum,
            epilogue = epilogue(&b),
        ),
    );
    let nvm = (
        "TEST_DIRECT_NVM".to_owned(),
        format!(
            "\
;; direct NVM write — hardwired ES convention
_main:
    LOAD a12, #0x{es_unlock:05X}
    CALL a12
    LOAD {nvm_addr_reg}, #0x400
    LOAD {nvm_val_reg}, #0xFEEDF00D
    LOAD a12, #0x{es_write:05X}
    CALL a12
    LOAD d1, [0x{nvm_readback:05X}]
    LOAD d2, #0xFEEDF00D
    CMP d1, d2
    JNE t_fail
{epilogue}",
            es_unlock = b.es_nvm_unlock,
            es_write = b.es_nvm_write,
            nvm_readback = b.nvm_base + 0x400,
            epilogue = epilogue(&b),
        ),
    );
    let uart = (
        "TEST_DIRECT_UART".to_owned(),
        format!(
            "\
;; direct UART loopback — hardwired addresses and byte register
_main:
    LOAD d1, #0x11               ; EN | LOOPBACK
    STORE [0x{uart_ctrl:05X}], d1
    LOAD {uart_byte_reg}, #0x42
    LOAD a12, #0x{es_send:05X}
    CALL a12
t_rx:
    LOAD d1, [0x{uart_status:05X}]
    ANDI d1, d1, #2              ; RX_VALID
    CMPI d1, #0
    JEQ t_rx
    LOAD d1, [0x{uart_data:05X}]
    CMPI d1, #0x42
    JNE t_fail
{epilogue}",
            uart_ctrl = b.uart_ctrl,
            uart_status = b.uart_status,
            uart_data = b.uart_data,
            es_send = b.es_uart_send,
            epilogue = epilogue(&b),
        ),
    );
    let locked = (
        "TEST_DIRECT_NVM_LOCKED".to_owned(),
        format!(
            "\
;; direct NVM locked-error check — hardwired controller registers
_main:
    LOAD d1, [0x{status:05X}]
    ANDI d1, d1, #2              ; UNLOCKED must be clear at reset
    CMPI d1, #0
    JNE t_fail
{epilogue}",
            status = b.nvmc_status,
            epilogue = epilogue(&b),
        ),
    );

    DirectSuite {
        name: "DIRECT_ES".to_owned(),
        config,
        cells: vec![init, memcpy, checksum, nvm, uart, locked],
    }
}

/// Re-targets a suite by regenerating it for a new configuration —
/// exactly what an engineer would do, test file by test file — and
/// returns the change-set.
pub fn port_suite(
    suite: &DirectSuite,
    config: SuiteConfig,
    regenerate: impl Fn(SuiteConfig) -> DirectSuite,
) -> (DirectSuite, ChangeSet) {
    let before = suite.tree();
    let ported = regenerate(config);
    let after = ported.tree();
    (ported, diff_trees(&before, &after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_suite_bakes_derivative_values() {
        let a = direct_page_suite(
            SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            2,
        );
        let b = direct_page_suite(
            SuiteConfig::new(DerivativeId::Sc88B, PlatformId::GoldenModel),
            2,
        );
        let src_a = a.cell("TEST_DIRECT_PAGE_01").unwrap();
        let src_b = b.cell("TEST_DIRECT_PAGE_01").unwrap();
        assert!(src_a.contains("INSERT d14, d14, #8, 0, 5"));
        assert!(src_b.contains("INSERT d14, d14, #8, 1, 5"), "{src_b}");
    }

    #[test]
    fn porting_page_suite_touches_every_test() {
        let config_a = SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel);
        let suite = direct_page_suite(config_a, 10);
        let config_b = SuiteConfig::new(DerivativeId::Sc88B, PlatformId::GoldenModel);
        let (_, changes) = port_suite(&suite, config_b, |c| direct_page_suite(c, 10));
        assert_eq!(
            changes.files_touched(),
            10,
            "every hardwired test refactored"
        );
    }

    #[test]
    fn es_suite_conventions_follow_release() {
        let v1 = direct_es_suite(SuiteConfig::new(
            DerivativeId::Sc88A,
            PlatformId::GoldenModel,
        ));
        let v2 = direct_es_suite(
            SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
                .with_es_version(EsVersion::V2),
        );
        assert!(v1
            .cell("TEST_DIRECT_CHECKSUM")
            .unwrap()
            .contains("CMPI d2, #42"));
        assert!(v2
            .cell("TEST_DIRECT_CHECKSUM")
            .unwrap()
            .contains("CMPI d3, #42"));
        assert!(v1
            .cell("TEST_DIRECT_UART")
            .unwrap()
            .contains("LOAD d4, #0x42"));
        assert!(v2
            .cell("TEST_DIRECT_UART")
            .unwrap()
            .contains("LOAD d5, #0x42"));
    }

    #[test]
    fn es_release_port_touches_convention_dependent_tests() {
        let config = SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel);
        let suite = direct_es_suite(config);
        let (_, changes) = port_suite(
            &suite,
            config.with_es_version(EsVersion::V2),
            direct_es_suite,
        );
        // memcpy, checksum, nvm and uart bake conventions; init and the
        // locked check do not.
        assert_eq!(changes.files_touched(), 4, "{changes}");
    }

    #[test]
    fn tree_paths_are_per_test_files() {
        let suite = direct_page_suite(
            SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            3,
        );
        let tree = suite.tree();
        assert_eq!(tree.len(), 3);
        assert!(tree.contains_key("DIRECT_PAGE/TEST_DIRECT_PAGE_02.asm"));
    }
}
