//! Catalogued test environments — the workloads of the reproduction.
//!
//! These are the module test environments a verification team would have
//! written for the SC88 family, expressed exactly as the paper
//! prescribes: every test includes `Globals.inc`, references hardware
//! only through defines, and calls global-layer functionality only
//! through base functions. The experiment binaries and the benchmark
//! harness build on these presets.

use advm_soc::{DerivativeId, PlatformId};

use crate::env::{EnvConfig, ModuleTestEnv, TestCell};

/// The standard configuration most presets start from.
pub fn default_config() -> EnvConfig {
    EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
}

const TEST_EPILOGUE: &str = "\
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
";

/// The PAGE environment: `n` page-select/read-back tests in the style of
/// the paper's Figure 6 (test *i* targets `TESTi_TARGET_PAGE`).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn page_env(config: EnvConfig, n: usize) -> ModuleTestEnv {
    assert!(n > 0, "page_env needs at least one test");
    let mut cells: Vec<TestCell> = (1..=n)
        .map(|i| {
            let source = format!(
                "\
;; Code for test {i} (Figure 6 pattern)
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST{i}_TARGET_PAGE
_main:
    CALL Base_Init_Register
    MOVI d14, #0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    OR d14, d14, #PAGE_ENABLE_MASK
    STORE [PAGE_CTRL_ADDR], d14
    LOAD ArgA, #TEST_PAGE
    CALL Base_Check_Active_Page
    CMP RetVal, #0
    JNE t_fail
{TEST_EPILOGUE}"
            );
            TestCell::new(
                format!("TEST_PAGE_SELECT_{i:02}"),
                format!("select target page {i} and read it back"),
                source,
            )
        })
        .collect();
    cells.push(TestCell::new(
        "TEST_PAGE_WINDOW",
        "window register reflects the selected page numerically",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD ArgA, #TEST1_TARGET_PAGE
    CALL Base_Select_Page
    LOAD d1, [PAGE_WINDOW_ADDR]
    LOAD d2, #TEST1_TARGET_PAGE << PAGE_WINDOW_SHIFT
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    ));
    ModuleTestEnv::new("PAGE", config, cells)
}

/// A PAGE test that *abuses* the structure (the paper's Figure 2): it
/// calls the embedded software directly and hardwires the control
/// register address and field geometry. It passes on the configuration
/// it was written for and silently breaks on every derivative.
pub fn violating_page_cell(index: usize) -> TestCell {
    // Note the failure mode this models: a test that hardwires *both* the
    // write and the read path is self-consistently wrong (it programs the
    // wrong bits and checks them through the same wrong bits), so the
    // typical real-world abuse mixes a hardwired fast path with proper
    // library calls elsewhere — and that mix is what breaks on the next
    // derivative.
    TestCell::new(
        format!("TEST_PAGE_ABUSE_{index:02}"),
        "figure 2 abuse: direct ES call + hardwired write path",
        "\
;; Figure 2 abuse: bypasses the abstraction layer on the write path
.INCLUDE Globals.inc
_main:
    LOAD CallAddr, ES_INIT_REGISTER   ; direct global-layer call
    CALL CallAddr
    MOVI d14, #0
    INSERT d14, d14, #8, 0, 5         ; hardwired field geometry
    ORI d14, d14, #0x100
    STORE [0xE0100], d14              ; hardwired PAGE_CTRL address
    CALL Base_Read_Active_Page        ; readback via the proper wrapper
    CMP RetVal, #8
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
    )
}

/// The ES environment: tests exercising every wrapped embedded-software
/// function — the Figure 7 workload.
pub fn es_env(config: EnvConfig) -> ModuleTestEnv {
    let init = TestCell::new(
        "TEST_ES_INIT",
        "Base_Init_Register leaves the page module enabled",
        "\
;; Figure 7 pattern: wrapped ES call
.INCLUDE Globals.inc
_main:
    CALL Base_Init_Register
    LOAD d1, [PAGE_CTRL_ADDR]
    AND d1, d1, #PAGE_ENABLE_MASK
    CMP d1, #0
    JEQ t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
",
    );
    let nvm = TestCell::new(
        "TEST_ES_NVM_WRITE",
        "wrapped NVM write commits and reads back",
        format!(
            "\
.INCLUDE Globals.inc
NVM_OFF .EQU 0x200
_main:
    CALL Base_Nvm_Unlock
    LOAD ArgA, #NVM_OFF
    LOAD ArgB, #0xCAFEBABE
    CALL Base_Nvm_Write
    LOAD d1, [NVM_BASE + NVM_OFF]
    LOAD d2, #0xCAFEBABE
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let memcpy = TestCell::new(
        "TEST_ES_MEMCPY",
        "wrapped memcpy copies four words",
        format!(
            "\
.INCLUDE Globals.inc
SRC .EQU TEST_DATA_BASE
DST .EQU TEST_DATA_BASE + 0x100
_main:
    LOAD a4, #SRC
    LOAD d1, #0x11111111
    STORE [a4], d1
    LOAD d1, #0x22222222
    STORE [a4 + 4], d1
    LOAD d1, #0x33333333
    STORE [a4 + 8], d1
    LOAD d1, #0x44444444
    STORE [a4 + 12], d1
    LOAD a4, #DST
    LOAD a5, #SRC
    LOAD ArgA, #4
    CALL Base_Memcpy
    LOAD d1, [DST + 8]
    LOAD d2, #0x33333333
    CMP d1, d2
    JNE t_fail
    LOAD d1, [DST + 12]
    LOAD d2, #0x44444444
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let checksum = TestCell::new(
        "TEST_ES_CHECKSUM",
        "wrapped checksum sums three words into RetVal",
        format!(
            "\
.INCLUDE Globals.inc
SRC .EQU TEST_DATA_BASE
_main:
    LOAD a4, #SRC
    LOAD d1, #10
    STORE [a4], d1
    LOAD d1, #20
    STORE [a4 + 4], d1
    LOAD d1, #12
    STORE [a4 + 8], d1
    LOAD a4, #SRC
    LOAD ArgA, #3
    CALL Base_Checksum
    CMP RetVal, #42
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let uart = TestCell::new(
        "TEST_ES_UART_ECHO",
        "wrapped UART send echoes through loopback",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Uart_Init_Loopback
    LOAD ArgA, #0x5A
    CALL Base_Uart_Send
    CALL Base_Uart_Recv
    LOAD d1, #0x5A
    CMP RetVal, d1
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("ES_WRAP", config, vec![init, nvm, memcpy, checksum, uart])
}

/// The UART environment.
pub fn uart_env(config: EnvConfig) -> ModuleTestEnv {
    let loopback = TestCell::new(
        "TEST_UART_LOOPBACK",
        "loopback echo of one byte",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Uart_Init_Loopback
    LOAD ArgA, #'A'
    CALL Base_Uart_Send
    CALL Base_Uart_Recv
    LOAD d1, #'A'
    CMP RetVal, d1
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let burst = TestCell::new(
        "TEST_UART_BURST",
        "three-byte loopback burst with per-byte check",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Uart_Init_Loopback
    LOAD d10, #3           ; bytes remaining
    LOAD d11, #0x30        ; '0'
t_loop:
    MOV ArgA, d11
    CALL Base_Uart_Send
    CALL Base_Uart_Recv
    CMP RetVal, d11
    JNE t_fail
    ADD d11, d11, #1
    SUB d10, d10, #1
    CMP d10, #0
    JNE t_loop
{TEST_EPILOGUE}"
        ),
    );
    let overrun = TestCell::new(
        "TEST_UART_OVERRUN",
        "second unread loopback byte raises OVERRUN",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Uart_Init_Loopback
    LOAD ArgA, #0x11
    CALL Base_Uart_Send
    LOAD ArgA, #0x22
    CALL Base_Uart_Send          ; receiver still holds 0x11
    LOAD d1, [UART_STATUS_ADDR]
    AND d1, d1, #UART_OVERRUN_MASK
    CMP d1, #0
    JEQ t_fail
    CALL Base_Uart_Recv          ; drain so the fifo ends clean
    LOAD d1, #0x22
    CMP RetVal, d1
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("UART", config, vec![loopback, burst, overrun])
}

/// The NVM environment.
pub(crate) fn nvm_env(config: EnvConfig) -> ModuleTestEnv {
    let unlock = TestCell::new(
        "TEST_NVM_UNLOCK",
        "key sequence unlocks the controller",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Nvm_Unlock
    LOAD d1, [NVMC_STATUS_ADDR]
    AND d1, d1, #2          ; UNLOCKED bit
    CMP d1, #0
    JEQ t_fail
{TEST_EPILOGUE}"
        ),
    );
    let locked = TestCell::new(
        "TEST_NVM_LOCKED_ERROR",
        "write without unlock raises the error flag",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #0x100
    STORE [NVMC_ADDR_ADDR], d1
    LOAD d1, #0xDEAD
    STORE [NVMC_DATA_ADDR], d1
    LOAD d1, #1
    STORE [NVMC_CMD_ADDR], d1
    LOAD d1, [NVMC_STATUS_ADDR]
    AND d1, d1, #4          ; ERROR bit
    CMP d1, #0
    JEQ t_fail
{TEST_EPILOGUE}"
        ),
    );
    let readback = TestCell::new(
        "TEST_NVM_WRITE_READBACK",
        "unlocked write commits after the busy time",
        format!(
            "\
.INCLUDE Globals.inc
NVM_OFF .EQU 0x300
_main:
    CALL Base_Nvm_Unlock
    LOAD ArgA, #NVM_OFF
    LOAD ArgB, #0x12345678
    CALL Base_Nvm_Write
    LOAD d1, [NVM_BASE + NVM_OFF]
    LOAD d2, #0x12345678
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let erase = TestCell::new(
        "TEST_NVM_ERASE",
        "page erase restores the erased state after a write",
        format!(
            "\
.INCLUDE Globals.inc
NVM_OFF .EQU 0x500
_main:
    CALL Base_Nvm_Unlock
    LOAD ArgA, #NVM_OFF
    LOAD ArgB, #0x0BADF00D
    CALL Base_Nvm_Write
    LOAD d1, [NVM_BASE + NVM_OFF]
    LOAD d2, #0x0BADF00D
    CMP d1, d2
    JNE t_fail
    LOAD ArgA, #NVM_OFF
    CALL Base_Nvm_Erase
    LOAD d1, [NVM_BASE + NVM_OFF]
    LOAD d2, #0xFFFFFFFF
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("NVM", config, vec![unlock, locked, readback, erase])
}

/// The TIMER environment: polled expiry plus a hook-installed interrupt.
pub(crate) fn timer_env(config: EnvConfig) -> ModuleTestEnv {
    let poll = TestCell::new(
        "TEST_TIMER_POLL",
        "one-shot timer expires within the polling budget",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD ArgA, #50
    LOAD ArgB, #1           ; EN, one-shot, no interrupt
    CALL Base_Timer_Start
    LOAD d12, #POLL_LIMIT
t_wait:
    CMP d12, #0
    JEQ t_fail
    SUB d12, d12, #1
    LOAD d14, [TIMER_STATUS_ADDR]
    AND d14, d14, #TIMER_EXPIRED_MASK
    CMP d14, #0
    JEQ t_wait
{TEST_EPILOGUE}"
        ),
    );
    let irq = TestCell::new(
        "TEST_TIMER_IRQ",
        "timer interrupt reaches a hook-installed handler",
        "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #0
    STORE [TEST_DATA_BASE], d1
    LOAD ArgA, t_isr
    CALL Base_Install_Irq0_Hook
    LOAD ArgA, #1
    CALL Base_Intc_Enable
    LOAD ArgA, #20
    LOAD ArgB, #3           ; EN | IE
    CALL Base_Timer_Start
    EI
    LOAD d12, #POLL_LIMIT
t_wait:
    CMP d12, #0
    JEQ t_timeout
    SUB d12, d12, #1
    LOAD d14, [TEST_DATA_BASE]
    CMP d14, #0
    JEQ t_wait
    DI
    CALL Base_Report_Pass
    RETURN
t_timeout:
    DI
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
t_isr:
    LOAD d13, #1
    STORE [TEST_DATA_BASE], d13
    LOAD d13, #TIMER_EXPIRED_MASK
    STORE [TIMER_STATUS_ADDR], d13
    LOAD d13, #0
    STORE [INTC_ACK_ADDR], d13
    RETURN
",
    );
    let periodic = TestCell::new(
        "TEST_TIMER_PERIODIC",
        "periodic timer expires three times with reload",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD ArgA, #30
    LOAD ArgB, #TIMER_EN_MASK | TIMER_PERIODIC_MASK
    CALL Base_Timer_Start
    LOAD d10, #3            ; expirations to observe
t_outer:
    LOAD d12, #POLL_LIMIT
t_wait:
    CMP d12, #0
    JEQ t_fail
    SUB d12, d12, #1
    LOAD d14, [TIMER_STATUS_ADDR]
    AND d14, d14, #TIMER_EXPIRED_MASK
    CMP d14, #0
    JEQ t_wait
    CALL Base_Timer_Clear_Expired
    SUB d10, d10, #1
    CMP d10, #0
    JNE t_outer
{TEST_EPILOGUE}"
        ),
    );
    let value = TestCell::new(
        "TEST_TIMER_VALUE",
        "running timer's VALUE register counts down",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD ArgA, #10000
    LOAD ArgB, #TIMER_EN_MASK
    CALL Base_Timer_Start
    LOAD d1, [TIMER_VALUE_ADDR]
    LOAD ArgA, #50
    CALL Base_Delay
    LOAD d2, [TIMER_VALUE_ADDR]
    CMP d2, d1
    JGE t_fail              ; must have counted down
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("TIMER", config, vec![poll, irq, periodic, value])
}

/// The WDT environment, including the platform-conditional bite test.
pub(crate) fn wdt_env(config: EnvConfig) -> ModuleTestEnv {
    let service = TestCell::new(
        "TEST_WDT_SERVICE",
        "serviced watchdog stays quiet",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Wdt_Init
    LOAD d10, #5
t_loop:
    CALL Base_Wdt_Service
    LOAD ArgA, #10
    CALL Base_Delay
    SUB d10, d10, #1
    CMP d10, #0
    JNE t_loop
    JMP t_pass
t_pass:
{TEST_EPILOGUE}"
        ),
    );
    let bite = TestCell::new(
        "TEST_WDT_BITE",
        "unserviced watchdog reaches the installed hook (skipped where the platform disables the WDT)",
        "\
.INCLUDE Globals.inc
.IF WDT_DISABLE
; This platform runs too slowly for realistic watchdog timing; the
; globals file disables the WDT, and this test degrades to a no-op pass —
; the paper's platform-control mechanism at work.
_main:
    CALL Base_Report_Pass
    RETURN
.ELSE
_main:
    LOAD ArgA, t_hook
    CALL Base_Install_Wdt_Hook
    LOAD d1, #200
    STORE [WDT_PERIOD_ADDR], d1
    LOAD d1, #1
    STORE [WDT_CTRL_ADDR], d1
    LOAD d12, #POLL_LIMIT
t_spin:
    CMP d12, #0
    JEQ t_timeout
    SUB d12, d12, #1
    JMP t_spin
t_timeout:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
t_hook:
    CALL Base_Report_Pass
    RETURN
.ENDIF
",
    );
    ModuleTestEnv::new("WDT", config, vec![service, bite])
}

/// The CRC environment: the hardware unit against an independently
/// computed expectation.
pub(crate) fn crc_env(config: EnvConfig) -> ModuleTestEnv {
    let expected = advm_sim::periph::crc::crc32(b"12345678");
    let unit = TestCell::new(
        "TEST_CRC_UNIT",
        "hardware CRC of \"12345678\" matches the software reference",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Crc_Init
    LOAD ArgA, #0x34333231   ; \"1234\" little endian
    CALL Base_Crc_Add
    LOAD ArgA, #0x38373635   ; \"5678\"
    CALL Base_Crc_Add
    CALL Base_Crc_Result
    LOAD d1, #0x{expected:08X}
    CMP RetVal, d1
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let reinit = TestCell::new(
        "TEST_CRC_REINIT",
        "INIT resets the accumulator between messages",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Crc_Init
    LOAD ArgA, #0xFFFFFFFF
    CALL Base_Crc_Add
    CALL Base_Crc_Init
    LOAD ArgA, #0x34333231
    CALL Base_Crc_Add
    LOAD ArgA, #0x38373635
    CALL Base_Crc_Add
    CALL Base_Crc_Result
    LOAD d1, #0x{expected:08X}
    CMP RetVal, d1
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("CRC", config, vec![unit, reinit])
}

/// The REGISTER environment — the "control and status register test"
/// class the paper names: reset-value checks driven entirely by
/// `Globals.inc` defines.
pub(crate) fn register_env(config: EnvConfig) -> ModuleTestEnv {
    let uart = TestCell::new(
        "TEST_RESET_UART",
        "UART registers hold their documented reset values",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [UART_CTRL_ADDR]
    LOAD d2, #UART_CTRL_RESET
    CMP d1, d2
    JNE t_fail
    LOAD d1, [UART_BAUD_ADDR]
    LOAD d2, #UART_BAUD_RESET
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let page = TestCell::new(
        "TEST_RESET_PAGE",
        "page module registers hold their reset values",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [PAGE_CTRL_ADDR]
    LOAD d2, #PAGE_PAGE_CTRL_RESET
    CMP d1, d2
    JNE t_fail
    LOAD d1, [PAGE_MAP_ADDR]
    LOAD d2, #PAGE_PAGE_MAP_RESET
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let wdt = TestCell::new(
        "TEST_RESET_WDT",
        "watchdog period resets to its documented default",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [WDT_PERIOD_ADDR]
    LOAD d2, #WDT_PERIOD_RESET
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let nvmc = TestCell::new(
        "TEST_RESET_NVMC",
        "NVM controller registers hold their reset values",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [NVMC_CTRL_ADDR]
    LOAD d2, #NVMC_CTRL_RESET
    CMP d1, d2
    JNE t_fail
    LOAD d1, [NVMC_ADDR_ADDR]
    LOAD d2, #NVMC_ADDR_RESET
    CMP d1, d2
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let intc = TestCell::new(
        "TEST_INTC_RAISE_ACK",
        "software-raised line latches in PENDING and clears on ACK",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [INTC_PENDING_ADDR]
    CMP d1, #0
    JNE t_fail              ; nothing pending at reset
    LOAD d1, #5
    STORE [INTC_RAISE_ADDR], d1
    LOAD d1, [INTC_PENDING_ADDR]
    LOAD d2, #1 << 5
    CMP d1, d2
    JNE t_fail              ; line 5 latched (masked from the CPU)
    LOAD d1, #5
    STORE [INTC_ACK_ADDR], d1
    LOAD d1, [INTC_PENDING_ADDR]
    CMP d1, #0
    JNE t_fail
{TEST_EPILOGUE}"
        ),
    );
    let tb = TestCell::new(
        "TEST_TB_IDENTITY",
        "the platform identifies itself and time advances",
        format!(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [TB_PLATFORM_ADDR]
    LOAD d2, #PLATFORM_ID
    CMP d1, d2
    JNE t_fail              ; the build matches the platform it runs on
    LOAD d3, [TB_TICKS_ADDR]
    LOAD d1, #0x5EED
    STORE [TB_SCRATCH_ADDR], d1
    LOAD d2, [TB_SCRATCH_ADDR]
    CMP d2, d1
    JNE t_fail
    LOAD d4, [TB_TICKS_ADDR]
    CMP d4, d3
    JLE t_fail              ; ticks are monotonic
{TEST_EPILOGUE}"
        ),
    );
    ModuleTestEnv::new("REGISTER", config, vec![uart, page, wdt, nvmc, intc, tb])
}

/// All catalogued environments under one configuration — the system
/// environment of Figure 4/5.
pub fn standard_system(config: EnvConfig) -> Vec<ModuleTestEnv> {
    vec![
        page_env(config, 3),
        es_env(config),
        uart_env(config),
        nvm_env(config),
        timer_env(config),
        wdt_env(config),
        crc_env(config),
        register_env(config),
    ]
}

#[cfg(test)]
mod tests {
    use crate::build::run_cell;
    use crate::campaign::Campaign;
    use crate::system::SystemVerificationEnv;

    use super::*;

    /// Every preset cell must pass on the default configuration.
    #[test]
    fn all_presets_pass_on_golden_model() {
        for env in standard_system(default_config()) {
            for cell in env.cells() {
                let result = run_cell(&env, cell.id())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", env.name(), cell.id()));
                assert!(result.passed(), "{}/{}: {result}", env.name(), cell.id());
            }
        }
    }

    /// The full preset suite passes on every platform.
    #[test]
    fn standard_system_full_regression_is_green() {
        let envs = standard_system(default_config());
        let report = Campaign::new().envs(envs).run().unwrap();
        assert_eq!(report.failed(), 0, "matrix:\n{}", report.matrix());
        assert!(report.divergences().is_empty());
        // Platform-independent cells dedupe across golden/RTL at least.
        assert!(report.cache_hits() > 0);
    }

    /// The preset system validates against Figure 4/5 rules.
    #[test]
    fn standard_system_validates() {
        let sys = SystemVerificationEnv::new(
            "ADVM_System_Verification_Environment",
            standard_system(default_config()),
        );
        let issues = sys.validate();
        assert!(issues.is_empty(), "{issues:?}");
    }

    /// The violating cell passes where it was written but is flagged.
    #[test]
    fn violating_cell_passes_but_is_flagged() {
        let mut env = page_env(default_config(), 1);
        let cells = vec![env.cells()[0].clone(), violating_page_cell(1)];
        env = ModuleTestEnv::new("PAGE", default_config(), cells);
        let result = run_cell(&env, "TEST_PAGE_ABUSE_01").unwrap();
        assert!(result.passed(), "abuse passes on its home config: {result}");
        let violations = crate::violation::check_env(&env);
        assert!(violations.len() >= 2, "{violations:?}");
    }

    /// Preset tests survive porting to every derivative; the violating
    /// test does not.
    #[test]
    fn presets_port_cleanly_but_violations_break() {
        use crate::porting::port_env;
        let clean = page_env(default_config(), 1);
        let abusive = ModuleTestEnv::new(
            "PAGE",
            default_config(),
            vec![clean.cells()[0].clone(), violating_page_cell(1)],
        );
        let target = EnvConfig::new(DerivativeId::Sc88B, PlatformId::GoldenModel);
        let ported = port_env(&abusive, target).env;
        let good = run_cell(&ported, "TEST_PAGE_SELECT_01").unwrap();
        assert!(good.passed(), "clean test survives the port: {good}");
        let bad = run_cell(&ported, "TEST_PAGE_ABUSE_01").unwrap();
        assert!(!bad.passed(), "hardwired test must break on SC88-B: {bad}");
    }
}
