//! Generation of `Base_Functions.asm` — the abstraction layer's function
//! library.
//!
//! §2 of the paper: *"The second component included in the abstraction
//! layer is a library of functions, named 'Base Functions'. […] the
//! 'Base Functions' library will wrap each of the global functions so
//! that the tests can never call them directly."* These wrappers give
//! tests a **stable calling convention** (`ArgA`/`ArgB` in, `RetVal`
//! out) regardless of the embedded-software release underneath.
//!
//! Two generation styles exist, which is the heart of the Figure 7
//! experiment:
//!
//! * [`BaseFuncsStyle::V1Only`] — the library as first written, assuming
//!   the v1 ES conventions. It silently breaks when the ES team releases
//!   v2 with swapped input registers.
//! * [`BaseFuncsStyle::VersionAware`] — the refactored library: each
//!   wrapper adapts to `ES_VERSION` (a `Globals.inc` define) with
//!   conditional assembly. This is the paper's "single point to handle
//!   it".

use std::fmt;

/// How the base-function library copes with embedded-software revisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BaseFuncsStyle {
    /// Original library: assumes ES v1 conventions unconditionally.
    V1Only,
    /// Refactored library: adapts to `ES_VERSION` at assembly time.
    #[default]
    VersionAware,
}

impl fmt::Display for BaseFuncsStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BaseFuncsStyle::V1Only => "v1-only",
            BaseFuncsStyle::VersionAware => "version-aware",
        })
    }
}

impl BaseFuncsStyle {
    /// Parses the style from its `ENV_CONFIG.TXT` representation.
    pub(crate) fn parse(text: &str) -> Option<Self> {
        match text {
            "v1-only" => Some(BaseFuncsStyle::V1Only),
            "version-aware" => Some(BaseFuncsStyle::VersionAware),
            _ => None,
        }
    }
}

/// Generates `Base_Functions.asm`.
///
/// Every function reads its hardware addresses and field geometry from
/// `Globals.inc` defines — never a literal — so regenerating the globals
/// file re-targets the whole library.
pub fn base_functions(style: BaseFuncsStyle) -> String {
    // The render is a pure function of the style, and campaign planning
    // re-derives it for every (environment, platform) pairing; memoise
    // the two possible outputs so re-targeting costs one copy.
    use std::sync::OnceLock;
    static V1: OnceLock<String> = OnceLock::new();
    static VERSION_AWARE: OnceLock<String> = OnceLock::new();
    let cell = match style {
        BaseFuncsStyle::V1Only => &V1,
        BaseFuncsStyle::VersionAware => &VERSION_AWARE,
    };
    cell.get_or_init(|| render_base_functions(style)).clone()
}

fn render_base_functions(style: BaseFuncsStyle) -> String {
    let mut s = String::new();
    let mut line = |text: &str| {
        s.push_str(text);
        s.push('\n');
    };
    let v2 = style == BaseFuncsStyle::VersionAware;

    line(";; Base_Functions.asm — abstraction layer function library");
    line(&format!(";; style: {style}"));
    line(";; Calling convention: ArgA/ArgB in, RetVal out, d14/d15/a14 scratch.");
    line("");

    // ---- result reporting ------------------------------------------------
    line("Base_Report_Pass:");
    line("    LOAD d15, #RESULT_PASS");
    line("    STORE [TB_RESULT_ADDR], d15");
    line(".IF VERBOSE");
    line("    LOAD d15, #'P'");
    line("    STORE [TB_CHAROUT_ADDR], d15");
    line(".ENDIF");
    line("    STORE [TB_SIM_END_ADDR], d15");
    line("    RETURN");
    line("");
    line("Base_Report_Fail:            ; ArgA = failure detail code");
    line("    LOAD d15, #RESULT_FAIL");
    line("    OR d15, d15, ArgA");
    line("    STORE [TB_RESULT_ADDR], d15");
    line(".IF VERBOSE");
    line("    LOAD d15, #'F'");
    line("    STORE [TB_CHAROUT_ADDR], d15");
    line(".ENDIF");
    line("    STORE [TB_SIM_END_ADDR], d15");
    line("    RETURN");
    line("");
    line("Base_Console_Char:           ; ArgA = character (dropped when quiet)");
    line(".IF VERBOSE");
    line("    STORE [TB_CHAROUT_ADDR], ArgA");
    line(".ENDIF");
    line("    RETURN");
    line("");

    // ---- the Figure 7 wrapper ---------------------------------------------
    line("Base_Init_Register:          ; wraps ES_Init_Register (Figure 7)");
    line("    LOAD CallAddr, ES_INIT_REGISTER");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");

    // ---- page module (Figure 6 territory) ---------------------------------
    line("Base_Select_Page:            ; ArgA = page number");
    line("    MOVI d14, #0");
    line("    INSERT d14, d14, ArgA, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE");
    line("    OR d14, d14, #PAGE_ENABLE_MASK");
    line("    STORE [PAGE_CTRL_ADDR], d14");
    line("    RETURN");
    line("");
    line("Base_Read_Active_Page:       ; RetVal = hardware's active page");
    line("    LOAD d14, [PAGE_STATUS_ADDR]");
    line("    EXTRACT RetVal, d14, ACTIVE_PAGE_POSITION, ACTIVE_PAGE_SIZE");
    line("    RETURN");
    line("");
    line("Base_Check_Active_Page:      ; ArgA = expected page; RetVal = 0 ok / 1 bad");
    line("    LOAD d14, [PAGE_STATUS_ADDR]");
    line("    EXTRACT d14, d14, ACTIVE_PAGE_POSITION, ACTIVE_PAGE_SIZE");
    line("    CMP d14, ArgA");
    line("    JNE base_cap_bad");
    line("    LOAD RetVal, #0");
    line("    RETURN");
    line("base_cap_bad:");
    line("    LOAD RetVal, #1");
    line("    RETURN");
    line("");

    // ---- UART ---------------------------------------------------------------
    line("Base_Uart_Init:");
    line("    LOAD d15, #UART_EN_MASK");
    line("    STORE [UART_CTRL_ADDR], d15");
    line("    RETURN");
    line("");
    line("Base_Uart_Init_Loopback:");
    line("    LOAD d15, #UART_EN_MASK | UART_LOOPBACK_MASK");
    line("    STORE [UART_CTRL_ADDR], d15");
    line("    RETURN");
    line("");
    line("Base_Uart_Send:              ; ArgA = byte (wraps ES_Uart_Send_Byte)");
    if v2 {
        line(".IF ES_VERSION == 2");
        line("    MOV d5, ArgA             ; v2 moved the byte to d5");
        line(".ENDIF");
    }
    line("    LOAD CallAddr, ES_UART_SEND_BYTE");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");
    line("Base_Uart_Recv:              ; RetVal = byte, or 0xFFFFFFFF on timeout");
    line("    LOAD d14, #POLL_LIMIT");
    line("base_ur_wait:");
    line("    CMPI d14, #0");
    line("    JEQ base_ur_timeout");
    line("    SUB d14, d14, #1");
    line("    LOAD d15, [UART_STATUS_ADDR]");
    line("    AND d15, d15, #UART_RX_VALID_MASK");
    line("    CMPI d15, #0");
    line("    JEQ base_ur_wait");
    line("    LOAD RetVal, [UART_DATA_ADDR]");
    line("    RETURN");
    line("base_ur_timeout:");
    line("    LOAD RetVal, #0xFFFFFFFF");
    line("    RETURN");
    line("");

    // ---- NVM ------------------------------------------------------------------
    line("Base_Nvm_Unlock:             ; wraps ES_Nvm_Unlock");
    line("    LOAD CallAddr, ES_NVM_UNLOCK");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");
    line("Base_Nvm_Write:              ; ArgA = NVM offset, ArgB = value");
    if v2 {
        line(".IF ES_VERSION == 2");
        line("    MOV d15, ArgA            ; v2 swapped the inputs");
        line("    MOV ArgA, ArgB");
        line("    MOV ArgB, d15");
        line(".ENDIF");
    }
    line("    LOAD CallAddr, ES_NVM_WRITE_WORD");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");
    line("Base_Nvm_Erase:              ; ArgA = NVM offset (page-granular)");
    line("    ; no ES function exists for erase: the abstraction layer");
    line("    ; drives the controller directly, through defines only");
    line("    STORE [NVMC_ADDR_ADDR], ArgA");
    line("    LOAD d15, #2                ; CMD_ERASE");
    line("    STORE [NVMC_CMD_ADDR], d15");
    line("base_ne_wait:");
    line("    LOAD d15, [NVMC_STATUS_ADDR]");
    line("    AND d15, d15, #1            ; BUSY");
    line("    CMPI d15, #0");
    line("    JNE base_ne_wait");
    line("    RETURN");
    line("");

    // ---- memory helpers ----------------------------------------------------------
    line("Base_Memcpy:                 ; a4 = dst, a5 = src, ArgA(d4) = word count");
    if v2 {
        line(".IF ES_VERSION == 2");
        line("    MOV a14, a4              ; v2 swapped src and dst");
        line("    MOV a4, a5");
        line("    MOV a5, a14");
        line(".ENDIF");
    }
    line("    LOAD CallAddr, ES_MEMCPY");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");
    line("Base_Checksum:               ; a4 = base, ArgA(d4) = words; RetVal = sum");
    line("    LOAD CallAddr, ES_CHECKSUM");
    line("    CALL CallAddr");
    if v2 {
        line(".IF ES_VERSION == 2");
        line("    MOV RetVal, d3           ; v2 moved the result to d3");
        line(".ENDIF");
    }
    line("    RETURN");
    line("");
    line("Base_Delay:                  ; ArgA = iterations (wraps ES_Delay)");
    line("    LOAD CallAddr, ES_DELAY");
    line("    CALL CallAddr");
    line("    RETURN");
    line("");

    // ---- watchdog ------------------------------------------------------------------
    line("Base_Wdt_Init:               ; no-op on platforms that disable the WDT");
    line(".IF WDT_DISABLE == 0");
    line("    LOAD d15, #1");
    line("    STORE [WDT_CTRL_ADDR], d15");
    line(".ENDIF");
    line("    RETURN");
    line("");
    line("Base_Wdt_Service:");
    line(".IF WDT_DISABLE == 0");
    line("    LOAD d15, #WDT_SERVICE_KEY");
    line("    STORE [WDT_SERVICE_ADDR], d15");
    line(".ENDIF");
    line("    RETURN");
    line("");

    // ---- interrupts ----------------------------------------------------------------
    line("Base_Install_Irq0_Hook:      ; ArgA = handler address");
    line("    STORE [HOOK_IRQ0_ADDR], ArgA");
    line("    RETURN");
    line("");
    line("Base_Install_Wdt_Hook:       ; ArgA = handler address");
    line("    STORE [HOOK_WDT_ADDR], ArgA");
    line("    RETURN");
    line("");
    line("Base_Intc_Enable:            ; ArgA = line mask");
    line("    STORE [INTC_ENABLE_ADDR], ArgA");
    line("    RETURN");
    line("");
    line("Base_Intc_Ack:               ; ArgA = line number");
    line("    STORE [INTC_ACK_ADDR], ArgA");
    line("    RETURN");
    line("");
    line("Base_Timer_Start:            ; ArgA = period, ArgB = ctrl bits");
    line("    STORE [TIMER_LOAD_ADDR], ArgA");
    line("    STORE [TIMER_CTRL_ADDR], ArgB");
    line("    RETURN");
    line("");
    line("Base_Timer_Clear_Expired:");
    line("    LOAD d15, #TIMER_EXPIRED_MASK");
    line("    STORE [TIMER_STATUS_ADDR], d15");
    line("    RETURN");
    line("");

    // ---- CRC -----------------------------------------------------------------------
    line("Base_Crc_Init:");
    line("    LOAD d15, #3                ; EN | INIT");
    line("    STORE [CRC_CTRL_ADDR], d15");
    line("    RETURN");
    line("");
    line("Base_Crc_Add:                ; ArgA = data word");
    line("    STORE [CRC_DATA_IN_ADDR], ArgA");
    line("    RETURN");
    line("");
    line("Base_Crc_Result:             ; RetVal = CRC-32");
    line("    LOAD RetVal, [CRC_RESULT_ADDR]");
    line("    RETURN");
    line("");

    // ---- checking macro ---------------------------------------------------------------
    line(";; CHECK_EQ actual, expected, code — report failure `code` unless equal.");
    line(".MACRO CHECK_EQ actual, expected, code");
    line("    CMP actual, expected");
    line("    JEQ LOCAL_check_ok");
    line("    LOAD ArgA, #code");
    line("    CALL Base_Report_Fail");
    line("LOCAL_check_ok:");
    line(".ENDM");

    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn styles_differ_only_in_version_adaptation() {
        let v1 = base_functions(BaseFuncsStyle::V1Only);
        let aware = base_functions(BaseFuncsStyle::VersionAware);
        assert!(!v1.contains("ES_VERSION == 2"));
        assert!(aware.contains("ES_VERSION == 2"));
        // Both export the same function labels.
        for label in [
            "Base_Init_Register:",
            "Base_Select_Page:",
            "Base_Uart_Send:",
            "Base_Nvm_Write:",
            "Base_Memcpy:",
            "Base_Checksum:",
        ] {
            assert!(v1.contains(label), "{label} missing from v1-only");
            assert!(aware.contains(label), "{label} missing from version-aware");
        }
    }

    #[test]
    fn no_hardwired_mmio_addresses() {
        // The abstraction layer must reference everything through defines:
        // no literal in the MMIO range may appear.
        for style in [BaseFuncsStyle::V1Only, BaseFuncsStyle::VersionAware] {
            let text = base_functions(style);
            for line in text.lines() {
                let code = line.split(';').next().unwrap();
                assert!(
                    !code.contains("0xE0") && !code.contains("0xe0"),
                    "hardwired MMIO address in: {line}"
                );
            }
        }
    }

    #[test]
    fn style_roundtrips_through_parse() {
        for style in [BaseFuncsStyle::V1Only, BaseFuncsStyle::VersionAware] {
            assert_eq!(BaseFuncsStyle::parse(&style.to_string()), Some(style));
        }
        assert_eq!(BaseFuncsStyle::parse("bogus"), None);
    }

    #[test]
    fn figure7_wrapper_shape() {
        // The Base_Init_Register body matches the paper's listing:
        // LOAD CallAddr, ES_Init_Register; CALL CallAddr; RETURN.
        let text = base_functions(BaseFuncsStyle::VersionAware);
        let body: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("Base_Init_Register:"))
            .take(4)
            .collect();
        assert!(body[1].contains("LOAD CallAddr, ES_INIT_REGISTER"));
        assert!(body[2].contains("CALL CallAddr"));
        assert!(body[3].contains("RETURN"));
    }
}
