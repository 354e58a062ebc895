//! The embedded-software (ES) ROM — the paper's *global layer* code.
//!
//! In the paper's Figure 7, tests need `ES_Init_Register`, a function that
//! belongs to the embedded-software team, *not* to the verification team.
//! The methodology's rule: tests never call it directly; the abstraction
//! layer's `Base_Functions.asm` wraps it, so when the ES team re-releases
//! the library "in such a way that the input registers have been swapped
//! around", only the wrapper needs re-factoring.
//!
//! This module generates the ES ROM as real SC88 assembler source, baked
//! for a given derivative's register map (the ES team knows their own
//! chip, so hardwired addresses are correct *here* — it is the tests that
//! must not hardwire them). Two releases exist:
//!
//! * [`EsVersion::V1`] — the original calling conventions,
//! * [`EsVersion::V2`] — input registers swapped on `ES_Nvm_Write_Word`
//!   and `ES_Memcpy`, the UART byte moved to `d5`, and the checksum
//!   result moved to `d3`.
//!
//! The ROM begins with a jump table so that entry addresses are stable
//! across releases: entry *i* lives at `ES_BASE + 4*i`.

use std::fmt;

use crate::derivative::Derivative;
use crate::memmap::ES_BASE;

/// Release version of the embedded-software ROM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EsVersion {
    /// Original release.
    V1,
    /// Revised release with swapped input registers (the Figure 7 event).
    V2,
}

impl EsVersion {
    /// Numeric code published via the `ES_VERSION` define.
    pub fn code(self) -> u32 {
        match self {
            EsVersion::V1 => 1,
            EsVersion::V2 => 2,
        }
    }
}

impl fmt::Display for EsVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EsVersion::V1 => f.write_str("v1"),
            EsVersion::V2 => f.write_str("v2"),
        }
    }
}

/// A function exported by the ES ROM jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EsFunction {
    /// Initialise the page-module control register to its safe default.
    InitRegister,
    /// Transmit one byte over the UART (v1: byte in `d4`; v2: `d5`).
    UartSendByte,
    /// Run the NVM controller unlock sequence.
    NvmUnlock,
    /// Write one word to NVM (v1: addr `d4`, value `d5`; v2: swapped).
    NvmWriteWord,
    /// Copy words (v1: dst `a4`, src `a5`, len `d4`; v2: src/dst swapped).
    Memcpy,
    /// Sum words (base `a4`, len `d4`; v1 result `d2`, v2 result `d3`).
    Checksum,
    /// Busy-wait `d4` loop iterations.
    Delay,
}

impl EsFunction {
    /// All exported functions in jump-table order.
    pub const ALL: [EsFunction; 7] = [
        EsFunction::InitRegister,
        EsFunction::UartSendByte,
        EsFunction::NvmUnlock,
        EsFunction::NvmWriteWord,
        EsFunction::Memcpy,
        EsFunction::Checksum,
        EsFunction::Delay,
    ];

    /// Index in the jump table.
    pub(crate) fn table_index(self) -> u32 {
        EsFunction::ALL
            .iter()
            .position(|f| *f == self)
            .expect("function is in ALL") as u32
    }

    /// Stable entry address (the jump-table slot), independent of release.
    pub fn entry_addr(self) -> u32 {
        ES_BASE + 4 * self.table_index()
    }

    /// The assembler label of the function body.
    pub fn label(self) -> &'static str {
        match self {
            EsFunction::InitRegister => "ES_Init_Register",
            EsFunction::UartSendByte => "ES_Uart_Send_Byte",
            EsFunction::NvmUnlock => "ES_Nvm_Unlock",
            EsFunction::NvmWriteWord => "ES_Nvm_Write_Word",
            EsFunction::Memcpy => "ES_Memcpy",
            EsFunction::Checksum => "ES_Checksum",
            EsFunction::Delay => "ES_Delay",
        }
    }

    /// The `Globals.inc` define name for the entry address.
    pub(crate) fn define_name(self) -> &'static str {
        match self {
            EsFunction::InitRegister => "ES_INIT_REGISTER",
            EsFunction::UartSendByte => "ES_UART_SEND_BYTE",
            EsFunction::NvmUnlock => "ES_NVM_UNLOCK",
            EsFunction::NvmWriteWord => "ES_NVM_WRITE_WORD",
            EsFunction::Memcpy => "ES_MEMCPY",
            EsFunction::Checksum => "ES_CHECKSUM",
            EsFunction::Delay => "ES_DELAY",
        }
    }

    /// Human-readable calling convention for a release, for documentation
    /// and change logs.
    pub fn signature(self, version: EsVersion) -> &'static str {
        match (self, version) {
            (EsFunction::InitRegister, _) => "()",
            (EsFunction::UartSendByte, EsVersion::V1) => "(d4: byte)",
            (EsFunction::UartSendByte, EsVersion::V2) => "(d5: byte)",
            (EsFunction::NvmUnlock, _) => "()",
            (EsFunction::NvmWriteWord, EsVersion::V1) => "(d4: addr, d5: value)",
            (EsFunction::NvmWriteWord, EsVersion::V2) => "(d4: value, d5: addr)",
            (EsFunction::Memcpy, EsVersion::V1) => "(a4: dst, a5: src, d4: words)",
            (EsFunction::Memcpy, EsVersion::V2) => "(a4: src, a5: dst, d4: words)",
            (EsFunction::Checksum, EsVersion::V1) => "(a4: base, d4: words) -> d2",
            (EsFunction::Checksum, EsVersion::V2) => "(a4: base, d4: words) -> d3",
            (EsFunction::Delay, _) => "(d4: iterations)",
        }
    }

    /// Whether the calling convention changed between v1 and v2 — the
    /// functions whose wrappers the abstraction layer must re-factor.
    #[cfg(test)]
    pub(crate) fn changed_in_v2(self) -> bool {
        self.signature(EsVersion::V1) != self.signature(EsVersion::V2)
    }
}

impl fmt::Display for EsFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A generated embedded-software ROM for one (derivative, version) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EsRom {
    version: EsVersion,
    source: String,
}

impl EsRom {
    /// Generates the ROM source for a derivative, using the ES release the
    /// derivative ships with.
    pub fn for_derivative(derivative: &Derivative) -> Self {
        Self::generate(derivative, derivative.es_version())
    }

    /// Generates the ROM source for a derivative with an explicit release
    /// (used by the Figure 7 experiment to swap v1 → v2 under an
    /// otherwise unchanged chip).
    pub fn generate(derivative: &Derivative, version: EsVersion) -> Self {
        let map = derivative.regmap();
        let addr = |module: &str, reg: &str| -> u32 {
            let hw = derivative.hardware_register_name(reg);
            map.module(module)
                .and_then(|m| m.register_addr(hw))
                .unwrap_or_else(|| panic!("register {module}.{reg} missing from map"))
        };

        let page_ctrl = addr("PAGE", "PAGE_CTRL");
        let uart_status = addr("UART", "STATUS");
        let uart_data = addr("UART", "DATA");
        let nvmc_key = addr("NVMC", "KEY");
        let nvmc_addr = addr("NVMC", "ADDR");
        let nvmc_data = addr("NVMC", "DATA");
        let nvmc_cmd = addr("NVMC", "CMD");
        let nvmc_status = addr("NVMC", "STATUS");

        // The page-module "safe default": ENABLE set, everything else 0.
        let enable_pos = map
            .module("PAGE")
            .and_then(|m| m.register(derivative.hardware_register_name("PAGE_CTRL")))
            .and_then(|r| r.field("ENABLE"))
            .map(|f| f.pos())
            .expect("PAGE_CTRL always has ENABLE");
        let reg_init_value = 1u32 << enable_pos;

        let mut src = String::new();
        let mut line = |s: &str| {
            src.push_str(s);
            src.push('\n');
        };

        line(&format!(
            ";; Embedded_Software.asm — ES ROM {version} for {} (global layer)",
            derivative.id()
        ));
        line(";; Generated by the ES team's build; addresses are hardwired");
        line(";; here by design — this code is NOT under verification-team");
        line(";; control, which is exactly why tests must not call it directly.");
        line(&format!(".ORG 0x{ES_BASE:05X}"));
        line("");
        line("ES_JumpTable:");
        for f in EsFunction::ALL {
            line(&format!("    JMP {}", f.label()));
        }
        line("");

        // -- ES_Init_Register (Figure 7's function) -----------------------
        line("ES_Init_Register:");
        line(&format!(
            "    MOVI d15, #0x{reg_init_value:X}   ; REG_INIT_VALUE"
        ));
        line(&format!(
            "    LOAD a14, #0x{page_ctrl:05X}    ; page control register"
        ));
        line("    STORE [a14], d15");
        line("    RETURN");
        line("");

        // -- ES_Uart_Send_Byte --------------------------------------------
        line("ES_Uart_Send_Byte:");
        let uart_byte_reg = match version {
            EsVersion::V1 => "d4",
            EsVersion::V2 => "d5",
        };
        line(&format!("    ; byte to send in {uart_byte_reg}"));
        line(&format!("    LOAD a14, #0x{uart_status:05X}"));
        line("es_usb_wait:");
        line("    LOAD d15, [a14]");
        line("    ANDI d15, d15, #1       ; TX_READY");
        line("    CMPI d15, #0");
        line("    JEQ es_usb_wait");
        line(&format!("    LOAD a14, #0x{uart_data:05X}"));
        line(&format!("    STORE [a14], {uart_byte_reg}"));
        line("    RETURN");
        line("");

        // -- ES_Nvm_Unlock -------------------------------------------------
        line("ES_Nvm_Unlock:");
        line(&format!("    LOAD a14, #0x{nvmc_key:05X}"));
        line("    MOVI d15, #0x55");
        line("    STORE [a14], d15");
        line("    MOVI d15, #0xAA");
        line("    STORE [a14], d15");
        line("    RETURN");
        line("");

        // -- ES_Nvm_Write_Word ----------------------------------------------
        line("ES_Nvm_Write_Word:");
        let (nvm_addr_reg, nvm_val_reg) = match version {
            EsVersion::V1 => ("d4", "d5"),
            EsVersion::V2 => ("d5", "d4"), // the paper's swapped inputs
        };
        line(&format!(
            "    ; address in {nvm_addr_reg}, value in {nvm_val_reg}"
        ));
        line(&format!("    LOAD a14, #0x{nvmc_addr:05X}"));
        line(&format!("    STORE [a14], {nvm_addr_reg}"));
        line(&format!("    LOAD a14, #0x{nvmc_data:05X}"));
        line(&format!("    STORE [a14], {nvm_val_reg}"));
        line("    MOVI d15, #1            ; CMD_WRITE");
        line(&format!("    LOAD a14, #0x{nvmc_cmd:05X}"));
        line("    STORE [a14], d15");
        line(&format!("    LOAD a14, #0x{nvmc_status:05X}"));
        line("es_nw_wait:");
        line("    LOAD d15, [a14]");
        line("    ANDI d15, d15, #1       ; BUSY");
        line("    CMPI d15, #0");
        line("    JNE es_nw_wait");
        line("    RETURN");
        line("");

        // -- ES_Memcpy -------------------------------------------------------
        line("ES_Memcpy:");
        let (mc_dst, mc_src) = match version {
            EsVersion::V1 => ("a4", "a5"),
            EsVersion::V2 => ("a5", "a4"), // swapped roles
        };
        line(&format!(
            "    ; dst in {mc_dst}, src in {mc_src}, word count in d4"
        ));
        line("es_mc_loop:");
        line("    CMPI d4, #0");
        line("    JEQ es_mc_done");
        line(&format!("    LOAD d15, [{mc_src}]"));
        line(&format!("    STORE [{mc_dst}], d15"));
        line(&format!("    ADDA {mc_dst}, #4"));
        line(&format!("    ADDA {mc_src}, #4"));
        line("    ADDI d4, d4, #-1");
        line("    JMP es_mc_loop");
        line("es_mc_done:");
        line("    RETURN");
        line("");

        // -- ES_Checksum ----------------------------------------------------
        line("ES_Checksum:");
        let cs_result = match version {
            EsVersion::V1 => "d2",
            EsVersion::V2 => "d3", // result register moved
        };
        line(&format!(
            "    ; base in a4, word count in d4, result in {cs_result}"
        ));
        line(&format!("    MOVI {cs_result}, #0"));
        line("es_cs_loop:");
        line("    CMPI d4, #0");
        line("    JEQ es_cs_done");
        line("    LOAD d15, [a4]");
        line(&format!("    ADD {cs_result}, {cs_result}, d15"));
        line("    ADDA a4, #4");
        line("    ADDI d4, d4, #-1");
        line("    JMP es_cs_loop");
        line("es_cs_done:");
        line("    RETURN");
        line("");

        // -- ES_Delay --------------------------------------------------------
        line("ES_Delay:");
        line("    ; iterations in d4");
        line("es_dl_loop:");
        line("    CMPI d4, #0");
        line("    JEQ es_dl_done");
        line("    ADDI d4, d4, #-1");
        line("    JMP es_dl_loop");
        line("es_dl_done:");
        line("    RETURN");

        Self {
            version,
            source: src,
        }
    }

    /// The ES release this ROM implements.
    pub fn version(&self) -> EsVersion {
        self.version
    }

    /// The full assembler source of the ROM.
    pub fn source(&self) -> &str {
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivative::Derivative;

    #[test]
    fn entry_addresses_are_table_slots() {
        assert_eq!(EsFunction::InitRegister.entry_addr(), ES_BASE);
        assert_eq!(EsFunction::UartSendByte.entry_addr(), ES_BASE + 4);
        assert_eq!(EsFunction::Delay.entry_addr(), ES_BASE + 24);
    }

    #[test]
    fn table_indices_are_dense_and_unique() {
        for (i, f) in EsFunction::ALL.iter().enumerate() {
            assert_eq!(f.table_index() as usize, i);
        }
    }

    #[test]
    fn v2_changes_exactly_the_documented_functions() {
        let changed: Vec<EsFunction> = EsFunction::ALL
            .into_iter()
            .filter(|f| f.changed_in_v2())
            .collect();
        assert_eq!(
            changed,
            vec![
                EsFunction::UartSendByte,
                EsFunction::NvmWriteWord,
                EsFunction::Memcpy,
                EsFunction::Checksum,
            ]
        );
    }

    #[test]
    fn v1_and_v2_sources_differ() {
        let a = Derivative::sc88a();
        let v1 = EsRom::generate(&a, EsVersion::V1);
        let v2 = EsRom::generate(&a, EsVersion::V2);
        assert_ne!(v1.source(), v2.source());
        // v1 writes the NVM address from d4, v2 from d5.
        assert!(v1.source().contains("; address in d4, value in d5"));
        assert!(v2.source().contains("; address in d5, value in d4"));
    }

    #[test]
    fn source_bakes_derivative_addresses() {
        // SC88-D relocates the UART to 0xE0800; its ES ROM must follow.
        let rom_a = EsRom::for_derivative(&Derivative::sc88a());
        let rom_d = EsRom::for_derivative(&Derivative::sc88d());
        assert!(rom_a.source().contains("0xE0004")); // UART STATUS on A
        assert!(rom_d.source().contains("0xE0804")); // UART STATUS on D
    }

    #[test]
    fn sc88d_ships_v2() {
        let rom = EsRom::for_derivative(&Derivative::sc88d());
        assert_eq!(rom.version(), EsVersion::V2);
        assert!(
            rom.source().contains("ES ROM v2 for SC88-D"),
            "{}",
            rom.source()
        );
    }

    #[test]
    fn rom_starts_with_jump_table() {
        let rom = EsRom::for_derivative(&Derivative::sc88a());
        let table_pos = rom.source().find("ES_JumpTable:").unwrap();
        let first_fn = rom.source().find("ES_Init_Register:").unwrap();
        assert!(table_pos < first_fn);
        for f in EsFunction::ALL {
            assert!(
                rom.source().contains(&format!("JMP {}", f.label())),
                "missing table entry for {f}"
            );
        }
    }
}
