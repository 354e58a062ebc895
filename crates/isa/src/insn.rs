//! The SC88 instruction set.

use std::fmt;

use crate::{AddrReg, Cond, DataReg, ADDR_MASK};

/// The source operand of an [`Insn::Insert`] bit-field insertion.
///
/// The paper's Figure 6 listing inserts an immediate page number
/// (`TEST_PAGE .EQU TEST1_TARGET_PAGE` with `TEST1_TARGET_PAGE .EQU 8`),
/// so the immediate form carries up to 7 bits — wide enough for the
/// derivative that doubles the number of pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitSrc {
    /// Insert the value of a data register.
    Reg(DataReg),
    /// Insert a 7-bit immediate (0..=127).
    Imm(u8),
}

/// One SC88 instruction.
///
/// Every variant encodes to exactly one 32-bit word via
/// [`encode`](crate::encode); see the crate docs for the design rationale.
/// Pseudo-instructions accepted by the assembler (e.g. `LOAD d0, #imm32`)
/// expand to sequences of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    /// No operation.
    Nop,
    /// Stop the platform, reporting `code` as the architectural exit code.
    Halt {
        /// Exit code made visible to the test bench.
        code: u8,
    },
    /// Software trap through vector `vector`.
    Trap {
        /// Trap vector index (0..=31).
        vector: u8,
    },
    /// Debug marker: emits `tag` to the platform trace. Architecturally a
    /// no-op, so it can never cause cross-platform divergence; only
    /// platforms with debug visibility (e.g. bondout) record it.
    Dbg {
        /// Arbitrary tag recorded in the trace.
        tag: u8,
    },

    /// `rd = zero_extend(imm)` — load a 16-bit immediate, clearing the high half.
    MovI {
        /// Destination data register.
        rd: DataReg,
        /// Immediate value placed in the low 16 bits.
        imm: u16,
    },
    /// `rd = (imm << 16) | (rd & 0xFFFF)` — set the high half, keep the low.
    MovHi {
        /// Destination data register.
        rd: DataReg,
        /// Immediate value placed in the high 16 bits.
        imm: u16,
    },
    /// `rd = ra` between data registers.
    Mov {
        /// Destination data register.
        rd: DataReg,
        /// Source data register.
        ra: DataReg,
    },
    /// `rd = ab` — read an address register into a data register.
    MovDa {
        /// Destination data register.
        rd: DataReg,
        /// Source address register.
        ab: AddrReg,
    },
    /// `ad = rb` — write a data register into an address register.
    MovAd {
        /// Destination address register.
        ad: AddrReg,
        /// Source data register.
        rb: DataReg,
    },
    /// `ad = ab` between address registers.
    MovAa {
        /// Destination address register.
        ad: AddrReg,
        /// Source address register.
        ab: AddrReg,
    },
    /// `ad = addr` — load an absolute 20-bit address (the `LOAD CallAddr,
    /// Base_Init_Register` form of the paper's Figure 7).
    Lea {
        /// Destination address register.
        ad: AddrReg,
        /// Absolute byte address (must fit in 20 bits).
        addr: u32,
    },

    /// `rd = mem32[ab + off]`.
    Ld {
        /// Destination data register.
        rd: DataReg,
        /// Base address register.
        ab: AddrReg,
        /// Signed byte offset.
        off: i16,
    },
    /// `rd = zero_extend(mem8[ab + off])`.
    LdB {
        /// Destination data register.
        rd: DataReg,
        /// Base address register.
        ab: AddrReg,
        /// Signed byte offset.
        off: i16,
    },
    /// `mem32[ab + off] = rs`.
    St {
        /// Base address register.
        ab: AddrReg,
        /// Signed byte offset.
        off: i16,
        /// Source data register.
        rs: DataReg,
    },
    /// `mem8[ab + off] = rs & 0xFF`.
    StB {
        /// Base address register.
        ab: AddrReg,
        /// Signed byte offset.
        off: i16,
        /// Source data register.
        rs: DataReg,
    },
    /// `rd = mem32[addr]` with an absolute 20-bit address.
    LdAbs {
        /// Destination data register.
        rd: DataReg,
        /// Absolute byte address.
        addr: u32,
    },
    /// `mem32[addr] = rs` with an absolute 20-bit address (the
    /// `STORE [ADDR], ValueForReg` form of the paper's Figure 7).
    StAbs {
        /// Absolute byte address.
        addr: u32,
        /// Source data register.
        rs: DataReg,
    },

    /// `rd = ra + rb`, updating `Z N C V`.
    Add {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra + sign_extend(imm)`, updating `Z N C V`.
    AddI {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Signed immediate.
        imm: i16,
    },
    /// `rd = ra - rb`, updating `Z N C V`.
    Sub {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra * rb` (low 32 bits), updating `Z N`.
    Mul {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra & rb`, updating `Z N`.
    And {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra & zero_extend(imm)`, updating `Z N`.
    AndI {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rd = ra | rb`, updating `Z N`.
    Or {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra | zero_extend(imm)`, updating `Z N`.
    OrI {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rd = ra ^ rb`, updating `Z N`.
    Xor {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// `rd = ra ^ zero_extend(imm)`, updating `Z N`.
    XorI {
        /// Destination data register.
        rd: DataReg,
        /// First operand.
        ra: DataReg,
        /// Zero-extended immediate.
        imm: u16,
    },
    /// `rd = ra << (rb & 31)`, updating `Z N`.
    Shl {
        /// Destination data register.
        rd: DataReg,
        /// Value to shift.
        ra: DataReg,
        /// Shift amount register.
        rb: DataReg,
    },
    /// `rd = ra << sh`, updating `Z N`.
    ShlI {
        /// Destination data register.
        rd: DataReg,
        /// Value to shift.
        ra: DataReg,
        /// Shift amount (0..=31).
        sh: u8,
    },
    /// `rd = ra >> (rb & 31)` (logical), updating `Z N`.
    Shr {
        /// Destination data register.
        rd: DataReg,
        /// Value to shift.
        ra: DataReg,
        /// Shift amount register.
        rb: DataReg,
    },
    /// `rd = ra >> sh` (logical), updating `Z N`.
    ShrI {
        /// Destination data register.
        rd: DataReg,
        /// Value to shift.
        ra: DataReg,
        /// Shift amount (0..=31).
        sh: u8,
    },
    /// `rd = ra >> sh` (arithmetic), updating `Z N`.
    SarI {
        /// Destination data register.
        rd: DataReg,
        /// Value to shift.
        ra: DataReg,
        /// Shift amount (0..=31).
        sh: u8,
    },
    /// `rd = !ra`, updating `Z N`.
    Not {
        /// Destination data register.
        rd: DataReg,
        /// Operand.
        ra: DataReg,
    },
    /// `rd = -ra` (two's complement), updating `Z N C V`.
    Neg {
        /// Destination data register.
        rd: DataReg,
        /// Operand.
        ra: DataReg,
    },
    /// Compare `ra - rb`, updating `Z N C V` only.
    Cmp {
        /// First operand.
        ra: DataReg,
        /// Second operand.
        rb: DataReg,
    },
    /// Compare `ra - sign_extend(imm)`, updating `Z N C V` only.
    CmpI {
        /// First operand.
        ra: DataReg,
        /// Signed immediate.
        imm: i16,
    },

    /// Bit-field insert: replace `width` bits of `ra` starting at `pos`
    /// with the low bits of `src`, writing the result to `rd`.
    ///
    /// This is the central instruction of the paper's Figure 6 example:
    /// the *position* and *width* come from the abstraction layer's
    /// `Globals.inc`, so a derivative that moves or widens the field is
    /// absorbed without touching the test.
    Insert {
        /// Destination data register.
        rd: DataReg,
        /// Register providing the untouched bits.
        ra: DataReg,
        /// Field value source (register or 7-bit immediate).
        src: BitSrc,
        /// Bit position of the field's least-significant bit (0..=31).
        pos: u8,
        /// Field width in bits (1..=32, `pos + width <= 32`).
        width: u8,
    },
    /// Bit-field extract: `rd = (ra >> pos) & ((1 << width) - 1)`.
    Extract {
        /// Destination data register.
        rd: DataReg,
        /// Source register.
        ra: DataReg,
        /// Bit position of the field's least-significant bit (0..=31).
        pos: u8,
        /// Field width in bits (1..=32, `pos + width <= 32`).
        width: u8,
    },

    /// Unconditional jump to an absolute address.
    Jmp {
        /// Absolute byte address of the target (word aligned).
        target: u32,
    },
    /// Conditional jump to an absolute address.
    J {
        /// Condition evaluated against the PSW.
        cond: Cond,
        /// Absolute byte address of the target (word aligned).
        target: u32,
    },
    /// Call: push the return address through `a10` (SP) and jump.
    Call {
        /// Absolute byte address of the callee (word aligned).
        target: u32,
    },
    /// Call through an address register (the `CALL CallAddr` form of the
    /// paper's Figure 7 listings).
    CallR {
        /// Register holding the callee address.
        ab: AddrReg,
    },
    /// Return: pop the return address through `a10` (SP).
    Ret,
    /// Return from trap/interrupt: pop PSW then return address.
    RetI,

    /// Push a data register onto the stack (`a10` decrements by 4).
    Push {
        /// Register to push.
        rs: DataReg,
    },
    /// Pop a data register from the stack (`a10` increments by 4).
    Pop {
        /// Register receiving the popped word.
        rd: DataReg,
    },
    /// Push an address register onto the stack.
    PushA {
        /// Register to push.
        ab: AddrReg,
    },
    /// Pop an address register from the stack.
    PopA {
        /// Register receiving the popped word.
        ad: AddrReg,
    },
    /// Enable maskable interrupts (sets `PSW.IE`).
    Ei,
    /// Disable maskable interrupts (clears `PSW.IE`).
    Di,
    /// `ad = ad + sign_extend(imm)` — pointer arithmetic on an address
    /// register. Flags are not affected.
    AddA {
        /// Address register updated in place.
        ad: AddrReg,
        /// Signed byte increment.
        imm: i16,
    },
}

/// Error returned by [`Insn::validate`] when an instruction carries an
/// operand outside its encodable range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateInsnError {
    insn: String,
    reason: String,
}

impl ValidateInsnError {
    fn new(insn: &Insn, reason: impl Into<String>) -> Self {
        Self {
            insn: format!("{insn:?}"),
            reason: reason.into(),
        }
    }

    /// Human-readable reason the instruction is invalid.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ValidateInsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction {}: {}", self.insn, self.reason)
    }
}

impl std::error::Error for ValidateInsnError {}

impl Insn {
    /// The canonical assembler mnemonic for this instruction.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Insn::Nop => "NOP",
            Insn::Halt { .. } => "HALT",
            Insn::Trap { .. } => "TRAP",
            Insn::Dbg { .. } => "DBG",
            Insn::MovI { .. } => "MOVI",
            Insn::MovHi { .. } => "MOVHI",
            Insn::Mov { .. } => "MOV",
            Insn::MovDa { .. } => "MOVDA",
            Insn::MovAd { .. } => "MOVAD",
            Insn::MovAa { .. } => "MOVAA",
            Insn::Lea { .. } => "LEA",
            Insn::Ld { .. } => "LD",
            Insn::LdB { .. } => "LDB",
            Insn::St { .. } => "ST",
            Insn::StB { .. } => "STB",
            Insn::LdAbs { .. } => "LDABS",
            Insn::StAbs { .. } => "STABS",
            Insn::Add { .. } => "ADD",
            Insn::AddI { .. } => "ADDI",
            Insn::Sub { .. } => "SUB",
            Insn::Mul { .. } => "MUL",
            Insn::And { .. } => "AND",
            Insn::AndI { .. } => "ANDI",
            Insn::Or { .. } => "OR",
            Insn::OrI { .. } => "ORI",
            Insn::Xor { .. } => "XOR",
            Insn::XorI { .. } => "XORI",
            Insn::Shl { .. } => "SHL",
            Insn::ShlI { .. } => "SHLI",
            Insn::Shr { .. } => "SHR",
            Insn::ShrI { .. } => "SHRI",
            Insn::SarI { .. } => "SARI",
            Insn::Not { .. } => "NOT",
            Insn::Neg { .. } => "NEG",
            Insn::Cmp { .. } => "CMP",
            Insn::CmpI { .. } => "CMPI",
            Insn::Insert { .. } => "INSERT",
            Insn::Extract { .. } => "EXTRACT",
            Insn::Jmp { .. } => "JMP",
            Insn::J { .. } => "J",
            Insn::Call { .. } => "CALL",
            Insn::CallR { .. } => "CALL",
            Insn::Ret => "RETURN",
            Insn::RetI => "RETI",
            Insn::Push { .. } => "PUSH",
            Insn::Pop { .. } => "POP",
            Insn::PushA { .. } => "PUSHA",
            Insn::PopA { .. } => "POPA",
            Insn::Ei => "EI",
            Insn::Di => "DI",
            Insn::AddA { .. } => "ADDA",
        }
    }

    /// Whether this instruction can change the program counter.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Insn::Jmp { .. }
                | Insn::J { .. }
                | Insn::Call { .. }
                | Insn::CallR { .. }
                | Insn::Ret
                | Insn::RetI
                | Insn::Trap { .. }
                | Insn::Halt { .. }
        )
    }

    /// Whether this instruction reads or writes memory (loads, stores and
    /// the implicit stack traffic of calls, pushes and pops).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            Insn::Ld { .. }
                | Insn::LdB { .. }
                | Insn::St { .. }
                | Insn::StB { .. }
                | Insn::LdAbs { .. }
                | Insn::StAbs { .. }
                | Insn::Push { .. }
                | Insn::Pop { .. }
                | Insn::PushA { .. }
                | Insn::PopA { .. }
                | Insn::Call { .. }
                | Insn::CallR { .. }
                | Insn::Ret
                | Insn::RetI
                | Insn::Trap { .. }
        )
    }

    /// Checks that every operand fits its encoding field.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateInsnError`] when an immediate, address, shift
    /// amount or bit-field range is not encodable. [`crate::encode`] panics
    /// on invalid instructions, so callers constructing instructions from
    /// untrusted input (e.g. the assembler) must validate first.
    pub fn validate(&self) -> Result<(), ValidateInsnError> {
        let check_addr = |addr: u32| {
            if addr & !ADDR_MASK != 0 {
                Err(ValidateInsnError::new(
                    self,
                    format!("address {addr:#x} exceeds 20 bits"),
                ))
            } else if !addr.is_multiple_of(4) && self.is_control_flow() {
                Err(ValidateInsnError::new(
                    self,
                    format!("target {addr:#x} is not word aligned"),
                ))
            } else {
                Ok(())
            }
        };
        let check_field = |pos: u8, width: u8| {
            if width == 0 || width > 32 {
                Err(ValidateInsnError::new(
                    self,
                    format!("field width {width} not in 1..=32"),
                ))
            } else if pos > 31 {
                Err(ValidateInsnError::new(
                    self,
                    format!("field position {pos} not in 0..=31"),
                ))
            } else if u32::from(pos) + u32::from(width) > 32 {
                Err(ValidateInsnError::new(
                    self,
                    format!("field pos {pos} + width {width} exceeds 32 bits"),
                ))
            } else {
                Ok(())
            }
        };
        match *self {
            Insn::Trap { vector } if vector >= crate::VECTOR_COUNT as u8 => Err(
                ValidateInsnError::new(self, format!("trap vector {vector} not in 0..32")),
            ),
            Insn::Lea { addr, .. } | Insn::LdAbs { addr, .. } | Insn::StAbs { addr, .. } => {
                if addr & !ADDR_MASK != 0 {
                    Err(ValidateInsnError::new(
                        self,
                        format!("address {addr:#x} exceeds 20 bits"),
                    ))
                } else {
                    Ok(())
                }
            }
            Insn::Jmp { target } | Insn::J { target, .. } | Insn::Call { target } => {
                check_addr(target)
            }
            Insn::ShlI { sh, .. } | Insn::ShrI { sh, .. } | Insn::SarI { sh, .. } if sh > 31 => {
                Err(ValidateInsnError::new(
                    self,
                    format!("shift amount {sh} not in 0..=31"),
                ))
            }
            Insn::Insert {
                src, pos, width, ..
            } => {
                if let BitSrc::Imm(imm) = src {
                    if imm > 0x7F {
                        return Err(ValidateInsnError::new(
                            self,
                            format!("insert immediate {imm} exceeds 7 bits"),
                        ));
                    }
                }
                check_field(pos, width)
            }
            Insn::Extract { pos, width, .. } => check_field(pos, width),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Insn {
    /// Formats the instruction in canonical assembler syntax, e.g.
    /// `INSERT d14, d14, #8, 0, 5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Nop => write!(f, "NOP"),
            Insn::Halt { code } => write!(f, "HALT #{code}"),
            Insn::Trap { vector } => write!(f, "TRAP #{vector}"),
            Insn::Dbg { tag } => write!(f, "DBG #{tag}"),
            Insn::MovI { rd, imm } => write!(f, "MOVI {rd}, #{imm:#x}"),
            Insn::MovHi { rd, imm } => write!(f, "MOVHI {rd}, #{imm:#x}"),
            Insn::Mov { rd, ra } => write!(f, "MOV {rd}, {ra}"),
            Insn::MovDa { rd, ab } => write!(f, "MOVDA {rd}, {ab}"),
            Insn::MovAd { ad, rb } => write!(f, "MOVAD {ad}, {rb}"),
            Insn::MovAa { ad, ab } => write!(f, "MOVAA {ad}, {ab}"),
            Insn::Lea { ad, addr } => write!(f, "LEA {ad}, {addr:#x}"),
            Insn::Ld { rd, ab, off } => write!(f, "LD {rd}, [{ab}{off:+}]"),
            Insn::LdB { rd, ab, off } => write!(f, "LDB {rd}, [{ab}{off:+}]"),
            Insn::St { ab, off, rs } => write!(f, "ST [{ab}{off:+}], {rs}"),
            Insn::StB { ab, off, rs } => write!(f, "STB [{ab}{off:+}], {rs}"),
            Insn::LdAbs { rd, addr } => write!(f, "LDABS {rd}, [{addr:#x}]"),
            Insn::StAbs { addr, rs } => write!(f, "STABS [{addr:#x}], {rs}"),
            Insn::Add { rd, ra, rb } => write!(f, "ADD {rd}, {ra}, {rb}"),
            Insn::AddI { rd, ra, imm } => write!(f, "ADDI {rd}, {ra}, #{imm}"),
            Insn::Sub { rd, ra, rb } => write!(f, "SUB {rd}, {ra}, {rb}"),
            Insn::Mul { rd, ra, rb } => write!(f, "MUL {rd}, {ra}, {rb}"),
            Insn::And { rd, ra, rb } => write!(f, "AND {rd}, {ra}, {rb}"),
            Insn::AndI { rd, ra, imm } => write!(f, "ANDI {rd}, {ra}, #{imm:#x}"),
            Insn::Or { rd, ra, rb } => write!(f, "OR {rd}, {ra}, {rb}"),
            Insn::OrI { rd, ra, imm } => write!(f, "ORI {rd}, {ra}, #{imm:#x}"),
            Insn::Xor { rd, ra, rb } => write!(f, "XOR {rd}, {ra}, {rb}"),
            Insn::XorI { rd, ra, imm } => write!(f, "XORI {rd}, {ra}, #{imm:#x}"),
            Insn::Shl { rd, ra, rb } => write!(f, "SHL {rd}, {ra}, {rb}"),
            Insn::ShlI { rd, ra, sh } => write!(f, "SHLI {rd}, {ra}, #{sh}"),
            Insn::Shr { rd, ra, rb } => write!(f, "SHR {rd}, {ra}, {rb}"),
            Insn::ShrI { rd, ra, sh } => write!(f, "SHRI {rd}, {ra}, #{sh}"),
            Insn::SarI { rd, ra, sh } => write!(f, "SARI {rd}, {ra}, #{sh}"),
            Insn::Not { rd, ra } => write!(f, "NOT {rd}, {ra}"),
            Insn::Neg { rd, ra } => write!(f, "NEG {rd}, {ra}"),
            Insn::Cmp { ra, rb } => write!(f, "CMP {ra}, {rb}"),
            Insn::CmpI { ra, imm } => write!(f, "CMPI {ra}, #{imm}"),
            Insn::Insert {
                rd,
                ra,
                src,
                pos,
                width,
            } => match src {
                BitSrc::Reg(r) => write!(f, "INSERT {rd}, {ra}, {r}, {pos}, {width}"),
                BitSrc::Imm(v) => write!(f, "INSERT {rd}, {ra}, #{v}, {pos}, {width}"),
            },
            Insn::Extract { rd, ra, pos, width } => {
                write!(f, "EXTRACT {rd}, {ra}, {pos}, {width}")
            }
            Insn::Jmp { target } => write!(f, "JMP {target:#x}"),
            Insn::J { cond, target } => write!(f, "J{cond} {target:#x}"),
            Insn::Call { target } => write!(f, "CALL {target:#x}"),
            Insn::CallR { ab } => write!(f, "CALL {ab}"),
            Insn::Ret => write!(f, "RETURN"),
            Insn::RetI => write!(f, "RETI"),
            Insn::Push { rs } => write!(f, "PUSH {rs}"),
            Insn::Pop { rd } => write!(f, "POP {rd}"),
            Insn::PushA { ab } => write!(f, "PUSHA {ab}"),
            Insn::PopA { ad } => write!(f, "POPA {ad}"),
            Insn::Ei => write!(f, "EI"),
            Insn::Di => write!(f, "DI"),
            Insn::AddA { ad, imm } => write!(f, "ADDA {ad}, #{imm}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_insert_is_valid() {
        // INSERT d14, d14, TEST_PAGE(=8), PAGE_FIELD_START_POSITION(=0),
        // PAGE_FIELD_SIZE(=5) — the exact Figure 6 instruction.
        let insn = Insn::Insert {
            rd: DataReg::D14,
            ra: DataReg::D14,
            src: BitSrc::Imm(8),
            pos: 0,
            width: 5,
        };
        assert!(insn.validate().is_ok());
        assert_eq!(insn.to_string(), "INSERT d14, d14, #8, 0, 5");
    }

    #[test]
    fn insert_field_overflow_rejected() {
        let insn = Insn::Insert {
            rd: DataReg::D0,
            ra: DataReg::D0,
            src: BitSrc::Imm(1),
            pos: 30,
            width: 5,
        };
        let err = insn.validate().unwrap_err();
        assert!(err.reason().contains("exceeds 32 bits"), "{err}");
    }

    #[test]
    fn insert_zero_width_rejected() {
        let insn = Insn::Insert {
            rd: DataReg::D0,
            ra: DataReg::D0,
            src: BitSrc::Imm(0),
            pos: 0,
            width: 0,
        };
        assert!(insn.validate().is_err());
    }

    #[test]
    fn insert_wide_immediate_rejected() {
        let insn = Insn::Insert {
            rd: DataReg::D0,
            ra: DataReg::D0,
            src: BitSrc::Imm(200),
            pos: 0,
            width: 8,
        };
        assert!(insn.validate().is_err());
    }

    #[test]
    fn full_width_insert_allowed() {
        let insn = Insn::Insert {
            rd: DataReg::D1,
            ra: DataReg::D2,
            src: BitSrc::Reg(DataReg::D3),
            pos: 0,
            width: 32,
        };
        assert!(insn.validate().is_ok());
    }

    #[test]
    fn address_range_enforced() {
        assert!(Insn::Lea {
            ad: AddrReg::A12,
            addr: 0xF_FFFC
        }
        .validate()
        .is_ok());
        assert!(Insn::Lea {
            ad: AddrReg::A12,
            addr: 0x10_0000
        }
        .validate()
        .is_err());
        assert!(Insn::Jmp { target: 0x10_0000 }.validate().is_err());
        assert!(
            Insn::Jmp { target: 0x102 }.validate().is_err(),
            "misaligned jump"
        );
        assert!(Insn::Jmp { target: 0x104 }.validate().is_ok());
    }

    #[test]
    fn trap_vector_range_enforced() {
        assert!(Insn::Trap { vector: 31 }.validate().is_ok());
        assert!(Insn::Trap { vector: 32 }.validate().is_err());
    }

    #[test]
    fn shift_range_enforced() {
        assert!(Insn::ShlI {
            rd: DataReg::D0,
            ra: DataReg::D0,
            sh: 31
        }
        .validate()
        .is_ok());
        assert!(Insn::ShlI {
            rd: DataReg::D0,
            ra: DataReg::D0,
            sh: 32
        }
        .validate()
        .is_err());
    }

    #[test]
    fn control_flow_classification() {
        assert!(Insn::Ret.is_control_flow());
        assert!(Insn::Call { target: 0 }.is_control_flow());
        assert!(!Insn::Add {
            rd: DataReg::D0,
            ra: DataReg::D0,
            rb: DataReg::D0
        }
        .is_control_flow());
    }

    #[test]
    fn memory_classification() {
        assert!(Insn::Push { rs: DataReg::D0 }.touches_memory());
        assert!(Insn::StAbs {
            addr: 0,
            rs: DataReg::D0
        }
        .touches_memory());
        assert!(!Insn::Mov {
            rd: DataReg::D0,
            ra: DataReg::D1
        }
        .touches_memory());
    }

    #[test]
    fn display_mentions_mnemonic() {
        let insn = Insn::CallR { ab: AddrReg::A12 };
        assert_eq!(insn.to_string(), "CALL a12");
        assert_eq!(insn.mnemonic(), "CALL");
    }
}
