//! The two-pass assembler: logical lines → [`Program`].
//!
//! Pass 1 sizes every statement and assigns label addresses; pass 2
//! evaluates operand expressions against the full symbol table (labels
//! plus `.EQU` constants) and encodes instructions.
//!
//! Beyond the raw ISA mnemonics, the assembler accepts the
//! pseudo-instructions the paper's listings use:
//!
//! | pseudo | expansion |
//! |--------|-----------|
//! | `LOAD dX, value` / `LOAD dX, #value` | `MOVI` + `MOVHI` pair (always two words) |
//! | `LOAD aX, value` | `LEA` |
//! | `LOAD dX, [aY+off]` / `[abs]` | `LD` / `LDABS` |
//! | `STORE [aY+off], dX` / `[abs], dX` | `ST` / `STABS` |
//! | `CALL aX` / `CALL target` | `CALL` register / absolute form |
//! | `RETURN` | `RET` |
//! | `ADD/AND/OR/XOR dX, dY, #imm` | immediate ALU forms |
//! | `SUB dX, dY, #imm` | `ADDI` with the negated immediate |
//! | `JEQ/JNE/JLT/JGE/JGT/JLE/JCS/JCC target` | conditional jumps |

use std::collections::BTreeMap;
use std::sync::Arc;

use advm_isa::{encode, AddrReg, BitSrc, Cond, DataReg, Insn, ADDR_SPACE_BYTES, RESET_PC};

use crate::diag::AsmError;
use crate::expr::{self, Expr};
use crate::lexer::Token;
use crate::preprocess::{LogicalLine, Preprocessed, Suspended};
use crate::program::{ListingEntry, Program, Segment};
use crate::source::{Loc, SourceSet};

/// Default origin when a unit has no leading `.ORG`: the reset PC.
pub const DEFAULT_ORG: u32 = RESET_PC;

/// Assembles preprocessed lines into a program.
///
/// # Errors
///
/// Returns the first assembly error: unknown mnemonics, malformed or
/// out-of-range operands, duplicate labels, or unresolvable expressions.
pub fn assemble_preprocessed(pre: &Preprocessed) -> Result<Program, AsmError> {
    ParsedUnit::from_preprocessed(pre)?.encode()
}

/// A preprocessed and statement-parsed source unit, ready to encode.
///
/// Splitting [`assemble`](crate::assemble) into a parse phase and an
/// [`encode`](ParsedUnit::encode) phase lets a batch front-end (e.g. a
/// campaign's build pool) run the per-unit parse work concurrently across
/// units and keep only the cheap link step serial. `parse` followed by
/// `encode` is byte-identical to `assemble`.
pub struct ParsedUnit {
    /// The leading statements a [`Checkpoint`] shares with every unit
    /// resumed from it; `None` for a unit parsed whole.
    frame: Option<Arc<[PStmt]>>,
    /// The statements after `frame` (all of them for a whole unit).
    stmts: Vec<PStmt>,
    equs: BTreeMap<String, i64>,
    /// Whether `encode` builds the per-statement listing. The lean mode
    /// skips listing text entirely; segments, labels and constants — and
    /// therefore every emitted byte and every diagnostic — are identical.
    listing: bool,
}

impl ParsedUnit {
    /// Preprocesses and parses `entry` (resolving `.INCLUDE` against
    /// `sources`) without encoding.
    ///
    /// # Errors
    ///
    /// Returns the first preprocessing or statement-parse error.
    pub fn parse(entry: &str, sources: &SourceSet) -> Result<Self, AsmError> {
        Self::build(entry, sources, true)
    }

    /// Like [`ParsedUnit::parse`], but [`encode`](ParsedUnit::encode)
    /// will skip the human-readable listing. Use for build pipelines
    /// that only link the program: the emitted image and all errors are
    /// identical, only `Program::listing` comes back empty (and the
    /// parse skips reconstructing per-statement source text).
    pub fn parse_lean(entry: &str, sources: &SourceSet) -> Result<Self, AsmError> {
        Self::build(entry, sources, false)
    }

    fn build(entry: &str, sources: &SourceSet, listing: bool) -> Result<Self, AsmError> {
        let pre = crate::preprocess(entry, sources)?;
        Ok(Self {
            frame: None,
            stmts: parse_statements(&pre.lines, listing)?,
            equs: pre.equs.iter().cloned().collect(),
            listing,
        })
    }

    /// Parses already-preprocessed lines without encoding.
    ///
    /// # Errors
    ///
    /// Returns the first statement-parse error.
    pub fn from_preprocessed(pre: &Preprocessed) -> Result<Self, AsmError> {
        Ok(Self {
            frame: None,
            stmts: parse_statements(&pre.lines, true)?,
            equs: pre.equs.iter().cloned().collect(),
            listing: true,
        })
    }

    /// Runs the two encoding passes (addresses/labels, then emission)
    /// over the parsed statements.
    ///
    /// # Errors
    ///
    /// Returns the first assembly error: unknown mnemonics, malformed or
    /// out-of-range operands, duplicate labels, unresolvable expressions,
    /// or a unit that does not fit the address space.
    pub fn encode(&self) -> Result<Program, AsmError> {
        let frame = self.frame.as_deref().unwrap_or_default();
        encode_unit(frame, &self.stmts, &self.equs, self.listing)
    }
}

/// A unit preprocessed and statement-parsed up to its first active
/// `.INCLUDE` of one file, the *stop* file, to be resumed with each
/// version of that file.
///
/// Units that differ only in one included file pay for the part they
/// share once: in a campaign, every test of a frame (globals, runtime,
/// base functions) differs only in `test.asm`. [`Checkpoint::new`]
/// preprocesses and parses the frame, keeping the preprocessor's state:
/// `.EQU`s, aliases, macros, the conditional stack, the include stack,
/// the include-once list and the macro-expansion counter.
/// [`Checkpoint::resume`] preprocesses and parses only the stop file and
/// what follows it, and returns the whole unit to encode.
///
/// Resuming is lean: `Checkpoint::new(entry, frame_sources, stop)?
/// .resume(sources)?.encode()` equals `ParsedUnit::parse_lean(entry,
/// sources)?.encode()` in segments, labels, constants and errors, as
/// long as `sources` holds the same files as `frame_sources` apart from
/// the stop file and the files only it includes.
///
/// ```
/// use advm_asm::{Checkpoint, ParsedUnit, SourceSet};
///
/// # fn main() -> Result<(), advm_asm::AsmError> {
/// let frame = SourceSet::new()
///     .with("unit.asm", ".INCLUDE g.inc\n_start:\n    CALL _main\n.INCLUDE test.asm\n")
///     .with("g.inc", "LIMIT .EQU 7\n");
/// let checkpoint = Checkpoint::new("unit.asm", &frame, "test.asm")?;
/// let unit = frame.clone().with("test.asm", "_main:\n    LOAD d1, #LIMIT\n    HALT #0\n");
/// let resumed = checkpoint.resume(&unit)?.encode()?;
/// assert_eq!(resumed, ParsedUnit::parse_lean("unit.asm", &unit)?.encode()?);
/// assert_eq!(resumed.label("_main"), Some(0x104));
/// # Ok(())
/// # }
/// ```
pub struct Checkpoint {
    pre: Suspended,
    /// The frame's statements, or its first parse error. The error waits
    /// for [`Checkpoint::resume`]: whole-unit assembly preprocesses
    /// everything before it parses anything, so a preprocess error in
    /// the stop file is reported first.
    stmts: Result<Arc<[PStmt]>, AsmError>,
    equs: BTreeMap<String, i64>,
}

impl Checkpoint {
    /// Preprocesses and parses `entry` up to its first active
    /// `.INCLUDE stop`. A unit that never includes `stop` is taken
    /// whole, and every resume returns it unchanged.
    ///
    /// # Errors
    ///
    /// Returns the first preprocessing error before the stop, which
    /// whole-unit assembly of any unit with this frame reports too.
    pub fn new(entry: &str, sources: &SourceSet, stop: &str) -> Result<Self, AsmError> {
        let (pre, frame) = Suspended::new(entry, sources, stop)?;
        Ok(Self {
            pre,
            stmts: parse_statements(&frame.lines, false).map(Arc::from),
            equs: frame.equs.into_iter().collect(),
        })
    }

    /// Resumes the checkpoint with `sources`' version of the stop file:
    /// preprocesses and parses it and the rest of the unit.
    ///
    /// # Errors
    ///
    /// Returns the error whole-unit preprocessing and parsing of
    /// `sources` would return.
    pub fn resume(&self, sources: &SourceSet) -> Result<ParsedUnit, AsmError> {
        let rest = self.pre.resume(sources)?;
        let frame = self.stmts.as_ref().map_err(Clone::clone)?;
        let stmts = parse_statements(&rest.lines, false)?;
        let mut equs = self.equs.clone();
        equs.extend(rest.equs);
        Ok(ParsedUnit {
            frame: Some(Arc::clone(frame)),
            stmts,
            equs,
            listing: false,
        })
    }
}

/// Advances the location counter `addr` over `bytes` emitted (or
/// reserved) by the statement at `loc`, counting them in `emitted`: no
/// byte may lie past the address space, and a unit may emit no more
/// bytes than the address space holds (several `.ORG`s can otherwise
/// reserve the same range again and again).
fn advance(addr: &mut u32, emitted: &mut u64, bytes: u64, loc: &Loc) -> Result<(), AsmError> {
    let end = u64::from(*addr) + bytes;
    if end > u64::from(ADDR_SPACE_BYTES) {
        return Err(AsmError::at(
            loc.clone(),
            format!(
                "statement at {addr:#x} ends past the {ADDR_SPACE_BYTES:#x}-byte address space"
            ),
        ));
    }
    *emitted += bytes;
    if *emitted > u64::from(ADDR_SPACE_BYTES) {
        return Err(AsmError::at(
            loc.clone(),
            format!("unit emits more than the {ADDR_SPACE_BYTES:#x}-byte address space"),
        ));
    }
    *addr = end as u32;
    Ok(())
}

fn encode_unit(
    frame: &[PStmt],
    rest: &[PStmt],
    equs: &BTreeMap<String, i64>,
    with_listing: bool,
) -> Result<Program, AsmError> {
    let stmts = || frame.iter().chain(rest);
    // Pass 1: addresses and labels.
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();
    let mut addr = DEFAULT_ORG;
    let mut emitted: u64 = 0;
    let mut addrs = Vec::with_capacity(frame.len() + rest.len());
    for pstmt in stmts() {
        addrs.push(addr);
        let loc = &pstmt.loc;
        match &pstmt.stmt {
            Stmt::Label(name) => {
                if equs.contains_key(name) {
                    return Err(AsmError::at(
                        loc.clone(),
                        format!("label `{name}` collides with an .EQU constant"),
                    ));
                }
                if labels.insert(name.clone(), addr).is_some() {
                    return Err(AsmError::at(
                        loc.clone(),
                        format!("duplicate label `{name}`"),
                    ));
                }
            }
            Stmt::Org(e) => {
                let v = eval_early(e, loc, equs, &labels)?;
                addr = to_addr(v, loc)?;
            }
            Stmt::Word(list) => advance(&mut addr, &mut emitted, 4 * list.len() as u64, loc)?,
            Stmt::Byte(list) => advance(&mut addr, &mut emitted, list.len() as u64, loc)?,
            Stmt::Space(e) => {
                let v = eval_early(e, loc, equs, &labels)?;
                if !(0..=0x10_0000).contains(&v) {
                    return Err(AsmError::at(
                        loc.clone(),
                        format!(".SPACE size {v} out of range"),
                    ));
                }
                advance(&mut addr, &mut emitted, v as u64, loc)?;
            }
            Stmt::Align(e) => {
                let v = eval_early(e, loc, equs, &labels)?;
                if v <= 0 || (v & (v - 1)) != 0 {
                    return Err(AsmError::at(
                        loc.clone(),
                        format!(".ALIGN requires a power of two, got {v}"),
                    ));
                }
                if v > i64::from(ADDR_SPACE_BYTES) {
                    return Err(AsmError::at(
                        loc.clone(),
                        format!(
                            ".ALIGN {v:#x} exceeds the {ADDR_SPACE_BYTES:#x}-byte address space"
                        ),
                    ));
                }
                let padding = addr.next_multiple_of(v as u32) - addr;
                advance(&mut addr, &mut emitted, u64::from(padding), loc)?;
            }
            Stmt::Insn { mnemonic, operands } => {
                let size = insn_size_bytes(mnemonic, operands);
                advance(&mut addr, &mut emitted, u64::from(size), loc)?;
            }
        }
    }

    // Pass 2: emit.
    let resolve = |name: &str| -> Option<i64> {
        equs.get(name)
            .copied()
            .or_else(|| labels.get(name).map(|a| i64::from(*a)))
    };
    let mut segments: Vec<Segment> = Vec::new();
    let mut listing: Vec<ListingEntry> = Vec::new();
    let mut seg_base = DEFAULT_ORG;
    let mut seg_bytes: Vec<u8> = Vec::new();
    let flush = |seg_base: &mut u32,
                 seg_bytes: &mut Vec<u8>,
                 next_base: u32,
                 segments: &mut Vec<Segment>| {
        if !seg_bytes.is_empty() {
            segments.push(Segment::new(*seg_base, std::mem::take(seg_bytes)));
        }
        *seg_base = next_base;
    };

    for (pstmt, &stmt_addr) in stmts().zip(&addrs) {
        let loc = &pstmt.loc;
        let mut words: Vec<u32> = Vec::new();
        match &pstmt.stmt {
            Stmt::Label(_) => {}
            Stmt::Org(_) => {
                // `addrs` holds the address *before* the .ORG takes
                // effect; compute the new base the same way pass 1 did.
                let e = match &pstmt.stmt {
                    Stmt::Org(e) => e,
                    _ => unreachable!(),
                };
                let v = eval_early(e, loc, equs, &labels)?;
                let new_base = to_addr(v, loc)?;
                flush(&mut seg_base, &mut seg_bytes, new_base, &mut segments);
            }
            Stmt::Word(list) => {
                for e in list {
                    let v = expr::eval(e, loc, &resolve)?;
                    words.push(v as u32);
                    seg_bytes.extend_from_slice(&(v as u32).to_le_bytes());
                }
            }
            Stmt::Byte(list) => {
                for e in list {
                    let v = expr::eval(e, loc, &resolve)?;
                    if !(-128..=255).contains(&v) {
                        return Err(AsmError::at(
                            loc.clone(),
                            format!("byte value {v} out of range"),
                        ));
                    }
                    seg_bytes.push(v as u8);
                }
            }
            Stmt::Space(e) => {
                let v = eval_early(e, loc, equs, &labels)?;
                seg_bytes.extend(std::iter::repeat_n(0u8, v as usize));
            }
            Stmt::Align(e) => {
                let v = eval_early(e, loc, equs, &labels)? as u32;
                let target = stmt_addr.next_multiple_of(v);
                seg_bytes.extend(std::iter::repeat_n(0u8, (target - stmt_addr) as usize));
            }
            Stmt::Insn { mnemonic, operands } => {
                let insns = lower(mnemonic, operands, stmt_addr, loc, &resolve)?;
                debug_assert_eq!(
                    insns.len() as u32 * 4,
                    insn_size_bytes(mnemonic, operands),
                    "pass1/pass2 size mismatch for {mnemonic}"
                );
                for insn in insns {
                    insn.validate()
                        .map_err(|e| AsmError::at(loc.clone(), e.to_string()))?;
                    let word = encode(&insn);
                    words.push(word);
                    seg_bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
        if with_listing {
            listing.push(ListingEntry {
                addr: match &pstmt.stmt {
                    Stmt::Org(_) => None,
                    _ => Some(stmt_addr),
                },
                words,
                text: pstmt.text.clone(),
                source: loc.to_string(),
            });
        }
    }
    if !seg_bytes.is_empty() {
        segments.push(Segment::new(seg_base, seg_bytes));
    }

    Ok(Program::new(segments, labels, equs.clone(), listing))
}

/// Evaluates an expression that must be resolvable *at its point of use*
/// (`.ORG`, `.SPACE`, `.ALIGN`): constants and already-defined labels.
fn eval_early(
    e: &Expr,
    loc: &Loc,
    equs: &BTreeMap<String, i64>,
    labels: &BTreeMap<String, u32>,
) -> Result<i64, AsmError> {
    expr::eval(e, loc, &|name| {
        equs.get(name)
            .copied()
            .or_else(|| labels.get(name).map(|a| i64::from(*a)))
    })
}

fn to_addr(v: i64, loc: &Loc) -> Result<u32, AsmError> {
    if !(0..=i64::from(advm_isa::ADDR_MASK)).contains(&v) {
        return Err(AsmError::at(
            loc.clone(),
            format!("address {v:#x} out of range"),
        ));
    }
    Ok(v as u32)
}

// ---------------------------------------------------------------------------
// Statement parsing
// ---------------------------------------------------------------------------

/// A parsed operand.
#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Data(DataReg),
    Addr(AddrReg),
    /// `#expr` immediate.
    Imm(Expr),
    /// Bare expression (symbol value / jump target).
    Bare(Expr),
    /// `[base + offset]` or `[expr]`.
    Mem(MemRef),
}

#[derive(Debug, Clone, PartialEq)]
enum MemRef {
    Based { base: AddrReg, offset: Expr },
    Abs(Expr),
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    Label(String),
    Org(Expr),
    Word(Vec<Expr>),
    Byte(Vec<Expr>),
    Space(Expr),
    Align(Expr),
    Insn {
        mnemonic: String,
        operands: Vec<Operand>,
    },
}

#[derive(Debug, Clone)]
struct PStmt {
    stmt: Stmt,
    loc: Loc,
    text: String,
}

fn parse_statements(lines: &[LogicalLine], with_text: bool) -> Result<Vec<PStmt>, AsmError> {
    let mut stmts = Vec::new();
    for line in lines {
        // Source text is only consumed by the listing; skip the
        // reconstruction entirely on lean (listing-free) parses.
        let text = if with_text {
            line.tokens
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        } else {
            String::new()
        };
        let mut tokens: &[Token] = &line.tokens;
        // Leading label(s).
        while tokens.len() >= 2 {
            if let (Token::Ident(name), true) = (&tokens[0], tokens[1].is_punct(':')) {
                stmts.push(PStmt {
                    stmt: Stmt::Label(name.clone()),
                    loc: line.loc.clone(),
                    text: if with_text {
                        format!("{name}:")
                    } else {
                        String::new()
                    },
                });
                tokens = &tokens[2..];
            } else {
                break;
            }
        }
        if tokens.is_empty() {
            continue;
        }
        let stmt = parse_statement(tokens, &line.loc)?;
        stmts.push(PStmt {
            stmt,
            loc: line.loc.clone(),
            text,
        });
    }
    Ok(stmts)
}

fn parse_statement(tokens: &[Token], loc: &Loc) -> Result<Stmt, AsmError> {
    match &tokens[0] {
        Token::Directive(d) => {
            let rest = &tokens[1..];
            match d.as_str() {
                ".ORG" => Ok(Stmt::Org(expr::parse_all(rest, loc)?)),
                ".WORD" => Ok(Stmt::Word(parse_expr_list(rest, loc)?)),
                ".BYTE" => Ok(Stmt::Byte(parse_expr_list(rest, loc)?)),
                ".SPACE" => Ok(Stmt::Space(expr::parse_all(rest, loc)?)),
                ".ALIGN" => Ok(Stmt::Align(expr::parse_all(rest, loc)?)),
                other => Err(AsmError::at(
                    loc.clone(),
                    format!("unknown directive `{other}`"),
                )),
            }
        }
        Token::Ident(mnemonic) => {
            let operands = split_operands(&tokens[1..])
                .into_iter()
                .map(|op_tokens| parse_operand(&op_tokens, loc))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Stmt::Insn {
                mnemonic: mnemonic.to_ascii_uppercase(),
                operands,
            })
        }
        other => Err(AsmError::at(loc.clone(), format!("unexpected `{other}`"))),
    }
}

fn parse_expr_list(tokens: &[Token], loc: &Loc) -> Result<Vec<Expr>, AsmError> {
    split_operands(tokens)
        .into_iter()
        .map(|part| expr::parse_all(&part, loc))
        .collect()
}

/// Splits tokens at top-level commas.
fn split_operands(tokens: &[Token]) -> Vec<Vec<Token>> {
    if tokens.is_empty() {
        return Vec::new();
    }
    let mut parts = Vec::new();
    let mut current = Vec::new();
    let mut depth = 0i32;
    for t in tokens {
        match t {
            Token::Punct('[') | Token::Punct('(') => {
                depth += 1;
                current.push(t.clone());
            }
            Token::Punct(']') | Token::Punct(')') => {
                depth -= 1;
                current.push(t.clone());
            }
            Token::Punct(',') if depth == 0 => parts.push(std::mem::take(&mut current)),
            _ => current.push(t.clone()),
        }
    }
    parts.push(current);
    parts
}

fn parse_operand(tokens: &[Token], loc: &Loc) -> Result<Operand, AsmError> {
    if tokens.is_empty() {
        return Err(AsmError::at(loc.clone(), "empty operand"));
    }
    // `#expr` immediate.
    if tokens[0].is_punct('#') {
        return Ok(Operand::Imm(expr::parse_all(&tokens[1..], loc)?));
    }
    // `[ ... ]` memory reference.
    if tokens[0].is_punct('[') {
        if !tokens.last().is_some_and(|t| t.is_punct(']')) {
            return Err(AsmError::at(loc.clone(), "unterminated memory operand"));
        }
        let inner = &tokens[1..tokens.len() - 1];
        if inner.is_empty() {
            return Err(AsmError::at(loc.clone(), "empty memory operand"));
        }
        if let Token::Ident(name) = &inner[0] {
            if let Ok(base) = name.parse::<AddrReg>() {
                if inner.len() == 1 {
                    return Ok(Operand::Mem(MemRef::Based {
                        base,
                        offset: Expr::Num(0),
                    }));
                }
                // `[aX + expr]` or `[aX - expr]`.
                let sign = match &inner[1] {
                    Token::Punct('+') => 1,
                    Token::Punct('-') => -1,
                    other => {
                        return Err(AsmError::at(
                            loc.clone(),
                            format!("expected `+` or `-` after base register, found `{other}`"),
                        ))
                    }
                };
                let offset = expr::parse_all(&inner[2..], loc)?;
                let offset = if sign < 0 {
                    Expr::Unary(expr::UnaryOp::Neg, Box::new(offset))
                } else {
                    offset
                };
                return Ok(Operand::Mem(MemRef::Based { base, offset }));
            }
            if name.parse::<DataReg>().is_ok() {
                return Err(AsmError::at(
                    loc.clone(),
                    format!("data register `{name}` cannot be a memory base"),
                ));
            }
        }
        return Ok(Operand::Mem(MemRef::Abs(expr::parse_all(inner, loc)?)));
    }
    // Single identifier that names a register.
    if tokens.len() == 1 {
        if let Token::Ident(name) = &tokens[0] {
            if let Ok(reg) = name.parse::<DataReg>() {
                return Ok(Operand::Data(reg));
            }
            if let Ok(reg) = name.parse::<AddrReg>() {
                return Ok(Operand::Addr(reg));
            }
        }
    }
    Ok(Operand::Bare(expr::parse_all(tokens, loc)?))
}

// ---------------------------------------------------------------------------
// Sizing and lowering
// ---------------------------------------------------------------------------

/// Size in bytes of an instruction statement (pass 1).
fn insn_size_bytes(mnemonic: &str, operands: &[Operand]) -> u32 {
    if mnemonic == "LOAD" {
        if let (Some(Operand::Data(_)), Some(Operand::Imm(_) | Operand::Bare(_))) =
            (operands.first(), operands.get(1))
        {
            return 8; // MOVI + MOVHI
        }
    }
    4
}

struct Ctx<'a> {
    loc: &'a Loc,
    resolve: &'a dyn Fn(&str) -> Option<i64>,
}

impl Ctx<'_> {
    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError::at(self.loc.clone(), message)
    }

    fn value(&self, op: &Operand, what: &str) -> Result<i64, AsmError> {
        match op {
            Operand::Imm(e) | Operand::Bare(e) => expr::eval(e, self.loc, &self.resolve),
            other => Err(self.err(format!("{what}: expected a value, found {}", kind(other)))),
        }
    }

    fn data(&self, op: &Operand, what: &str) -> Result<DataReg, AsmError> {
        match op {
            Operand::Data(r) => Ok(*r),
            other => Err(self.err(format!(
                "{what}: expected a data register, found {}",
                kind(other)
            ))),
        }
    }

    fn addr_reg(&self, op: &Operand, what: &str) -> Result<AddrReg, AsmError> {
        match op {
            Operand::Addr(r) => Ok(*r),
            other => Err(self.err(format!(
                "{what}: expected an address register, found {}",
                kind(other)
            ))),
        }
    }

    fn imm16_any(&self, op: &Operand, what: &str) -> Result<u16, AsmError> {
        let v = self.value(op, what)?;
        if !(-32768..=65535).contains(&v) {
            return Err(self.err(format!("{what}: immediate {v} does not fit 16 bits")));
        }
        Ok(v as u16)
    }

    fn imm16_signed(&self, op: &Operand, what: &str) -> Result<i16, AsmError> {
        let v = self.value(op, what)?;
        i16::try_from(v)
            .map_err(|_| self.err(format!("{what}: immediate {v} does not fit signed 16 bits")))
    }

    fn imm8(&self, op: &Operand, what: &str) -> Result<u8, AsmError> {
        let v = self.value(op, what)?;
        u8::try_from(v).map_err(|_| self.err(format!("{what}: value {v} does not fit 8 bits")))
    }

    fn imm5(&self, op: &Operand, what: &str) -> Result<u8, AsmError> {
        let v = self.value(op, what)?;
        if !(0..=31).contains(&v) {
            return Err(self.err(format!("{what}: value {v} not in 0..=31")));
        }
        Ok(v as u8)
    }

    fn target(&self, op: &Operand, what: &str) -> Result<u32, AsmError> {
        let v = self.value(op, what)?;
        to_addr(v, self.loc)
    }

    fn offset(&self, e: &Expr) -> Result<i16, AsmError> {
        let v = expr::eval(e, self.loc, &self.resolve)?;
        i16::try_from(v)
            .map_err(|_| self.err(format!("memory offset {v} does not fit signed 16 bits")))
    }
}

fn kind(op: &Operand) -> &'static str {
    match op {
        Operand::Data(_) => "a data register",
        Operand::Addr(_) => "an address register",
        Operand::Imm(_) => "an immediate",
        Operand::Bare(_) => "an expression",
        Operand::Mem(_) => "a memory operand",
    }
}

fn expect_operands(
    ctx: &Ctx<'_>,
    mnemonic: &str,
    operands: &[Operand],
    n: usize,
) -> Result<(), AsmError> {
    if operands.len() != n {
        return Err(ctx.err(format!(
            "{mnemonic} expects {n} operand(s), got {}",
            operands.len()
        )));
    }
    Ok(())
}

/// Lowers one instruction statement to machine instructions.
fn lower(
    mnemonic: &str,
    ops: &[Operand],
    _addr: u32,
    loc: &Loc,
    resolve: &dyn Fn(&str) -> Option<i64>,
) -> Result<Vec<Insn>, AsmError> {
    let ctx = Ctx { loc, resolve };
    let one = |i: Insn| Ok(vec![i]);
    match mnemonic {
        "NOP" => {
            expect_operands(&ctx, mnemonic, ops, 0)?;
            one(Insn::Nop)
        }
        "HALT" => {
            let code = if ops.is_empty() {
                0
            } else {
                ctx.imm8(&ops[0], "HALT code")?
            };
            one(Insn::Halt { code })
        }
        "TRAP" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            one(Insn::Trap {
                vector: ctx.imm8(&ops[0], "TRAP vector")?,
            })
        }
        "DBG" => {
            let tag = if ops.is_empty() {
                0
            } else {
                ctx.imm8(&ops[0], "DBG tag")?
            };
            one(Insn::Dbg { tag })
        }
        "MOVI" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::MovI {
                rd: ctx.data(&ops[0], "MOVI destination")?,
                imm: ctx.imm16_any(&ops[1], "MOVI immediate")?,
            })
        }
        "MOVHI" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::MovHi {
                rd: ctx.data(&ops[0], "MOVHI destination")?,
                imm: ctx.imm16_any(&ops[1], "MOVHI immediate")?,
            })
        }
        "MOV" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Data(rd), Operand::Data(ra)) => one(Insn::Mov { rd: *rd, ra: *ra }),
                (Operand::Data(rd), Operand::Addr(ab)) => one(Insn::MovDa { rd: *rd, ab: *ab }),
                (Operand::Addr(ad), Operand::Data(rb)) => one(Insn::MovAd { ad: *ad, rb: *rb }),
                (Operand::Addr(ad), Operand::Addr(ab)) => one(Insn::MovAa { ad: *ad, ab: *ab }),
                _ => Err(ctx.err("MOV operands must both be registers")),
            }
        }
        "MOVDA" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::MovDa {
                rd: ctx.data(&ops[0], "MOVDA destination")?,
                ab: ctx.addr_reg(&ops[1], "MOVDA source")?,
            })
        }
        "MOVAD" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::MovAd {
                ad: ctx.addr_reg(&ops[0], "MOVAD destination")?,
                rb: ctx.data(&ops[1], "MOVAD source")?,
            })
        }
        "MOVAA" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::MovAa {
                ad: ctx.addr_reg(&ops[0], "MOVAA destination")?,
                ab: ctx.addr_reg(&ops[1], "MOVAA source")?,
            })
        }
        "LEA" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::Lea {
                ad: ctx.addr_reg(&ops[0], "LEA destination")?,
                addr: ctx.target(&ops[1], "LEA address")?,
            })
        }
        "LOAD" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Data(rd), Operand::Imm(_) | Operand::Bare(_)) => {
                    let v = ctx.value(&ops[1], "LOAD value")?;
                    if !(i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
                        return Err(ctx.err(format!("LOAD value {v} does not fit 32 bits")));
                    }
                    let v = v as u32;
                    Ok(vec![
                        Insn::MovI {
                            rd: *rd,
                            imm: (v & 0xFFFF) as u16,
                        },
                        Insn::MovHi {
                            rd: *rd,
                            imm: (v >> 16) as u16,
                        },
                    ])
                }
                (Operand::Addr(ad), Operand::Imm(_) | Operand::Bare(_)) => one(Insn::Lea {
                    ad: *ad,
                    addr: ctx.target(&ops[1], "LOAD address")?,
                }),
                (Operand::Data(rd), Operand::Mem(MemRef::Based { base, offset })) => {
                    one(Insn::Ld {
                        rd: *rd,
                        ab: *base,
                        off: ctx.offset(offset)?,
                    })
                }
                (Operand::Data(rd), Operand::Mem(MemRef::Abs(e))) => one(Insn::LdAbs {
                    rd: *rd,
                    addr: to_addr(expr::eval(e, loc, &resolve)?, loc)?,
                }),
                _ => Err(ctx.err("unsupported LOAD operand combination")),
            }
        }
        "LOADB" | "LDB" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Data(rd), Operand::Mem(MemRef::Based { base, offset })) => {
                    one(Insn::LdB {
                        rd: *rd,
                        ab: *base,
                        off: ctx.offset(offset)?,
                    })
                }
                _ => Err(ctx.err(format!("{mnemonic} expects `dX, [aY+off]`"))),
            }
        }
        "LD" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Data(rd), Operand::Mem(MemRef::Based { base, offset })) => {
                    one(Insn::Ld {
                        rd: *rd,
                        ab: *base,
                        off: ctx.offset(offset)?,
                    })
                }
                _ => Err(ctx.err("LD expects `dX, [aY+off]`")),
            }
        }
        "LDABS" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Data(rd), Operand::Mem(MemRef::Abs(e))) => one(Insn::LdAbs {
                    rd: *rd,
                    addr: to_addr(expr::eval(e, loc, &resolve)?, loc)?,
                }),
                _ => Err(ctx.err("LDABS expects `dX, [address]`")),
            }
        }
        "STORE" | "ST" | "STOREB" | "STB" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            let byte = mnemonic == "STOREB" || mnemonic == "STB";
            match (&ops[0], &ops[1]) {
                (Operand::Mem(MemRef::Based { base, offset }), Operand::Data(rs)) => {
                    let off = ctx.offset(offset)?;
                    if byte {
                        one(Insn::StB {
                            ab: *base,
                            off,
                            rs: *rs,
                        })
                    } else {
                        one(Insn::St {
                            ab: *base,
                            off,
                            rs: *rs,
                        })
                    }
                }
                (Operand::Mem(MemRef::Abs(e)), Operand::Data(rs)) if !byte => one(Insn::StAbs {
                    addr: to_addr(expr::eval(e, loc, &resolve)?, loc)?,
                    rs: *rs,
                }),
                _ => Err(ctx.err(format!("{mnemonic} expects `[address], dX`"))),
            }
        }
        "STABS" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            match (&ops[0], &ops[1]) {
                (Operand::Mem(MemRef::Abs(e)), Operand::Data(rs)) => one(Insn::StAbs {
                    addr: to_addr(expr::eval(e, loc, &resolve)?, loc)?,
                    rs: *rs,
                }),
                _ => Err(ctx.err("STABS expects `[address], dX`")),
            }
        }
        "ADD" | "SUB" | "MUL" | "AND" | "OR" | "XOR" | "SHL" | "SHR" => {
            expect_operands(&ctx, mnemonic, ops, 3)?;
            let rd = ctx.data(&ops[0], "destination")?;
            let ra = ctx.data(&ops[1], "first source")?;
            match &ops[2] {
                Operand::Data(rb) => {
                    let rb = *rb;
                    one(match mnemonic {
                        "ADD" => Insn::Add { rd, ra, rb },
                        "SUB" => Insn::Sub { rd, ra, rb },
                        "MUL" => Insn::Mul { rd, ra, rb },
                        "AND" => Insn::And { rd, ra, rb },
                        "OR" => Insn::Or { rd, ra, rb },
                        "XOR" => Insn::Xor { rd, ra, rb },
                        "SHL" => Insn::Shl { rd, ra, rb },
                        _ => Insn::Shr { rd, ra, rb },
                    })
                }
                imm @ (Operand::Imm(_) | Operand::Bare(_)) => match mnemonic {
                    "ADD" => one(Insn::AddI {
                        rd,
                        ra,
                        imm: ctx.imm16_signed(imm, "ADD immediate")?,
                    }),
                    "SUB" => {
                        let v = ctx.value(imm, "SUB immediate")?;
                        let neg = -v;
                        let imm = i16::try_from(neg).map_err(|_| {
                            ctx.err(format!("SUB immediate {v} does not fit signed 16 bits"))
                        })?;
                        one(Insn::AddI { rd, ra, imm })
                    }
                    "AND" => one(Insn::AndI {
                        rd,
                        ra,
                        imm: ctx.imm16_any(imm, "AND immediate")?,
                    }),
                    "OR" => one(Insn::OrI {
                        rd,
                        ra,
                        imm: ctx.imm16_any(imm, "OR immediate")?,
                    }),
                    "XOR" => one(Insn::XorI {
                        rd,
                        ra,
                        imm: ctx.imm16_any(imm, "XOR immediate")?,
                    }),
                    "SHL" => one(Insn::ShlI {
                        rd,
                        ra,
                        sh: ctx.imm5(imm, "SHL amount")?,
                    }),
                    "SHR" => one(Insn::ShrI {
                        rd,
                        ra,
                        sh: ctx.imm5(imm, "SHR amount")?,
                    }),
                    _ => Err(ctx.err(format!("{mnemonic} has no immediate form"))),
                },
                other => Err(ctx.err(format!(
                    "{mnemonic}: expected a register or immediate, found {}",
                    kind(other)
                ))),
            }
        }
        "ADDI" => {
            expect_operands(&ctx, mnemonic, ops, 3)?;
            one(Insn::AddI {
                rd: ctx.data(&ops[0], "ADDI destination")?,
                ra: ctx.data(&ops[1], "ADDI source")?,
                imm: ctx.imm16_signed(&ops[2], "ADDI immediate")?,
            })
        }
        "ANDI" | "ORI" | "XORI" => {
            expect_operands(&ctx, mnemonic, ops, 3)?;
            let rd = ctx.data(&ops[0], "destination")?;
            let ra = ctx.data(&ops[1], "source")?;
            let imm = ctx.imm16_any(&ops[2], "immediate")?;
            one(match mnemonic {
                "ANDI" => Insn::AndI { rd, ra, imm },
                "ORI" => Insn::OrI { rd, ra, imm },
                _ => Insn::XorI { rd, ra, imm },
            })
        }
        "SHLI" | "SHRI" | "SARI" | "SAR" => {
            expect_operands(&ctx, mnemonic, ops, 3)?;
            let rd = ctx.data(&ops[0], "destination")?;
            let ra = ctx.data(&ops[1], "source")?;
            let sh = ctx.imm5(&ops[2], "shift amount")?;
            one(match mnemonic {
                "SHLI" => Insn::ShlI { rd, ra, sh },
                "SHRI" => Insn::ShrI { rd, ra, sh },
                _ => Insn::SarI { rd, ra, sh },
            })
        }
        "NOT" | "NEG" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            let rd = ctx.data(&ops[0], "destination")?;
            let ra = ctx.data(&ops[1], "source")?;
            one(if mnemonic == "NOT" {
                Insn::Not { rd, ra }
            } else {
                Insn::Neg { rd, ra }
            })
        }
        "CMP" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            let ra = ctx.data(&ops[0], "CMP first operand")?;
            match &ops[1] {
                Operand::Data(rb) => one(Insn::Cmp { ra, rb: *rb }),
                imm @ (Operand::Imm(_) | Operand::Bare(_)) => one(Insn::CmpI {
                    ra,
                    imm: ctx.imm16_signed(imm, "CMP immediate")?,
                }),
                other => Err(ctx.err(format!("CMP second operand: {}", kind(other)))),
            }
        }
        "CMPI" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::CmpI {
                ra: ctx.data(&ops[0], "CMPI operand")?,
                imm: ctx.imm16_signed(&ops[1], "CMPI immediate")?,
            })
        }
        "INSERT" => {
            expect_operands(&ctx, mnemonic, ops, 5)?;
            let rd = ctx.data(&ops[0], "INSERT destination")?;
            let ra = ctx.data(&ops[1], "INSERT source")?;
            let src = match &ops[2] {
                Operand::Data(r) => BitSrc::Reg(*r),
                imm @ (Operand::Imm(_) | Operand::Bare(_)) => {
                    let v = ctx.value(imm, "INSERT value")?;
                    if !(0..=127).contains(&v) {
                        return Err(ctx.err(format!("INSERT immediate {v} does not fit 7 bits")));
                    }
                    BitSrc::Imm(v as u8)
                }
                other => return Err(ctx.err(format!("INSERT value: {}", kind(other)))),
            };
            let pos = ctx.imm5(&ops[3], "INSERT position")?;
            let width_v = ctx.value(&ops[4], "INSERT width")?;
            if !(1..=32).contains(&width_v) {
                return Err(ctx.err(format!("INSERT width {width_v} not in 1..=32")));
            }
            one(Insn::Insert {
                rd,
                ra,
                src,
                pos,
                width: width_v as u8,
            })
        }
        "EXTRACT" => {
            expect_operands(&ctx, mnemonic, ops, 4)?;
            let rd = ctx.data(&ops[0], "EXTRACT destination")?;
            let ra = ctx.data(&ops[1], "EXTRACT source")?;
            let pos = ctx.imm5(&ops[2], "EXTRACT position")?;
            let width_v = ctx.value(&ops[3], "EXTRACT width")?;
            if !(1..=32).contains(&width_v) {
                return Err(ctx.err(format!("EXTRACT width {width_v} not in 1..=32")));
            }
            one(Insn::Extract {
                rd,
                ra,
                pos,
                width: width_v as u8,
            })
        }
        "JMP" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            one(Insn::Jmp {
                target: ctx.target(&ops[0], "JMP target")?,
            })
        }
        "CALL" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            match &ops[0] {
                Operand::Addr(ab) => one(Insn::CallR { ab: *ab }),
                _ => one(Insn::Call {
                    target: ctx.target(&ops[0], "CALL target")?,
                }),
            }
        }
        "RETURN" | "RET" => {
            expect_operands(&ctx, mnemonic, ops, 0)?;
            one(Insn::Ret)
        }
        "RETI" => {
            expect_operands(&ctx, mnemonic, ops, 0)?;
            one(Insn::RetI)
        }
        "PUSH" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            match &ops[0] {
                Operand::Data(rs) => one(Insn::Push { rs: *rs }),
                Operand::Addr(ab) => one(Insn::PushA { ab: *ab }),
                other => Err(ctx.err(format!("PUSH operand: {}", kind(other)))),
            }
        }
        "POP" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            match &ops[0] {
                Operand::Data(rd) => one(Insn::Pop { rd: *rd }),
                Operand::Addr(ad) => one(Insn::PopA { ad: *ad }),
                other => Err(ctx.err(format!("POP operand: {}", kind(other)))),
            }
        }
        "PUSHA" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            one(Insn::PushA {
                ab: ctx.addr_reg(&ops[0], "PUSHA operand")?,
            })
        }
        "POPA" => {
            expect_operands(&ctx, mnemonic, ops, 1)?;
            one(Insn::PopA {
                ad: ctx.addr_reg(&ops[0], "POPA operand")?,
            })
        }
        "EI" => {
            expect_operands(&ctx, mnemonic, ops, 0)?;
            one(Insn::Ei)
        }
        "DI" => {
            expect_operands(&ctx, mnemonic, ops, 0)?;
            one(Insn::Di)
        }
        "ADDA" => {
            expect_operands(&ctx, mnemonic, ops, 2)?;
            one(Insn::AddA {
                ad: ctx.addr_reg(&ops[0], "ADDA register")?,
                imm: ctx.imm16_signed(&ops[1], "ADDA increment")?,
            })
        }
        jcc if jcc.len() == 3 && jcc.starts_with('J') => {
            let cond: Cond = jcc[1..]
                .parse()
                .map_err(|_| ctx.err(format!("unknown mnemonic `{jcc}`")))?;
            expect_operands(&ctx, jcc, ops, 1)?;
            one(Insn::J {
                cond,
                target: ctx.target(&ops[0], "jump target")?,
            })
        }
        other => Err(ctx.err(format!("unknown mnemonic `{other}`"))),
    }
}
