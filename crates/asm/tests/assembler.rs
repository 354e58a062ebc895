//! End-to-end assembler tests, including the paper's Figure 6 and
//! Figure 7 listings assembled verbatim.

use advm_asm::{assemble, assemble_str, Image, SourceSet};
use advm_isa::{decode, BitSrc, DataReg, Insn};

/// Decodes the words of the first segment.
fn decode_all(program: &advm_asm::Program) -> Vec<Insn> {
    let seg = &program.segments()[0];
    seg.bytes()
        .chunks_exact(4)
        .map(|c| decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])).expect("valid word"))
        .collect()
}

#[test]
fn figure6_test1_assembles_verbatim() {
    // The paper's Figure 6, test 1 — code and globals exactly as printed
    // (modulo our 32-entry include file being trimmed to what the listing
    // shows).
    let sources = SourceSet::new()
        .with(
            "Globals.inc",
            "\
;; Globals.inc
PAGE_FIELD_SIZE .EQU 5
PAGE_FIELD_START_POSITION .EQU 0
TEST1_TARGET_PAGE .EQU 8
TEST2_TARGET_PAGE .EQU 7
",
        )
        .with(
            "test1.asm",
            "\
;; Code for test 1
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    MOVI d14, #0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    HALT #0
",
        );
    let program = assemble("test1.asm", &sources).unwrap();
    let insns = decode_all(&program);
    assert_eq!(
        insns[1],
        Insn::Insert {
            rd: DataReg::D14,
            ra: DataReg::D14,
            src: BitSrc::Imm(8),
            pos: 0,
            width: 5,
        }
    );
}

#[test]
fn figure6_spec_change_absorbed_by_globals_only() {
    // Change PAGE_FIELD_START_POSITION from 0 to 1 in Globals.inc — the
    // test source is untouched, yet the encoded INSERT moves.
    let test = "\
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    MOVI d14, #0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    HALT #0
";
    let globals_a =
        "PAGE_FIELD_SIZE .EQU 5\nPAGE_FIELD_START_POSITION .EQU 0\nTEST1_TARGET_PAGE .EQU 8\n";
    let globals_b =
        "PAGE_FIELD_SIZE .EQU 6\nPAGE_FIELD_START_POSITION .EQU 1\nTEST1_TARGET_PAGE .EQU 8\n";

    let prog_a = assemble(
        "t.asm",
        &SourceSet::new()
            .with("t.asm", test)
            .with("Globals.inc", globals_a),
    )
    .unwrap();
    let prog_b = assemble(
        "t.asm",
        &SourceSet::new()
            .with("t.asm", test)
            .with("Globals.inc", globals_b),
    )
    .unwrap();

    let insert_a = decode_all(&prog_a)[1];
    let insert_b = decode_all(&prog_b)[1];
    assert_eq!(
        insert_a,
        Insn::Insert {
            rd: DataReg::D14,
            ra: DataReg::D14,
            src: BitSrc::Imm(8),
            pos: 0,
            width: 5
        }
    );
    assert_eq!(
        insert_b,
        Insn::Insert {
            rd: DataReg::D14,
            ra: DataReg::D14,
            src: BitSrc::Imm(8),
            pos: 1,
            width: 6
        }
    );
}

#[test]
fn figure7_wrapped_call_chain_assembles() {
    // Figure 7: test calls Base_Init_Register, which wraps
    // ES_Init_Register. `CallAddr` is a .DEFINE alias for a12.
    let sources = SourceSet::new()
        .with(
            "Globals.inc",
            ".DEFINE CallAddr a12\nES_INIT_REGISTER .EQU 0x30000\n",
        )
        .with(
            "Base_Functions.asm",
            "\
;; Base_Functions.asm
Base_Init_Register:
    LOAD CallAddr, ES_INIT_REGISTER
    CALL CallAddr
    RETURN
",
        )
        .with(
            "test1.asm",
            "\
;; Code for test 1
.INCLUDE Globals.inc
_main:
    LOAD CallAddr, Base_Init_Register
    CALL CallAddr
    RETURN
.INCLUDE Base_Functions.asm
",
        );
    let program = assemble("test1.asm", &sources).unwrap();
    let base_addr = program.label("Base_Init_Register").unwrap();
    let insns = decode_all(&program);
    // _main: LEA a12, Base_Init_Register ; CALL a12 ; RETURN
    assert_eq!(
        insns[0],
        Insn::Lea {
            ad: advm_isa::AddrReg::A12,
            addr: base_addr
        }
    );
    assert_eq!(
        insns[1],
        Insn::CallR {
            ab: advm_isa::AddrReg::A12
        }
    );
    assert_eq!(insns[2], Insn::Ret);
    // Base_Init_Register: LEA a12, 0x30000 ; CALL a12 ; RETURN
    assert_eq!(
        insns[3],
        Insn::Lea {
            ad: advm_isa::AddrReg::A12,
            addr: 0x30000
        }
    );
}

#[test]
fn forward_references_resolve() {
    let program = assemble_str(
        "\
_main:
    JMP done
    NOP
done:
    HALT #0
",
    )
    .unwrap();
    let done = program.label("done").unwrap();
    assert_eq!(done, 0x100 + 8);
    assert_eq!(decode_all(&program)[0], Insn::Jmp { target: done });
}

#[test]
fn load_immediate_emits_two_words() {
    let program = assemble_str("LOAD d1, #0xDEADBEEF\n").unwrap();
    let insns = decode_all(&program);
    assert_eq!(
        insns[0],
        Insn::MovI {
            rd: DataReg::D1,
            imm: 0xBEEF
        }
    );
    assert_eq!(
        insns[1],
        Insn::MovHi {
            rd: DataReg::D1,
            imm: 0xDEAD
        }
    );
}

#[test]
fn load_store_addressing_forms() {
    let program = assemble_str(
        "\
LOAD d1, [a2]
LOAD d1, [a2 + 8]
LOAD d1, [a2 - 4]
LOAD d1, [0xE0100]
STORE [a3], d2
STORE [0xE0100], d2
",
    )
    .unwrap();
    use advm_isa::AddrReg::{A2, A3};
    let insns = decode_all(&program);
    assert_eq!(
        insns[0],
        Insn::Ld {
            rd: DataReg::D1,
            ab: A2,
            off: 0
        }
    );
    assert_eq!(
        insns[1],
        Insn::Ld {
            rd: DataReg::D1,
            ab: A2,
            off: 8
        }
    );
    assert_eq!(
        insns[2],
        Insn::Ld {
            rd: DataReg::D1,
            ab: A2,
            off: -4
        }
    );
    assert_eq!(
        insns[3],
        Insn::LdAbs {
            rd: DataReg::D1,
            addr: 0xE0100
        }
    );
    assert_eq!(
        insns[4],
        Insn::St {
            ab: A3,
            off: 0,
            rs: DataReg::D2
        }
    );
    assert_eq!(
        insns[5],
        Insn::StAbs {
            addr: 0xE0100,
            rs: DataReg::D2
        }
    );
}

#[test]
fn alu_immediate_conveniences() {
    let program = assemble_str(
        "\
ADD d1, d2, #5
SUB d1, d2, #5
AND d1, d2, #0xFF
SHL d1, d2, #3
CMP d1, #9
",
    )
    .unwrap();
    let insns = decode_all(&program);
    assert_eq!(
        insns[0],
        Insn::AddI {
            rd: DataReg::D1,
            ra: DataReg::D2,
            imm: 5
        }
    );
    assert_eq!(
        insns[1],
        Insn::AddI {
            rd: DataReg::D1,
            ra: DataReg::D2,
            imm: -5
        }
    );
    assert_eq!(
        insns[2],
        Insn::AndI {
            rd: DataReg::D1,
            ra: DataReg::D2,
            imm: 0xFF
        }
    );
    assert_eq!(
        insns[3],
        Insn::ShlI {
            rd: DataReg::D1,
            ra: DataReg::D2,
            sh: 3
        }
    );
    assert_eq!(
        insns[4],
        Insn::CmpI {
            ra: DataReg::D1,
            imm: 9
        }
    );
}

#[test]
fn org_word_byte_align_layout() {
    let program = assemble_str(
        "\
.ORG 0x0
.WORD handler, 0xCAFEBABE
.ORG 0x200
.BYTE 1, 2, 3
.ALIGN 4
handler:
    HALT #0
",
    )
    .unwrap();
    let mut image = Image::new();
    image.load_program(&program).unwrap();
    let handler = program.label("handler").unwrap();
    assert_eq!(handler, 0x204, ".BYTE x3 then .ALIGN 4");
    assert_eq!(image.word(0x0), handler);
    assert_eq!(image.word(0x4), 0xCAFE_BABE);
    assert_eq!(image.byte(0x200), 1);
    assert_eq!(image.byte(0x202), 3);
}

#[test]
fn conditional_assembly_selects_platform_code() {
    let common = "\
.INCLUDE Globals.inc
_main:
.IF VERBOSE
    MOVI d0, #1
.ELSE
    MOVI d0, #2
.ENDIF
    HALT #0
";
    let verbose = assemble(
        "t.asm",
        &SourceSet::new()
            .with("t.asm", common)
            .with("Globals.inc", "VERBOSE .EQU 1\n"),
    )
    .unwrap();
    let quiet = assemble(
        "t.asm",
        &SourceSet::new()
            .with("t.asm", common)
            .with("Globals.inc", "VERBOSE .EQU 0\n"),
    )
    .unwrap();
    assert_eq!(
        decode_all(&verbose)[0],
        Insn::MovI {
            rd: DataReg::D0,
            imm: 1
        }
    );
    assert_eq!(
        decode_all(&quiet)[0],
        Insn::MovI {
            rd: DataReg::D0,
            imm: 2
        }
    );
}

/// Bytes the program emits, over all its segments.
fn emitted(program: &advm_asm::Program) -> usize {
    program.segments().iter().map(|s| s.bytes().len()).sum()
}

#[test]
fn macro_bodies_take_conditionals() {
    // A guard rail whose branch is off emits nothing and fires nothing.
    let guard = assemble_str(".MACRO GUARD\n.IF 0\n.ERROR \"x\"\n.ENDIF\n.ENDM\nGUARD\n").unwrap();
    assert_eq!(emitted(&guard), 0);
    let pad = assemble_str(".MACRO PAD\n.IF 1\n    NOP\n.ENDIF\n.ENDM\nPAD\n").unwrap();
    assert_eq!(decode_all(&pad), [Insn::Nop]);

    // A body's `.IF` sees the call's argument, so each call picks its
    // own branch.
    let pick = assemble_str(
        "\
.MACRO PICK n
.IF n == 1
    NOP
.ELSE
    MOVI d0, #n
.ENDIF
.ENDM
    PICK 1
    PICK 2
    PICK 1
",
    )
    .unwrap();
    let two = Insn::MovI {
        rd: DataReg::D0,
        imm: 2,
    };
    assert_eq!(decode_all(&pick), [Insn::Nop, two, Insn::Nop]);
}

#[test]
fn a_macro_body_closes_its_own_conditionals() {
    // An `.IF` the body leaves open is named where it opened.
    let err = assemble_str("NOP\n.MACRO OPEN\n.IF 1\n    NOP\n.ENDM\n    OPEN\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 3, "{err}");
    assert!(err.message().contains("macro `OPEN`"), "{err}");
    // A body's `.ENDIF` cannot close the conditional around its call.
    let err = assemble_str(".MACRO SHUT\n.ENDIF\n.ENDM\n.IF 1\n    SHUT\n.ENDIF\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 2, "{err}");
    assert!(
        err.message().contains(".ENDIF without matching .IF"),
        "{err}"
    );
}

#[test]
fn duplicate_label_rejected() {
    let err = assemble_str("x:\nNOP\nx:\nNOP\n").unwrap_err();
    assert!(err.to_string().contains("duplicate label"));
}

#[test]
fn label_equ_collision_rejected() {
    let err = assemble_str("X .EQU 1\nX:\nNOP\n").unwrap_err();
    assert!(err.to_string().contains("collides"));
}

#[test]
fn unknown_mnemonic_located() {
    let err = assemble_str("NOP\nFROB d1\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 2);
    assert!(err.to_string().contains("FROB"));
}

#[test]
fn out_of_range_immediates_rejected() {
    assert!(assemble_str("MOVI d0, #0x10000\n").is_err());
    assert!(assemble_str("ADDI d0, d0, #40000\n").is_err());
    assert!(assemble_str("INSERT d0, d0, #200, 0, 8\n").is_err());
    assert!(assemble_str("INSERT d0, d0, #1, 30, 5\n").is_err());
    assert!(assemble_str("LEA a0, 0x100000\n").is_err());
}

#[test]
fn undefined_symbol_reported() {
    let err = assemble_str("JMP nowhere\n").unwrap_err();
    assert!(err.to_string().contains("undefined symbol `nowhere`"));
}

#[test]
fn listing_contains_addresses_and_words() {
    let program = assemble_str("_main:\n    NOP\n    HALT #3\n").unwrap();
    let listing = program.render_listing();
    assert!(listing.contains("00100:"), "{listing}");
    assert!(listing.contains("HALT"), "{listing}");
}

#[test]
fn misaligned_jump_target_rejected() {
    let err = assemble_str("JMP 0x102\n").unwrap_err();
    assert!(err.to_string().contains("aligned"), "{err}");
}

#[test]
fn registers_win_over_labels_in_operands() {
    // `d1` parses as a register even though a label of that name exists;
    // register names are reserved.
    let program = assemble_str("MOV d1, d2\nHALT #0\n").unwrap();
    assert_eq!(
        decode_all(&program)[0],
        Insn::Mov {
            rd: DataReg::D1,
            ra: DataReg::D2
        }
    );
}

#[test]
fn push_pop_variants() {
    let program = assemble_str("PUSH d3\nPOP d3\nPUSH a4\nPOP a4\n").unwrap();
    use advm_isa::AddrReg::A4;
    let insns = decode_all(&program);
    assert_eq!(insns[0], Insn::Push { rs: DataReg::D3 });
    assert_eq!(insns[1], Insn::Pop { rd: DataReg::D3 });
    assert_eq!(insns[2], Insn::PushA { ab: A4 });
    assert_eq!(insns[3], Insn::PopA { ad: A4 });
}

#[test]
fn extract_and_conditional_jumps() {
    let program = assemble_str(
        "\
_main:
    EXTRACT d1, d2, 4, 5
    CMP d1, #8
    JEQ ok
    JNE bad
ok:
    HALT #0
bad:
    HALT #1
",
    )
    .unwrap();
    let insns = decode_all(&program);
    assert_eq!(
        insns[0],
        Insn::Extract {
            rd: DataReg::D1,
            ra: DataReg::D2,
            pos: 4,
            width: 5
        }
    );
    let ok = program.label("ok").unwrap();
    let bad = program.label("bad").unwrap();
    assert_eq!(
        insns[2],
        Insn::J {
            cond: advm_isa::Cond::Eq,
            target: ok
        }
    );
    assert_eq!(
        insns[3],
        Insn::J {
            cond: advm_isa::Cond::Ne,
            target: bad
        }
    );
}

#[test]
fn parsed_unit_split_matches_assemble() {
    use advm_asm::ParsedUnit;
    let sources = SourceSet::new()
        .with("Globals.inc", "TARGET .EQU 8\n")
        .with(
            "test.asm",
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #TARGET
    CALL helper
    RETURN
helper:
    MOVI d2, #3
    RETURN
",
        );
    let whole = assemble("test.asm", &sources).unwrap();
    let split = ParsedUnit::parse("test.asm", &sources)
        .unwrap()
        .encode()
        .unwrap();
    assert_eq!(whole, split, "parse+encode must equal assemble exactly");

    // The lean mode drops only the listing: segments, labels and
    // constants are identical, so the linked image is too.
    let lean = ParsedUnit::parse_lean("test.asm", &sources)
        .unwrap()
        .encode()
        .unwrap();
    assert_eq!(lean.segments(), whole.segments());
    assert_eq!(lean.labels(), whole.labels());
    assert_eq!(lean.equ("TARGET"), whole.equ("TARGET"));
    assert!(lean.listing().is_empty());
    assert!(!whole.listing().is_empty());

    // Diagnostics are identical across the split and the lean mode.
    let bad = SourceSet::new().with("t.asm", "_main:\n    FROB d1\n");
    let direct = assemble("t.asm", &bad).unwrap_err();
    let lean_err = ParsedUnit::parse_lean("t.asm", &bad)
        .unwrap()
        .encode()
        .unwrap_err();
    assert_eq!(direct.to_string(), lean_err.to_string());
}

#[test]
fn align_larger_than_the_address_space_is_rejected() {
    // 2^32 passes the power-of-two check; as a u32 it is 0.
    let err = assemble_str("NOP\n.ALIGN 0x100000000\nNOP\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 2);
    assert!(err.to_string().contains("exceeds"), "{err}");
    // The whole address space is the largest alignment.
    let program = assemble_str(".ORG 0\nNOP\n.ALIGN 0x100000\n").unwrap();
    assert_eq!(program.size_bytes(), 0x10_0000);
}

#[test]
fn reservations_past_the_address_space_are_rejected() {
    // Repeated from the reset PC, the location counter used to wrap.
    let err = assemble_str(&".SPACE 0x100000\n".repeat(4096)).unwrap_err();
    assert_eq!(err.loc().unwrap().line, 1);
    assert!(err.to_string().contains("past"), "{err}");
}

#[test]
fn code_past_the_address_space_is_rejected() {
    assert!(assemble_str(".ORG 0xFFFFC\nNOP\n").is_ok());
    let err = assemble_str(".ORG 0xFFFFC\nNOP\nNOP\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 3);
    assert!(err.to_string().contains("past"), "{err}");
    let err = assemble_str(".ORG 0xFFFFC\nLOAD d1, #1\n").unwrap_err();
    assert_eq!(err.loc().unwrap().line, 2);
}

#[test]
fn a_unit_emits_at_most_the_address_space() {
    // Each `.ORG 0` reserves the whole address space again.
    let once = ".ORG 0\n.SPACE 0x100000\n";
    assert_eq!(assemble_str(once).unwrap().size_bytes(), 0x10_0000);
    let err = assemble_str(&once.repeat(3)).unwrap_err();
    assert_eq!(err.loc().unwrap().line, 4);
    assert!(err.to_string().contains("more than"), "{err}");
}

/// Expression nesting past the parser's cap is a located error, never a
/// stack overflow: parentheses, unary operators and a binary chain, each
/// 100,000 deep, in an `.EQU`, an `.IF` condition and an instruction
/// operand, assembled on a thread with the default stack, as campaign
/// and daemon workers assemble.
#[test]
fn deep_expressions_are_located_errors_on_a_default_stack() {
    const DEPTH: usize = 100_000;
    let shapes = [
        format!("{}1{}", "(".repeat(DEPTH), ")".repeat(DEPTH)),
        format!("{}1", "-".repeat(DEPTH)),
        format!("1{}", "+1".repeat(DEPTH)),
    ];
    for shape in &shapes {
        for (line, unit) in [
            (1, format!("X .EQU {shape}\n_main:\n    HALT #0\n")),
            (1, format!(".IF {shape}\n.ENDIF\n_main:\n    HALT #0\n")),
            (2, format!("_main:\n    MOVI d1, #{shape}\n    HALT #0\n")),
        ] {
            let error = std::thread::spawn(move || assemble_str(&unit))
                .join()
                .expect("assembling does not panic")
                .expect_err("nesting past the cap is an error");
            assert_eq!(error.loc().map(|loc| loc.line), Some(line), "{error}");
            assert_eq!(error.message(), "expression nests deeper than 256 levels");
        }
    }
}
