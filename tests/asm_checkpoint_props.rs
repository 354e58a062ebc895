//! The assembler's frame checkpoint under hostile input: for real unit
//! sources with single-byte mutations, and for units made of arbitrary
//! lines from a token alphabet, neither whole-unit assembly nor
//! checkpoint/resume panics, and both give the same result (equal
//! segments, labels and constants, or equal error text).
//!
//! The checkpoint is always built from a set whose `test.asm` differs
//! from the one it is resumed with, as a campaign builds it from the
//! first job of a frame and resumes it for every other.

use std::sync::OnceLock;

use advm::build::{unit_sources, UNIT_FILE};
use advm::env::{BASE_FUNCTIONS_FILE, GLOBALS_FILE, TEST_SOURCE_FILE};
use advm::presets::{default_config, standard_system};
use advm_asm::{Checkpoint, ParsedUnit, Program, SourceSet};
use proptest::prelude::*;

/// Whole-unit lean assembly of `entry`.
fn whole(entry: &str, sources: &SourceSet) -> Result<Program, String> {
    ParsedUnit::parse_lean(entry, sources)
        .and_then(|unit| unit.encode())
        .map_err(|e| e.to_string())
}

/// A checkpoint built from `frame` at its `.INCLUDE test.asm`, resumed
/// with `sources`.
fn resumed(entry: &str, frame: &SourceSet, sources: &SourceSet) -> Result<Program, String> {
    Checkpoint::new(entry, frame, TEST_SOURCE_FILE)
        .and_then(|checkpoint| checkpoint.resume(sources))
        .and_then(|unit| unit.encode())
        .map_err(|e| e.to_string())
}

/// Asserts both paths agree on `sources`, the checkpoint built from
/// `frame`, and returns the whole-unit result.
fn agree(entry: &str, frame: &SourceSet, sources: &SourceSet) -> Result<Program, String> {
    let expected = whole(entry, sources);
    assert_eq!(resumed(entry, frame, sources), expected, "{sources:?}");
    expected
}

/// Real units: the standard system's cells and a few fuzz programs.
fn real_units() -> &'static [SourceSet] {
    static UNITS: OnceLock<Vec<SourceSet>> = OnceLock::new();
    UNITS.get_or_init(|| {
        let mut units = Vec::new();
        for env in standard_system(default_config()) {
            for cell in env.cells().iter().take(2) {
                units.push(unit_sources(&env, cell.id()).unwrap());
            }
        }
        for program in advm_fuzz::ProgramSource::new(3).generate(4) {
            let env = advm::fuzz::program_env(&program);
            units.push(unit_sources(&env, env.cells()[0].id()).unwrap());
        }
        units
    })
}

/// `text` with one byte replaced, deleted or inserted, read lossily.
fn mutate(text: &str, at: u64, op: u8, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = at as usize % (bytes.len() + 1);
    match op {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What every alphabet unit starts with: the constants, alias, macro
/// and label the alphabet's lines refer to.
const PRELUDE: &str = "\
A .EQU 1
B .EQU A + 1
N .EQU 0x40
.DEFINE R d1
.MACRO M x
LOCAL_l:
    ADDI d0, d0, x
    JNE LOCAL_l
.ENDM
_main:
";

/// Lines of the token alphabet that usually assemble.
const LINES: &[&str] = &[
    "NOP",
    "HALT #0",
    "RETURN",
    "MOV R, d2",
    "M #1",
    "lab: M #-3",
    "LOAD d1, #0x12345678",
    "LOAD d1, [a2 + 4]",
    "LOAD d3, #A",
    "CALL _main",
    "JEQ _main",
    ".WORD 1, 2",
    ".WORD _main",
    ".BYTE 255",
    ".SPACE 16",
    ".ALIGN 4",
    "",
    "; comment",
];

/// Lines of the token alphabet that are hostile or malformed: huge,
/// negative and past-the-address-space operands, redefinitions,
/// unbalanced conditionals and macros, `.INCLUDE`s of the unit's own
/// files, and text that does not lex or parse.
const HOSTILE: &[&str] = &[
    "A .EQU 0x100000000",
    "C .EQU 0xFFFFFFFFFFFFFFFFF",
    "W .EQU N * N << 63 >> 1",
    "Z .EQU 1 / 0",
    ".DEFINE A a12",
    ".DEFINE",
    ".MACRO M x",
    ".MACRO P x, y",
    ".MACRO P x y",
    ".ENDM",
    "P 1, 2",
    "M",
    ".IF 1",
    ".IF U",
    ".ELSE",
    ".ENDIF",
    ".ORG 0",
    ".ORG 0xFFFFC",
    ".ORG 0x100000",
    ".SPACE 0x100000",
    ".SPACE -1",
    ".ALIGN 0x100000000",
    ".ALIGN 0x100000",
    ".ALIGN 3",
    ".BYTE 256",
    ".ERROR \"boom\"",
    ".INCLUDE lib.inc",
    ".INCLUDE test.asm",
    ".INCLUDE unit.asm",
    ".INCLUDE missing.inc",
    ".INCLUDE",
    "_main:",
    "LOCAL_l:",
    "A:",
    "MOVI d1, #0x10000",
    "FROB d1",
    "NOP [",
    "(((",
    "@@@",
    "#",
];

/// Operands and operators of generated expressions.
const OPERANDS: &[&str] = &[
    "A", "B", "N", "U", "_main", "0", "1", "-1", "0x100000", "0xFFFFF", "(A + 1)", "~0",
];
const OPERATORS: &[&str] = &[
    "+", "-", "*", "/", "%", "<<", ">>", "==", "!=", "&", "|", "^", "",
];

fn usual() -> impl Strategy<Value = String> {
    (0..LINES.len()).prop_map(|i| LINES[i].to_owned())
}

/// A directive or instruction whose operand is a generated expression.
fn expression_line() -> impl Strategy<Value = String> {
    let heads = [
        ".EQU",
        ".IF",
        ".ORG",
        ".SPACE",
        ".ALIGN",
        "LOAD d1, #",
        ".WORD",
    ];
    let term = (0..OPERATORS.len(), 0..OPERANDS.len());
    (
        0..heads.len(),
        0u8..10,
        0..OPERANDS.len(),
        proptest::collection::vec(term, 0..3),
    )
        .prop_map(move |(head, name, first, terms)| {
            let mut expr = OPERANDS[first].to_owned();
            for (op, operand) in terms {
                expr = format!("{expr} {} {}", OPERATORS[op], OPERANDS[operand]);
            }
            match heads[head] {
                ".EQU" => format!("E{name} .EQU {expr}"),
                ".IF" => format!(".IF {expr}\nNOP\n.ENDIF"),
                head => format!("{head} {expr}"),
            }
        })
}

/// A balanced conditional block of usual lines.
fn conditional_block() -> impl Strategy<Value = String> {
    let conditions = ["0", "1", "A", "A == 2", "N"];
    (
        0..conditions.len(),
        proptest::collection::vec(usual(), 0..3),
        any::<bool>(),
        proptest::collection::vec(usual(), 0..3),
    )
        .prop_map(move |(condition, then, has_else, otherwise)| {
            let mut block = format!(".IF {}\n{}", conditions[condition], then.join("\n"));
            if has_else {
                block = format!("{block}\n.ELSE\n{}", otherwise.join("\n"));
            }
            format!("{block}\n.ENDIF")
        })
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        usual(),
        usual(),
        usual(),
        usual(),
        usual(),
        (0u16..1000).prop_map(|n| format!("L{n}:")),
        conditional_block(),
        (0..HOSTILE.len()).prop_map(|i| HOSTILE[i].to_owned()),
        expression_line(),
    ]
}

fn lines(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(line(), 0..max).prop_map(|lines| {
        lines
            .iter()
            .map(|line| format!("{line}\n"))
            .collect::<String>()
    })
}

/// A unit of arbitrary lines: `unit.asm` runs the prelude and `head`,
/// includes `lib.inc` and `test.asm`, then runs `tail`.
fn alphabet_unit(head: &str, lib: &str, test: &str, tail: &str) -> SourceSet {
    SourceSet::new()
        .with(
            "unit.asm",
            format!("{PRELUDE}{head}.INCLUDE lib.inc\n.INCLUDE test.asm\n{tail}"),
        )
        .with("lib.inc", lib)
        .with(TEST_SOURCE_FILE, test)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Real units with one byte of `test.asm` or of the base-function
    /// library replaced, deleted or inserted.
    #[test]
    fn mutated_real_units_agree(
        unit in 0usize..64,
        in_library in any::<bool>(),
        at in any::<u64>(),
        op in 0u8..3,
        byte in any::<u8>(),
    ) {
        let units = real_units();
        let original = &units[unit % units.len()];
        let other = &units[(unit + 1) % units.len()];
        let file = if in_library { BASE_FUNCTIONS_FILE } else { TEST_SOURCE_FILE };
        let text = mutate(original.get(file).unwrap(), at, op, byte);
        let sources = original.clone().with(file, text);
        // The checkpoint comes from a unit with the same frame and
        // another test.
        let frame = sources
            .clone()
            .with(TEST_SOURCE_FILE, other.get(TEST_SOURCE_FILE).unwrap());
        let _ = agree(UNIT_FILE, &frame, &sources);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Units made of arbitrary alphabet lines.
    #[test]
    fn alphabet_units_agree(
        head in lines(4),
        lib in lines(10),
        test in lines(10),
        other_test in lines(4),
        tail in lines(3),
    ) {
        let sources = alphabet_unit(&head, &lib, &test, &tail);
        let frame = alphabet_unit(&head, &lib, &other_test, &tail);
        let _ = agree("unit.asm", &frame, &sources);
    }
}

#[test]
fn every_real_unit_agrees_and_assembles() {
    let units = real_units();
    for (i, sources) in units.iter().enumerate() {
        let other = &units[(i + 1) % units.len()];
        let frame = sources
            .clone()
            .with(TEST_SOURCE_FILE, other.get(TEST_SOURCE_FILE).unwrap());
        assert!(agree(UNIT_FILE, &frame, sources).is_ok());
    }
}

/// A real unit whose `test.asm` is `test`.
fn real_unit_with_test(test: &str) -> SourceSet {
    real_units()[0].clone().with(TEST_SOURCE_FILE, test)
}

#[test]
fn a_local_macro_expanded_in_the_frame_and_again_in_the_test_stays_unique() {
    let frame = |test: &str| {
        SourceSet::new()
            .with(
                "unit.asm",
                "\
.MACRO SPIN n
LOCAL_loop:
    ADDI d0, d0, #-1
    JNE LOCAL_loop
.ENDM
_start:
    SPIN 1
.INCLUDE test.asm
",
            )
            .with(TEST_SOURCE_FILE, test)
    };
    let sources = frame("_main:\n    SPIN 2\n    SPIN 3\n    HALT #0\n");
    let program = agree("unit.asm", &frame("NOP\n"), &sources).unwrap();
    assert_eq!(program.label("LOCAL_loop__1"), Some(0x100));
    assert_eq!(program.label("LOCAL_loop__2"), Some(0x108));
    assert_eq!(program.label("LOCAL_loop__3"), Some(0x110));

    // The library's own `LOCAL_` macros, expanded before the test, and a
    // test that expands one of them again.
    let library = real_units()[0].get(BASE_FUNCTIONS_FILE).unwrap();
    assert!(
        library.contains("LOCAL_"),
        "the library has no LOCAL_ macro"
    );
    let test = ".INCLUDE Globals.inc\n_main:\n    LOAD d1, #7\n    CHECK_EQ d1, #7, 10\n    CHECK_EQ d1, #7, 11\n    CALL Base_Report_Pass\n    RETURN\n";
    assert!(agree(UNIT_FILE, &real_units()[1], &real_unit_with_test(test)).is_ok());
}

#[test]
fn a_conditional_left_open_by_the_frame_spans_the_test() {
    let unit = |entry: &str, test: &str| {
        SourceSet::new()
            .with("unit.asm", entry)
            .with(TEST_SOURCE_FILE, test)
    };
    let open_active = ".IF 1\n.INCLUDE test.asm\n.ENDIF\nHALT #1\n";
    let open_inactive = ".IF 0\n.INCLUDE test.asm\n.ENDIF\nHALT #1\n";
    // The test itself closes what the frame opened.
    let closed_by_test = ".IF 1\n.INCLUDE test.asm\nHALT #1\n";
    for entry in [open_active, open_inactive, closed_by_test] {
        for test in [
            "NOP\n",
            "NOP\n.ENDIF\n",
            ".ELSE\nNOP\n",
            "NOP\n.ENDIF\n.ENDIF\n",
        ] {
            agree("unit.asm", &unit(entry, "HALT #2\n"), &unit(entry, test)).ok();
        }
    }
    let program = agree(
        "unit.asm",
        &unit(open_active, ""),
        &unit(open_active, "NOP\n"),
    )
    .unwrap();
    assert_eq!(program.size_bytes(), 8);
    let err = agree(
        "unit.asm",
        &unit(closed_by_test, ""),
        &unit(closed_by_test, "NOP\n"),
    )
    .unwrap_err();
    assert!(err.contains("unterminated conditional"), "{err}");
    assert!(agree(
        "unit.asm",
        &unit(closed_by_test, ""),
        &unit(closed_by_test, ".ENDIF\n")
    )
    .is_ok());
}

#[test]
fn a_test_that_includes_globals_again_skips_it() {
    let test = ".INCLUDE Globals.inc\n.INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n";
    let sources = real_unit_with_test(test);
    assert!(sources.get(GLOBALS_FILE).is_some());
    assert!(agree(UNIT_FILE, &real_units()[1], &sources).is_ok());
}

#[test]
fn a_test_preprocess_error_comes_before_a_frame_parse_error() {
    let unit = |test: &str| {
        SourceSet::new()
            .with("unit.asm", ".INCLUDE lib.inc\n.INCLUDE test.asm\n")
            .with("lib.inc", "NOP\n    NOP [\n")
            .with(TEST_SOURCE_FILE, test)
    };
    let frame = unit("HALT #0\n");
    // Whole-unit assembly preprocesses everything before it parses.
    let err = agree("unit.asm", &frame, &unit("NOP\n.ERROR \"test broke\"\n")).unwrap_err();
    assert_eq!(err, "test.asm:2: .ERROR: test broke");
    let err = agree("unit.asm", &frame, &unit("NOP\n")).unwrap_err();
    assert_eq!(err, "lib.inc:2: unterminated memory operand");
    // A frame preprocess error is every unit's error.
    let broken = |test: &str| unit(test).with("lib.inc", ".ERROR \"frame broke\"\n");
    for test in ["NOP\n", ".ERROR \"test broke\"\n"] {
        let err = agree("unit.asm", &broken("HALT #0\n"), &broken(test)).unwrap_err();
        assert_eq!(err, "lib.inc:1: .ERROR: frame broke");
    }
}
