//! The assembler front end on arbitrary input: the lexer, the
//! expression parser and evaluator, and whole-unit assembly each return
//! a value or an [`AsmError`] for any text, and never panic or overflow
//! the stack. The text is arbitrary chars (control characters and
//! non-ASCII included), lossily decoded random bytes, assembler pieces,
//! expressions nested up to 100,000 deep in each shape the parser
//! recurses on, and line-structured units of two or three files built
//! from the preprocessor's directives.

use advm_asm::{assemble, assemble_str, eval_expr, parse_expr, tokenize, AsmError, Loc, SourceSet};
use proptest::prelude::*;

/// Assembler pieces, split on spaces: directives, mnemonics, registers,
/// operators, literals at and past the edges of `i64`, and (after `|`)
/// punctuation, whitespace, control and non-ASCII characters.
const PIECES: &str = ".EQU .IF .ELSE .ENDIF .IFDEF .DEFINE .MACRO .ENDM .INCLUDE .ORG .WORD \
    .SPACE .ALIGN _main: X HALT MOVI LOAD CALL d1 a12 [ ] ( ) - ~ + * / % << >> & ^ == != < \
    >= 0x 0b 0xFFFFFFFFFFFFFFFF 9223372036854775808 18446744073709551616 |#,;:'\"\\ \t\r\n\
    \u{0}\u{7f}é\u{10FFFF}";

fn arbitrary_text() -> impl Strategy<Value = String> {
    let (words, chars) = PIECES.split_once('|').expect("two halves");
    let pieces: Vec<String> = (words.split_whitespace().map(str::to_owned))
        .chain(chars.chars().map(String::from))
        .collect();
    prop_oneof![
        proptest::collection::vec(any::<u32>(), 0..64).prop_map(|codes| codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER))
            .collect()),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        proptest::collection::vec(0..pieces.len(), 0..48)
            .prop_map(move |picked| picked.into_iter().map(|i| pieces[i].as_str()).collect()),
    ]
}

/// Lexes, parses and evaluates every line of `text`, then assembles it
/// whole. Any step may fail, and a step given a location must report it.
fn front_end(text: &str) {
    let loc = Loc::new("<input>", 1);
    let located = |e: AsmError| assert!(e.loc().is_some(), "unlocated: {e}");
    for line in text.lines() {
        let Ok(tokens) = tokenize(line, &loc).map_err(located) else {
            continue;
        };
        if let Ok(expr) = parse_expr(&tokens, &loc).map_err(located) {
            let _ = eval_expr(&expr, &loc, &|_| Some(1)).map_err(located);
            let _ = eval_expr(&expr, &loc, &|_| None).map_err(located);
        }
    }
    let _ = assemble_str(text);
}

proptest! {
    #[test]
    fn arbitrary_text_gives_a_value_or_an_error(text in arbitrary_text()) {
        front_end(&text);
    }
}

proptest! {
    // Each case lexes and assembles up to ~300 KB of source.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parentheses, unary operators, a binary chain, binary right
    /// operands and unclosed parentheses, on either side of the cap, as
    /// an expression, an `.EQU`, an `.IF` condition and an operand.
    #[test]
    fn deep_expressions_give_a_value_or_an_error(
        shape in 0u8..5,
        n in prop_oneof![0usize..=300, 0usize..=100_000],
        place in 0u8..4,
    ) {
        let expr = match shape {
            0 => format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            1 => format!("{}1", "-~".repeat(n / 2)),
            2 => format!("1{}", "+1".repeat(n)),
            3 => format!("{}1{}", "1*(".repeat(n), ")".repeat(n)),
            _ => format!("{}1", "(".repeat(n)),
        };
        front_end(&match place {
            0 => expr,
            1 => format!("X .EQU {expr}\n"),
            2 => format!(".IF {expr}\n.ENDIF\n"),
            _ => format!("_main:\n    MOVI d1, #{expr}\n    HALT #0\n"),
        });
    }
}

/// Names the directive units share, so that definitions and references
/// collide: symbols (one a register, one a `LOCAL_` label), macros and
/// their parameters.
const SYMBOLS: [&str; 4] = ["A", "B", "LOCAL_X", "d1"];
const MACROS: [&str; 2] = ["M0", "M1"];
const PARAMS: [&str; 2] = ["p", "q"];
/// A unit's files, its entry first.
const FILES: [&str; 3] = ["main.asm", "a.inc", "b.inc"];
/// What an `.INCLUDE` names: mostly the other files, sometimes the entry
/// (always a cycle) or a file the unit lacks.
const INCLUDES: [&str; 6] = [
    "a.inc",
    "b.inc",
    "a.inc",
    "b.inc",
    "main.asm",
    "missing.inc",
];
/// `.EQU` values, among them an invalid `.ALIGN` and an `.ORG` and a
/// `.SPACE` outside the address space.
const VALUES: [&str; 6] = ["0", "1", "3", "-1", "0x100", "0xFFFFFFFF"];
/// Statements a unit or a macro body may hold besides directives.
const STATEMENTS: [&str; 11] = [
    "LOCAL_X:",
    "    JNE LOCAL_X",
    "    MOVI d1, #p",
    "    MOVI d1, #A",
    "    CALL q",
    "    NOP",
    "    HALT #0",
    ".WORD A, B",
    ".ORG B",
    ".SPACE A",
    ".ALIGN B",
];

/// Renders one file of a directive unit from `(kind, x, y)` ops. An op
/// opens a block (a conditional, or a macro definition with up to two
/// parameters; a conditional inside a macro body may test a parameter,
/// which each call binds), closes the innermost open block, adds an
/// `.ELSE` to the innermost conditional, or emits one line: an `.EQU`
/// (chained, self-referential, or guarded by `.IFNDEF`), a `.DEFINE`
/// (aliasing a symbol, itself, or nothing), a macro call with zero to
/// three arguments, a statement, an `.ERROR` inside a block, an
/// `.INCLUDE`, or rarely a stray `.ELSE`/`.ENDIF`/`.ENDM`. When `close`
/// is set, the blocks still open at the end are closed, so nested
/// well-formed blocks are common; otherwise they stay open.
fn directive_file(ops: &[(u8, u8, u8)], close: bool) -> String {
    let mut open: Vec<&str> = Vec::new();
    let mut text = String::new();
    for &(kind, x, y) in ops {
        let (x, y) = (usize::from(x), usize::from(y));
        let sym = SYMBOLS[x % SYMBOLS.len()];
        let other = SYMBOLS[y % SYMBOLS.len()];
        let line = match kind % 20 {
            0..=3 => {
                let sym = if open.contains(&".ENDM") && x & 8 != 0 {
                    PARAMS[x % 2]
                } else {
                    sym
                };
                open.push(".ENDIF");
                match y % 10 {
                    0..=2 => format!(".IF {sym} == {}", y % 3),
                    3 | 4 => format!(".IF {}", y % 2),
                    5 | 6 => format!(".IFDEF {sym}"),
                    7 | 8 => format!(".IFNDEF {sym}"),
                    _ => ".IF".to_owned(),
                }
            }
            4..=6 => match open.pop() {
                Some(end) => end.to_owned(),
                None => continue,
            },
            7 if open.last() == Some(&".ENDIF") => ".ELSE".to_owned(),
            7 => continue,
            8 => {
                open.push(".ENDM");
                format!(".MACRO {} {}", MACROS[x % 2], PARAMS[..y % 3].join(", "))
            }
            9 if y % 4 == 0 => [".ELSE", ".ENDIF", ".ENDM"][x % 3].to_owned(),
            9 | 10 => match y % 4 {
                0 => format!("{sym} .EQU {other} + 1"),
                1 => format!("{sym} .EQU {sym}"),
                _ => format!(
                    ".IFNDEF {sym}\n{sym} .EQU {}\n.ENDIF",
                    VALUES[y % VALUES.len()]
                ),
            },
            11 if y % 4 == 0 => format!(".DEFINE {sym}"),
            11 => format!(".DEFINE {sym} {other}"),
            12 => {
                let args: Vec<&str> = ["1", "LOCAL_X", "p"][..y % 4].to_vec();
                let label = if x & 4 == 0 { "" } else { "LOCAL_X: " };
                format!("{label}{} {}", MACROS[x % 2], args.join(", "))
            }
            13..=15 => STATEMENTS[y % STATEMENTS.len()].to_owned(),
            16 if open.is_empty() => continue,
            16 if y % 2 == 0 => format!(".ERROR \"{sym}\""),
            16 => ".ERROR".to_owned(),
            _ if y % 8 == 0 => ".INCLUDE".to_owned(),
            _ => format!(".INCLUDE {}", INCLUDES[x % INCLUDES.len()]),
        };
        text.push_str(&line);
        text.push('\n');
    }
    if close {
        for end in open.into_iter().rev() {
            text.push_str(end);
            text.push('\n');
        }
    }
    text
}

/// Defines `A` and `B` unless they are defined.
const PRELUDE: &str = ".IFNDEF A\nA .EQU 1\n.ENDIF\n.IFNDEF B\nB .EQU 0x100\n.ENDIF\n";

/// A unit of `main.asm` and one or two of the files it may include,
/// each rendered by [`directive_file`]. Three in four files close their
/// blocks, and half the entries start with [`PRELUDE`], so that their
/// lines run on past references to `A` and `B`.
fn directive_unit() -> impl Strategy<Value = SourceSet> {
    let file = || {
        (
            proptest::collection::vec((0u8..20, any::<u8>(), any::<u8>()), 0..24),
            any::<u8>(),
        )
    };
    (file(), file(), file(), any::<bool>(), any::<bool>()).prop_map(
        |(main, a, b, prelude, third)| {
            let render =
                |(ops, close): (Vec<(u8, u8, u8)>, u8)| directive_file(&ops, close % 4 != 0);
            let entry = if prelude { PRELUDE } else { "" };
            let mut sources = SourceSet::new()
                .with(FILES[0], format!("{entry}{}", render(main)))
                .with(FILES[1], render(a));
            if third {
                sources.insert(FILES[2], render(b));
            }
            sources
        },
    )
}

proptest! {
    /// Assembling a directive unit gives a program or an error that
    /// names its file and line, and the same result the second time.
    #[test]
    fn directive_units_give_a_value_or_a_located_error(sources in directive_unit()) {
        let listing: String = sources
            .iter()
            .map(|(name, text)| format!("== {name}\n{text}"))
            .collect();
        let first = assemble(FILES[0], &sources);
        if let Err(e) = &first {
            prop_assert!(e.loc().is_some(), "unlocated: {e}\n{listing}");
        }
        prop_assert_eq!(first, assemble(FILES[0], &sources), "{listing}");
    }
}
