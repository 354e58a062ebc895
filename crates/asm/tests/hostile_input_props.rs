//! The assembler front end on arbitrary input: the lexer, the
//! expression parser and evaluator, and whole-unit assembly each return
//! a value or an [`AsmError`] for any text, and never panic or overflow
//! the stack. The text is arbitrary chars (control characters and
//! non-ASCII included), lossily decoded random bytes, assembler pieces,
//! and expressions nested up to 100,000 deep in each shape the parser
//! recurses on.

use advm_asm::{assemble_str, eval_expr, parse_expr, tokenize, AsmError, Loc};
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
