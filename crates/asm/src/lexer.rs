//! Line-oriented lexer for SC88 assembler source.
//!
//! The assembler is line-oriented, like the industrial assemblers the
//! paper's environment was built on: one statement per line, `;` starts a
//! comment, directives begin with `.`.

use std::fmt;

use crate::diag::AsmError;
use crate::source::Loc;

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier or mnemonic (`_main`, `INSERT`, `d14`).
    Ident(String),
    /// A directive name including the leading dot, upper-cased (`.EQU`).
    Directive(String),
    /// An integer literal (decimal, `0x`, `0b`, `0o` or `'c'`).
    Number(i64),
    /// A string literal (without quotes).
    Str(String),
    /// A single punctuation character: `# [ ] ( ) + - * / % , : & | ^ ~ =`.
    Punct(char),
    /// The two-character shift operator `<<`.
    Shl,
    /// The two-character shift operator `>>`.
    Shr,
    /// The comparison operator `==`.
    EqEq,
    /// The comparison operator `!=`.
    NotEq,
    /// The comparison operator `<`.
    Lt,
    /// The comparison operator `>`.
    Gt,
    /// The comparison operator `<=`.
    Le,
    /// The comparison operator `>=`.
    Ge,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the token is the given punctuation character.
    pub(crate) fn is_punct(&self, ch: char) -> bool {
        matches!(self, Token::Punct(c) if *c == ch)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => f.write_str(s),
            Token::Directive(s) => f.write_str(s),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Punct(c) => write!(f, "{c}"),
            Token::Shl => f.write_str("<<"),
            Token::Shr => f.write_str(">>"),
            Token::EqEq => f.write_str("=="),
            Token::NotEq => f.write_str("!="),
            Token::Lt => f.write_str("<"),
            Token::Gt => f.write_str(">"),
            Token::Le => f.write_str("<="),
            Token::Ge => f.write_str(">="),
        }
    }
}

fn is_ident_start(ch: char) -> bool {
    ch.is_ascii_alphabetic() || ch == '_'
}

fn is_ident_continue(ch: char) -> bool {
    ch.is_ascii_alphanumeric() || ch == '_'
}

/// Tokenizes one source line. Comments (`;` to end of line) are dropped.
///
/// # Errors
///
/// Returns an error (pointing at `loc`) for malformed numbers, unknown
/// characters or unterminated strings.
pub fn tokenize(line: &str, loc: &Loc) -> Result<Vec<Token>, AsmError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let ch = bytes[i];
        if ch == ';' {
            break; // comment
        }
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        if ch == '.' && i + 1 < bytes.len() && is_ident_start(bytes[i + 1]) {
            let start = i;
            i += 1;
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            tokens.push(Token::Directive(text.to_ascii_uppercase()));
            continue;
        }
        if is_ident_start(ch) {
            let start = i;
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            tokens.push(Token::Ident(bytes[start..i].iter().collect()));
            continue;
        }
        if ch.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (is_ident_continue(bytes[i])) {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            let value = parse_number(&text)
                .ok_or_else(|| AsmError::at(loc.clone(), format!("invalid number `{text}`")))?;
            tokens.push(Token::Number(value));
            continue;
        }
        if ch == '\'' {
            // Character literal: 'c' (no escapes beyond '\n', '\t', '\\').
            let (value, consumed) = parse_char_literal(&bytes[i..]).ok_or_else(|| {
                AsmError::at(loc.clone(), "unterminated or invalid character literal")
            })?;
            tokens.push(Token::Number(value));
            i += consumed;
            continue;
        }
        if ch == '"' {
            let mut j = i + 1;
            let mut text = String::new();
            while j < bytes.len() && bytes[j] != '"' {
                text.push(bytes[j]);
                j += 1;
            }
            if j >= bytes.len() {
                return Err(AsmError::at(loc.clone(), "unterminated string literal"));
            }
            tokens.push(Token::Str(text));
            i = j + 1;
            continue;
        }
        if ch == '<' {
            match bytes.get(i + 1) {
                Some('<') => {
                    tokens.push(Token::Shl);
                    i += 2;
                }
                Some('=') => {
                    tokens.push(Token::Le);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            continue;
        }
        if ch == '>' {
            match bytes.get(i + 1) {
                Some('>') => {
                    tokens.push(Token::Shr);
                    i += 2;
                }
                Some('=') => {
                    tokens.push(Token::Ge);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            continue;
        }
        if ch == '=' && bytes.get(i + 1) == Some(&'=') {
            tokens.push(Token::EqEq);
            i += 2;
            continue;
        }
        if ch == '!' && bytes.get(i + 1) == Some(&'=') {
            tokens.push(Token::NotEq);
            i += 2;
            continue;
        }
        if "#[]()+-*/%,:&|^~=".contains(ch) {
            tokens.push(Token::Punct(ch));
            i += 1;
            continue;
        }
        return Err(AsmError::at(
            loc.clone(),
            format!("unexpected character `{ch}`"),
        ));
    }
    Ok(tokens)
}

fn parse_number(text: &str) -> Option<i64> {
    let lower = text.to_ascii_lowercase();
    if let Some(hex) = lower.strip_prefix("0x") {
        return i64::from_str_radix(&hex.replace('_', ""), 16).ok();
    }
    if let Some(bin) = lower.strip_prefix("0b") {
        return i64::from_str_radix(&bin.replace('_', ""), 2).ok();
    }
    if let Some(oct) = lower.strip_prefix("0o") {
        return i64::from_str_radix(&oct.replace('_', ""), 8).ok();
    }
    lower.replace('_', "").parse().ok()
}

fn parse_char_literal(chars: &[char]) -> Option<(i64, usize)> {
    // chars[0] is the opening quote.
    match chars.get(1)? {
        '\\' => {
            let value = match chars.get(2)? {
                'n' => b'\n',
                't' => b'\t',
                '0' => 0,
                '\\' => b'\\',
                '\'' => b'\'',
                _ => return None,
            };
            if *chars.get(3)? != '\'' {
                return None;
            }
            Some((i64::from(value), 4))
        }
        ch => {
            if *chars.get(2)? != '\'' {
                return None;
            }
            Some((*ch as i64, 3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(line: &str) -> Vec<Token> {
        tokenize(line, &Loc::new("test", 1)).unwrap()
    }

    #[test]
    fn lexes_paper_insert_line() {
        // The Figure 6 instruction, verbatim.
        let toks = lex("INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE");
        assert_eq!(toks[0], Token::Ident("INSERT".into()));
        assert_eq!(toks.iter().filter(|t| t.is_punct(',')).count(), 4);
        assert_eq!(toks.last().unwrap().ident(), Some("PAGE_FIELD_SIZE"));
    }

    #[test]
    fn lexes_equ_line() {
        let toks = lex("PAGE_FIELD_SIZE .EQU 5");
        assert_eq!(
            toks,
            vec![
                Token::Ident("PAGE_FIELD_SIZE".into()),
                Token::Directive(".EQU".into()),
                Token::Number(5),
            ]
        );
    }

    #[test]
    fn directive_case_insensitive() {
        assert_eq!(lex(".include x")[0], Token::Directive(".INCLUDE".into()));
        assert_eq!(lex(".Include x")[0], Token::Directive(".INCLUDE".into()));
    }

    #[test]
    fn number_bases() {
        assert_eq!(lex("0x1F"), vec![Token::Number(31)]);
        assert_eq!(lex("0b101"), vec![Token::Number(5)]);
        assert_eq!(lex("0o17"), vec![Token::Number(15)]);
        assert_eq!(lex("42"), vec![Token::Number(42)]);
        assert_eq!(lex("1_000"), vec![Token::Number(1000)]);
    }

    #[test]
    fn char_literals() {
        assert_eq!(lex("'A'"), vec![Token::Number(65)]);
        assert_eq!(lex("'\\n'"), vec![Token::Number(10)]);
    }

    #[test]
    fn comments_dropped() {
        assert_eq!(
            lex("NOP ; this is a comment"),
            vec![Token::Ident("NOP".into())]
        );
        assert!(lex(";; full line comment").is_empty());
    }

    #[test]
    fn memory_operand_punctuation() {
        let toks = lex("LOAD d1, [a2 + 4]");
        assert!(toks.iter().any(|t| t.is_punct('[')));
        assert!(toks.iter().any(|t| t.is_punct(']')));
        assert!(toks.iter().any(|t| t.is_punct('+')));
    }

    #[test]
    fn shift_operators() {
        assert_eq!(
            lex("1 << 5"),
            vec![Token::Number(1), Token::Shl, Token::Number(5)]
        );
        assert_eq!(
            lex("8 >> 2"),
            vec![Token::Number(8), Token::Shr, Token::Number(2)]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(lex("\"hello\""), vec![Token::Str("hello".into())]);
    }

    #[test]
    fn bad_number_rejected() {
        assert!(tokenize("0xZZ", &Loc::new("t", 1)).is_err());
        assert!(tokenize("12abc", &Loc::new("t", 1)).is_err());
    }

    #[test]
    fn unknown_character_rejected() {
        let err = tokenize("NOP @", &Loc::new("t", 7)).unwrap_err();
        assert!(err.to_string().contains("t:7"));
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(tokenize("\"oops", &Loc::new("t", 1)).is_err());
    }
}
