//! Constant-expression parsing and evaluation.
//!
//! `Globals.inc` lines like `PAGE_ENABLE_MASK .EQU 1 << PAGE_ENABLE_POSITION`
//! and operands like `TEST_PAGE + 1` need a small expression language:
//! integers, symbols, unary `- ~`, binary `+ - * / % << >> & | ^`, and
//! parentheses, with conventional precedence.
//!
//! Parsing, [`eval`], [`free_symbols`] and dropping an [`Expr`] recurse
//! over the tree, so the parser builds none deeper than [`MAX_DEPTH`]: a
//! hostile expression gets a located error, not a stack overflow.

use std::fmt;

use crate::diag::AsmError;
use crate::lexer::Token;
use crate::source::Loc;

/// The deepest expression the parser builds. Every node and every pair
/// of parentheses on a path from the root counts one level, so `((1))`,
/// `--1` and `1+1+1` are each three deep. Real expressions stay within a
/// handful of levels.
pub const MAX_DEPTH: usize = 256;

/// A parsed constant expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Symbol reference, resolved at evaluation time.
    Sym(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
}

/// Binary operators in precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Remainder.
    Rem,
    /// Left shift.
    Shl,
    /// Logical right shift (on the 64-bit working value).
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Equality comparison (1 if equal, else 0).
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than comparison.
    Lt,
    /// Signed greater-than comparison.
    Gt,
    /// Signed less-or-equal comparison.
    Le,
    /// Signed greater-or-equal comparison.
    Ge,
}

impl BinOp {
    fn precedence(self) -> u8 {
        match self {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 0,
            BinOp::Or => 1,
            BinOp::Xor => 2,
            BinOp::And => 3,
            BinOp::Shl | BinOp::Shr => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 6,
        }
    }

    fn from_token(token: &Token) -> Option<BinOp> {
        match token {
            Token::Punct('+') => Some(BinOp::Add),
            Token::Punct('-') => Some(BinOp::Sub),
            Token::Punct('*') => Some(BinOp::Mul),
            Token::Punct('/') => Some(BinOp::Div),
            Token::Punct('%') => Some(BinOp::Rem),
            Token::Punct('&') => Some(BinOp::And),
            Token::Punct('|') => Some(BinOp::Or),
            Token::Punct('^') => Some(BinOp::Xor),
            Token::Shl => Some(BinOp::Shl),
            Token::Shr => Some(BinOp::Shr),
            Token::EqEq => Some(BinOp::Eq),
            Token::NotEq => Some(BinOp::Ne),
            Token::Lt => Some(BinOp::Lt),
            Token::Gt => Some(BinOp::Gt),
            Token::Le => Some(BinOp::Le),
            Token::Ge => Some(BinOp::Ge),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Sym(s) => f.write_str(s),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "~({e})"),
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Gt => ">",
                    BinOp::Le => "<=",
                    BinOp::Ge => ">=",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

/// Parses an expression from a token slice, returning the expression and
/// the number of tokens consumed.
///
/// # Errors
///
/// Returns a located error on malformed expressions, and on one nested
/// more than 256 levels deep.
pub fn parse(tokens: &[Token], loc: &Loc) -> Result<(Expr, usize), AsmError> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        loc,
        above: 0,
    };
    let (expr, _) = parser.parse_binary(0)?;
    Ok((expr, parser.pos))
}

/// Parses an expression that must consume the entire token slice.
///
/// # Errors
///
/// Returns a located error on malformed or trailing input, and on an
/// expression nested more than 256 levels deep.
pub fn parse_all(tokens: &[Token], loc: &Loc) -> Result<Expr, AsmError> {
    let (expr, used) = parse(tokens, loc)?;
    if used != tokens.len() {
        return Err(AsmError::at(
            loc.clone(),
            format!("unexpected `{}` after expression", tokens[used]),
        ));
    }
    Ok(expr)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    loc: &'a Loc,
    /// Levels above the subexpression being parsed (see [`MAX_DEPTH`]).
    above: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn err(&self, message: impl Into<String>) -> AsmError {
        AsmError::at(self.loc.clone(), message)
    }

    /// Fails once a subexpression `height` levels tall, `above` levels
    /// down, would pass [`MAX_DEPTH`].
    fn fits(&self, height: usize) -> Result<usize, AsmError> {
        if self.above + height > MAX_DEPTH {
            return Err(self.err(format!("expression nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(height)
    }

    /// Runs `parse` one level further down: on the operand of a unary
    /// operator, inside parentheses or on a binary right operand. The
    /// check comes first, so the recursion stops at the limit.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<(Expr, usize), AsmError>,
    ) -> Result<(Expr, usize), AsmError> {
        self.fits(2)?;
        self.above += 1;
        let parsed = parse(self);
        self.above -= 1;
        parsed
    }

    // Each `parse_*` returns its subexpression and that one's height.

    fn parse_binary(&mut self, min_prec: u8) -> Result<(Expr, usize), AsmError> {
        let (mut lhs, mut height) = self.parse_unary()?;
        while let Some(op) = self.peek().and_then(BinOp::from_token) {
            if op.precedence() < min_prec {
                break;
            }
            self.pos += 1;
            let (rhs, rhs_height) = self.nested(|p| p.parse_binary(op.precedence() + 1))?;
            // A chain deepens its left operand one level per operator.
            height = self.fits(1 + height.max(rhs_height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> Result<(Expr, usize), AsmError> {
        let op = match self.peek() {
            Some(Token::Punct('-')) => UnaryOp::Neg,
            Some(Token::Punct('~')) => UnaryOp::Not,
            _ => return self.parse_primary(),
        };
        self.pos += 1;
        let (operand, height) = self.nested(Self::parse_unary)?;
        Ok((Expr::Unary(op, Box::new(operand)), height + 1))
    }

    fn parse_primary(&mut self) -> Result<(Expr, usize), AsmError> {
        match self.peek() {
            Some(Token::Number(n)) => {
                let n = *n;
                self.pos += 1;
                Ok((Expr::Num(n), 1))
            }
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok((Expr::Sym(s), 1))
            }
            Some(Token::Punct('(')) => {
                self.pos += 1;
                let (inner, height) = self.nested(|p| p.parse_binary(0))?;
                match self.peek() {
                    Some(Token::Punct(')')) => {
                        self.pos += 1;
                        Ok((inner, height + 1))
                    }
                    _ => Err(self.err("expected `)`")),
                }
            }
            Some(other) => Err(self.err(format!("expected expression, found `{other}`"))),
            None => Err(self.err("expected expression, found end of line")),
        }
    }
}

/// Evaluates an expression against a symbol resolver.
///
/// # Errors
///
/// Returns a located error for unknown symbols or division by zero.
pub fn eval<F>(expr: &Expr, loc: &Loc, resolve: &F) -> Result<i64, AsmError>
where
    F: Fn(&str) -> Option<i64>,
{
    match expr {
        Expr::Num(n) => Ok(*n),
        Expr::Sym(name) => resolve(name)
            .ok_or_else(|| AsmError::at(loc.clone(), format!("undefined symbol `{name}`"))),
        Expr::Unary(UnaryOp::Neg, e) => Ok(eval(e, loc, resolve)?.wrapping_neg()),
        Expr::Unary(UnaryOp::Not, e) => Ok(!eval(e, loc, resolve)?),
        Expr::Binary(op, a, b) => {
            let a = eval(a, loc, resolve)?;
            let b = eval(b, loc, resolve)?;
            match op {
                BinOp::Add => Ok(a.wrapping_add(b)),
                BinOp::Sub => Ok(a.wrapping_sub(b)),
                BinOp::Mul => Ok(a.wrapping_mul(b)),
                BinOp::Div => {
                    if b == 0 {
                        Err(AsmError::at(loc.clone(), "division by zero in expression"))
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                }
                BinOp::Rem => {
                    if b == 0 {
                        Err(AsmError::at(loc.clone(), "remainder by zero in expression"))
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                }
                BinOp::Shl => Ok(a.wrapping_shl(b as u32)),
                BinOp::Shr => Ok(((a as u64).wrapping_shr(b as u32)) as i64),
                BinOp::And => Ok(a & b),
                BinOp::Or => Ok(a | b),
                BinOp::Xor => Ok(a ^ b),
                BinOp::Eq => Ok(i64::from(a == b)),
                BinOp::Ne => Ok(i64::from(a != b)),
                BinOp::Lt => Ok(i64::from(a < b)),
                BinOp::Gt => Ok(i64::from(a > b)),
                BinOp::Le => Ok(i64::from(a <= b)),
                BinOp::Ge => Ok(i64::from(a >= b)),
            }
        }
    }
}

/// Collects the free symbols referenced by an expression.
pub fn free_symbols(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Num(_) => {}
        Expr::Sym(s) => {
            if !out.iter().any(|x| x == s) {
                out.push(s.clone());
            }
        }
        Expr::Unary(_, e) => free_symbols(e, out),
        Expr::Binary(_, a, b) => {
            free_symbols(a, out);
            free_symbols(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn loc() -> Loc {
        Loc::new("test", 1)
    }

    fn eval_str(text: &str, resolve: impl Fn(&str) -> Option<i64>) -> Result<i64, AsmError> {
        let tokens = tokenize(text, &loc()).unwrap();
        let expr = parse_all(&tokens, &loc())?;
        eval(&expr, &loc(), &resolve)
    }

    fn eval_const(text: &str) -> i64 {
        eval_str(text, |_| None).unwrap()
    }

    #[test]
    fn precedence() {
        assert_eq!(eval_const("2 + 3 * 4"), 14);
        assert_eq!(eval_const("(2 + 3) * 4"), 20);
        assert_eq!(
            eval_const("1 << 4 + 1"),
            1 << 5,
            "shift binds looser than +"
        );
        assert_eq!(eval_const("0xF0 | 0x0F & 0x3"), 0xF0 | (0x0F & 0x3));
    }

    #[test]
    fn unary_operators() {
        assert_eq!(eval_const("-5 + 10"), 5);
        assert_eq!(eval_const("~0 & 0xFF"), 0xFF);
        assert_eq!(eval_const("--3"), 3);
    }

    #[test]
    fn symbols_resolve() {
        let v = eval_str("PAGE_FIELD_SIZE + 1", |s| {
            (s == "PAGE_FIELD_SIZE").then_some(5)
        })
        .unwrap();
        assert_eq!(v, 6);
    }

    #[test]
    fn unknown_symbol_errors() {
        let err = eval_str("MISSING + 1", |_| None).unwrap_err();
        assert!(err.to_string().contains("undefined symbol `MISSING`"));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(eval_str("1 / 0", |_| None).is_err());
        assert!(eval_str("1 % 0", |_| None).is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        let tokens = tokenize("1 + 2 ]", &loc()).unwrap();
        assert!(parse_all(&tokens, &loc()).is_err());
    }

    #[test]
    fn partial_parse_reports_consumed() {
        let tokens = tokenize("1 + 2, 3", &loc()).unwrap();
        let (expr, used) = parse(&tokens, &loc()).unwrap();
        assert_eq!(used, 3);
        assert_eq!(eval(&expr, &loc(), &|_| None).unwrap(), 3);
    }

    #[test]
    fn free_symbol_collection() {
        let tokens = tokenize("A + B * A - 2", &loc()).unwrap();
        let expr = parse_all(&tokens, &loc()).unwrap();
        let mut syms = Vec::new();
        free_symbols(&expr, &mut syms);
        assert_eq!(syms, vec!["A".to_owned(), "B".to_owned()]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(eval_const("2 == 2"), 1);
        assert_eq!(eval_const("2 == 3"), 0);
        assert_eq!(eval_const("2 != 3"), 1);
        assert_eq!(eval_const("2 < 3"), 1);
        assert_eq!(eval_const("3 <= 3"), 1);
        assert_eq!(eval_const("2 > 3"), 0);
        assert_eq!(eval_const("3 >= 4"), 0);
        // Comparisons bind loosest: `1 + 1 == 2` is `(1+1) == 2`.
        assert_eq!(eval_const("1 + 1 == 2"), 1);
        // The base-functions idiom.
        let v = eval_str("ES_VERSION == 2", |s| (s == "ES_VERSION").then_some(2)).unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn globals_mask_expression() {
        // The idiom used by generated globals files.
        let v = eval_str("1 << PAGE_ENABLE_POSITION", |s| {
            (s == "PAGE_ENABLE_POSITION").then_some(8)
        })
        .unwrap();
        assert_eq!(v, 0x100);
    }

    #[test]
    fn depth_is_capped_at_max_depth_for_every_shape() {
        let parse = |text: String| parse_all(&tokenize(&text, &loc()).unwrap(), &loc());
        // Parentheses, unary operators, a chain and binary right operands
        // (two levels each), `n` levels above the innermost `1`.
        let shapes: [fn(usize) -> String; 4] = [
            |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}1", "-~".repeat(n / 2) + &"-".repeat(n % 2)),
            |n| format!("1{}", "+1".repeat(n)),
            |n| format!("{}1{}", "1*(".repeat(n / 2), ")".repeat(n / 2)),
        ];
        for shape in shapes {
            let deepest = parse(shape(MAX_DEPTH - 1)).expect("at the cap");
            assert!(eval(&deepest, &loc(), &|_| None).is_ok());
            let err = parse(shape(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.loc(), Some(&loc()));
            assert_eq!(err.message(), "expression nests deeper than 256 levels");
        }
    }

    #[test]
    fn display_roundtrip_parses() {
        let tokens = tokenize("1 + SYM * 3 & ~0xF", &loc()).unwrap();
        let expr = parse_all(&tokens, &loc()).unwrap();
        let text = expr.to_string();
        let tokens2 = tokenize(&text, &loc()).unwrap();
        let expr2 = parse_all(&tokens2, &loc()).unwrap();
        let r = |s: &str| (s == "SYM").then_some(7i64);
        assert_eq!(
            eval(&expr, &loc(), &r).unwrap(),
            eval(&expr2, &loc(), &r).unwrap()
        );
    }
}
