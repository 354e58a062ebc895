//! Branch condition codes evaluated against the [`Psw`](crate::Psw) flags.

use std::fmt;
use std::str::FromStr;

use crate::Psw;

/// A branch condition, as used by the `J<cond>` family of instructions.
///
/// Signed comparisons (`Lt`, `Ge`, `Gt`, `Le`) combine the negative and
/// overflow flags; `Cs`/`Cc` expose the carry flag for unsigned tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal: `Z`.
    Eq = 0,
    /// Not equal: `!Z`.
    Ne = 1,
    /// Signed less-than: `N != V`.
    Lt = 2,
    /// Signed greater-or-equal: `N == V`.
    Ge = 3,
    /// Signed greater-than: `!Z && N == V`.
    Gt = 4,
    /// Signed less-or-equal: `Z || N != V`.
    Le = 5,
    /// Carry set (unsigned borrow/overflow indicator).
    Cs = 6,
    /// Carry clear.
    Cc = 7,
}

impl Cond {
    /// All condition codes in encoding order.
    pub const ALL: [Cond; 8] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Ge,
        Cond::Gt,
        Cond::Le,
        Cond::Cs,
        Cond::Cc,
    ];

    /// The 3-bit encoding of the condition.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a 3-bit condition code.
    pub fn from_code(code: u8) -> Option<Cond> {
        Cond::ALL.get(usize::from(code)).copied()
    }

    /// Evaluates the condition against a set of flags.
    ///
    /// ```
    /// use advm_isa::{Cond, Psw};
    ///
    /// let mut psw = Psw::default();
    /// psw.set_compare(7, 7);
    /// assert!(Cond::Eq.holds(psw));
    /// assert!(!Cond::Ne.holds(psw));
    /// ```
    pub fn holds(self, psw: Psw) -> bool {
        let (z, n, c, v) = (psw.zero(), psw.negative(), psw.carry(), psw.overflow());
        match self {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Lt => n != v,
            Cond::Ge => n == v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
            Cond::Cs => c,
            Cond::Cc => !c,
        }
    }

    /// The condition that holds exactly when `self` does not.
    #[cfg(test)]
    pub(crate) fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Cs => Cond::Cc,
            Cond::Cc => Cond::Cs,
        }
    }

    /// The assembler mnemonic suffix (`JEQ`, `JNE`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "EQ",
            Cond::Ne => "NE",
            Cond::Lt => "LT",
            Cond::Ge => "GE",
            Cond::Gt => "GT",
            Cond::Le => "LE",
            Cond::Cs => "CS",
            Cond::Cc => "CC",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

impl FromStr for Cond {
    type Err = ParseCondError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        Cond::ALL
            .into_iter()
            .find(|c| c.suffix() == upper)
            .ok_or_else(|| ParseCondError { text: s.to_owned() })
    }
}

/// Error returned when parsing a condition-code suffix fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCondError {
    text: String,
}

impl fmt::Display for ParseCondError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid condition code `{}`", self.text)
    }
}

impl std::error::Error for ParseCondError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn psw(z: bool, n: bool, c: bool, v: bool) -> Psw {
        let mut p = Psw::default();
        p.set_zero(z);
        p.set_negative(n);
        p.set_carry(c);
        p.set_overflow(v);
        p
    }

    #[test]
    fn code_roundtrips() {
        for cond in Cond::ALL {
            assert_eq!(Cond::from_code(cond.code()), Some(cond));
        }
        assert_eq!(Cond::from_code(8), None);
    }

    #[test]
    fn negation_is_involutive_and_exclusive() {
        // All 16 flag combinations: a condition and its negation never agree.
        for bits in 0..16u8 {
            let p = psw(bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
            for cond in Cond::ALL {
                assert_eq!(cond.negate().negate(), cond);
                assert_ne!(
                    cond.holds(p),
                    cond.negate().holds(p),
                    "{cond} on {bits:04b}"
                );
            }
        }
    }

    #[test]
    fn signed_comparison_semantics() {
        // 3 < 5: CMP computes 3 - 5 = -2 => N=1, V=0.
        let lt = psw(false, true, true, false);
        assert!(Cond::Lt.holds(lt));
        assert!(!Cond::Ge.holds(lt));
        assert!(Cond::Le.holds(lt));
        assert!(!Cond::Gt.holds(lt));

        // 5 == 5 => Z=1.
        let eq = psw(true, false, false, false);
        assert!(Cond::Eq.holds(eq));
        assert!(Cond::Ge.holds(eq));
        assert!(Cond::Le.holds(eq));
        assert!(!Cond::Gt.holds(eq));
        assert!(!Cond::Lt.holds(eq));
    }

    #[test]
    fn overflow_flips_signed_order() {
        // i32::MIN < 1, computed as MIN - 1 which overflows: N=0, V=1.
        let p = psw(false, false, false, true);
        assert!(Cond::Lt.holds(p));
    }

    #[test]
    fn parse_matches_suffix() {
        for cond in Cond::ALL {
            assert_eq!(cond.suffix().parse::<Cond>().unwrap(), cond);
            assert_eq!(cond.suffix().to_lowercase().parse::<Cond>().unwrap(), cond);
        }
        assert!("XX".parse::<Cond>().is_err());
    }
}
