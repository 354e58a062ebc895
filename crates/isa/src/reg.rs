//! Typed register names for the SC88 register files.
//!
//! SC88 mirrors the split register file visible in the paper's listings:
//! data registers (`d14` holds the value being built with `INSERT`) and
//! address registers (`CallAddr .DEFINE A12` holds a call target).

use std::fmt;
use std::str::FromStr;

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl ParseRegError {
    fn new(text: &str) -> Self {
        Self {
            text: text.to_owned(),
        }
    }

    /// The text that failed to parse.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register name `{}`", self.text)
    }
}

impl std::error::Error for ParseRegError {}

macro_rules! register_file {
    (
        $(#[$meta:meta])*
        $name:ident, $prefix:literal, [$($variant:ident = $idx:expr),+ $(,)?]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum $name {
            $(
                #[allow(missing_docs)]
                $variant = $idx,
            )+
        }

        impl $name {
            /// All registers of the file, in index order.
            pub const ALL: [$name; 16] = [$($name::$variant),+];

            /// The register's index within its file (0..=15).
            pub fn index(self) -> u8 {
                self as u8
            }

            /// Returns the register with the given index.
            ///
            /// # Errors
            ///
            /// Fails if `index` is not in `0..=15`.
            pub fn from_index(index: u8) -> Result<Self, ParseRegError> {
                Self::ALL
                    .get(usize::from(index))
                    .copied()
                    .ok_or_else(|| ParseRegError::new(&format!("{}{}", $prefix, index)))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.index())
            }
        }

        impl FromStr for $name {
            type Err = ParseRegError;

            /// Parses `d0`..`d15` / `a0`..`a15`, case-insensitively (the
            /// paper's listings mix `d14` and `A12` spellings).
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let err = || ParseRegError::new(s);
                let rest = s
                    .strip_prefix($prefix)
                    .or_else(|| s.strip_prefix(&$prefix.to_uppercase()))
                    .ok_or_else(err)?;
                let index: u8 = rest.parse().map_err(|_| err())?;
                // Reject forms like `d007`: the canonical spelling must
                // round-trip, otherwise assembler symbols such as `d0x`
                // could alias registers.
                if rest != index.to_string() {
                    return Err(err());
                }
                Self::from_index(index).map_err(|_| err())
            }
        }
    };
}

register_file!(
    /// A data register, `d0` through `d15`.
    ///
    /// By SC88 convention `d15` is favoured as a scratch register by
    /// generated code; no register is architecturally special.
    DataReg, "d",
    [D0 = 0, D1 = 1, D2 = 2, D3 = 3, D4 = 4, D5 = 5, D6 = 6, D7 = 7,
     D8 = 8, D9 = 9, D10 = 10, D11 = 11, D12 = 12, D13 = 13, D14 = 14,
     D15 = 15]
);

register_file!(
    /// An address register, `a0` through `a15`.
    ///
    /// `a10` is the stack pointer by software convention (`CALL` pushes the
    /// return address through it) and `a12` is the customary call-target
    /// scratch register — the paper's `CallAddr .DEFINE A12`.
    AddrReg, "a",
    [A0 = 0, A1 = 1, A2 = 2, A3 = 3, A4 = 4, A5 = 5, A6 = 6, A7 = 7,
     A8 = 8, A9 = 9, A10 = 10, A11 = 11, A12 = 12, A13 = 13, A14 = 14,
     A15 = 15]
);

impl AddrReg {
    /// The software stack pointer.
    pub const SP: AddrReg = AddrReg::A10;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_reg_roundtrips_index() {
        for reg in DataReg::ALL {
            assert_eq!(DataReg::from_index(reg.index()).unwrap(), reg);
        }
    }

    #[test]
    fn addr_reg_roundtrips_index() {
        for reg in AddrReg::ALL {
            assert_eq!(AddrReg::from_index(reg.index()).unwrap(), reg);
        }
    }

    #[test]
    fn display_matches_paper_spelling() {
        assert_eq!(DataReg::D14.to_string(), "d14");
        assert_eq!(AddrReg::A12.to_string(), "a12");
    }

    #[test]
    fn parses_case_insensitive() {
        assert_eq!("d14".parse::<DataReg>().unwrap(), DataReg::D14);
        assert_eq!("D14".parse::<DataReg>().unwrap(), DataReg::D14);
        assert_eq!("A12".parse::<AddrReg>().unwrap(), AddrReg::A12);
        assert_eq!("a0".parse::<AddrReg>().unwrap(), AddrReg::A0);
    }

    #[test]
    fn rejects_out_of_range_and_junk() {
        assert!("d16".parse::<DataReg>().is_err());
        assert!("d".parse::<DataReg>().is_err());
        assert!("d007".parse::<DataReg>().is_err());
        assert!("x3".parse::<DataReg>().is_err());
        assert!("a16".parse::<AddrReg>().is_err());
        assert!("d3".parse::<AddrReg>().is_err());
        assert!(DataReg::from_index(16).is_err());
    }

    #[test]
    fn sp_is_a10() {
        assert_eq!(AddrReg::SP, AddrReg::A10);
    }

    #[test]
    fn parse_error_reports_text() {
        let err = "d99".parse::<DataReg>().unwrap_err();
        assert_eq!(err.text(), "d99");
        assert!(err.to_string().contains("d99"));
    }
}
