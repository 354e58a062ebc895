//! Abstraction-layer violation checking — the paper's Figure 2.
//!
//! Figure 2 shows the "abuse" of the structure: test code linking
//! directly into the global layer, bypassing the abstraction layer.
//! *"Often, it is tempting to bypass the abstraction layer, especially
//! when under time pressure. However, by doing so, any protection from
//! change will be lost."* This checker finds such abuse statically in
//! test-cell sources:
//!
//! * includes of anything other than the abstraction layer's files,
//! * direct references to global-layer (`ES_*`) entry points,
//! * hardwired MMIO addresses where a `Globals.inc` define belongs.

use std::fmt;

use advm_asm::{tokenize, Loc, Token};
use advm_soc::memmap::{MMIO_SIZE, MMIO_START};

use crate::env::{ModuleTestEnv, BASE_FUNCTIONS_FILE, GLOBALS_FILE};

/// The kind of abstraction-layer violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A test includes a file other than the abstraction layer's.
    DirectGlobalInclude,
    /// A test references an `ES_*` global-layer symbol directly instead
    /// of going through a base function.
    DirectEsReference,
    /// A test hardwires an address in the MMIO range.
    HardwiredMmioAddress,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::DirectGlobalInclude => "direct global-layer include",
            ViolationKind::DirectEsReference => "direct ES function reference",
            ViolationKind::HardwiredMmioAddress => "hardwired MMIO address",
        })
    }
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending test cell.
    pub test_id: String,
    /// 1-based line within the cell's `test.asm`.
    pub line: u32,
    /// Classification.
    pub kind: ViolationKind,
    /// The offending text (include path, symbol or literal).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.test_id, self.line, self.kind, self.detail
        )
    }
}

/// Scans every test cell of an environment for violations.
pub fn check_env(env: &ModuleTestEnv) -> Vec<Violation> {
    let mut violations = Vec::new();
    for cell in env.cells() {
        check_source(cell.id(), cell.source(), &mut violations);
    }
    violations
}

/// Scans one test source.
pub(crate) fn check_source(test_id: &str, source: &str, out: &mut Vec<Violation>) {
    for (idx, raw) in source.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let trimmed = raw.trim();
        // Include discipline (text-level, like the preprocessor).
        if trimmed.to_ascii_uppercase().starts_with(".INCLUDE") {
            let path = trimmed[".INCLUDE".len()..].trim();
            let path = path
                .split(';')
                .next()
                .unwrap_or("")
                .trim()
                .trim_matches('"');
            if path != GLOBALS_FILE && path != BASE_FUNCTIONS_FILE {
                out.push(Violation {
                    test_id: test_id.to_owned(),
                    line: line_no,
                    kind: ViolationKind::DirectGlobalInclude,
                    detail: path.to_owned(),
                });
            }
            continue;
        }
        let loc = Loc::new(test_id, line_no);
        let Ok(tokens) = tokenize(raw, &loc) else {
            continue; // unlexable lines fail assembly; not our concern here
        };
        for token in &tokens {
            match token {
                Token::Ident(name) if name.starts_with("ES_") => {
                    out.push(Violation {
                        test_id: test_id.to_owned(),
                        line: line_no,
                        kind: ViolationKind::DirectEsReference,
                        detail: name.clone(),
                    });
                }
                Token::Number(n) => {
                    let v = *n;
                    if v >= i64::from(MMIO_START) && v < i64::from(MMIO_START + MMIO_SIZE) {
                        out.push(Violation {
                            test_id: test_id.to_owned(),
                            line: line_no,
                            kind: ViolationKind::HardwiredMmioAddress,
                            detail: format!("{v:#x}"),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use crate::env::{EnvConfig, TestCell};

    use super::*;

    fn env_of(cells: Vec<TestCell>) -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            cells,
        )
    }

    #[test]
    fn clean_test_has_no_violations() {
        let env = env_of(vec![TestCell::new(
            "TEST_CLEAN",
            "clean",
            "\
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    LOAD ArgA, #TEST_PAGE
    CALL Base_Select_Page
    CALL Base_Report_Pass
    RETURN
",
        )]);
        assert!(check_env(&env).is_empty());
    }

    #[test]
    fn direct_es_call_flagged() {
        let env = env_of(vec![TestCell::new(
            "TEST_ABUSE",
            "figure 2 abuse",
            "\
.INCLUDE Globals.inc
_main:
    LOAD CallAddr, ES_INIT_REGISTER
    CALL CallAddr
    CALL Base_Report_Pass
    RETURN
",
        )]);
        let violations = check_env(&env);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::DirectEsReference);
        assert_eq!(violations[0].detail, "ES_INIT_REGISTER");
        assert_eq!(violations[0].line, 3);
    }

    #[test]
    fn hardwired_mmio_flagged() {
        let env = env_of(vec![TestCell::new(
            "TEST_HARDWIRED",
            "hardwired address",
            "\
.INCLUDE Globals.inc
_main:
    STORE [0xE0100], d14
    CALL Base_Report_Pass
    RETURN
",
        )]);
        let violations = check_env(&env);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::HardwiredMmioAddress);
        assert_eq!(violations[0].detail, "0xe0100");
    }

    #[test]
    fn non_mmio_literals_are_fine() {
        let env = env_of(vec![TestCell::new(
            "TEST_NUMS",
            "plain numbers",
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #42
    LOAD d2, #0x40000
    CALL Base_Report_Pass
    RETURN
",
        )]);
        assert!(check_env(&env).is_empty());
    }

    #[test]
    fn foreign_include_flagged() {
        let env = env_of(vec![TestCell::new(
            "TEST_INC",
            "includes ES directly",
            "\
.INCLUDE Globals.inc
.INCLUDE Embedded_Software.asm
_main:
    CALL Base_Report_Pass
    RETURN
",
        )]);
        let violations = check_env(&env);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::DirectGlobalInclude);
        assert_eq!(violations[0].detail, "Embedded_Software.asm");
    }

    #[test]
    fn multiple_violations_all_reported() {
        let env = env_of(vec![TestCell::new(
            "TEST_MANY",
            "several sins",
            "\
.INCLUDE Other_Env_Base.asm
_main:
    LOAD CallAddr, ES_MEMCPY
    STORE [0xEFF00], d1
    RETURN
",
        )]);
        let violations = check_env(&env);
        assert_eq!(violations.len(), 3);
    }

    #[test]
    fn display_is_informative() {
        let v = Violation {
            test_id: "TEST_X".into(),
            line: 7,
            kind: ViolationKind::DirectEsReference,
            detail: "ES_DELAY".into(),
        };
        assert_eq!(
            v.to_string(),
            "TEST_X:7: direct ES function reference: ES_DELAY"
        );
    }
}
