//! The three-layer model of Figure 1.

use std::fmt;

use crate::env::{ABSTRACTION_DIR, TESTPLAN_FILE};

/// The layer a file belongs to in the paper's Figure 1 structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Test layer: the test cells themselves.
    Test,
    /// Abstraction layer: `Globals.inc`, `Base_Functions.asm`.
    Abstraction,
    /// Global layer: embedded software, trap handlers, register
    /// definitions — anything the environment owner does not control.
    Global,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Test => "test layer",
            Layer::Abstraction => "abstraction layer",
            Layer::Global => "global layer",
        })
    }
}

/// Classifies a file path within an environment tree.
///
/// Paths under `<env>/Abstraction_Layer/` (and the test plan, which the
/// abstraction layer owner maintains) are abstraction layer; paths under
/// `<env>/TEST_*/` are test layer; everything else — global libraries,
/// embedded software — is global layer.
pub fn classify_path(path: &str) -> Layer {
    let mut parts = path.split('/');
    let _env = parts.next();
    match parts.next() {
        Some(second) if second == ABSTRACTION_DIR || second == TESTPLAN_FILE => Layer::Abstraction,
        Some(second) if second.starts_with("TEST_") => Layer::Test,
        _ => Layer::Global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_figure1() {
        assert_eq!(classify_path("PAGE/TEST_X/test.asm"), Layer::Test);
        assert_eq!(
            classify_path("PAGE/Abstraction_Layer/Globals.inc"),
            Layer::Abstraction
        );
        assert_eq!(
            classify_path("PAGE/Abstraction_Layer/Base_Functions.asm"),
            Layer::Abstraction
        );
        assert_eq!(classify_path("PAGE/TESTPLAN.TXT"), Layer::Abstraction);
        assert_eq!(
            classify_path("Global_Libraries/Trap_Handlers.asm"),
            Layer::Global
        );
        assert_eq!(classify_path("Embedded_Software.asm"), Layer::Global);
    }

    #[test]
    fn display_names() {
        assert_eq!(Layer::Test.to_string(), "test layer");
        assert_eq!(Layer::Abstraction.to_string(), "abstraction layer");
        assert_eq!(Layer::Global.to_string(), "global layer");
    }
}
