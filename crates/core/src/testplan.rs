//! `TESTPLAN.TXT` — the plain-text module test plan.
//!
//! §2 of the paper: *"Every test environment should contain a plain text
//! file that contains the test plan for the module or class of tests. The
//! principle reason for using plain text is that it can be searched
//! (grep'ed) easily from the command line."*

use std::fmt;

/// One test-plan entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestplanEntry {
    /// The test-cell identifier (directory name, `TEST_*`).
    pub id: String,
    /// One-line description of what the test verifies.
    pub description: String,
}

/// A module test plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Testplan {
    module: String,
    entries: Vec<TestplanEntry>,
}

impl Testplan {
    /// Creates an empty plan for a module.
    pub fn new(module: impl Into<String>) -> Self {
        Self {
            module: module.into(),
            entries: Vec::new(),
        }
    }

    /// Adds an entry, builder style.
    pub fn with_entry(mut self, id: impl Into<String>, description: impl Into<String>) -> Self {
        self.entries.push(TestplanEntry {
            id: id.into(),
            description: description.into(),
        });
        self
    }

    /// The module this plan covers.
    pub(crate) fn module(&self) -> &str {
        &self.module
    }

    /// All entries.
    pub(crate) fn entries(&self) -> &[TestplanEntry] {
        &self.entries
    }

    /// Looks up an entry by test id.
    pub(crate) fn entry(&self, id: &str) -> Option<&TestplanEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Renders the grep-able plain text form.
    pub fn render(&self) -> String {
        let mut out = format!("TESTPLAN for {}\n", self.module);
        out.push_str(&"=".repeat(out.len() - 1));
        out.push('\n');
        for e in &self.entries {
            out.push_str(&format!("{}: {}\n", e.id, e.description));
        }
        out
    }

    /// Parses the plain-text form back into a plan.
    pub(crate) fn parse(text: &str) -> Self {
        let mut module = String::new();
        let mut entries = Vec::new();
        for line in text.lines() {
            if let Some(m) = line.strip_prefix("TESTPLAN for ") {
                module = m.trim().to_owned();
            } else if let Some((id, desc)) = line.split_once(':') {
                if id.starts_with("TEST_") {
                    entries.push(TestplanEntry {
                        id: id.trim().to_owned(),
                        description: desc.trim().to_owned(),
                    });
                }
            }
        }
        Self { module, entries }
    }
}

impl fmt::Display for Testplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let plan = Testplan::new("PAGE")
            .with_entry("TEST_PAGE_SELECT_01", "select page 8 and read it back")
            .with_entry("TEST_PAGE_SELECT_02", "select page 7 and read it back");
        let parsed = Testplan::parse(&plan.render());
        assert_eq!(parsed, plan);
    }

    #[test]
    fn plain_text_is_grepable() {
        let plan = Testplan::new("UART").with_entry("TEST_UART_LOOPBACK", "loopback echo");
        let text = plan.render();
        assert!(text
            .lines()
            .any(|l| l.contains("TEST_UART_LOOPBACK") && l.contains("loopback")));
    }

    #[test]
    fn entry_lookup() {
        let plan = Testplan::new("M").with_entry("TEST_A", "a");
        assert!(plan.entry("TEST_A").is_some());
        assert!(plan.entry("TEST_B").is_none());
    }

    #[test]
    fn parse_ignores_non_entries() {
        let plan = Testplan::parse("TESTPLAN for X\n====\nnotes: blah\nTEST_Y: y test\n");
        assert_eq!(plan.module(), "X");
        assert_eq!(plan.entries().len(), 1);
    }
}
