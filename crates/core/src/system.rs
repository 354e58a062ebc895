//! The complete (system) test environment — the paper's Figures 4 and 5.
//!
//! A [`SystemVerificationEnv`] composes multiple module test environments
//! over one shared global layer. The paper's isolation rule is enforced:
//! *"Each test environment is isolated from any other and the only way
//! for code to be shared is via the globals layer."*

use std::collections::BTreeMap;
use std::fmt;

use advm_soc::{Derivative, EsRom};
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::env::{validate_layout, LayoutIssue, ModuleTestEnv};
use crate::release::{ReleaseError, ReleaseStore, SystemRelease};
use crate::runtime::{trap_handlers, vector_table, TRAP_HANDLERS_FILE, VECTOR_TABLE_FILE};

/// Directory holding the global libraries in the Figure 5 tree.
pub const GLOBAL_LIBRARIES_DIR: &str = "Global_Libraries";
/// File name of the embedded-software ROM source in the system tree.
pub const EMBEDDED_SOFTWARE_FILE: &str = "Embedded_Software.asm";

/// A problem found by [`SystemVerificationEnv::validate`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemIssue {
    /// Two environments share a name.
    DuplicateEnvName(String),
    /// Two environments disagree on derivative or ES release (the system
    /// shares one global layer, so these must be uniform).
    InconsistentConfig {
        /// First environment.
        first: String,
        /// The disagreeing environment.
        second: String,
    },
    /// A module environment violates the Figure 3 layout.
    Layout {
        /// Environment name.
        env: String,
        /// The layout problem, rendered.
        issue: String,
    },
    /// A test includes a file belonging to another environment —
    /// forbidden cross-environment sharing.
    CrossEnvInclude {
        /// The offending environment.
        env: String,
        /// The offending test cell.
        test_id: String,
        /// The foreign path included.
        path: String,
    },
}

impl fmt::Display for SystemIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemIssue::DuplicateEnvName(name) => {
                write!(f, "duplicate environment name `{name}`")
            }
            SystemIssue::InconsistentConfig { first, second } => write!(
                f,
                "environments `{first}` and `{second}` disagree on derivative/ES release"
            ),
            SystemIssue::Layout { env, issue } => write!(f, "{env}: {issue}"),
            SystemIssue::CrossEnvInclude { env, test_id, path } => {
                write!(f, "{env}/{test_id} includes foreign file `{path}`")
            }
        }
    }
}

/// The system verification environment (Figure 4 / Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemVerificationEnv {
    name: String,
    envs: Vec<ModuleTestEnv>,
}

impl SystemVerificationEnv {
    /// Creates the system environment.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty.
    pub fn new(name: impl Into<String>, envs: Vec<ModuleTestEnv>) -> Self {
        assert!(
            !envs.is_empty(),
            "a system environment needs at least one module env"
        );
        Self {
            name: name.into(),
            envs,
        }
    }

    /// The system environment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component module environments.
    pub fn envs(&self) -> &[ModuleTestEnv] {
        &self.envs
    }

    /// Looks up a component by name.
    pub fn env(&self, name: &str) -> Option<&ModuleTestEnv> {
        self.envs.iter().find(|e| e.name() == name)
    }

    /// Total test-cell count across all environments.
    pub fn total_tests(&self) -> usize {
        self.envs.iter().map(|e| e.cells().len()).sum()
    }

    /// Renders the Figure 5 system tree: global libraries first, then
    /// every module environment's subtree.
    pub fn tree(&self) -> BTreeMap<String, String> {
        let mut tree = BTreeMap::new();
        tree.insert(
            format!("{}/{GLOBAL_LIBRARIES_DIR}/{VECTOR_TABLE_FILE}", self.name),
            vector_table(),
        );
        tree.insert(
            format!("{}/{GLOBAL_LIBRARIES_DIR}/{TRAP_HANDLERS_FILE}", self.name),
            trap_handlers(),
        );
        // The ES ROM for the (uniform) derivative/ES release.
        let config = self.envs[0].config();
        let derivative = Derivative::from_id(config.derivative);
        let rom = EsRom::generate(&derivative, config.es_version);
        tree.insert(
            format!(
                "{}/{GLOBAL_LIBRARIES_DIR}/{EMBEDDED_SOFTWARE_FILE}",
                self.name
            ),
            rom.source().to_owned(),
        );
        for env in &self.envs {
            for (path, content) in env.tree() {
                tree.insert(format!("{}/{path}", self.name), content);
            }
        }
        tree
    }

    /// Validates the system: unique names, uniform derivative/ES config,
    /// per-environment Figure 3 layout, and cross-environment isolation.
    pub fn validate(&self) -> Vec<SystemIssue> {
        let mut issues = Vec::new();
        // Unique names.
        for (i, a) in self.envs.iter().enumerate() {
            for b in &self.envs[i + 1..] {
                if a.name() == b.name() {
                    issues.push(SystemIssue::DuplicateEnvName(a.name().to_owned()));
                }
            }
        }
        // Uniform derivative + ES release (platform may vary per run).
        let first = &self.envs[0];
        for env in &self.envs[1..] {
            if env.config().derivative != first.config().derivative
                || env.config().es_version != first.config().es_version
            {
                issues.push(SystemIssue::InconsistentConfig {
                    first: first.name().to_owned(),
                    second: env.name().to_owned(),
                });
            }
        }
        // Per-env layout.
        for env in &self.envs {
            let tree = env.tree();
            for issue in validate_layout(env.name(), &tree) {
                // An unplanned test is tolerable at system level only if
                // every other rule holds; report everything uniformly.
                let _: &LayoutIssue = &issue;
                issues.push(SystemIssue::Layout {
                    env: env.name().to_owned(),
                    issue: issue.to_string(),
                });
            }
        }
        // Isolation: no test may include another environment's files.
        for env in &self.envs {
            for cell in env.cells() {
                for line in cell.source().lines() {
                    let trimmed = line.trim();
                    if !trimmed.to_ascii_uppercase().starts_with(".INCLUDE") {
                        continue;
                    }
                    let path = trimmed[".INCLUDE".len()..].trim();
                    let path = path
                        .split(';')
                        .next()
                        .unwrap_or("")
                        .trim()
                        .trim_matches('"');
                    let crosses = self
                        .envs
                        .iter()
                        .filter(|other| other.name() != env.name())
                        .any(|other| path.starts_with(&format!("{}/", other.name())));
                    if crosses {
                        issues.push(SystemIssue::CrossEnvInclude {
                            env: env.name().to_owned(),
                            test_id: cell.id().to_owned(),
                            path: path.to_owned(),
                        });
                    }
                }
            }
        }
        issues
    }

    /// A [`Campaign`] seeded with every component environment; chain
    /// further builder calls to pick platforms, workers or observers.
    pub fn campaign(&self) -> Campaign {
        Campaign::new().envs(self.envs.iter().cloned())
    }

    /// Freezes every component under `<label>/<env>` sub-labels and
    /// composes the system release (the paper's "label composed of
    /// sub-labels for each environment").
    ///
    /// # Errors
    ///
    /// Propagates label collisions from the store.
    pub fn compose_release<'a>(
        &self,
        store: &'a mut ReleaseStore,
        label: &str,
    ) -> Result<&'a SystemRelease, ReleaseError> {
        let mut sub_labels = Vec::new();
        for env in &self.envs {
            let sub = format!("{label}/{}", env.name());
            store.freeze(sub.clone(), env)?;
            sub_labels.push(sub);
        }
        let refs: Vec<&str> = sub_labels.iter().map(String::as_str).collect();
        store.compose_system(label, &refs)
    }
}

impl fmt::Display for SystemVerificationEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} envs, {} tests]",
            self.name,
            self.envs.len(),
            self.total_tests()
        )
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use crate::env::{EnvConfig, TestCell};

    use super::*;

    fn cell(id: &str) -> TestCell {
        TestCell::new(
            id,
            "demo",
            ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
        )
    }

    fn module_env(name: &str) -> ModuleTestEnv {
        ModuleTestEnv::new(
            name,
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![cell("TEST_A")],
        )
    }

    fn system() -> SystemVerificationEnv {
        SystemVerificationEnv::new(
            "ADVM_System_Verification_Environment",
            vec![module_env("PAGE"), module_env("UART"), module_env("NVM")],
        )
    }

    #[test]
    fn tree_contains_global_libraries_and_env_subtrees() {
        let tree = system().tree();
        let prefix = "ADVM_System_Verification_Environment";
        assert!(tree.contains_key(&format!("{prefix}/Global_Libraries/Vector_Table.inc")));
        assert!(tree.contains_key(&format!("{prefix}/Global_Libraries/Trap_Handlers.asm")));
        assert!(tree.contains_key(&format!("{prefix}/Global_Libraries/Embedded_Software.asm")));
        assert!(tree.contains_key(&format!("{prefix}/PAGE/TESTPLAN.TXT")));
        assert!(tree.contains_key(&format!("{prefix}/UART/Abstraction_Layer/Globals.inc")));
    }

    #[test]
    fn clean_system_validates() {
        assert!(system().validate().is_empty());
    }

    #[test]
    fn duplicate_names_flagged() {
        let sys = SystemVerificationEnv::new("SYS", vec![module_env("PAGE"), module_env("PAGE")]);
        assert!(sys
            .validate()
            .iter()
            .any(|i| matches!(i, SystemIssue::DuplicateEnvName(_))));
    }

    #[test]
    fn inconsistent_derivatives_flagged() {
        let mut other = module_env("UART");
        other.reconfigure(EnvConfig::new(DerivativeId::Sc88C, PlatformId::GoldenModel));
        let sys = SystemVerificationEnv::new("SYS", vec![module_env("PAGE"), other]);
        assert!(sys
            .validate()
            .iter()
            .any(|i| matches!(i, SystemIssue::InconsistentConfig { .. })));
    }

    #[test]
    fn cross_env_include_flagged() {
        let rogue = ModuleTestEnv::new(
            "NVM",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new(
                "TEST_ROGUE",
                "steals another env's base functions",
                "\
.INCLUDE Globals.inc
.INCLUDE PAGE/Abstraction_Layer/Base_Functions.asm
_main:
    RETURN
",
            )],
        );
        let sys = SystemVerificationEnv::new("SYS", vec![module_env("PAGE"), rogue]);
        assert!(sys
            .validate()
            .iter()
            .any(|i| matches!(i, SystemIssue::CrossEnvInclude { .. })));
    }

    #[test]
    fn system_regression_runs_all_envs() {
        let report = system()
            .campaign()
            .platform(PlatformId::GoldenModel)
            .workers(1)
            .run()
            .unwrap();
        assert_eq!(report.total(), 3);
        assert_eq!(report.passed(), 3);
    }

    #[test]
    fn system_campaign_builder_composes() {
        let report = system()
            .campaign()
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(2)
            .run()
            .unwrap();
        assert_eq!(report.total(), 6);
        assert_eq!(report.failed(), 0);
        // The three identical platform-independent cells dedupe down to
        // three builds (golden/RTL share abstraction-layer knobs).
        assert!(report.cache_hits() >= 3, "hits: {}", report.cache_hits());
    }

    #[test]
    fn system_release_composition() {
        let sys = system();
        let mut store = ReleaseStore::new();
        let release = sys.compose_release(&mut store, "SYS-1.0").unwrap();
        assert_eq!(release.components().len(), 3);
        let thawed = store.thaw_system("SYS-1.0").unwrap();
        assert_eq!(thawed.len(), 3);
        assert_eq!(thawed[0], sys.envs()[0]);
    }
}
