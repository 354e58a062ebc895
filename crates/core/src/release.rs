//! Release labels and frozen environments.
//!
//! §2–3 of the paper: the abstraction layer controls every test, so the
//! environment *"cannot change during a regression"*; owners release
//! labelled versions, and a system regression is an instance *"composed
//! of sub-labels for each environment"*. This module implements that
//! mechanism: a [`Release`] is an immutable snapshot of an environment
//! tree with an integrity checksum; a [`SystemRelease`] names one label
//! per component environment.

use std::collections::BTreeMap;
use std::fmt;

use crate::env::ModuleTestEnv;

/// A frozen, labelled snapshot of one environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    label: String,
    env_name: String,
    tree: BTreeMap<String, String>,
    checksum: u64,
}

impl Release {
    /// Freezes an environment under a label.
    pub(crate) fn freeze(label: impl Into<String>, env: &ModuleTestEnv) -> Self {
        let tree = env.tree();
        let checksum = tree_checksum(&tree);
        Self {
            label: label.into(),
            env_name: env.name().to_owned(),
            tree,
            checksum,
        }
    }

    /// The release label.
    #[cfg(test)]
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// The environment the release snapshots.
    pub(crate) fn env_name(&self) -> &str {
        &self.env_name
    }

    /// The integrity checksum of the frozen tree.
    #[cfg(test)]
    pub(crate) fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the snapshot still matches its checksum (detects tampering
    /// with a release, which the methodology forbids).
    pub(crate) fn verify_integrity(&self) -> bool {
        tree_checksum(&self.tree) == self.checksum
    }

    /// Whether a live environment still matches this release.
    pub fn matches(&self, env: &ModuleTestEnv) -> bool {
        env.name() == self.env_name && tree_checksum(&env.tree()) == self.checksum
    }

    /// Thaws the release back into a runnable environment.
    ///
    /// # Errors
    ///
    /// Returns a message if the snapshot is structurally incomplete.
    pub fn thaw(&self) -> Result<ModuleTestEnv, String> {
        ModuleTestEnv::from_tree(&self.env_name, &self.tree)
    }
}

impl fmt::Display for Release {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} ({:016x})",
            self.env_name, self.label, self.checksum
        )
    }
}

/// A system-level release: one label per component environment
/// (the paper's "label composed of sub-labels").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemRelease {
    label: String,
    components: Vec<(String, String)>,
}

impl SystemRelease {
    /// `(environment, label)` pairs.
    pub fn components(&self) -> &[(String, String)] {
        &self.components
    }
}

impl fmt::Display for SystemRelease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.label)?;
        for (i, (env, label)) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{env}@{label}")?;
        }
        write!(f, "]")
    }
}

/// Error from [`ReleaseStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReleaseError {
    /// A label was reused.
    DuplicateLabel(String),
    /// A referenced label does not exist.
    UnknownLabel(String),
    /// A component release failed its integrity check.
    CorruptRelease(String),
}

impl fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReleaseError::DuplicateLabel(l) => write!(f, "label `{l}` already exists"),
            ReleaseError::UnknownLabel(l) => write!(f, "unknown label `{l}`"),
            ReleaseError::CorruptRelease(l) => {
                write!(f, "release `{l}` failed its integrity check")
            }
        }
    }
}

impl std::error::Error for ReleaseError {}

/// The revision-control stand-in: labelled releases per environment plus
/// composed system releases. A single person owns this in the paper's
/// process ("a single person responsible for the release of a complete
/// regression environment").
#[derive(Debug, Clone, Default)]
pub struct ReleaseStore {
    releases: BTreeMap<String, Release>,
    system_releases: BTreeMap<String, SystemRelease>,
}

impl ReleaseStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes an environment under a new label.
    ///
    /// # Errors
    ///
    /// Fails on label reuse — labels are immutable history.
    pub fn freeze(
        &mut self,
        label: impl Into<String>,
        env: &ModuleTestEnv,
    ) -> Result<&Release, ReleaseError> {
        let label = label.into();
        if self.releases.contains_key(&label) {
            return Err(ReleaseError::DuplicateLabel(label));
        }
        let release = Release::freeze(label.clone(), env);
        Ok(self.releases.entry(label).or_insert(release))
    }

    /// Looks up a release by label.
    pub fn release(&self, label: &str) -> Option<&Release> {
        self.releases.get(label)
    }

    /// Composes a system release from per-environment labels.
    ///
    /// # Errors
    ///
    /// Fails if the system label is reused, a component label is unknown,
    /// or a component fails its integrity check.
    pub(crate) fn compose_system(
        &mut self,
        label: impl Into<String>,
        component_labels: &[&str],
    ) -> Result<&SystemRelease, ReleaseError> {
        let label = label.into();
        if self.system_releases.contains_key(&label) {
            return Err(ReleaseError::DuplicateLabel(label));
        }
        let mut components = Vec::new();
        for comp in component_labels {
            let release = self
                .releases
                .get(*comp)
                .ok_or_else(|| ReleaseError::UnknownLabel((*comp).to_owned()))?;
            if !release.verify_integrity() {
                return Err(ReleaseError::CorruptRelease((*comp).to_owned()));
            }
            components.push((release.env_name().to_owned(), (*comp).to_owned()));
        }
        let system = SystemRelease {
            label: label.clone(),
            components,
        };
        Ok(self.system_releases.entry(label).or_insert(system))
    }

    /// Thaws every component of a system release into runnable
    /// environments.
    ///
    /// # Errors
    ///
    /// Fails on unknown labels or corrupt snapshots.
    pub fn thaw_system(&self, label: &str) -> Result<Vec<ModuleTestEnv>, ReleaseError> {
        let system = self
            .system_releases
            .get(label)
            .ok_or_else(|| ReleaseError::UnknownLabel(label.to_owned()))?;
        let mut envs = Vec::new();
        for (_, comp_label) in &system.components {
            let release = self
                .releases
                .get(comp_label)
                .ok_or_else(|| ReleaseError::UnknownLabel(comp_label.clone()))?;
            envs.push(
                release
                    .thaw()
                    .map_err(|_| ReleaseError::CorruptRelease(comp_label.clone()))?,
            );
        }
        Ok(envs)
    }
}

fn tree_checksum(tree: &BTreeMap<String, String>) -> u64 {
    // FNV-1a over path/content pairs; deterministic across runs.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (path, content) in tree {
        eat(path.as_bytes());
        eat(&[0]);
        eat(content.as_bytes());
        eat(&[0xFF]);
    }
    hash
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use crate::env::{EnvConfig, TestCell};
    use crate::porting::port_env;

    use super::*;

    fn env() -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new(
                "TEST_A",
                "demo",
                ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
            )],
        )
    }

    #[test]
    fn freeze_and_match() {
        let e = env();
        let release = Release::freeze("R1.0", &e);
        assert!(release.verify_integrity());
        assert!(release.matches(&e));
        assert_eq!(release.label(), "R1.0");
    }

    #[test]
    fn mutated_env_no_longer_matches_release() {
        let e = env();
        let release = Release::freeze("R1.0", &e);
        let ported = port_env(
            &e,
            EnvConfig::new(DerivativeId::Sc88C, PlatformId::GoldenModel),
        )
        .env;
        assert!(
            !release.matches(&ported),
            "abstraction-layer change must invalidate the frozen label"
        );
    }

    #[test]
    fn thawed_release_equals_original() {
        let e = env();
        let release = Release::freeze("R1.0", &e);
        assert_eq!(release.thaw().unwrap(), e);
    }

    #[test]
    fn store_rejects_duplicate_labels() {
        let mut store = ReleaseStore::new();
        store.freeze("R1.0", &env()).unwrap();
        assert_eq!(
            store.freeze("R1.0", &env()).unwrap_err(),
            ReleaseError::DuplicateLabel("R1.0".into())
        );
    }

    #[test]
    fn system_release_composes_sublabels() {
        let mut store = ReleaseStore::new();
        let page = env();
        let uart = ModuleTestEnv::new(
            "UART",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new(
                "TEST_U",
                "demo",
                ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
            )],
        );
        store.freeze("PAGE-1.0", &page).unwrap();
        store.freeze("UART-1.0", &uart).unwrap();
        let system = store
            .compose_system("SYS-1.0", &["PAGE-1.0", "UART-1.0"])
            .unwrap();
        assert_eq!(system.components().len(), 2);
        assert!(system.to_string().contains("PAGE@PAGE-1.0"));

        let thawed = store.thaw_system("SYS-1.0").unwrap();
        assert_eq!(thawed.len(), 2);
        assert_eq!(thawed[0], page);
        assert_eq!(thawed[1], uart);
    }

    #[test]
    fn unknown_component_label_rejected() {
        let mut store = ReleaseStore::new();
        assert_eq!(
            store.compose_system("SYS", &["NOPE"]).unwrap_err(),
            ReleaseError::UnknownLabel("NOPE".into())
        );
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let e = env();
        let r1 = Release::freeze("A", &e);
        let ported = port_env(
            &e,
            EnvConfig::new(DerivativeId::Sc88B, PlatformId::GoldenModel),
        )
        .env;
        let r2 = Release::freeze("B", &ported);
        assert_ne!(r1.checksum(), r2.checksum());
    }
}
