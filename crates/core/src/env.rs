//! The module test environment — the paper's Figures 1 and 3.
//!
//! A [`ModuleTestEnv`] is the unit of ownership in the methodology: a
//! named environment containing test cells (the test layer), a generated
//! `Globals.inc` plus `Base_Functions.asm` (the abstraction layer), and a
//! plain-text test plan. It renders to the Figure 3 directory structure:
//!
//! ```text
//! MODULE_NAME/
//!   TESTPLAN.TXT
//!   Abstraction_Layer/
//!     Globals.inc
//!     Base_Functions.asm
//!     ENV_CONFIG.TXT
//!   TEST_ID_NAME/
//!     test.asm
//!   ...
//! ```
//!
//! The abstraction layer is **generated** from an [`EnvConfig`]
//! (derivative × platform × ES release × library style); the test cells
//! are immutable source. Re-targeting the environment (see
//! [`crate::porting`]) regenerates the abstraction layer and leaves every
//! test untouched — the paper's core claim, made executable.

use std::collections::BTreeMap;
use std::fmt;

use advm_soc::{Derivative, DerivativeId, EsVersion, GlobalsSpec, PlatformId};

use crate::basefuncs::{base_functions, BaseFuncsStyle};
use crate::testplan::Testplan;

/// Configuration binding an environment to a derivative, platform and
/// embedded-software release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvConfig {
    /// Target chip derivative.
    pub derivative: DerivativeId,
    /// Target execution platform.
    pub platform: PlatformId,
    /// Embedded-software release in the global layer.
    pub es_version: EsVersion,
    /// Base-function library style.
    pub style: BaseFuncsStyle,
}

impl EnvConfig {
    /// The default configuration: base chip, golden model, the chip's
    /// shipped ES release, version-aware library.
    pub fn new(derivative: DerivativeId, platform: PlatformId) -> Self {
        Self {
            derivative,
            platform,
            es_version: Derivative::from_id(derivative).es_version(),
            style: BaseFuncsStyle::VersionAware,
        }
    }

    /// Overrides the ES release (the Figure 7 scenario).
    pub fn with_es_version(mut self, version: EsVersion) -> Self {
        self.es_version = version;
        self
    }

    /// Overrides the library style.
    pub fn with_style(mut self, style: BaseFuncsStyle) -> Self {
        self.style = style;
        self
    }

    fn render(&self) -> String {
        format!(
            "DERIVATIVE={}\nPLATFORM={}\nES_VERSION={}\nSTYLE={}\n",
            self.derivative.name(),
            self.platform.name(),
            self.es_version.code(),
            self.style,
        )
    }

    fn parse(text: &str) -> Option<Self> {
        let mut derivative = None;
        let mut platform = None;
        let mut es_version = None;
        let mut style = None;
        for line in text.lines() {
            let (key, value) = line.split_once('=')?;
            match key {
                "DERIVATIVE" => {
                    derivative = DerivativeId::ALL.into_iter().find(|d| d.name() == value);
                }
                "PLATFORM" => {
                    platform = PlatformId::ALL.into_iter().find(|p| p.name() == value);
                }
                "ES_VERSION" => {
                    es_version = match value {
                        "1" => Some(EsVersion::V1),
                        "2" => Some(EsVersion::V2),
                        _ => None,
                    };
                }
                "STYLE" => style = BaseFuncsStyle::parse(value),
                _ => {}
            }
        }
        Some(Self {
            derivative: derivative?,
            platform: platform?,
            es_version: es_version?,
            style: style?,
        })
    }
}

/// A stimulus override for the generated abstraction layer: explicit
/// `TESTn_TARGET_PAGE` values and extra defines that survive
/// re-targeting.
///
/// Without an override, the generated abstraction layer derives
/// default test pages from the cell count. A scenario-driven
/// environment (see `crate::stimulus`) instead pins the pages and knobs
/// its scenario drew; porting the environment to another platform or
/// derivative regenerates the abstraction layer *around* the pinned
/// stimulus — the paper's rule, extended to generated stimulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    /// Explicit test-target pages; entry *i* becomes
    /// `TEST{i+1}_TARGET_PAGE` (wrapped into the derivative's page
    /// space on re-targeting).
    pub test_pages: Vec<u32>,
    /// Extra numeric defines rendered into `Globals.inc`.
    pub extra: Vec<(String, u32)>,
}

/// One test cell: a directory containing a single test source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCell {
    id: String,
    description: String,
    source: String,
}

impl TestCell {
    /// Creates a cell.
    ///
    /// # Panics
    ///
    /// Panics unless `id` starts with `TEST_` (the Figure 3 convention).
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        source: impl Into<String>,
    ) -> Self {
        let id = id.into();
        assert!(
            id.starts_with("TEST_"),
            "test cell id `{id}` must start with TEST_"
        );
        Self {
            id,
            description: description.into(),
            source: source.into(),
        }
    }

    /// The cell identifier (directory name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The test-plan description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The assembler source of the test.
    pub fn source(&self) -> &str {
        &self.source
    }
}

/// A module test environment (Figure 1 / Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleTestEnv {
    name: String,
    config: EnvConfig,
    globals_text: String,
    base_functions_text: String,
    cells: Vec<TestCell>,
    testplan: Testplan,
    stimulus: Option<Stimulus>,
}

/// File name of the generated globals file.
pub const GLOBALS_FILE: &str = "Globals.inc";
/// File name of the generated base-function library.
pub const BASE_FUNCTIONS_FILE: &str = "Base_Functions.asm";
/// File name of the environment configuration record.
pub const ENV_CONFIG_FILE: &str = "ENV_CONFIG.TXT";
/// File name of the test plan.
pub const TESTPLAN_FILE: &str = "TESTPLAN.TXT";
/// Directory name of the abstraction layer.
pub const ABSTRACTION_DIR: &str = "Abstraction_Layer";
/// File name of a cell's test source.
pub const TEST_SOURCE_FILE: &str = "test.asm";

impl ModuleTestEnv {
    /// Creates an environment and generates its abstraction layer.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains a derivative-specific string — the
    /// paper forbids derivative-specific environment names — or if two
    /// cells share an id.
    pub fn new(name: impl Into<String>, config: EnvConfig, cells: Vec<TestCell>) -> Self {
        let name = name.into();
        assert!(
            !name_is_derivative_specific(&name),
            "environment name `{name}` is derivative specific"
        );
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(a.id != b.id, "duplicate test cell id `{}`", a.id);
            }
        }
        let mut testplan = Testplan::new(&name);
        for cell in &cells {
            testplan = testplan.with_entry(cell.id.clone(), cell.description.clone());
        }
        let mut env = Self {
            name,
            config,
            globals_text: String::new(),
            base_functions_text: String::new(),
            cells,
            testplan,
            stimulus: None,
        };
        env.rebuild_abstraction_layer();
        env
    }

    /// Pins an explicit stimulus (test pages + extra defines) into the
    /// generated abstraction layer. The override survives
    /// [`ModuleTestEnv::reconfigure`]: re-targeting regenerates
    /// addresses, field geometry and platform knobs around the same
    /// stimulus.
    pub(crate) fn with_stimulus(mut self, stimulus: Stimulus) -> Self {
        self.stimulus = Some(stimulus);
        self.rebuild_abstraction_layer();
        self
    }

    /// The pinned stimulus override, if any.
    pub fn stimulus(&self) -> Option<&Stimulus> {
        self.stimulus.as_ref()
    }

    /// Regenerates `Globals.inc` and `Base_Functions.asm` from the
    /// current configuration. Test cells are never touched — this is the
    /// "single point of change" of the methodology.
    pub(crate) fn rebuild_abstraction_layer(&mut self) {
        let derivative = Derivative::from_id(self.config.derivative);
        let pages = derivative.page_count();
        let mut spec = GlobalsSpec::new(derivative, self.config.platform)
            .with_es_version(self.config.es_version);
        spec = match &self.stimulus {
            Some(stimulus) => {
                // Wrap pinned pages into the (possibly narrower) page
                // space of the derivative we are re-targeting to.
                let mut spec =
                    spec.with_test_pages(stimulus.test_pages.iter().map(|p| p % pages).collect());
                for (name, value) in &stimulus.extra {
                    spec = spec.with_extra(name.clone(), *value);
                }
                spec
            }
            None => spec.with_generated_test_pages(self.cells.len().max(2)),
        };
        self.globals_text = cached_globals_text(&spec);
        self.base_functions_text = base_functions(self.config.style);
    }

    /// The environment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current configuration.
    pub fn config(&self) -> EnvConfig {
        self.config
    }

    /// Reconfigures the environment and regenerates the abstraction
    /// layer. Returns the old configuration.
    pub fn reconfigure(&mut self, config: EnvConfig) -> EnvConfig {
        let old = self.config;
        self.config = config;
        self.rebuild_abstraction_layer();
        old
    }

    /// The generated `Globals.inc` text.
    pub fn globals_text(&self) -> &str {
        &self.globals_text
    }

    /// The generated `Base_Functions.asm` text.
    pub fn base_functions_text(&self) -> &str {
        &self.base_functions_text
    }

    /// The test cells.
    pub fn cells(&self) -> &[TestCell] {
        &self.cells
    }

    /// Looks up a cell by id.
    pub fn cell(&self, id: &str) -> Option<&TestCell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// The test plan.
    pub fn testplan(&self) -> &Testplan {
        &self.testplan
    }

    /// Renders the Figure 3 directory tree (path → content).
    pub fn tree(&self) -> BTreeMap<String, String> {
        let mut tree = BTreeMap::new();
        let n = &self.name;
        tree.insert(format!("{n}/{TESTPLAN_FILE}"), self.testplan.render());
        tree.insert(
            format!("{n}/{ABSTRACTION_DIR}/{GLOBALS_FILE}"),
            self.globals_text.clone(),
        );
        tree.insert(
            format!("{n}/{ABSTRACTION_DIR}/{BASE_FUNCTIONS_FILE}"),
            self.base_functions_text.clone(),
        );
        tree.insert(
            format!("{n}/{ABSTRACTION_DIR}/{ENV_CONFIG_FILE}"),
            self.config.render(),
        );
        for cell in &self.cells {
            tree.insert(
                format!("{n}/{}/{TEST_SOURCE_FILE}", cell.id),
                cell.source.clone(),
            );
        }
        tree
    }

    /// Reconstructs an environment from a rendered tree (used when
    /// thawing a frozen release).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed piece.
    pub fn from_tree(name: &str, tree: &BTreeMap<String, String>) -> Result<Self, String> {
        let get = |path: String| -> Result<&String, String> {
            tree.get(&path).ok_or(format!("missing `{path}`"))
        };
        let config_text = get(format!("{name}/{ABSTRACTION_DIR}/{ENV_CONFIG_FILE}"))?;
        let config =
            EnvConfig::parse(config_text).ok_or_else(|| format!("malformed {ENV_CONFIG_FILE}"))?;
        let globals_text = get(format!("{name}/{ABSTRACTION_DIR}/{GLOBALS_FILE}"))?.clone();
        let base_functions_text =
            get(format!("{name}/{ABSTRACTION_DIR}/{BASE_FUNCTIONS_FILE}"))?.clone();
        let testplan = Testplan::parse(get(format!("{name}/{TESTPLAN_FILE}"))?);

        let mut cells = Vec::new();
        let prefix = format!("{name}/TEST_");
        for (path, content) in tree {
            if path.starts_with(&prefix) && path.ends_with(TEST_SOURCE_FILE) {
                let cell_id = path
                    .trim_start_matches(&format!("{name}/"))
                    .trim_end_matches(&format!("/{TEST_SOURCE_FILE}"))
                    .to_owned();
                let description = testplan
                    .entry(&cell_id)
                    .map(|e| e.description.clone())
                    .unwrap_or_default();
                cells.push(TestCell::new(cell_id, description, content.clone()));
            }
        }
        if cells.is_empty() {
            return Err(format!("environment `{name}` has no test cells"));
        }
        Ok(Self {
            name: name.to_owned(),
            config,
            globals_text,
            base_functions_text,
            cells,
            testplan,
            stimulus: None,
        })
    }

    /// Total source lines across the environment (effort accounting).
    pub fn total_lines(&self) -> usize {
        self.tree().values().map(|t| t.lines().count()).sum()
    }
}

impl fmt::Display for ModuleTestEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} tests, {} on {}]",
            self.name,
            self.cells.len(),
            self.config.derivative.name(),
            self.config.platform,
        )
    }
}

/// Renders a globals spec through a bounded process-wide cache.
///
/// Campaign planning re-targets environments to every platform, so the
/// same few (derivative, platform, release, test-page, extra-define)
/// combinations render dozens of times per plan while the rendered text
/// is a pure function of exactly those inputs. The cache is cleared
/// wholesale when full, bounding memory under randomized-globals
/// workloads without an eviction policy.
fn cached_globals_text(spec: &GlobalsSpec) -> String {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    type Key = (DerivativeId, PlatformId, u32, Vec<u32>, Vec<(String, u32)>);
    static CACHE: OnceLock<Mutex<HashMap<Key, String>>> = OnceLock::new();
    const CACHE_CAP: usize = 64;

    let key: Key = (
        spec.derivative().id(),
        spec.platform(),
        spec.es_version().code(),
        spec.test_pages().to_vec(),
        spec.extra().map(|(n, v)| (n.to_owned(), v)).collect(),
    );
    let mut cache = CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("globals render cache lock");
    if let Some(text) = cache.get(&key) {
        return text.clone();
    }
    let text = spec.render().text();
    if cache.len() >= CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, text.clone());
    text
}

/// Whether an environment name embeds a derivative name (forbidden by the
/// methodology: "Derivative specific names are not permitted").
pub(crate) fn name_is_derivative_specific(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    DerivativeId::ALL.into_iter().any(|d| {
        let full = d.name().to_ascii_uppercase(); // e.g. "SC88-A"
        let compact = full.replace('-', ""); // "SC88A"
        upper.contains(&full) || upper.contains(&compact)
    })
}

/// A structural problem found by [`validate_layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutIssue {
    /// `TESTPLAN.TXT` is missing.
    MissingTestplan,
    /// The abstraction-layer directory or one of its files is missing.
    MissingAbstractionLayer(String),
    /// A test cell directory lacks its `test.asm`.
    MissingTestSource(String),
    /// A test cell id does not follow the `TEST_*` convention.
    BadCellName(String),
    /// The environment name is derivative specific.
    DerivativeSpecificName(String),
    /// A file lies outside the recognised structure.
    StrayFile(String),
    /// A test cell is missing from the test plan.
    UnplannedTest(String),
}

impl fmt::Display for LayoutIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutIssue::MissingTestplan => f.write_str("TESTPLAN.TXT missing"),
            LayoutIssue::MissingAbstractionLayer(file) => {
                write!(f, "abstraction layer file missing: {file}")
            }
            LayoutIssue::MissingTestSource(cell) => {
                write!(f, "test cell `{cell}` lacks {TEST_SOURCE_FILE}")
            }
            LayoutIssue::BadCellName(cell) => {
                write!(
                    f,
                    "test cell `{cell}` does not follow the TEST_* convention"
                )
            }
            LayoutIssue::DerivativeSpecificName(name) => {
                write!(f, "derivative-specific name `{name}`")
            }
            LayoutIssue::StrayFile(path) => write!(f, "stray file `{path}`"),
            LayoutIssue::UnplannedTest(cell) => {
                write!(f, "test cell `{cell}` missing from TESTPLAN.TXT")
            }
        }
    }
}

/// Validates a rendered tree against the Figure 3 structure rules.
pub fn validate_layout(name: &str, tree: &BTreeMap<String, String>) -> Vec<LayoutIssue> {
    let mut issues = Vec::new();
    if name_is_derivative_specific(name) {
        issues.push(LayoutIssue::DerivativeSpecificName(name.to_owned()));
    }
    let testplan_path = format!("{name}/{TESTPLAN_FILE}");
    let testplan = match tree.get(&testplan_path) {
        Some(text) => Testplan::parse(text),
        None => {
            issues.push(LayoutIssue::MissingTestplan);
            Testplan::new(name)
        }
    };
    for file in [GLOBALS_FILE, BASE_FUNCTIONS_FILE, ENV_CONFIG_FILE] {
        let path = format!("{name}/{ABSTRACTION_DIR}/{file}");
        if !tree.contains_key(&path) {
            issues.push(LayoutIssue::MissingAbstractionLayer(file.to_owned()));
        }
    }
    for path in tree.keys() {
        let Some(rel) = path.strip_prefix(&format!("{name}/")) else {
            issues.push(LayoutIssue::StrayFile(path.clone()));
            continue;
        };
        let parts: Vec<&str> = rel.split('/').collect();
        match parts.as_slice() {
            [f] if *f == TESTPLAN_FILE => {}
            [d, _] if *d == ABSTRACTION_DIR => {}
            [cell, f] if *f == TEST_SOURCE_FILE => {
                if !cell.starts_with("TEST_") {
                    issues.push(LayoutIssue::BadCellName((*cell).to_owned()));
                } else {
                    if name_is_derivative_specific(cell) {
                        issues.push(LayoutIssue::DerivativeSpecificName((*cell).to_owned()));
                    }
                    if testplan.entry(cell).is_none() {
                        issues.push(LayoutIssue::UnplannedTest((*cell).to_owned()));
                    }
                }
            }
            _ => issues.push(LayoutIssue::StrayFile(path.clone())),
        }
    }
    // Cells listed in the plan but absent from the tree.
    for entry in testplan.entries() {
        let path = format!("{name}/{}/{TEST_SOURCE_FILE}", entry.id);
        if !tree.contains_key(&path) {
            issues.push(LayoutIssue::MissingTestSource(entry.id.clone()));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_cell(id: &str) -> TestCell {
        TestCell::new(
            id,
            "demo",
            ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n",
        )
    }

    fn simple_env() -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![simple_cell("TEST_ALPHA"), simple_cell("TEST_BETA")],
        )
    }

    #[test]
    fn env_renders_figure3_tree() {
        let env = simple_env();
        let tree = env.tree();
        assert!(tree.contains_key("PAGE/TESTPLAN.TXT"));
        assert!(tree.contains_key("PAGE/Abstraction_Layer/Globals.inc"));
        assert!(tree.contains_key("PAGE/Abstraction_Layer/Base_Functions.asm"));
        assert!(tree.contains_key("PAGE/TEST_ALPHA/test.asm"));
        assert!(tree.contains_key("PAGE/TEST_BETA/test.asm"));
        assert!(validate_layout("PAGE", &tree).is_empty());
    }

    #[test]
    fn tree_roundtrips_through_from_tree() {
        let env = simple_env();
        let rebuilt = ModuleTestEnv::from_tree("PAGE", &env.tree()).unwrap();
        assert_eq!(rebuilt, env);
    }

    #[test]
    fn reconfigure_changes_only_abstraction_layer() {
        let env = simple_env();
        let before = env.tree();
        let mut ported = env.clone();
        ported.reconfigure(EnvConfig::new(DerivativeId::Sc88C, PlatformId::GoldenModel));
        let after = ported.tree();
        // Tests and plan identical; abstraction layer files differ.
        assert_eq!(
            before["PAGE/TEST_ALPHA/test.asm"],
            after["PAGE/TEST_ALPHA/test.asm"]
        );
        assert_eq!(before["PAGE/TESTPLAN.TXT"], after["PAGE/TESTPLAN.TXT"]);
        assert_ne!(
            before["PAGE/Abstraction_Layer/Globals.inc"],
            after["PAGE/Abstraction_Layer/Globals.inc"]
        );
    }

    #[test]
    #[should_panic(expected = "derivative specific")]
    fn derivative_specific_name_rejected() {
        ModuleTestEnv::new(
            "UART_SC88A",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![simple_cell("TEST_X")],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate test cell")]
    fn duplicate_cells_rejected() {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![simple_cell("TEST_X"), simple_cell("TEST_X")],
        );
    }

    #[test]
    fn layout_validator_flags_problems() {
        let env = simple_env();
        let mut tree = env.tree();
        tree.remove("PAGE/TESTPLAN.TXT");
        tree.insert("PAGE/random.txt".into(), "junk".into());
        tree.insert("PAGE/BADCELL/test.asm".into(), "x".into());
        let issues = validate_layout("PAGE", &tree);
        assert!(issues.contains(&LayoutIssue::MissingTestplan));
        assert!(issues
            .iter()
            .any(|i| matches!(i, LayoutIssue::StrayFile(_))));
        assert!(issues
            .iter()
            .any(|i| matches!(i, LayoutIssue::BadCellName(_))));
    }

    #[test]
    fn layout_validator_flags_unplanned_and_missing_tests() {
        let env = simple_env();
        let mut tree = env.tree();
        // Add an unplanned cell and remove a planned one's source.
        tree.insert("PAGE/TEST_ROGUE/test.asm".into(), "x".into());
        tree.remove("PAGE/TEST_BETA/test.asm");
        let issues = validate_layout("PAGE", &tree);
        assert!(issues.contains(&LayoutIssue::UnplannedTest("TEST_ROGUE".into())));
        assert!(issues.contains(&LayoutIssue::MissingTestSource("TEST_BETA".into())));
    }

    #[test]
    fn env_config_roundtrips() {
        let config = EnvConfig::new(DerivativeId::Sc88D, PlatformId::Accelerator)
            .with_es_version(EsVersion::V2)
            .with_style(BaseFuncsStyle::V1Only);
        assert_eq!(EnvConfig::parse(&config.render()), Some(config));
    }

    #[test]
    fn derivative_specific_name_detection() {
        assert!(name_is_derivative_specific("UART_SC88A"));
        assert!(name_is_derivative_specific("sc88-b_tests"));
        assert!(!name_is_derivative_specific("UART"));
        assert!(!name_is_derivative_specific("REGISTER_TESTS"));
    }

    #[test]
    fn stimulus_override_survives_reconfigure() {
        let mut env = simple_env().with_stimulus(Stimulus {
            test_pages: vec![13, 29],
            extra: vec![("MY_KNOB".to_owned(), 77)],
        });
        assert!(env.globals_text().contains("TEST1_TARGET_PAGE .EQU 0xD"));
        assert!(env.globals_text().contains("MY_KNOB .EQU 0x4D"));
        env.reconfigure(EnvConfig::new(DerivativeId::Sc88C, PlatformId::Accelerator));
        // Re-targeting regenerates the layer around the pinned stimulus.
        assert!(env.globals_text().contains("TEST1_TARGET_PAGE .EQU 0xD"));
        assert!(env.globals_text().contains("TEST2_TARGET_PAGE .EQU 0x1D"));
        assert!(env.globals_text().contains("MY_KNOB .EQU 0x4D"));
        assert!(env.stimulus().is_some());
    }

    #[test]
    fn stimulus_pages_wrap_into_narrower_page_spaces() {
        // SC88-A has 32 pages; a pinned page 40 wraps to 8 rather than
        // tripping the GlobalsSpec bound panic.
        let env = simple_env().with_stimulus(Stimulus {
            test_pages: vec![40],
            extra: Vec::new(),
        });
        assert!(env.globals_text().contains("TEST1_TARGET_PAGE .EQU 0x8"));
    }

    #[test]
    fn globals_follow_derivative() {
        let mut env = simple_env();
        assert!(env.globals_text().contains("PAGE_FIELD_SIZE .EQU 0x5"));
        env.reconfigure(EnvConfig::new(DerivativeId::Sc88C, PlatformId::GoldenModel));
        assert!(env.globals_text().contains("PAGE_FIELD_SIZE .EQU 0x6"));
    }
}
