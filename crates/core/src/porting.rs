//! The porting engine: re-targeting an environment to a new derivative,
//! platform or embedded-software release.
//!
//! This is the methodology's headline operation. Porting an ADVM
//! environment *regenerates the abstraction layer and nothing else*; the
//! returned [`ChangeSet`] is the measured cost, which the experiments
//! compare against the hardwired baseline's cost (where every test file
//! must be edited).

use advm_metrics::{diff_trees, ChangeSet};

use crate::env::{EnvConfig, ModuleTestEnv};

/// The result of a porting operation.
#[derive(Debug, Clone)]
pub struct PortOutcome {
    /// The re-targeted environment.
    pub env: ModuleTestEnv,
    /// What changed, file by file.
    pub changes: ChangeSet,
}

/// Ports an environment to a new configuration, returning the new
/// environment and the change-set relative to the old one.
pub fn port_env(env: &ModuleTestEnv, config: EnvConfig) -> PortOutcome {
    let before = env.tree();
    let mut ported = env.clone();
    ported.reconfigure(config);
    let after = ported.tree();
    PortOutcome {
        env: ported,
        changes: diff_trees(&before, &after),
    }
}

/// Counts the test files a change-set touched (anything under a `TEST_*`
/// cell directory) — the quantity the methodology drives to zero.
pub fn test_files_touched(changes: &ChangeSet) -> usize {
    changes
        .changes()
        .iter()
        .filter(|c| {
            c.path
                .split('/')
                .nth(1)
                .is_some_and(|d| d.starts_with("TEST_"))
        })
        .count()
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, EsVersion, PlatformId};

    use crate::basefuncs::BaseFuncsStyle;
    use crate::build::run_cell;
    use crate::env::{EnvConfig, TestCell};

    use super::*;

    /// Counts the abstraction-layer files a change-set touched.
    fn abstraction_files_touched(changes: &ChangeSet) -> usize {
        changes
            .changes()
            .iter()
            .filter(|c| c.path.contains("/Abstraction_Layer/"))
            .count()
    }

    fn page_test_source() -> &'static str {
        "\
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    CALL Base_Init_Register
    LOAD ArgA, #TEST_PAGE
    CALL Base_Select_Page
    LOAD ArgA, #TEST_PAGE
    CALL Base_Check_Active_Page
    CMP RetVal, #0
    JNE t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #1
    CALL Base_Report_Fail
    RETURN
"
    }

    fn page_env() -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new(
                "TEST_PAGE_SELECT",
                "page select/readback",
                page_test_source(),
            )],
        )
    }

    #[test]
    fn port_to_derivative_touches_zero_test_files() {
        let env = page_env();
        for target in [
            DerivativeId::Sc88B,
            DerivativeId::Sc88C,
            DerivativeId::Sc88D,
        ] {
            let outcome = port_env(&env, EnvConfig::new(target, PlatformId::GoldenModel));
            assert_eq!(
                test_files_touched(&outcome.changes),
                0,
                "{target:?}: ADVM must not touch tests"
            );
            assert!(
                abstraction_files_touched(&outcome.changes) >= 1,
                "{target:?}"
            );
        }
    }

    #[test]
    fn ported_env_passes_on_every_derivative() {
        // The paper's Figure 6 claim, end to end: the same test source,
        // re-targeted only through the abstraction layer, passes on the
        // base chip, the moved-field spec revision, the widened-field
        // derivative and the renamed/relocated derivative.
        let env = page_env();
        let before = run_cell(&env, "TEST_PAGE_SELECT").unwrap();
        assert!(before.passed(), "baseline: {before}");
        for target in [
            DerivativeId::Sc88B,
            DerivativeId::Sc88C,
            DerivativeId::Sc88D,
        ] {
            let outcome = port_env(&env, EnvConfig::new(target, PlatformId::GoldenModel));
            let result = run_cell(&outcome.env, "TEST_PAGE_SELECT").unwrap();
            assert!(result.passed(), "{target:?}: {result}");
        }
    }

    #[test]
    fn stale_globals_really_fail_on_new_derivative() {
        // Sanity check that porting is *necessary*: running the SC88-A
        // build against SC88-B hardware (moved page field) must fail —
        // otherwise the port measured nothing.
        let env = page_env();
        let mut stale = env.clone();
        // Rebind the platform model to SC88-B without regenerating the
        // abstraction layer: simulate "forgot to port".
        let image = crate::build::build_cell(&stale, "TEST_PAGE_SELECT").unwrap();
        let derivative = advm_soc::Derivative::sc88b();
        let mut platform = advm_sim::Platform::new(PlatformId::GoldenModel, &derivative);
        platform.load_image(&image);
        let result = platform.run();
        assert!(
            !result.passed(),
            "stale build must fail on SC88-B: {result}"
        );
        // And the properly ported build passes (proved in the test above).
        stale.reconfigure(EnvConfig::new(DerivativeId::Sc88B, PlatformId::GoldenModel));
        let result = run_cell(&stale, "TEST_PAGE_SELECT").unwrap();
        assert!(result.passed());
    }

    #[test]
    fn platform_port_also_touches_only_globals() {
        let env = page_env();
        let outcome = port_env(
            &env,
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GateSim),
        );
        assert_eq!(test_files_touched(&outcome.changes), 0);
        // Only Globals.inc changes (platform knobs); the base functions
        // are platform-independent text.
        assert_eq!(
            outcome.changes.files_touched(),
            2,
            "globals + env config record"
        );
    }

    #[test]
    fn es_version_port_with_version_aware_library_touches_only_globals() {
        let env = page_env();
        let outcome = port_env(
            &env,
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
                .with_es_version(EsVersion::V2),
        );
        assert_eq!(test_files_touched(&outcome.changes), 0);
        assert!(outcome
            .changes
            .change("PAGE/Abstraction_Layer/Globals.inc")
            .is_some());
    }

    #[test]
    fn style_refactor_touches_only_base_functions() {
        let mut env = page_env();
        env.reconfigure(
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel)
                .with_style(BaseFuncsStyle::V1Only),
        );
        let outcome = port_env(&env, env.config().with_style(BaseFuncsStyle::VersionAware));
        assert_eq!(test_files_touched(&outcome.changes), 0);
        assert!(outcome
            .changes
            .change("PAGE/Abstraction_Layer/Base_Functions.asm")
            .is_some());
    }
}
