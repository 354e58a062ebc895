//! Building and running test cells.
//!
//! A *unit* is one test cell compiled with its environment's abstraction
//! layer and the global libraries, laid out per the SC88 runtime
//! contract: vector table at 0, startup stub at the reset PC, then trap
//! handlers, base functions and the test. The embedded-software ROM is
//! assembled separately (it is global-layer code delivered by another
//! team) and merged at image level — overlap is a build error.

use advm_asm::{assemble, AsmError, Image, Program, SourceSet};
use advm_sim::{Platform, PlatformFault, RunResult};
use advm_soc::{Derivative, EsRom};

use crate::env::{ModuleTestEnv, BASE_FUNCTIONS_FILE, GLOBALS_FILE, TEST_SOURCE_FILE};
use crate::runtime::{
    startup_stub, trap_handlers, vector_table, TRAP_HANDLERS_FILE, VECTOR_TABLE_FILE,
};

/// Name of the synthesized unit entry file.
pub const UNIT_FILE: &str = "__unit.asm";

/// Builds the flat source set for assembling one cell of an environment.
///
/// The set uses the short file names the paper's listings use
/// (`Globals.inc`, `Base_Functions.asm`), mapped from the environment's
/// tree. The wrapper's first line is a comment naming the cell; the
/// names are escaped so that it stays one comment line whatever they
/// contain, because campaigns share one build of everything else in the
/// wrapper among an environment's cells.
///
/// # Errors
///
/// Returns an error if the cell does not exist.
pub fn unit_sources(env: &ModuleTestEnv, cell_id: &str) -> Result<SourceSet, AsmError> {
    let cell = env.cell(cell_id).ok_or_else(|| {
        AsmError::general(format!(
            "no test cell `{cell_id}` in environment `{}`",
            env.name()
        ))
    })?;
    let unit = format!(
        "\
;; {UNIT_FILE} — generated build wrapper for {env_name}/{cell_id}
.INCLUDE {GLOBALS_FILE}
.ORG 0x0
.INCLUDE {VECTOR_TABLE_FILE}
.ORG 0x100
{stub}
.INCLUDE {TRAP_HANDLERS_FILE}
.INCLUDE {BASE_FUNCTIONS_FILE}
.INCLUDE {TEST_SOURCE_FILE}
",
        env_name = env.name().escape_debug(),
        cell_id = cell_id.escape_debug(),
        stub = startup_stub(),
    );
    Ok(SourceSet::new()
        .with(UNIT_FILE, unit)
        .with(GLOBALS_FILE, env.globals_text())
        .with(BASE_FUNCTIONS_FILE, env.base_functions_text())
        .with(VECTOR_TABLE_FILE, vector_table())
        .with(TRAP_HANDLERS_FILE, trap_handlers())
        .with(TEST_SOURCE_FILE, cell.source()))
}

/// Assembles one cell into its unit program.
///
/// # Errors
///
/// Propagates assembly errors, located in the offending source file.
pub fn assemble_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<Program, AsmError> {
    let sources = unit_sources(env, cell_id)?;
    assemble(UNIT_FILE, &sources)
}

/// Generates the source of the embedded-software ROM the environment's
/// configuration expects.
pub fn es_rom_source(env: &ModuleTestEnv) -> String {
    let derivative = Derivative::from_id(env.config().derivative);
    EsRom::generate(&derivative, env.config().es_version)
        .source()
        .to_owned()
}

/// Links an assembled unit and ES ROM into one loadable image.
///
/// This is the final stage of the [`crate::campaign::Campaign`] worker
/// hot path; exposing it separately lets the campaign's build cache
/// assemble the (campaign-wide identical) ES ROM once and re-link it
/// against many units.
///
/// # Errors
///
/// Propagates image-overlap link errors.
pub fn link_programs(unit: &Program, es: &Program) -> Result<Image, AsmError> {
    let mut image = Image::new();
    image
        .load_program(unit)
        .map_err(|e| AsmError::general(format!("unit link failed: {e}")))?;
    image
        .load_program(es)
        .map_err(|e| AsmError::general(format!("ES ROM link failed: {e}")))?;
    Ok(image)
}

/// Assembles and links one full image from pre-generated inputs: the
/// cell's unit source set plus the ES ROM source.
///
/// # Errors
///
/// Propagates assembly errors and image-overlap link errors.
pub(crate) fn build_from_sources(sources: &SourceSet, es_source: &str) -> Result<Image, AsmError> {
    let unit = assemble(UNIT_FILE, sources)?;
    let es = advm_asm::assemble_str(es_source)?;
    link_programs(&unit, &es)
}

/// Builds the full loadable image for one cell: unit + ES ROM.
///
/// # Errors
///
/// Propagates assembly errors and image-overlap link errors.
pub fn build_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<Image, AsmError> {
    let sources = unit_sources(env, cell_id)?;
    build_from_sources(&sources, &es_rom_source(env))
}

/// Builds and runs one cell on the environment's configured platform.
///
/// # Errors
///
/// Propagates build errors; execution problems are reported inside the
/// [`RunResult`], not as `Err`.
pub fn run_cell(env: &ModuleTestEnv, cell_id: &str) -> Result<RunResult, AsmError> {
    run_cell_with_fault(env, cell_id, PlatformFault::None)
}

/// Like [`run_cell`], with a hardware fault injected into the platform.
///
/// # Errors
///
/// Propagates build errors.
pub(crate) fn run_cell_with_fault(
    env: &ModuleTestEnv,
    cell_id: &str,
    fault: PlatformFault,
) -> Result<RunResult, AsmError> {
    let image = build_cell(env, cell_id)?;
    let derivative = Derivative::from_id(env.config().derivative);
    let mut platform = Platform::with_fault(env.config().platform, &derivative, fault);
    platform.load_image(&image);
    Ok(platform.run())
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, PlatformId};

    use crate::env::{EnvConfig, TestCell};

    use super::*;

    fn env_with(source: &str) -> ModuleTestEnv {
        ModuleTestEnv::new(
            "PAGE",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![TestCell::new("TEST_ONE", "demo", source)],
        )
    }

    #[test]
    fn minimal_passing_cell_builds_and_passes() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn paper_figure6_cell_passes_end_to_end() {
        // The Figure 6 test, completed with the check-and-report epilogue:
        // build the page value with INSERT under globals control, write
        // it, and verify the hardware took it.
        let env = env_with(
            "\
;; Code for test 1
.INCLUDE Globals.inc
TEST_PAGE .EQU TEST1_TARGET_PAGE
_main:
    CALL Base_Init_Register
    MOVI d14, #0
    INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, PAGE_FIELD_SIZE
    OR d14, d14, #PAGE_ENABLE_MASK
    STORE [PAGE_CTRL_ADDR], d14
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
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn figure7_wrapped_es_call_works() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Init_Register
    LOAD d1, [PAGE_CTRL_ADDR]
    AND d1, d1, #PAGE_ENABLE_MASK
    CMP d1, #0
    JEQ t_fail
    CALL Base_Report_Pass
    RETURN
t_fail:
    LOAD ArgA, #2
    CALL Base_Report_Fail
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(result.passed(), "{result}");
    }

    #[test]
    fn cell_names_cannot_add_lines_to_the_unit_wrapper() {
        let env = ModuleTestEnv::new(
            "PAGE\n.ORG 0x4000",
            EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            vec![
                TestCell::new("TEST_ONE", "demo", "_main:\n    RETURN\n"),
                TestCell::new("TEST_TWO\n.ORG 0x5000", "demo", "_main:\n    RETURN\n"),
            ],
        );
        let wrapper = |cell: &str| {
            unit_sources(&env, cell)
                .unwrap()
                .get(UNIT_FILE)
                .unwrap()
                .to_owned()
        };
        let (one, two) = (wrapper("TEST_ONE"), wrapper("TEST_TWO\n.ORG 0x5000"));
        assert!(
            one.starts_with(
                ";; __unit.asm — generated build wrapper for PAGE\\n.ORG 0x4000/TEST_ONE\n"
            ),
            "{one}"
        );
        assert_eq!(
            one.lines().skip(1).collect::<Vec<_>>(),
            two.lines().skip(1).collect::<Vec<_>>()
        );
        assert_eq!(
            assemble_cell(&env, "TEST_ONE").unwrap().segments(),
            assemble_cell(&env, "TEST_TWO\n.ORG 0x5000")
                .unwrap()
                .segments()
        );
    }

    #[test]
    fn missing_cell_reports_error() {
        let env = env_with("_main:\n    RETURN\n");
        assert!(run_cell(&env, "TEST_MISSING").is_err());
    }

    #[test]
    fn returning_without_result_fails_with_no_result_code() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail {
                detail: crate::runtime::fail_codes::NO_RESULT as u16
            })
        );
    }

    #[test]
    fn stray_trap_fails_via_default_handler() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, [0x70000]       ; unmapped: bus error trap
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail {
                detail: crate::runtime::fail_codes::BUS_ERROR as u16
            })
        );
    }

    #[test]
    fn check_eq_macro_works() {
        let env = env_with(
            "\
.INCLUDE Globals.inc
_main:
    LOAD d1, #7
    CHECK_EQ d1, #7, 10
    CHECK_EQ d1, #8, 11
    CALL Base_Report_Pass
    RETURN
",
        );
        let result = run_cell(&env, "TEST_ONE").unwrap();
        assert!(!result.passed());
        assert_eq!(
            result.outcome,
            Some(advm_soc::TestOutcome::Fail { detail: 11 })
        );
    }

    #[test]
    fn same_cell_runs_on_every_platform() {
        let base = env_with(
            "\
.INCLUDE Globals.inc
_main:
    CALL Base_Wdt_Init
    CALL Base_Wdt_Service
    CALL Base_Report_Pass
    RETURN
",
        );
        for platform in PlatformId::ALL {
            let mut env = base.clone();
            let config = EnvConfig::new(DerivativeId::Sc88A, platform);
            env.reconfigure(config);
            let result = run_cell(&env, "TEST_ONE").unwrap();
            assert!(result.passed(), "{platform}: {result}");
        }
    }
}
