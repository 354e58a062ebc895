//! Building and running hardwired tests.
//!
//! The direct suite shares the chip's runtime reality — vector table,
//! trap handlers, embedded-software ROM — but, having no abstraction
//! layer, its startup wrapper hardwires the mailbox protocol too.

use advm_asm::{assemble, AsmError, Image, SourceSet};
use advm_sim::{Platform, RunResult};
use advm_soc::{Derivative, EsRom, Mailbox};

use crate::suite::DirectSuite;

/// Generates the hardwired startup wrapper for one test.
fn direct_unit(test_source: &str) -> String {
    let result = Mailbox::new().reg(Mailbox::RESULT);
    let sim_end = Mailbox::new().reg(Mailbox::SIM_END);
    format!(
        "\
;; __unit.asm — direct-test wrapper (no abstraction layer)
.ORG 0x0
.INCLUDE Vector_Table.inc
.ORG 0x100
__start:
    CALL _main
    LOAD d15, #0x{no_result:08X}
    STORE [0x{result:05X}], d15
    STORE [0x{sim_end:05X}], d15
    HALT #0xFE
.INCLUDE Trap_Handlers.asm
{test_source}
",
        no_result = Mailbox::FAIL_MAGIC | 0xFE,
    )
}

/// Builds one direct test into a loadable image (test + ES ROM).
///
/// # Errors
///
/// Returns assembly or link errors, and an error for unknown test ids.
pub(crate) fn build_direct_test(suite: &DirectSuite, test_id: &str) -> Result<Image, AsmError> {
    let source = suite
        .cell(test_id)
        .ok_or_else(|| AsmError::general(format!("no test `{test_id}` in {}", suite.name())))?;
    let sources = SourceSet::new()
        .with("__unit.asm", direct_unit(source))
        .with("Vector_Table.inc", advm::runtime::vector_table())
        .with("Trap_Handlers.asm", advm::runtime::trap_handlers());
    let unit = assemble("__unit.asm", &sources)?;

    let derivative = Derivative::from_id(suite.config().derivative);
    let rom = EsRom::generate(&derivative, suite.config().es_version);
    let es = advm_asm::assemble_str(rom.source())?;

    let mut image = Image::new();
    image
        .load_program(&unit)
        .map_err(|e| AsmError::general(format!("unit link failed: {e}")))?;
    image
        .load_program(&es)
        .map_err(|e| AsmError::general(format!("ES ROM link failed: {e}")))?;
    Ok(image)
}

/// Builds and runs one direct test on the suite's hardwired platform.
///
/// # Errors
///
/// Propagates build errors; execution problems land in the [`RunResult`].
pub fn run_direct_test(suite: &DirectSuite, test_id: &str) -> Result<RunResult, AsmError> {
    let image = build_direct_test(suite, test_id)?;
    let derivative = Derivative::from_id(suite.config().derivative);
    let mut platform = Platform::new(suite.config().platform, &derivative);
    platform.load_image(&image);
    Ok(platform.run())
}

#[cfg(test)]
mod tests {
    use advm_soc::{DerivativeId, EsVersion, PlatformId};

    use crate::suite::{direct_es_suite, direct_page_suite, SuiteConfig};

    use super::*;

    #[test]
    fn direct_page_tests_pass_on_their_target() {
        for derivative in DerivativeId::ALL {
            let suite = direct_page_suite(SuiteConfig::new(derivative, PlatformId::GoldenModel), 3);
            for (id, _) in suite.cells() {
                let result = run_direct_test(&suite, id)
                    .unwrap_or_else(|e| panic!("{derivative:?}/{id}: {e}"));
                assert!(result.passed(), "{derivative:?}/{id}: {result}");
            }
        }
    }

    #[test]
    fn direct_es_tests_pass_with_matching_conventions() {
        for es in [EsVersion::V1, EsVersion::V2] {
            let suite = direct_es_suite(
                SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel).with_es_version(es),
            );
            for (id, _) in suite.cells() {
                let result =
                    run_direct_test(&suite, id).unwrap_or_else(|e| panic!("{es}/{id}: {e}"));
                assert!(result.passed(), "{es}/{id}: {result}");
            }
        }
    }

    #[test]
    fn stale_suite_fails_on_new_derivative() {
        // A suite written for SC88-A, run unchanged against SC88-B
        // hardware: the hardwired geometry writes the wrong bits, the
        // mixed write/read paths disagree, and the test fails.
        let suite = direct_page_suite(
            SuiteConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
            1,
        );
        let image = build_direct_test(&suite, "TEST_DIRECT_PAGE_01").unwrap();
        let b = Derivative::sc88b();
        let mut platform = Platform::new(PlatformId::GoldenModel, &b);
        platform.load_image(&image);
        let result = platform.run();
        // Self-consistent hardwiring *can* mask a moved field (write and
        // read through the same wrong bits), so assert on the hardware's
        // own view: the selected page must be wrong even if the test is
        // fooled.
        let selected = platform.bus().read32(0xE_0104).unwrap();
        let active = (selected >> 1) & 0x1F; // SC88-B geometry
        assert_ne!(
            active, 8,
            "stale test programmed the wrong page (result: {result})"
        );
    }

    #[test]
    fn stale_es_conventions_fail_loudly() {
        // Suite written against ES v1, run with a v2 ROM: the checksum
        // result register moved, so the hardwired test fails.
        let v1_suite = direct_es_suite(SuiteConfig::new(
            DerivativeId::Sc88A,
            PlatformId::GoldenModel,
        ));
        let stale = DirectSuiteWithV2Rom(&v1_suite);
        let result = stale.run("TEST_DIRECT_CHECKSUM");
        assert!(!result.passed(), "{result}");
    }

    /// Helper: run a suite's test against a v2 ES ROM without
    /// regenerating the tests (the "ES team re-released under us" event).
    struct DirectSuiteWithV2Rom<'a>(&'a DirectSuite);

    impl DirectSuiteWithV2Rom<'_> {
        fn run(&self, test_id: &str) -> RunResult {
            let source = self.0.cell(test_id).expect("test exists");
            let sources = SourceSet::new()
                .with("__unit.asm", super::direct_unit(source))
                .with("Vector_Table.inc", advm::runtime::vector_table())
                .with("Trap_Handlers.asm", advm::runtime::trap_handlers());
            let unit = assemble("__unit.asm", &sources).expect("assembles");
            let derivative = Derivative::from_id(self.0.config().derivative);
            let rom = EsRom::generate(&derivative, EsVersion::V2);
            let es = advm_asm::assemble_str(rom.source()).expect("ES ROM assembles");
            let mut image = Image::new();
            image.load_program(&unit).unwrap();
            image.load_program(&es).unwrap();
            let mut platform = Platform::new(self.0.config().platform, &derivative);
            platform.load_image(&image);
            platform.run()
        }
    }
}
