//! Register-access coverage.
//!
//! §1 of the paper frames directed testing as an attempt "to cover as
//! many functional modes of operation as possible". This module measures
//! the most basic form of that coverage: which of the derivative's
//! memory-mapped registers a regression actually touched. Untouched
//! registers are the holes in the test plan.

use std::collections::BTreeSet;
use std::fmt;

use advm_metrics::Table;
use advm_soc::Derivative;

use crate::campaign::CampaignReport;

/// Coverage of one module's registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleCoverage {
    /// Module name.
    pub module: String,
    /// Registers in the module.
    pub total: usize,
    /// Registers touched by at least one run.
    pub touched: usize,
    /// Names of untouched registers (the test-plan holes).
    pub missing: Vec<String>,
}

impl ModuleCoverage {
    /// Coverage ratio in `0.0..=1.0`.
    pub(crate) fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.touched as f64 / self.total as f64
        }
    }
}

/// Register coverage of a whole derivative.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterCoverage {
    modules: Vec<ModuleCoverage>,
}

impl RegisterCoverage {
    /// Computes coverage of `derivative`'s register map from a set of
    /// touched MMIO addresses.
    pub(crate) fn compute(derivative: &Derivative, touched: &BTreeSet<u32>) -> Self {
        let map = derivative.regmap();
        let mut modules = Vec::new();
        for module in map.modules() {
            let mut hit = 0;
            let mut missing = Vec::new();
            for reg in module.registers() {
                let addr = module.base() + reg.offset();
                if touched.contains(&addr) {
                    hit += 1;
                } else {
                    missing.push(reg.name().to_owned());
                }
            }
            modules.push(ModuleCoverage {
                module: module.name().to_owned(),
                total: module.registers().len(),
                touched: hit,
                missing,
            });
        }
        Self { modules }
    }

    /// Computes coverage from everything a campaign touched.
    pub fn of_regression(derivative: &Derivative, report: &CampaignReport) -> Self {
        let touched: BTreeSet<u32> = report
            .runs()
            .iter()
            .flat_map(|r| r.result.mmio_touched.iter().copied())
            .collect();
        Self::compute(derivative, &touched)
    }

    /// Per-module coverage entries.
    pub fn modules(&self) -> &[ModuleCoverage] {
        &self.modules
    }

    /// One module's coverage, by name.
    #[cfg(test)]
    pub(crate) fn module(&self, name: &str) -> Option<&ModuleCoverage> {
        self.modules.iter().find(|m| m.module == name)
    }

    /// Overall coverage ratio across all registers.
    pub fn overall_ratio(&self) -> f64 {
        let total: usize = self.modules.iter().map(|m| m.total).sum();
        let touched: usize = self.modules.iter().map(|m| m.touched).sum();
        if total == 0 {
            1.0
        } else {
            touched as f64 / total as f64
        }
    }

    /// Renders the coverage table (module, touched/total, holes).
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Register coverage",
            &["module", "touched", "coverage", "untouched registers"],
        );
        for m in &self.modules {
            table.row(&[
                m.module.clone(),
                format!("{}/{}", m.touched, m.total),
                format!("{:.0}%", 100.0 * m.ratio()),
                if m.missing.is_empty() {
                    "-".to_owned()
                } else {
                    m.missing.join(", ")
                },
            ]);
        }
        table
    }
}

impl fmt::Display for RegisterCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())
    }
}

#[cfg(test)]
mod tests {
    use advm_soc::PlatformId;

    use crate::campaign::Campaign;
    use crate::presets::{default_config, standard_system};

    use super::*;

    #[test]
    fn empty_touched_set_covers_nothing() {
        let coverage = RegisterCoverage::compute(&Derivative::sc88a(), &BTreeSet::new());
        assert_eq!(coverage.overall_ratio(), 0.0);
        let page = coverage.module("PAGE").unwrap();
        assert_eq!(page.touched, 0);
        assert!(page.missing.contains(&"PAGE_CTRL".to_owned()));
    }

    #[test]
    fn touched_addresses_map_to_registers() {
        let mut touched = BTreeSet::new();
        touched.insert(0xE_0100); // PAGE_CTRL
        touched.insert(0xE_0104); // PAGE_STATUS
        let coverage = RegisterCoverage::compute(&Derivative::sc88a(), &touched);
        let page = coverage.module("PAGE").unwrap();
        assert_eq!(page.touched, 2);
        assert!(!page.missing.contains(&"PAGE_CTRL".to_owned()));
        assert!(page.missing.contains(&"PAGE_MAP".to_owned()));
    }

    #[test]
    fn standard_suite_covers_most_of_the_chip() {
        let envs = standard_system(default_config());
        let report = Campaign::new()
            .envs(envs)
            .platform(PlatformId::GoldenModel)
            .run()
            .unwrap();
        let coverage = RegisterCoverage::of_regression(&Derivative::sc88a(), &report);
        assert!(
            coverage.overall_ratio() > 0.7,
            "catalogued suite should cover most registers:\n{coverage}"
        );
        // The modules under explicit test are fully or nearly covered.
        for name in ["PAGE", "UART", "TIMER", "NVMC", "CRC"] {
            let m = coverage.module(name).unwrap();
            assert!(m.ratio() > 0.7, "{name} coverage too low:\n{coverage}");
        }
    }

    #[test]
    fn renamed_register_reported_under_hardware_name() {
        let coverage = RegisterCoverage::compute(&Derivative::sc88d(), &BTreeSet::new());
        let page = coverage.module("PAGE").unwrap();
        assert!(page.missing.contains(&"PAGE_CONF".to_owned()));
    }
}
