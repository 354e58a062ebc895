//! An engineer-time model over change-sets.
//!
//! Deliberately simple and fully documented, so the experiments' effort
//! curves are interpretable: touching a file costs a fixed overhead
//! (finding it, understanding context, reviewing, releasing) and each
//! changed line costs editing time. Writing *new* code costs more per
//! line than editing. The paper's claims are about *relative* shapes
//! (ADVM vs direct, before vs after the base-function library), which are
//! insensitive to the exact constants — the ablation in the experiments
//! sweeps them.

use crate::changeset::ChangeSet;

/// Engineer effort in minutes.
pub type Minutes = f64;

/// Cost constants of the effort model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffortModel {
    /// Fixed cost per file touched (locate, open, review, release).
    pub minutes_per_file: Minutes,
    /// Cost per changed (added or removed) line of existing code.
    pub minutes_per_changed_line: Minutes,
    /// Cost per line of newly written code (tests, base functions).
    pub minutes_per_new_line: Minutes,
    /// Cost of one full regression debug cycle (a change that breaks
    /// tests until re-factored).
    pub minutes_per_debug_cycle: Minutes,
}

impl EffortModel {
    /// Default constants: 5 min/file, 0.5 min/edited line, 2 min/new
    /// line, 30 min/debug cycle.
    pub fn standard() -> Self {
        Self {
            minutes_per_file: 5.0,
            minutes_per_changed_line: 0.5,
            minutes_per_new_line: 2.0,
            minutes_per_debug_cycle: 30.0,
        }
    }

    /// Effort to apply an existing change-set (porting/refactoring work).
    pub fn apply_changeset(&self, cs: &ChangeSet) -> Minutes {
        self.minutes_per_file * cs.files_touched() as f64
            + self.minutes_per_changed_line * cs.lines_touched() as f64
    }

    /// Effort to write `lines` of new code across `files` new files.
    pub fn write_new(&self, files: usize, lines: usize) -> Minutes {
        self.minutes_per_file * files as f64 + self.minutes_per_new_line * lines as f64
    }

    /// Effort of `cycles` debug round-trips.
    pub fn debug(&self, cycles: usize) -> Minutes {
        self.minutes_per_debug_cycle * cycles as f64
    }
}

impl Default for EffortModel {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::changeset::diff_trees;

    use super::*;

    #[test]
    fn changeset_effort_counts_files_and_lines() {
        let old: BTreeMap<String, String> =
            [("g.inc".to_string(), "A .EQU 1\nB .EQU 2\n".to_string())].into();
        let new: BTreeMap<String, String> =
            [("g.inc".to_string(), "A .EQU 1\nB .EQU 3\n".to_string())].into();
        let cs = diff_trees(&old, &new);
        let model = EffortModel::standard();
        // 1 file * 5 + 2 lines (1 added + 1 removed) * 0.5 = 6 minutes.
        assert!((model.apply_changeset(&cs) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_changeset_costs_nothing() {
        let model = EffortModel::standard();
        assert_eq!(model.apply_changeset(&ChangeSet::new()), 0.0);
    }

    #[test]
    fn new_code_costs_more_per_line_than_edits() {
        let model = EffortModel::standard();
        assert!(model.minutes_per_new_line > model.minutes_per_changed_line);
        // 2 files, 100 lines: 2*5 + 100*2 = 210.
        assert!((model.write_new(2, 100) - 210.0).abs() < 1e-9);
    }

    #[test]
    fn debug_cycles_dominate_small_edits() {
        let model = EffortModel::standard();
        assert!(model.debug(1) > model.write_new(1, 10));
    }
}
