//! Change-sets: what porting an environment actually touched.
//!
//! The central measurable of the reproduction: when a derivative or
//! specification change arrives, how many files and lines change in an
//! ADVM environment versus a hardwired one? [`diff_trees`] compares two
//! file trees (name → text) with a line-level LCS diff.

use std::collections::BTreeMap;
use std::fmt;

/// The kind of change a file underwent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// File exists only in the new tree.
    Added,
    /// File exists only in the old tree.
    Removed,
    /// File exists in both with different content.
    Modified,
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChangeKind::Added => "added",
            ChangeKind::Removed => "removed",
            ChangeKind::Modified => "modified",
        })
    }
}

/// One file's change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileChange {
    /// File path within the environment.
    pub path: String,
    /// Change classification.
    pub kind: ChangeKind,
    /// Lines present only in the new version.
    pub lines_added: usize,
    /// Lines present only in the old version.
    pub lines_removed: usize,
}

impl FileChange {
    /// Total lines touched (added + removed).
    pub fn lines_touched(&self) -> usize {
        self.lines_added + self.lines_removed
    }
}

/// The set of changes between two environment versions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    changes: Vec<FileChange>,
}

impl ChangeSet {
    /// An empty change-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-file changes, ordered by path.
    pub fn changes(&self) -> &[FileChange] {
        &self.changes
    }

    /// Number of files touched.
    pub fn files_touched(&self) -> usize {
        self.changes.len()
    }

    /// Total lines added across all files.
    pub(crate) fn lines_added(&self) -> usize {
        self.changes.iter().map(|c| c.lines_added).sum()
    }

    /// Total lines removed across all files.
    pub(crate) fn lines_removed(&self) -> usize {
        self.changes.iter().map(|c| c.lines_removed).sum()
    }

    /// Total lines touched.
    pub fn lines_touched(&self) -> usize {
        self.lines_added() + self.lines_removed()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The change for one path, if any.
    pub fn change(&self, path: &str) -> Option<&FileChange> {
        self.changes.iter().find(|c| c.path == path)
    }
}

impl fmt::Display for ChangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} file(s) touched, +{} -{} lines",
            self.files_touched(),
            self.lines_added(),
            self.lines_removed()
        )?;
        for c in &self.changes {
            writeln!(
                f,
                "  {:>9} {} (+{} -{})",
                c.kind.to_string(),
                c.path,
                c.lines_added,
                c.lines_removed
            )?;
        }
        Ok(())
    }
}

/// Diffs two file trees (path → content).
pub fn diff_trees(old: &BTreeMap<String, String>, new: &BTreeMap<String, String>) -> ChangeSet {
    let mut changes = Vec::new();
    for (path, old_text) in old {
        match new.get(path) {
            None => {
                changes.push(FileChange {
                    path: path.clone(),
                    kind: ChangeKind::Removed,
                    lines_added: 0,
                    lines_removed: old_text.lines().count(),
                });
            }
            Some(new_text) if new_text != old_text => {
                let (added, removed) = diff_lines(old_text, new_text);
                changes.push(FileChange {
                    path: path.clone(),
                    kind: ChangeKind::Modified,
                    lines_added: added,
                    lines_removed: removed,
                });
            }
            Some(_) => {}
        }
    }
    for (path, new_text) in new {
        if !old.contains_key(path) {
            changes.push(FileChange {
                path: path.clone(),
                kind: ChangeKind::Added,
                lines_added: new_text.lines().count(),
                lines_removed: 0,
            });
        }
    }
    changes.sort_by(|a, b| a.path.cmp(&b.path));
    ChangeSet { changes }
}

/// Line-level diff via LCS: returns `(lines_added, lines_removed)`.
pub(crate) fn diff_lines(old: &str, new: &str) -> (usize, usize) {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let lcs = lcs_len(&a, &b);
    (b.len() - lcs, a.len() - lcs)
}

fn lcs_len(a: &[&str], b: &[&str]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Two-row DP; environments are small files so O(n*m) is fine.
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for line_a in a {
        for (j, line_b) in b.iter().enumerate() {
            cur[j + 1] = if line_a == line_b {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(files: &[(&str, &str)]) -> BTreeMap<String, String> {
        files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    #[test]
    fn identical_trees_produce_empty_changeset() {
        let t = tree(&[("a.asm", "NOP\nRET\n")]);
        let cs = diff_trees(&t, &t);
        assert!(cs.is_empty());
        assert_eq!(cs.files_touched(), 0);
    }

    #[test]
    fn single_line_edit_counts_one_add_one_remove() {
        let old = tree(&[("g.inc", "A .EQU 1\nB .EQU 2\nC .EQU 3\n")]);
        let new = tree(&[("g.inc", "A .EQU 1\nB .EQU 9\nC .EQU 3\n")]);
        let cs = diff_trees(&old, &new);
        assert_eq!(cs.files_touched(), 1);
        assert_eq!((cs.lines_added(), cs.lines_removed()), (1, 1));
        assert_eq!(cs.change("g.inc").unwrap().kind, ChangeKind::Modified);
    }

    #[test]
    fn added_and_removed_files() {
        let old = tree(&[("gone.asm", "x\ny\n")]);
        let new = tree(&[("new.asm", "a\nb\nc\n")]);
        let cs = diff_trees(&old, &new);
        assert_eq!(cs.files_touched(), 2);
        assert_eq!(cs.change("gone.asm").unwrap().kind, ChangeKind::Removed);
        assert_eq!(cs.change("gone.asm").unwrap().lines_removed, 2);
        assert_eq!(cs.change("new.asm").unwrap().kind, ChangeKind::Added);
        assert_eq!(cs.change("new.asm").unwrap().lines_added, 3);
    }

    #[test]
    fn diff_lines_handles_insertion_in_middle() {
        let (added, removed) = diff_lines("a\nb\nc\n", "a\nX\nb\nc\n");
        assert_eq!((added, removed), (1, 0));
    }

    #[test]
    fn diff_lines_handles_reorder_as_add_remove() {
        let (added, removed) = diff_lines("a\nb\n", "b\na\n");
        assert_eq!(added + removed, 2, "a reorder touches two lines");
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(diff_lines("", ""), (0, 0));
        assert_eq!(diff_lines("", "a\n"), (1, 0));
        assert_eq!(diff_lines("a\n", ""), (0, 1));
    }

    #[test]
    fn display_summarises() {
        let old = tree(&[("g.inc", "A .EQU 1\n")]);
        let new = tree(&[("g.inc", "A .EQU 2\n")]);
        let text = diff_trees(&old, &new).to_string();
        assert!(text.contains("1 file(s) touched"), "{text}");
        assert!(text.contains("modified g.inc"), "{text}");
    }
}
