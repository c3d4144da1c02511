//! The workspace model the semantic pass runs over.
//!
//! Pass 1 builds one [`FileModel`] per source file (the facts the
//! [`crate::parser`] extracts from the token stream); the engine stitches
//! them into a [`WorkspaceModel`] and the cross-file rule in
//! [`crate::semantic`] queries the whole thing at once.

/// A `lhs ± rhs` site where both operands carry a unit suffix
/// (`_cycles`/`_ns`/`_bytes`/`_lines`) — the raw material of the
/// `units/suffix-mix` rule, recorded even when the units agree so the
/// rule itself stays a pure model query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitOpSite {
    /// 1-based line of the operator.
    pub line: u32,
    /// Last path segment of the left operand (`total_cycles`).
    pub lhs: String,
    /// Last path segment of the right operand (`row_bytes`).
    pub rhs: String,
}

/// Everything pass 1 learns about one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Additive arithmetic between unit-suffixed identifiers.
    pub unit_ops: Vec<UnitOpSite>,
    /// `#[cfg(test)]` line ranges (inclusive) — semantic rules that police
    /// production code skip findings inside them.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileModel {
    /// True when `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }
}

/// The stitched whole-workspace model.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceModel {
    /// Per-file models, in sorted path order.
    pub files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Aggregate counts for the JSON report's `model_stats` block.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            files: self.files.len(),
            unit_ops: self.files.iter().map(|f| f.unit_ops.len()).sum(),
        }
    }
}

/// Counts of what the two-pass analysis indexed — surfaced in the JSON
/// report so a reader can see the model did not silently lose the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Files parsed into the model.
    pub files: usize,
    /// Unit-suffixed `±` sites indexed.
    pub unit_ops: usize,
}
