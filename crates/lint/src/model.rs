//! The workspace symbol model the semantic pass runs over.
//!
//! Pass 1 builds one [`FileModel`] per source file (item-level facts the
//! [`crate::parser`] extracts from the token stream); the engine stitches
//! them into a [`WorkspaceModel`] and the cross-file rules in
//! [`crate::semantic`] query the whole thing at once.

use std::collections::BTreeSet;

/// One enum definition: name plus its variants with their lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnumDef {
    /// Enum name (`SystemKind`).
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variant names with the line each is declared on.
    pub variants: Vec<(String, u32)>,
}

/// One braced struct definition: name plus its `pub` fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name (`NvrConfig`).
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Public field names with the line each is declared on.
    pub fields: Vec<(String, u32)>,
}

/// One `match` expression, reduced to what the registry rules need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// Roots of `Root::Variant` paths appearing in the arm *patterns*
    /// (guards excluded) — the enums this match dispatches over.
    pub pattern_roots: BTreeSet<String>,
    /// Line of a catch-all `_` arm, when the match has one.
    pub wildcard_line: Option<u32>,
    /// Number of arms.
    pub arms: u32,
}

/// One `Root::Name` path reference (use sites, arm patterns, const
/// tables alike).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathRef {
    /// First segment (`SystemKind`).
    pub root: String,
    /// Second segment (`NvrNsb`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
}

/// One `const NAME: … = [ … ];` item whose initialiser is an array
/// literal — the hand-maintained registry tables (`SystemKind::ALL`)
/// whose membership the drift rule audits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstArray {
    /// Const name (`ALL`, `PREFETCHERS`).
    pub name: String,
    /// 1-based line of the `const` keyword.
    pub line: u32,
    /// `Root::Variant` paths inside the array literal.
    pub items: Vec<PathRef>,
}

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
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// Braced struct definitions with `pub` fields.
    pub structs: Vec<StructDef>,
    /// `match` expressions.
    pub matches: Vec<MatchExpr>,
    /// `Root::Name` path references.
    pub paths: Vec<PathRef>,
    /// Const array registry tables.
    pub const_arrays: Vec<ConstArray>,
    /// Distinct identifier texts in the file (dead-knob lookups).
    pub idents: BTreeSet<String>,
    /// String literals that look like CSV headers (≥ 2 identifier-shaped
    /// comma-separated columns ending in a newline), with their lines.
    pub csv_headers: Vec<(String, u32)>,
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
    /// The files defining an enum named `name`.
    #[must_use]
    pub fn enum_defs<'a>(&'a self, name: &str) -> Vec<(&'a FileModel, &'a EnumDef)> {
        let mut out = Vec::new();
        for f in &self.files {
            for e in &f.enums {
                if e.name == name {
                    out.push((f, e));
                }
            }
        }
        out
    }

    /// True when `ident` occurs in any file other than `except_path`.
    #[must_use]
    pub fn ident_used_outside(&self, ident: &str, except_path: &str) -> bool {
        self.files
            .iter()
            .any(|f| f.path != except_path && f.idents.contains(ident))
    }

    /// True when the path `root::name` is referenced in any file other
    /// than `except_path`.
    #[must_use]
    pub fn path_used_outside(&self, root: &str, name: &str, except_path: &str) -> bool {
        self.files.iter().any(|f| {
            f.path != except_path && f.paths.iter().any(|p| p.root == root && p.name == name)
        })
    }

    /// Union of every CSV column name any writer in the workspace emits.
    #[must_use]
    pub fn csv_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for f in &self.files {
            for (header, _) in &f.csv_headers {
                for col in header.trim_end_matches('\n').split(',') {
                    out.insert(col.trim().to_string());
                }
            }
        }
        out
    }

    /// Aggregate counts for the JSON report's `model_stats` block.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let mut s = ModelStats {
            files: self.files.len(),
            ..ModelStats::default()
        };
        for f in &self.files {
            s.enums += f.enums.len();
            s.variants += f.enums.iter().map(|e| e.variants.len()).sum::<usize>();
            s.structs += f.structs.len();
            s.fields += f.structs.iter().map(|d| d.fields.len()).sum::<usize>();
            s.matches += f.matches.len();
            s.csv_headers += f.csv_headers.len();
        }
        s
    }
}

/// Counts of what the two-pass analysis indexed — surfaced in the JSON
/// report so CI can see the model did not silently lose the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Files parsed into the model.
    pub files: usize,
    /// Enum definitions indexed.
    pub enums: usize,
    /// Enum variants indexed.
    pub variants: usize,
    /// Struct definitions indexed.
    pub structs: usize,
    /// Public struct fields indexed.
    pub fields: usize,
    /// `match` expressions indexed.
    pub matches: usize,
    /// CSV header literals indexed.
    pub csv_headers: usize,
}
