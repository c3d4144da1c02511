//! Workspace discovery and the two-pass whole-tree lint.
//!
//! Walks `crates/`, `tests/` and `examples/` under the workspace root
//! (skipping `target/`, `vendor/` — third-party stand-ins — and any
//! `fixtures/` directory, which holds deliberately-bad lint inputs).
//! Pass 1 analyzes each file ([`crate::rules::analyze_source`]); pass 2
//! stitches the per-file models into a [`WorkspaceModel`] and runs the
//! cross-file semantic rule ([`crate::semantic`]) over it. Suppressions
//! resolve *after* both passes, so an `allow(...)` comment covers
//! semantic findings exactly like token findings.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Report, Rule};
use crate::model::WorkspaceModel;
use crate::rules::{analyze_source, resolve_file};
use crate::semantic;

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Top-level directories scanned under the workspace root.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];

/// Knobs for a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Restrict the report to one rule (`--rule`); suppression-audit
    /// diagnostics are filtered out too, so the output is exactly that
    /// rule's findings.
    pub rule: Option<Rule>,
}

/// Lints the workspace rooted at `root` with every rule.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace root (no `Cargo.toml`)
/// or a file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_workspace_with(root, &LintOptions::default())
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when `root` is not a workspace root (no `Cargo.toml`)
/// or a file cannot be read.
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(&root.join(scan), &mut files);
    }

    // Pass 1, per file. Keyed by workspace-relative path, so pass 2 and
    // the suppression resolution visit files in one fixed order.
    let mut analyses = BTreeMap::new();
    for path in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let analysis = analyze_source(&rel, &src);
        analyses.insert(rel, analysis);
    }
    let mut report = Report {
        files_checked: analyses.len(),
        ..Report::default()
    };

    // Pass 2: the cross-file rule over the stitched model.
    let model = WorkspaceModel {
        files: analyses
            .values_mut()
            .map(|a| std::mem::take(&mut a.model))
            .collect(),
    };
    report.model_stats = model.stats();
    let mut semantic_diags = semantic::run(&model);

    // Suppression resolution, per file, over token + semantic findings.
    for (rel, a) in analyses {
        let mut findings = a.findings;
        let mut i = 0;
        while i < semantic_diags.len() {
            if semantic_diags[i].file == rel {
                findings.push(semantic_diags.swap_remove(i));
            } else {
                i += 1;
            }
        }
        report
            .diagnostics
            .extend(resolve_file(&rel, findings, &a.allows, a.malformed));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));

    if let Some(rule) = opts.rule {
        report.diagnostics.retain(|d| d.rule == rule);
    }
    Ok(report)
}

/// Walks upward from `start` to the first directory holding a
/// `Cargo.toml` with a `[workspace]` table.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    // read_dir order is platform-dependent; the caller keys files by path.
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if SKIP_DIRS.iter().any(|s| name.to_string_lossy() == *s) {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_root_is_an_error() {
        let err = lint_workspace(Path::new("/nonexistent-nvr-lint-root"));
        assert!(err.is_err());
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}
