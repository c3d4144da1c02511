//! The self-test: the real workspace must lint clean, with every
//! suppression used and justified — failing here means a hot-loop
//! allocation or a cross-unit sum landed in the tree.

use std::path::Path;

use nvr_lint::{find_workspace_root, lint_workspace};

#[test]
fn real_workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(
        report.is_clean(),
        "workspace has unsuppressed lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (the crates plus root
    // tests and examples), not an empty directory.
    assert!(
        report.files_checked > 100,
        "only {} files checked — walker lost the tree?",
        report.files_checked
    );
    // The semantic pass ran over a populated model: the real tree sums
    // unit-suffixed quantities (fig7's off-chip byte counts, fig8's and
    // the LLM example's cycle totals). Zero would mean pass 2 silently
    // saw an empty workspace.
    let s = report.model_stats;
    assert_eq!(s.files, report.files_checked, "every file is modelled");
    assert!(
        s.unit_ops >= 3,
        "unit-suffixed ± sites missing from the model: {s:?}"
    );
}
