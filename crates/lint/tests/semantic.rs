//! End-to-end tests of the workspace semantic pass: the `nvr-lint`
//! binary is pointed at the multi-file fixture trees under
//! `tests/fixtures/semantic/` and must report each cross-file rule at
//! the exact file:line, with exit code 1 — and stay silent (exit 0) on
//! the clean tree and the suppressed one.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(tree)
}

/// Runs the binary on a fixture tree.
fn run(tree: &str, extra: &[&str]) -> (i32, String) {
    let root = fixture(tree);
    let out = Command::new(env!("CARGO_BIN_EXE_nvr-lint"))
        .arg("--root")
        .arg(&root)
        .args(extra)
        .output()
        .expect("nvr-lint runs");
    let code = out.status.code().expect("exit code");
    (code, String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

#[test]
fn variant_drift_fires_at_the_variant_line() {
    let (code, stdout) = run("variant_drift_bad", &[]);
    assert_eq!(code, 1, "{stdout}");
    // `Ghost` (line 4) is both missing from ALL and never referenced
    // outside runner.rs; the in-table, externally-referenced variants
    // are not flagged.
    assert!(
        stdout.contains("crates/sim/src/runner.rs:4: [registry/variant-drift]"),
        "{stdout}"
    );
    assert!(stdout.contains("missing from the `ALL` table"), "{stdout}");
    assert!(stdout.contains("never referenced outside"), "{stdout}");
    assert_eq!(
        stdout.matches("[registry/variant-drift]").count(),
        2,
        "{stdout}"
    );
    assert!(!stdout.contains("InOrder"), "{stdout}");
}

#[test]
fn wildcard_arm_fires_at_the_underscore_line() {
    let (code, stdout) = run("wildcard_arm_bad", &[]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("crates/sim/src/dispatch.rs:4: [registry/wildcard-arm]"),
        "{stdout}"
    );
    assert!(stdout.contains("match on line 2"), "{stdout}");
}

#[test]
fn wildcard_arm_allow_comment_suppresses_the_finding() {
    let (code, stdout) = run("wildcard_arm_allowed", &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn dead_knob_fires_at_the_field_line() {
    let (code, stdout) = run("dead_knob_bad", &[]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("crates/npu/src/config.rs:3: [config/dead-knob]"),
        "{stdout}"
    );
    assert!(stdout.contains("NpuConfig::phantom_knob"), "{stdout}");
    // `vector_width` is read by engine.rs and stays clean.
    assert_eq!(stdout.matches("[config/dead-knob]").count(), 1, "{stdout}");
}

#[test]
fn csv_doc_drift_fires_at_the_readme_line() {
    let (code, stdout) = run("csv_doc_bad", &[]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("README.md:4: [csv/cross-file-schema]"),
        "{stdout}"
    );
    assert!(stdout.contains("ghost_column"), "{stdout}");
    // The documented real columns on line 3 match the writer header.
    assert!(!stdout.contains("README.md:3"), "{stdout}");
}

#[test]
fn suffix_mix_fires_at_the_operator_line() {
    let (code, stdout) = run("suffix_mix_bad", &[]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("crates/core/src/timing.rs:2: [units/suffix-mix]"),
        "{stdout}"
    );
    assert!(stdout.contains("total_cycles"), "{stdout}");
    assert!(stdout.contains("row_bytes"), "{stdout}");
}

#[test]
fn clean_tree_lints_clean() {
    let (code, stdout) = run("clean", &[]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn rule_filter_restricts_the_report() {
    // variant_drift_bad has only drift findings; filtering on another
    // rule must produce a clean (exit 0) report.
    let (code, stdout) = run("variant_drift_bad", &["--rule", "registry/wildcard-arm"]);
    assert_eq!(code, 0, "{stdout}");
    let (code, stdout) = run("variant_drift_bad", &["--rule", "registry/variant-drift"]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(
        stdout.matches("[registry/variant-drift]").count(),
        2,
        "{stdout}"
    );
}
