//! End-to-end tests of the workspace semantic pass: the `nvr-lint`
//! binary is pointed at the fixture trees under `tests/fixtures/semantic/`
//! and must report the cross-file rule at the exact file:line, with exit
//! code 1 — and stay silent (exit 0) on the clean tree.

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
    // suffix_mix_bad has only a suffix-mix finding; filtering on another
    // rule must produce a clean (exit 0) report.
    let (code, stdout) = run("suffix_mix_bad", &["--rule", "perf/hot-loop-alloc"]);
    assert_eq!(code, 0, "{stdout}");
    let (code, stdout) = run("suffix_mix_bad", &["--rule", "units/suffix-mix"]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(stdout.matches("[units/suffix-mix]").count(), 1, "{stdout}");
}
