//! End-to-end tests of the `nvr-lint` binary: exit codes, JSON output,
//! and the failure mode (a per-iteration allocation deliberately seeded
//! into a hot loop of a fake `crates/core` must fail the run).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nvr-lint"))
}

/// Builds a throwaway fake workspace under the target tmpdir and returns
/// its root. `core_lib` becomes `crates/core/src/lib.rs`.
fn fake_workspace(tag: &str, core_lib: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("nvr-lint-{tag}"));
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    fs::write(src.join("lib.rs"), core_lib).expect("lib.rs");
    root
}

fn run(root: &PathBuf, extra: &[&str]) -> Output {
    bin()
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn nvr-lint")
}

const CLEAN_LIB: &str = "//! A clean crate root.\n\n\
    /// Documented.\npub fn ok() {}\n";

const SEEDED_LIB: &str = "//! A crate root seeded with a hot-loop allocation.\n\n\
    /// Allocates once per simulated cycle.\npub fn tick(cycles: u64) {\n    \
    for _ in 0..cycles {\n        let _scratch: Vec<u64> = Vec::new();\n    }\n}\n";

#[test]
fn clean_workspace_exits_zero() {
    let root = fake_workspace("clean", CLEAN_LIB);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn json_format_reports_machine_readable_violations() {
    let root = fake_workspace("json", SEEDED_LIB);
    let out = run(&root, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"tool\": \"nvr-lint\""), "{stdout}");
    assert!(
        stdout.contains("\"rule\": \"perf/hot-loop-alloc\""),
        "{stdout}"
    );
    assert!(stdout.contains("crates/core/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("\"line\": "), "{stdout}");
}

#[test]
fn out_flag_writes_json_report_alongside_text() {
    let root = fake_workspace("outfile", SEEDED_LIB);
    let report_path = root.join("lint.json");
    let out = run(&root, &["--out", report_path.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = fs::read_to_string(&report_path).expect("report written");
    assert!(json.contains("perf/hot-loop-alloc"), "{json}");
}

#[test]
fn missing_root_exits_two() {
    let out = bin()
        .arg("--root")
        .arg("/nonexistent-nvr-lint-root")
        .output()
        .expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = bin().arg("--bogus").output().expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn list_rules_prints_catalogue_and_exits_zero() {
    let out = bin().arg("--list-rules").output().expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "perf/hot-loop-alloc",
        "units/suffix-mix",
        "lint/malformed-allow",
        "lint/unused-allow",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn explain_prints_rationale_and_exits_zero() {
    let out = bin()
        .args(["--explain", "units/suffix-mix"])
        .output()
        .expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("units/suffix-mix"), "{stdout}");
    assert!(stdout.contains("dimensional bug"), "{stdout}");
}

#[test]
fn explain_unknown_rule_exits_two() {
    let out = bin()
        .args(["--explain", "nonsense/rule"])
        .output()
        .expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
}

#[test]
fn rule_filter_gates_the_exit_code() {
    let root = fake_workspace("rule-filter", SEEDED_LIB);
    // The seeded violation is hot-loop-alloc; filtering on an unrelated
    // rule leaves a clean report.
    let out = run(&root, &["--rule", "units/suffix-mix"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&root, &["--rule", "perf/hot-loop-alloc"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("perf/hot-loop-alloc"), "{stdout}");
    // Unknown rule names are a usage error.
    let out = run(&root, &["--rule", "nonsense/rule"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
