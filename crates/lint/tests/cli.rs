//! End-to-end tests of the `nvr-lint` binary: exit codes, JSON output,
//! and the CI failure mode (a `HashMap` deliberately seeded into a fake
//! `crates/core` must fail the run) — the contract the CI job relies on.

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
    #![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n\
    /// Documented.\npub fn ok() {}\n";

const SEEDED_LIB: &str = "//! A crate root seeded with a determinism hazard.\n\n\
    #![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n\
    use std::collections::HashMap;\n\n\
    /// Documented, but unordered.\npub fn bad() -> HashMap<u64, u64> {\n    \
    HashMap::new()\n}\n";

#[test]
fn clean_workspace_exits_zero() {
    let root = fake_workspace("clean", CLEAN_LIB);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn seeded_hashmap_in_core_fails_with_exit_one() {
    let root = fake_workspace("seeded", SEEDED_LIB);
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("determinism/ordered-containers"),
        "{stdout}"
    );
    assert!(stdout.contains("crates/core/src/lib.rs"), "{stdout}");
}

#[test]
fn json_format_reports_machine_readable_violations() {
    let root = fake_workspace("json", SEEDED_LIB);
    let out = run(&root, &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"tool\": \"nvr-lint\""), "{stdout}");
    assert!(
        stdout.contains("\"rule\": \"determinism/ordered-containers\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"line\": "), "{stdout}");
}

#[test]
fn out_flag_writes_json_report_alongside_text() {
    let root = fake_workspace("outfile", SEEDED_LIB);
    let report_path = root.join("lint.json");
    let out = run(&root, &["--out", report_path.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = fs::read_to_string(&report_path).expect("report written");
    assert!(json.contains("determinism/ordered-containers"), "{json}");
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
        "determinism/ordered-containers",
        "determinism/wall-clock",
        "csv/schema-sync",
        "registry/variant-drift",
        "registry/wildcard-arm",
        "config/dead-knob",
        "csv/cross-file-schema",
        "units/suffix-mix",
        "lint/unused-allow",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn explain_prints_rationale_and_exits_zero() {
    let out = bin()
        .args(["--explain", "config/dead-knob"])
        .output()
        .expect("spawn nvr-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("config/dead-knob"), "{stdout}");
    assert!(stdout.contains("knob wired to nothing"), "{stdout}");
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
    // The seeded violation is ordered-containers; filtering on an
    // unrelated rule leaves a clean report.
    let out = run(&root, &["--rule", "determinism/wall-clock"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = run(&root, &["--rule", "determinism/ordered-containers"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("determinism/ordered-containers"),
        "{stdout}"
    );
    // Unknown rule names are a usage error.
    let out = run(&root, &["--rule", "nonsense/rule"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
