//! The `nvr-lint` CLI.
//!
//! ```sh
//! cargo run -p nvr_lint                     # two-pass workspace lint, text output
//! cargo run -p nvr_lint -- --format json    # machine-readable report on stdout
//! cargo run -p nvr_lint -- --out lint.json  # also write the JSON report to a file
//! cargo run -p nvr_lint -- --list-rules     # print the rule catalogue
//! cargo run -p nvr_lint -- --rule units/suffix-mix       # one rule only
//! cargo run -p nvr_lint -- --explain perf/hot-loop-alloc  # rule rationale
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use nvr_lint::{find_workspace_root, lint_workspace_with, LintOptions, Rule};

struct Args {
    format_json: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
    list_rules: bool,
    rule: Option<Rule>,
    explain: Option<Rule>,
}

fn rule_by_name(name: &str) -> Result<Rule, String> {
    Rule::from_name(name).ok_or_else(|| {
        format!("unknown rule `{name}` (run `nvr-lint --list-rules` for the catalogue)")
    })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        format_json: false,
        out: None,
        root: None,
        list_rules: false,
        rule: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => args.format_json = true,
                Some("text") => args.format_json = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--out" => {
                args.out = Some(PathBuf::from(it.next().ok_or("--out expects a path")?));
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root expects a path")?));
            }
            "--rule" => {
                let name = it.next().ok_or("--rule expects a rule name")?;
                args.rule = Some(rule_by_name(&name)?);
            }
            "--explain" => {
                let name = it.next().ok_or("--explain expects a rule name")?;
                args.explain = Some(rule_by_name(&name)?);
            }
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => {
                println!(
                    "nvr-lint: the workspace checks rustc and clippy cannot make\n\n\
                     USAGE: nvr-lint [--format text|json] [--out PATH] [--root PATH]\n\
                     \x20               [--rule NAME] [--explain NAME] [--list-rules]\n\n\
                     Exit codes: 0 clean, 1 violations, 2 usage/I/O error."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nvr-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in Rule::ALL {
            println!("{:32} {}", rule.name(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = args.explain {
        println!(
            "{}\n  {}\n\n{}",
            rule.name(),
            rule.describe(),
            rule.explain()
        );
        return ExitCode::SUCCESS;
    }
    let root = args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("nvr-lint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };
    let opts = LintOptions { rule: args.rule };
    let report = match lint_workspace_with(&root, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nvr-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("nvr-lint: writing {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if args.format_json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "nvr-lint: {} file(s) checked, {} violation(s)",
            report.files_checked,
            report.diagnostics.len()
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
