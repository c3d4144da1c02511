//! `nvr-lint` — the two workspace checks rustc and clippy cannot make.
//!
//! The repo's load-bearing correctness property is *bit-exact determinism*
//! of simulation results across `--jobs`, seeds and channel counts. The
//! compiler carries almost all of its guards: the workspace lints in the
//! root `Cargo.toml`, the bans in `clippy.toml`, the crate-root `deny`
//! attributes of the tick-path crates, and three workspace tests. This
//! crate checks what remains, statically, on every line of the
//! workspace, in two passes:
//!
//! * **Pass 1 (per file):** a hand-rolled, comment/string/
//!   attribute-aware lexer ([`lexer`]) feeds the token rule
//!   `perf/hot-loop-alloc` (no per-iteration allocation inside the
//!   per-cycle loops of `nvr_core`/`nvr_mem`) and a scan ([`parser`])
//!   that distils each file into a [`model::FileModel`].
//! * **Pass 2 (workspace):** the per-file models stitch into a
//!   [`model::WorkspaceModel`] and the cross-file rule `units/suffix-mix`
//!   ([`semantic`]) runs over it: no `+`/`-` across unit suffixes.
//!
//! Suppressions are audited inline — `// nvr-lint: allow(rule)
//! reason="..."` with a mandatory reason, malformed-allow diagnostics,
//! and unused-allow detection — and cover semantic findings the same as
//! token findings.
//!
//! Run it with `cargo run -p nvr_lint` (exit 0 = clean, 1 = violations),
//! `--format json` for the machine-readable report, or `--rule <name>` /
//! `--explain <name>` to work on one rule at a time.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use diag::{Diagnostic, Report, Rule};
pub use engine::{find_workspace_root, lint_workspace, lint_workspace_with, LintOptions};
pub use rules::{analyze_source, lint_source};
