//! `nvr-lint` — workspace-wide determinism and simulator-invariant
//! static analysis.
//!
//! The repo's load-bearing correctness property is *bit-exact determinism*
//! of simulation results across `--jobs`, seeds and channel counts — and,
//! one level up, *registry coherence*: every `SystemKind`/`WorkloadId`/
//! `FigureId` variant must flow through every dispatch surface, and every
//! config knob must actually steer the model. Runtime tests can only
//! sample a handful of grid cells; this crate checks the invariants
//! statically, on every line of the workspace, on every PR, in two
//! passes:
//!
//! * **Pass 1 (per file):** a hand-rolled, comment/string/
//!   attribute-aware lexer ([`lexer`]) feeds the token rules
//!   (ordered-container and wall-clock/ambient-RNG determinism hazards,
//!   narrowing casts and unjustified panics in tick paths, crate-root
//!   attributes, knob docs, same-file CSV schema sync) and an item-level
//!   parser ([`parser`]) that distils each file into a
//!   [`model::FileModel`].
//! * **Pass 2 (workspace):** the per-file models stitch into a
//!   [`model::WorkspaceModel`] and the cross-file semantic rules
//!   ([`semantic`]) run over it: registry variant drift, wildcard arms
//!   over registry enums, dead config knobs, documented-CSV-column
//!   drift, and unit-suffix mixing.
//!
//! Suppressions are audited inline — `// nvr-lint: allow(rule)
//! reason="..."` with a mandatory reason, malformed-allow diagnostics,
//! and unused-allow detection — and cover semantic findings the same as
//! token findings.
//!
//! Run it with `cargo run -p nvr_lint` (exit 0 = clean, 1 = violations),
//! `--format json` for the machine-readable report CI archives, or
//! `--rule <name>` / `--explain <name>` to work on one rule at a time.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

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
