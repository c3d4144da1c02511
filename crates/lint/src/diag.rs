//! Diagnostics: the rule catalogue, violation records, and the text/JSON
//! renderings the CLI emits.

use std::fmt;

use crate::model::ModelStats;

/// Every rule `nvr-lint` enforces.
///
/// Two checks rustc and clippy cannot make — one per-file token rule and
/// one workspace-wide semantic rule (which needs the cross-file
/// [`crate::model::WorkspaceModel`]) — and the two audit rules that keep
/// `// nvr-lint: allow(...)` comments honest. Every other determinism
/// and invariant check of the workspace is a rustc lint, a clippy lint
/// or a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// No per-iteration `Vec`/`String`/`Box` allocation inside the named
    /// tick/advance loops of `nvr_core`/`nvr_mem` — the allocator in a
    /// per-cycle loop multiplies every sweep's wall clock.
    HotLoopAlloc,
    /// Semantic: no `+`/`-` between identifiers carrying *different* unit
    /// suffixes (`_cycles`/`_ns`/`_bytes`/`_lines`) unless one side is a
    /// named conversion.
    SuffixMix,
    /// A `nvr-lint: allow(...)` comment without a parseable rule name or
    /// a non-empty `reason="..."`.
    MalformedAllow,
    /// A well-formed allow that suppressed nothing.
    UnusedAllow,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 4] = [
        Rule::HotLoopAlloc,
        Rule::SuffixMix,
        Rule::MalformedAllow,
        Rule::UnusedAllow,
    ];

    /// The stable `category/name` id used in diagnostics and allows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => "perf/hot-loop-alloc",
            Rule::SuffixMix => "units/suffix-mix",
            Rule::MalformedAllow => "lint/malformed-allow",
            Rule::UnusedAllow => "lint/unused-allow",
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => {
                "no per-iteration Vec/String/Box allocation inside named \
                 tick/advance loops of core/mem"
            }
            Rule::SuffixMix => {
                "no +/- between identifiers with different unit suffixes without a conversion"
            }
            Rule::MalformedAllow => {
                "nvr-lint allows need a known rule and a non-empty reason=\"...\""
            }
            Rule::UnusedAllow => "allows that suppress nothing must be removed",
        }
    }

    /// Looks a rule up by its `category/name` id.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The long-form rationale printed by `--explain <name>`: what the
    /// rule guards, why the repo cares, and how to fix or suppress a hit.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HotLoopAlloc => {
                "The simulator's throughput budget is set by the per-cycle loops in \
                 crates/core and crates/mem (tick/advance/step/issue/probe/install \
                 and friends). A Vec::new, String::from, format!, Box::new or \
                 .collect() inside such a loop's body calls the allocator once per \
                 iteration — the exact pattern the SoA/batching rework removed, and \
                 the one the perf CI gate exists to catch after the fact.\nFix: hoist \
                 the allocation out of the loop and reuse the buffer (clear(), \
                 swap-style drains), or size it once with with_capacity; where a \
                 per-iteration allocation is genuinely cold (error paths, logging \
                 that is off by default), justify it with \
                 `allow(perf/hot-loop-alloc) reason=\"...\"`."
            }
            Rule::SuffixMix => {
                "Identifiers ending in _cycles/_ns/_bytes/_lines carry their unit \
                 in the name; adding or subtracting across units (latency_ns + \
                 row_bytes) is a dimensional bug the type system cannot see.\nFix: \
                 convert through a named helper (a *_per_*, to_*, from_* identifier \
                 on either side marks the site as a conversion)."
            }
            Rule::MalformedAllow => {
                "Suppressions are audited: `// nvr-lint: allow(rule) \
                 reason=\"...\"` needs a known rule name and a non-empty reason, or \
                 it is itself a violation."
            }
            Rule::UnusedAllow => {
                "An allow that suppresses nothing is stale audit trail; remove it \
                 so every suppression in the tree corresponds to a live finding."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were checked.
    pub files_checked: usize,
    /// What the workspace model indexed (0 across the board when the
    /// semantic pass did not run, e.g. single-file `lint_source`).
    pub model_stats: ModelStats,
}

impl Report {
    /// True when nothing was flagged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable rendering: one stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tool\": \"nvr-lint\",\n");
        let s = &self.model_stats;
        out.push_str(&format!(
            "  \"files_checked\": {},\n  \"model_stats\": \
             {{\"files\": {}, \"unit_ops\": {}}},\n  \"violations\": [",
            self.files_checked, s.files, s.unit_ops
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(d.rule.name()),
                json_escape(&d.file),
                d.line,
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(!rule.describe().is_empty());
        }
        assert_eq!(Rule::from_name("nonsense/rule"), None);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            files_checked: 2,
            ..Report::default()
        };
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"violations\": []"));
        r.diagnostics.push(Diagnostic {
            rule: Rule::HotLoopAlloc,
            file: "crates/core/src/controller.rs".into(),
            line: 3,
            message: "`Vec::new` allocates on every iteration".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"perf/hot-loop-alloc\""));
        assert!(json.contains("\"line\": 3"));
    }
}
