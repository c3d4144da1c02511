//! Diagnostics: the rule catalogue, violation records, and the text/JSON
//! renderings the CLI emits.

use std::fmt;

use crate::model::ModelStats;

/// Every rule `nvr-lint` enforces.
///
/// Three families: per-file token rules, workspace-wide semantic rules
/// (which need the cross-file [`crate::model::WorkspaceModel`]), and the
/// two audit rules that keep `// nvr-lint: allow(...)` comments honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// No `HashMap`/`HashSet`/`RandomState`/`DefaultHasher` in the
    /// result-producing crates — unordered iteration breaks `--jobs`
    /// bit-equality.
    OrderedContainers,
    /// No `Instant::now`/`SystemTime` reads: wall-clock must never feed a
    /// simulation result. The sweep timing CSVs carry audited allows.
    WallClock,
    /// No ambient randomness (`thread_rng`, `OsRng`, `from_entropy`,
    /// `getrandom`): RNG state must flow from seeded `SweepJob` state.
    ThreadState,
    /// No narrowing `as` casts in the cycle/address-typed tick paths of
    /// `nvr_core`/`nvr_mem` — silent truncation corrupts speedups.
    LossyCast,
    /// `unwrap()`/`expect()` in controller/cache/DRAM tick code must carry
    /// a justification (an audited allow).
    PanicHotLoop,
    /// No per-iteration `Vec`/`String`/`Box` allocation inside the named
    /// tick/advance loops of `nvr_core`/`nvr_mem` — the allocator in a
    /// per-cycle loop multiplies every sweep's wall clock.
    HotLoopAlloc,
    /// Every crate root must carry `#![forbid(unsafe_code)]`.
    UnsafeForbid,
    /// Every crate root must carry `#![deny(missing_docs)]`.
    DocsDenyMissing,
    /// Every config-struct knob (`NvrConfig`, `DramConfig`, `SweepSpec`,
    /// ...) needs a doc comment stating its unit.
    KnobDoc,
    /// CSV header literals must agree column-for-column with the row
    /// format string that follows them.
    CsvSchemaSync,
    /// Semantic: every registry-enum variant (`SystemKind`, `WorkloadId`,
    /// `FigureId`) must sit in its `ALL` table and — for the dispatched
    /// enums — be referenced outside its defining file.
    VariantDrift,
    /// Semantic: no `_` catch-all arm in `match`es over registry enums
    /// inside result-producing crates — a new variant must fail to
    /// compile, not be silently lumped into an existing system.
    WildcardArm,
    /// Semantic: every pub field of a config struct must be read in at
    /// least one file other than the one defining it.
    DeadKnob,
    /// Semantic: CSV column names documented in README/ARCHITECTURE.md
    /// must exist in some writer's header string (or as a workspace
    /// identifier) — the cross-file upgrade of `csv/schema-sync`.
    CsvCrossFile,
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
    pub const ALL: [Rule; 17] = [
        Rule::OrderedContainers,
        Rule::WallClock,
        Rule::ThreadState,
        Rule::LossyCast,
        Rule::PanicHotLoop,
        Rule::HotLoopAlloc,
        Rule::UnsafeForbid,
        Rule::DocsDenyMissing,
        Rule::KnobDoc,
        Rule::CsvSchemaSync,
        Rule::VariantDrift,
        Rule::WildcardArm,
        Rule::DeadKnob,
        Rule::CsvCrossFile,
        Rule::SuffixMix,
        Rule::MalformedAllow,
        Rule::UnusedAllow,
    ];

    /// The stable `category/name` id used in diagnostics and allows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::OrderedContainers => "determinism/ordered-containers",
            Rule::WallClock => "determinism/wall-clock",
            Rule::ThreadState => "determinism/thread-state",
            Rule::LossyCast => "overflow/lossy-cast",
            Rule::PanicHotLoop => "panic/hot-loop",
            Rule::HotLoopAlloc => "perf/hot-loop-alloc",
            Rule::UnsafeForbid => "unsafe/forbid",
            Rule::DocsDenyMissing => "docs/deny-missing",
            Rule::KnobDoc => "config/knob-doc",
            Rule::CsvSchemaSync => "csv/schema-sync",
            Rule::VariantDrift => "registry/variant-drift",
            Rule::WildcardArm => "registry/wildcard-arm",
            Rule::DeadKnob => "config/dead-knob",
            Rule::CsvCrossFile => "csv/cross-file-schema",
            Rule::SuffixMix => "units/suffix-mix",
            Rule::MalformedAllow => "lint/malformed-allow",
            Rule::UnusedAllow => "lint/unused-allow",
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::OrderedContainers => {
                "no HashMap/HashSet/RandomState in result-producing crates \
                 (iteration order breaks --jobs bit-equality)"
            }
            Rule::WallClock => "no Instant::now/SystemTime outside audited sweep-timing sites",
            Rule::ThreadState => "no ambient randomness; RNG must flow from seeded SweepJob state",
            Rule::LossyCast => {
                "no narrowing `as` casts on cycle/address values in core/mem tick paths"
            }
            Rule::PanicHotLoop => {
                "unwrap()/expect() in controller/cache/DRAM code needs a justification"
            }
            Rule::HotLoopAlloc => {
                "no per-iteration Vec/String/Box allocation inside named \
                 tick/advance loops of core/mem"
            }
            Rule::UnsafeForbid => "crate roots must carry #![forbid(unsafe_code)]",
            Rule::DocsDenyMissing => "crate roots must carry #![deny(missing_docs)]",
            Rule::KnobDoc => "every config-struct field needs a doc comment stating its unit",
            Rule::CsvSchemaSync => {
                "CSV header literals must match the column count of their row format"
            }
            Rule::VariantDrift => {
                "registry-enum variants must sit in ALL and be referenced outside \
                 their defining file"
            }
            Rule::WildcardArm => {
                "no `_` arm in matches over registry enums inside result-producing crates"
            }
            Rule::DeadKnob => "every pub config-struct field must be read outside its file",
            Rule::CsvCrossFile => {
                "CSV columns documented in README/ARCHITECTURE.md must exist in a writer"
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

    /// Whether an allow for this rule covers the whole file (crate-root
    /// attribute rules) rather than a single line.
    #[must_use]
    pub fn file_scoped(self) -> bool {
        matches!(self, Rule::UnsafeForbid | Rule::DocsDenyMissing)
    }

    /// Whether the rule needs the cross-file workspace model (pass 2)
    /// rather than a single file's token stream (pass 1).
    #[must_use]
    pub fn semantic(self) -> bool {
        matches!(
            self,
            Rule::VariantDrift
                | Rule::WildcardArm
                | Rule::DeadKnob
                | Rule::CsvCrossFile
                | Rule::SuffixMix
        )
    }

    /// The long-form rationale printed by `--explain <name>`: what the
    /// rule guards, why the repo cares, and how to fix or suppress a hit.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::OrderedContainers => {
                "Results must be bit-identical across --jobs and platforms. \
                 HashMap/HashSet iterate in RandomState order, so any fold over them \
                 can reorder floating-point accumulation and shift a speedup in the \
                 last ulp.\nFix: BTreeMap/BTreeSet, or a Vec in deterministic order.\n\
                 Scope: crates/core, crates/mem, crates/sim, crates/workloads."
            }
            Rule::WallClock => {
                "Wall-clock reads feeding a simulation result make runs \
                 irreproducible. Instant::now/SystemTime are legitimate only at the \
                 audited sweep-timing sites, each carrying an allow with a reason.\n\
                 Fix: thread simulated time (cycles) through instead; for genuine \
                 timing telemetry, add `// nvr-lint: allow(determinism/wall-clock) \
                 reason=\"...\"`."
            }
            Rule::ThreadState => {
                "thread_rng/OsRng/from_entropy draw ambient entropy, so two runs of \
                 the same seed diverge. All randomness must flow from the seeded \
                 Pcg32 carried in SweepJob/WorkloadSpec state.\n\
                 Fix: plumb the seeded generator through; never reseed from the \
                 environment."
            }
            Rule::LossyCast => {
                "Cycle counts and addresses are u64; a narrowing `as` cast in \
                 crates/core or crates/mem silently truncates once a sweep runs long \
                 enough.\nFix: u64 end-to-end, or try_from with an explicit error; \
                 justify real clamps with an allow."
            }
            Rule::PanicHotLoop => {
                "A panic inside controller/cache/DRAM tick code kills the whole \
                 parallel sweep, losing every in-flight figure.\nFix: return an \
                 error or restructure; where the invariant is airtight, document it \
                 via `allow(panic/hot-loop) reason=\"...\"`."
            }
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
            Rule::UnsafeForbid => {
                "Every crate root must carry #![forbid(unsafe_code)]: the simulator \
                 has no business with unsafe, and forbid (unlike deny) cannot be \
                 overridden further down the tree."
            }
            Rule::DocsDenyMissing => {
                "Every crate root must carry #![deny(missing_docs)] so public API \
                 drift without documentation fails the build."
            }
            Rule::KnobDoc => {
                "Each config-struct field steers the model; an undocumented knob's \
                 unit and default rationale are unrecoverable a month later.\n\
                 Fix: add a /// doc comment stating the unit and why the default is \
                 what it is."
            }
            Rule::CsvSchemaSync => {
                "Within one file, a CSV header literal and the row format! that \
                 follows must agree on column count, or every downstream plot reads \
                 shifted columns.\nFix: keep header string and row fields in sync."
            }
            Rule::VariantDrift => {
                "The headline grid (8 workloads x 7 systems x figures) is built \
                 from hand-maintained registries: each enum's ALL table plus the \
                 dispatch surfaces (runner, sweep tables, CLI FromStr, figure \
                 drivers). A variant missing from ALL — or never referenced outside \
                 its defining file — silently drops out of every sweep while the \
                 build stays green.\nFix: add the variant to ALL and wire it through \
                 the dispatch surfaces; the fixture trees under crates/lint/tests \
                 show the minimal shape."
            }
            Rule::WildcardArm => {
                "A `_` arm in a match over SystemKind/WorkloadId/FigureId inside a \
                 result-producing crate means a future variant inherits some default \
                 behaviour instead of failing to compile — exactly how a new system \
                 ends up simulated with the wrong memory config.\nFix: enumerate \
                 every variant explicitly (guard arms are fine); the compiler then \
                 forces each new variant to be placed deliberately."
            }
            Rule::DeadKnob => {
                "A pub field on NvrConfig/CacheConfig/DramConfig/MemoryConfig/\
                 NpuConfig that no other file reads is a knob wired to nothing: \
                 sweeps vary it, plots caption it, the model ignores it.\nFix: \
                 either wire the knob into the model or delete it."
            }
            Rule::CsvCrossFile => {
                "README/ARCHITECTURE.md document CSV columns by name; the writers \
                 in crates/sim own the header strings. When a column is renamed in \
                 code but not in docs, every reader of the docs mis-parses the \
                 artifact.\nFix: update the documented column lists to match the \
                 writer headers (backticked snake_case names are checked against \
                 all writer headers and workspace identifiers)."
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
             {{\"files\": {}, \"enums\": {}, \"variants\": {}, \"structs\": {}, \
             \"fields\": {}, \"matches\": {}, \"csv_headers\": {}}},\n  \"violations\": [",
            self.files_checked,
            s.files,
            s.enums,
            s.variants,
            s.structs,
            s.fields,
            s.matches,
            s.csv_headers
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
            rule: Rule::OrderedContainers,
            file: "crates/core/src/lib.rs".into(),
            line: 3,
            message: "found `HashMap`".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"rule\": \"determinism/ordered-containers\""));
        assert!(json.contains("\"line\": 3"));
    }
}
