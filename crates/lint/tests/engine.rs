//! Fixture-driven tests of the rule engine: every rule has a known-bad
//! snippet that must fire and a known-good (or audited) snippet that must
//! stay clean. Fixtures live under `tests/fixtures/` — a directory name
//! the workspace walker deliberately skips, so the deliberately-bad code
//! never pollutes the real lint pass.

use nvr_lint::{lint_source, Rule};

/// Runs the engine over a fixture under the given pseudo-path (rule
/// scoping keys off the path) and returns the rules that fired.
fn fired(rel: &str, src: &str) -> Vec<Rule> {
    lint_source(rel, src).into_iter().map(|d| d.rule).collect()
}

const CORE_PATH: &str = "crates/core/src/some_module.rs";

#[test]
fn ordered_containers_bad_fires_per_occurrence() {
    let src = include_str!("fixtures/ordered_containers_bad.rs");
    let diags = lint_source(CORE_PATH, src);
    assert!(diags.len() >= 4, "one finding per occurrence: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::OrderedContainers));
    // Diagnostics carry real positions.
    assert!(diags.iter().all(|d| d.file == CORE_PATH && d.line > 1));
}

#[test]
fn ordered_containers_good_is_clean() {
    let src = include_str!("fixtures/ordered_containers_good.rs");
    assert_eq!(fired(CORE_PATH, src), []);
}

#[test]
fn ordered_containers_ignored_outside_result_crates() {
    let src = include_str!("fixtures/ordered_containers_bad.rs");
    assert_eq!(fired("crates/llm/src/model.rs", src), []);
    assert_eq!(fired("crates/lint/src/rules.rs", src), []);
}

#[test]
fn wall_clock_bad_fires_everywhere() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let rules = fired("crates/llm/src/model.rs", src);
    assert_eq!(rules, [Rule::WallClock, Rule::WallClock]);
}

#[test]
fn wall_clock_allow_is_honoured_and_consumed() {
    let src = include_str!("fixtures/wall_clock_allowed.rs");
    assert_eq!(fired("crates/sim/src/util.rs", src), []);
}

#[test]
fn thread_state_bad_fires() {
    let src = include_str!("fixtures/thread_state_bad.rs");
    assert_eq!(
        fired("crates/workloads/src/gen.rs", src),
        [Rule::ThreadState]
    );
}

#[test]
fn lossy_cast_bad_fires_only_in_tick_crates() {
    let src = include_str!("fixtures/lossy_cast_bad.rs");
    assert_eq!(fired(CORE_PATH, src), [Rule::LossyCast, Rule::LossyCast]);
    // The same code outside core/mem is not in scope.
    assert_eq!(fired("crates/sim/src/x.rs", src), []);
}

#[test]
fn lossy_cast_good_is_clean() {
    let src = include_str!("fixtures/lossy_cast_good.rs");
    assert_eq!(fired(CORE_PATH, src), []);
}

#[test]
fn panic_hot_loop_bad_fires_in_tick_files() {
    let src = include_str!("fixtures/panic_hot_loop_bad.rs");
    let rules = fired("crates/mem/src/dram.rs", src);
    assert_eq!(rules, [Rule::PanicHotLoop, Rule::PanicHotLoop]);
    // The same code outside the hot-loop file set is fine.
    assert_eq!(fired("crates/mem/src/stats.rs", src), []);
}

#[test]
fn panic_in_test_module_is_exempt() {
    let src = include_str!("fixtures/panic_hot_loop_test_only.rs");
    assert_eq!(fired("crates/mem/src/cache.rs", src), []);
}

#[test]
fn hot_loop_alloc_bad_fires_per_site() {
    let src = include_str!("fixtures/hot_loop_alloc_bad.rs");
    let diags = lint_source("crates/mem/src/cache.rs", src);
    assert_eq!(diags.len(), 4, "one finding per allocation site: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::HotLoopAlloc));
    // The message names the allocating expression.
    assert!(diags.iter().any(|d| d.message.contains("`Vec::new`")));
    assert!(diags.iter().any(|d| d.message.contains("`format!`")));
    assert!(diags.iter().any(|d| d.message.contains("`.to_vec()`")));
    assert!(diags.iter().any(|d| d.message.contains("`Box::new`")));
}

#[test]
fn hot_loop_alloc_good_is_clean() {
    let src = include_str!("fixtures/hot_loop_alloc_good.rs");
    assert_eq!(fired("crates/core/src/controller.rs", src), []);
}

#[test]
fn hot_loop_alloc_ignored_outside_core_and_mem() {
    let src = include_str!("fixtures/hot_loop_alloc_bad.rs");
    assert_eq!(fired("crates/sim/src/sweep.rs", src), []);
    assert_eq!(fired("crates/sim/src/bin/sweep.rs", src), []);
}

#[test]
fn crate_root_missing_attrs_fires() {
    let src = include_str!("fixtures/crate_root_bad.rs");
    let rules = fired("crates/core/src/lib.rs", src);
    assert!(rules.contains(&Rule::UnsafeForbid));
    assert!(rules.contains(&Rule::DocsDenyMissing));
    // Non-root files are not in scope.
    assert_eq!(fired(CORE_PATH, src), []);
}

#[test]
fn crate_root_with_attrs_is_clean() {
    let src = include_str!("fixtures/crate_root_good.rs");
    assert_eq!(fired("crates/core/src/lib.rs", src), []);
}

#[test]
fn knob_doc_bad_fires_with_field_name() {
    let src = include_str!("fixtures/knob_doc_bad.rs");
    let diags = lint_source("crates/core/src/config.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::KnobDoc);
    assert!(diags[0].message.contains("NvrConfig::undocumented"));
}

#[test]
fn knob_doc_good_is_clean_with_attributes() {
    let src = include_str!("fixtures/knob_doc_good.rs");
    assert_eq!(fired("crates/core/src/config.rs", src), []);
}

#[test]
fn csv_schema_mismatch_fires() {
    let src = include_str!("fixtures/csv_schema_bad.rs");
    let diags = lint_source("crates/sim/src/report.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::CsvSchemaSync);
    assert!(diags[0].message.contains('4') && diags[0].message.contains('3'));
}

#[test]
fn csv_schema_good_is_clean() {
    let src = include_str!("fixtures/csv_schema_good.rs");
    assert_eq!(fired("crates/sim/src/report.rs", src), []);
}

#[test]
fn malformed_allows_fire_one_each() {
    let src = include_str!("fixtures/allow_malformed.rs");
    let rules = fired("crates/llm/src/x.rs", src);
    assert_eq!(
        rules,
        [
            Rule::MalformedAllow,
            Rule::MalformedAllow,
            Rule::MalformedAllow
        ]
    );
}

#[test]
fn unused_allow_fires() {
    let src = include_str!("fixtures/allow_unused.rs");
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::UnusedAllow);
    assert!(diags[0].message.contains("suppresses nothing"));
}

#[test]
fn doc_comments_never_carry_suppressions() {
    // Documentation *describing* the syntax must neither suppress nor be
    // reported as malformed.
    let src = "//! Use `// nvr-lint: allow(rule) reason=\"...\"` to suppress.\n\
               /// See `nvr-lint: allow(determinism/wall-clock)` for details.\n\
               pub fn f() {}\n";
    assert_eq!(fired("crates/llm/src/x.rs", src), []);
}
