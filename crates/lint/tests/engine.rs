//! Fixture-driven tests of the per-file rule and the allow audit: each
//! has a known-bad snippet that must fire and a known-good (or audited)
//! snippet that must stay clean. Fixtures live under `tests/fixtures/` —
//! a directory name the workspace walker deliberately skips, so the
//! deliberately-bad code never pollutes the real lint pass.

use nvr_lint::{lint_source, Rule};

/// Runs the engine over a fixture under the given pseudo-path (rule
/// scoping keys off the path) and returns the rules that fired.
fn fired(rel: &str, src: &str) -> Vec<Rule> {
    lint_source(rel, src).into_iter().map(|d| d.rule).collect()
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
