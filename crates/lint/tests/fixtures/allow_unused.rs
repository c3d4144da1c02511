//! Bad: a well-formed allow that suppresses nothing.
pub fn f() -> u64 {
    // nvr-lint: allow(perf/hot-loop-alloc) reason="left over after a refactor"
    0
}
