//! Bad: allows without reasons or with unknown rules.
pub fn f() -> u64 {
    // nvr-lint: allow(perf/hot-loop-alloc)
    // nvr-lint: allow(no/such-rule) reason="nope"
    // nvr-lint: allow(units/suffix-mix) reason=""
    0
}
