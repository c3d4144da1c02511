//! Per-line predicted-reuse scoring for the NSB's DARE-style admission.
//!
//! The controller's window machinery resolves gather targets (rows of the
//! indirectly-addressed table) well ahead of the NPU. On power-law graph
//! workloads the same hub rows are resolved again and again across
//! neighbouring windows — exactly the lines worth pinning in the small
//! NSB — while the long tail of cold rows is touched once and never
//! again. [`ReusePredictor`] counts, per cache line, how many resolved
//! targets have touched it within a decaying horizon; the count is the
//! *predicted-reuse score* that rides each VMIG bundle entry
//! ([`crate::Vmig::push_bundle_scored`]) into the memory system, where
//! the NSB's [`nvr_mem::RetentionPolicy::ScoredReuse`] policy admits,
//! rejects (shrinks) and evicts on it.
//!
//! Determinism: the counts live in a [`nvr_common::FlatMap`] keyed by
//! line index, with a fixed decay epoch — no
//! [`std::collections::HashMap`] randomised state, no clocks — so
//! identical runs produce identical scores. The flat table matters for
//! speed: `observe` runs once per resolved target line, and a pointer-
//! chasing map on that path dominated the NSB configurations' wall time.
//! For the same reason decay is lazy: each entry remembers the epoch its
//! count was written in and is halved on read, so an epoch boundary costs
//! one increment instead of a pass over the table.

use nvr_common::{FlatMap, LineAddr};

/// Observations between decay steps. At each epoch boundary every count
/// halves (integer division) and exhausted entries are dropped, so a
/// phase change — a new tile neighbourhood with different hubs — washes
/// stale hub scores out within one epoch instead of pinning dead rows in
/// the NSB forever. 4096 observations ≈ 16 windows of 16-wide resolution
/// at 16 lanes: long enough to span the lookahead horizon, short enough
/// to track tile phases.
const DECAY_EPOCH: u32 = 4096;

/// Counts resolved-target touches per line inside a decaying horizon.
///
/// # Examples
///
/// ```
/// use nvr_core::ReusePredictor;
/// use nvr_common::LineAddr;
///
/// let mut p = ReusePredictor::new();
/// assert_eq!(p.observe(LineAddr::new(7)), 1);
/// assert_eq!(p.observe(LineAddr::new(7)), 2);
/// assert_eq!(p.score(LineAddr::new(7)), 2);
/// assert_eq!(p.score(LineAddr::new(8)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReusePredictor {
    /// Per line index, its touch count and the decay epoch the count was
    /// written in: the count is worth `count >> (epoch - stamp)` now (see
    /// [`decayed`]). Holds entries decayed to zero until the table's grow
    /// point drops them.
    counts: FlatMap<(u32, u32)>,
    /// Decay steps taken so far.
    epoch: u32,
    /// Observations since the last decay step.
    since_decay: u32,
}

/// A count written in decay epoch `stamp`, as of `epoch`: halved (integer
/// division) once per decay step since, which is one shift. A count
/// halved to zero is an exhausted entry.
fn decayed(count: u32, stamp: u32, epoch: u32) -> u32 {
    count.checked_shr(epoch - stamp).unwrap_or(0)
}

impl ReusePredictor {
    /// An empty predictor.
    #[must_use]
    pub fn new() -> Self {
        ReusePredictor::default()
    }

    /// Records one resolved gather target touching `line`; returns the
    /// line's updated score (its touch count within the current horizon,
    /// saturating).
    pub fn observe(&mut self, line: LineAddr) -> u32 {
        self.since_decay += 1;
        if self.since_decay >= DECAY_EPOCH {
            self.epoch += 1;
            self.since_decay = 0;
        }
        let epoch = self.epoch;
        // Drop exhausted entries where the table would grow, so it stays
        // sized to the lines still inside the horizon.
        if self.counts.would_grow() {
            self.counts
                .retain(|_, (count, stamp)| decayed(count, stamp, epoch) > 0);
        }
        let ((count, stamp), _) = self.counts.find_or_insert(line.index(), (0, epoch));
        // An exhausted entry restarts at 1, as a fresh one does.
        *count = decayed(*count, *stamp, epoch).saturating_add(1);
        *stamp = epoch;
        *count
    }

    /// The current score of `line` (0 if never observed this horizon).
    #[must_use]
    pub fn score(&self, line: LineAddr) -> u32 {
        self.counts
            .get(line.index())
            .map_or(0, |(count, stamp)| decayed(count, stamp, self.epoch))
    }

    /// Lines currently holding a non-zero score (a scan of the table).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.counts
            .iter()
            .filter(|&(_, (count, stamp))| decayed(count, stamp, self.epoch) > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_per_line() {
        let mut p = ReusePredictor::new();
        // A toy 4-node neighbourhood: node 0 is the hub (in-degree 3).
        // Edges resolve as target lines: (1->0) (2->0) (2->1) (3->0).
        let targets = [0u64, 0, 1, 0];
        let mut seen = Vec::new();
        for t in targets {
            seen.push(p.observe(LineAddr::new(t)));
        }
        // Exact running counts: hub line 0 reaches 3, line 1 stays at 1.
        assert_eq!(seen, vec![1, 2, 1, 3]);
        assert_eq!(p.score(LineAddr::new(0)), 3);
        assert_eq!(p.score(LineAddr::new(1)), 1);
        assert_eq!(p.score(LineAddr::new(2)), 0);
        assert_eq!(p.tracked(), 2);
    }

    #[test]
    fn admit_reject_sequence_at_threshold_two() {
        let mut p = ReusePredictor::new();
        let admit = 2u32;
        // Same toy graph; the admission decision is made per observation
        // with the *updated* score, so the hub is rejected on first touch
        // and admitted from its second touch onward.
        let decisions: Vec<bool> = [0u64, 0, 1, 0, 1, 2]
            .into_iter()
            .map(|t| p.observe(LineAddr::new(t)) >= admit)
            .collect();
        assert_eq!(decisions, vec![false, true, false, true, true, false]);
    }

    #[test]
    fn decay_halves_and_drops() {
        let mut p = ReusePredictor::new();
        for _ in 0..3 {
            p.observe(LineAddr::new(1));
        }
        p.observe(LineAddr::new(2));
        // Drive to the epoch boundary with a cold line.
        for _ in 0..(DECAY_EPOCH - 4) {
            p.observe(LineAddr::new(99));
        }
        // The decay ran inside the last observe: 3 -> 1, 1 -> 0 (dropped).
        assert_eq!(p.tracked(), 2, "lines 1 and 99 keep a score");
        assert_eq!(p.score(LineAddr::new(1)), 1);
        assert_eq!(p.score(LineAddr::new(2)), 0);
        // The cold line's own count also halved.
        assert!(p.score(LineAddr::new(99)) > 0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut p = ReusePredictor::new();
        let mut c = ReusePredictor::new();
        for _ in 0..3 {
            c.observe(LineAddr::new(5));
        }
        // Force the stored count to the ceiling, then observe once more.
        *c.counts.find_or_insert(LineAddr::new(5).index(), (0, 0)).0 = (u32::MAX, c.epoch);
        assert_eq!(c.observe(LineAddr::new(5)), u32::MAX);
        // Normal path still exact.
        assert_eq!(p.observe(LineAddr::new(5)), 1);
    }

    #[test]
    fn growth_preserves_scores() {
        let mut p = ReusePredictor::new();
        // Insert enough distinct lines to pass the table's grow point
        // several times (staying under one decay epoch, so every retain
        // keeps every line), then verify every score.
        for i in 0..2000u64 {
            p.observe(LineAddr::new(i));
            p.observe(LineAddr::new(i));
        }
        assert_eq!(p.tracked(), 2000);
        for i in 0..2000u64 {
            assert_eq!(p.score(LineAddr::new(i)), 2, "line {i}");
        }
    }

    /// The eager-decay semantics, naively: an ordered map whose counts all
    /// halve at each epoch boundary, dropping exhausted entries.
    #[derive(Default)]
    struct Reference {
        counts: std::collections::BTreeMap<u64, u32>,
        since_decay: u32,
    }

    impl Reference {
        fn observe(&mut self, key: u64) -> u32 {
            self.since_decay += 1;
            if self.since_decay >= DECAY_EPOCH {
                self.counts.retain(|_, c| {
                    *c /= 2;
                    *c > 0
                });
                self.since_decay = 0;
            }
            let c = self.counts.entry(key).or_insert(0);
            *c = c.saturating_add(1);
            *c
        }
    }

    #[test]
    fn lazy_decay_matches_eager_reference() {
        let mut rng = nvr_common::Pcg32::seed_from_u64(42);
        let (mut p, mut r) = (ReusePredictor::new(), Reference::default());
        // Hub lines recur across many epochs; the cold tail drives the
        // table to its grow point, and lines seen once die within an
        // epoch, so later retains drop them and keep the survivors.
        for i in 0..(24 * DECAY_EPOCH) {
            let key = match rng.gen_index(10) {
                0..=2 => rng.gen_range(64),
                3..=5 => 1000 + rng.gen_range(50_000),
                _ => 1_000_000 + u64::from(i),
            };
            assert_eq!(
                p.observe(LineAddr::new(key)),
                r.observe(key),
                "observation {i}"
            );
            if i % 997 == 0 {
                for (&k, &c) in &r.counts {
                    assert_eq!(p.score(LineAddr::new(k)), c, "line {k}");
                }
                assert_eq!(p.tracked(), r.counts.len());
            }
        }
    }
}
