//! Property tests for the scored NSB retention policy: invariants that
//! must hold for *every* fill/shrink/probe sequence, not just the
//! calibrated workloads.
//!
//! Three properties lock the policy's contract:
//! 1. occupancy never exceeds the buffer's line capacity;
//! 2. with all-zero scores (admission threshold 0) the scored buffer is
//!    bit-for-bit the pure-LRU buffer — same residency, same stats;
//! 3. a fill/shrink decision never evicts an active-window line (a
//!    speculative fill with remaining score that has not yet seen its
//!    demand) — the runahead thread only resolves targets inside the
//!    lookahead horizon, so such a line's demand is imminent.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;

use nvr::core::{nsb_config, nsb_scored};
use nvr::mem::{Cache, ProbeResult};
use nvr::prelude::*;

/// One step of a randomly generated NSB op sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Speculative fill carrying a predicted-reuse score.
    Fill { line: u64, score: u32 },
    /// Demand probe (a hit consumes one predicted use).
    Probe { line: u64 },
}

/// Generates a random op sequence. The vendored proptest shim has no
/// `prop_oneof`/`prop_map`, so this implements its `Strategy` trait
/// directly: each element is a fair coin between a fill (uniform line,
/// uniform score in `0..=max_score`) and a demand probe (uniform line).
struct OpSeq {
    len: std::ops::Range<usize>,
    lines: u64,
    max_score: u32,
}

impl Strategy for OpSeq {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        let span = (self.len.end - self.len.start) as u64;
        let len = self.len.start + rng.below(span) as usize;
        (0..len)
            .map(|_| {
                let line = rng.below(self.lines);
                if rng.next_u64() & 1 == 0 {
                    let score = rng.below(u64::from(self.max_score) + 1) as u32;
                    Op::Fill { line, score }
                } else {
                    Op::Probe { line }
                }
            })
            .collect()
    }
}

fn op_seq(max_score: u32) -> OpSeq {
    OpSeq {
        len: 1..200,
        lines: LINE_UNIVERSE,
        max_score,
    }
}

/// A 4 KB NSB-shaped buffer: 64 lines, 16 ways, 4 sets — small enough
/// that random sequences generate real eviction pressure.
const NSB_KIB: u64 = 4;
const LINE_UNIVERSE: u64 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: however the fill/shrink policy decides, the number of
    /// resident lines never exceeds the buffer's capacity.
    #[test]
    fn occupancy_never_exceeds_capacity(
        ops in op_seq(6),
    ) {
        let mut cache = Cache::new(nsb_scored(NSB_KIB));
        let capacity = (NSB_KIB * 1024 / 64) as usize;
        let mut touched = BTreeSet::new();
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            match *op {
                Op::Fill { line, score } => {
                    cache.install_speculative_scored(LineAddr::new(line), now, now, score);
                    touched.insert(line);
                }
                Op::Probe { line } => {
                    cache.probe(LineAddr::new(line), now, true);
                }
            }
            let resident = touched
                .iter()
                .filter(|&&l| cache.contains(LineAddr::new(l)))
                .count();
            prop_assert!(
                resident <= capacity,
                "{resident} resident lines exceed capacity {capacity}"
            );
        }
    }

    /// Property 2: admission threshold 0 means every fill carries score 0,
    /// and the scored buffer must then reproduce the pure-LRU buffer bit
    /// for bit — identical residency for every touched line and identical
    /// statistics after every sequence.
    #[test]
    fn zero_scores_reproduce_lru_bit_for_bit(
        ops in op_seq(0),
    ) {
        let mut lru = Cache::new(nsb_config(NSB_KIB));
        let mut scored = Cache::new(nsb_scored(NSB_KIB));
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            for cache in [&mut lru, &mut scored] {
                match *op {
                    Op::Fill { line, .. } => {
                        cache.install_speculative_scored(LineAddr::new(line), now, now, 0);
                    }
                    Op::Probe { line } => {
                        cache.probe(LineAddr::new(line), now, true);
                    }
                }
            }
        }
        for line in 0..LINE_UNIVERSE {
            prop_assert_eq!(
                lru.contains(LineAddr::new(line)),
                scored.contains(LineAddr::new(line)),
                "line {} residency diverged between LRU and scored-at-zero",
                line
            );
        }
        let (mut a, mut b) = (lru.stats().clone(), scored.stats().clone());
        a.name = "X";
        b.name = "X";
        prop_assert_eq!(a, b, "stats diverged between LRU and scored-at-zero");
    }

    /// Property 3: a fill/shrink decision never evicts an active-window
    /// line — one speculatively filled with a remaining score that has
    /// not yet been demanded. Such a line only leaves the buffer once its
    /// demand arrives (probe) or its score is aged to zero by rejections.
    ///
    /// Aging targets the weakest resident, which is not observable per
    /// line from outside, so the model keeps a sound *lower bound* on
    /// each active line's remaining score: install score minus every
    /// rejection since (each rejection ages at most one line by one).
    /// Any line whose lower bound is still >= 1 cannot have drained and
    /// therefore must still be resident.
    #[test]
    fn fill_never_evicts_active_window_line(
        ops in op_seq(6),
    ) {
        let mut cache = Cache::new(nsb_scored(NSB_KIB));
        // line -> (score at install, rejection count at install).
        let mut active: std::collections::BTreeMap<u64, (u32, u64)> =
            std::collections::BTreeMap::new();
        // Lines that have seen a demand while resident: a later prefetch
        // refill of such a line is accepted but does NOT restore its
        // active-window protection (the way stays `demanded` until it is
        // evicted and reinstalled fresh).
        let mut demanded: BTreeSet<u64> = BTreeSet::new();
        for (now, op) in ops.iter().enumerate() {
            let now = now as Cycle;
            match *op {
                Op::Fill { line, score } => {
                    // A demanded line that has since been evicted would be
                    // reinstalled fresh (and protected) by this fill.
                    demanded.retain(|&l| cache.contains(LineAddr::new(l)));
                    let accepted =
                        cache.install_speculative_scored(LineAddr::new(line), now, now, score);
                    let rejects = cache.stats().retention_rejected.get();
                    if accepted && score >= 1 && !demanded.contains(&line) {
                        // A refresh of a resident line maxes the scores, so
                        // the incoming score is a valid lower bound either
                        // way.
                        active.insert(line, (score, rejects));
                    }
                    for (&l, &(s, r0)) in &active {
                        let aged = (rejects - r0) as u32;
                        if s.saturating_sub(aged) >= 1 {
                            prop_assert!(
                                cache.contains(LineAddr::new(l)),
                                "fill of line {} evicted active-window line {} \
                                 (score {}, aged {})",
                                line, l, s, aged
                            );
                        }
                    }
                }
                Op::Probe { line } => {
                    if cache.probe(LineAddr::new(line), now, true) != ProbeResult::Miss {
                        // Demand arrived: the line leaves the window and
                        // stays unprotected until evicted and refilled.
                        active.remove(&line);
                        demanded.insert(line);
                    }
                }
            }
        }
    }
}
