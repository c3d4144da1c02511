//! VMIG: the Vectorisation Micro-Instruction Generator (§IV-F).
//!
//! A three-stage pipeline in hardware — IRU (instruction reconstruction),
//! PIE (parallel inference of `sparse_func` across 16 lanes using the VRF),
//! VIGU (vector instruction generation) — that bundles resolved prefetch
//! targets into single vectorised load operations, issuing one vector of up
//! to N line addresses per cycle. In the timing model the pipeline reduces
//! to: resolved target lines enter a queue (deduplicated against the
//! current bundle window), and each `issue` call drains up to N lines as
//! one vector prefetch.

use std::collections::VecDeque;

use nvr_common::{Cycle, FlatMap, LineAddr};
use nvr_mem::MemorySystem;

/// One queued target line, with what the issue stage last learned of its
/// residency.
#[derive(Debug, Clone, Copy)]
struct Queued {
    line: LineAddr,
    /// [`MemorySystem::residency_epoch`] when a residency probe last found
    /// the line off-chip; [`UNPROBED`] before the first probe.
    absent_at: u64,
}

/// [`Queued::absent_at`] of a line never probed (no epoch reaches it).
const UNPROBED: u64 = u64::MAX;

/// Whether `entry`'s line is resident or in flight on the NPU side. The
/// probe is skipped while the residency epoch still equals the one at
/// which the line was last found absent: no line has arrived since, so
/// neither has this one. A deferred line behind a full channel then costs
/// one epoch compare per issue call instead of a lookup per level.
fn on_chip(entry: &mut Queued, mem: &MemorySystem) -> bool {
    let epoch = mem.residency_epoch();
    if entry.absent_at == epoch {
        return false;
    }
    let present = mem.npu_side_contains(entry.line);
    if !present {
        entry.absent_at = epoch;
    }
    present
}

/// The VMIG issue stage.
///
/// # Examples
///
/// ```
/// use nvr_core::Vmig;
/// use nvr_common::LineAddr;
///
/// let mut v = Vmig::new(16);
/// v.push(LineAddr::new(1));
/// v.push(LineAddr::new(1)); // deduplicated
/// v.push(LineAddr::new(2));
/// assert_eq!(v.pending(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Vmig {
    width: usize,
    /// Queued target lines in arrival order. A deque, so dropping the
    /// issued run near the head moves the few deferred lines before it
    /// instead of shifting the whole backlog behind it.
    queue: VecDeque<Queued>,
    /// Predicted-reuse score per queued line (0 for unscored traffic,
    /// e.g. index stream-ahead lines), keyed by line index. Doubles as
    /// the dedup set: membership here means the line is in `queue`, so a
    /// push is one probe instead of a queue scan.
    scores: FlatMap,
    /// DARE-style NSB admission threshold ([`crate::NvrConfig::nsb_admit_min_reuse`]):
    /// when non-zero, a line's full predicted-reuse score earns retention
    /// priority only once it reaches the threshold; lines below it are
    /// carried at score 1 (their one imminent use).
    nsb_admit: u32,
    /// Vector prefetch operations issued.
    vectors_issued: u64,
    /// Total lines carried by those vectors.
    lines_issued: u64,
    /// Lines dropped at issue by the residency filter.
    lines_filtered: u64,
    /// Lines deferred at issue because their DRAM channel's prefetch
    /// queue was full (per-channel back-pressure, not a drop).
    lines_deferred: u64,
}

impl Vmig {
    /// Creates a generator bundling up to `width` lines per vector.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "vector width must be non-zero");
        Vmig {
            width,
            queue: VecDeque::new(),
            scores: FlatMap::new(),
            nsb_admit: 0,
            vectors_issued: 0,
            lines_issued: 0,
            lines_filtered: 0,
            lines_deferred: 0,
        }
    }

    /// Queues one target line, deduplicating against queued lines.
    pub fn push(&mut self, line: LineAddr) {
        self.push_scored(line, 0);
    }

    /// Queues one target line with a predicted-reuse score. Deduplication
    /// keeps the *maximum* score seen for the line — a line wanted by two
    /// bundles is more reusable, not less.
    pub fn push_scored(&mut self, line: LineAddr, score: u32) {
        match self.scores.get(line.index()) {
            Some(old) => {
                if u64::from(score) > old {
                    self.scores.insert(line.index(), u64::from(score));
                }
            }
            None => {
                self.scores.insert(line.index(), u64::from(score));
                self.queue.push_back(Queued {
                    line,
                    absent_at: UNPROBED,
                });
            }
        }
    }

    /// Sets the retention-priority threshold applied at issue
    /// ([`crate::NvrConfig::nsb_admit_min_reuse`]; 0 disables scoring
    /// entirely, reverting scored levels to LRU behaviour).
    pub fn set_nsb_admit(&mut self, admit: u32) {
        self.nsb_admit = admit;
    }

    /// Accepts one PIE-resolved vector bundle: the lines of up to `width`
    /// lanes' gather targets, deduplicated against the queue. This is the
    /// unit the VIGU synthesises into a single vector load operation, so it
    /// is where the vector/line statistics accrue; the [`Vmig::issue`]
    /// stage then trickles lines into the memory system as the speculative
    /// MSHR file frees.
    pub fn push_bundle<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) {
        self.push_bundle_scored(lines.into_iter().map(|l| (l, 0)));
    }

    /// [`Vmig::push_bundle`] with per-line predicted-reuse scores, as
    /// produced by the controller's [`crate::ReusePredictor`] over the
    /// window machinery's resolved targets.
    pub fn push_bundle_scored<I: IntoIterator<Item = (LineAddr, u32)>>(&mut self, lines: I) {
        let before = self.queue.len();
        for (line, score) in lines {
            self.push_scored(line, score);
        }
        let added = (self.queue.len() - before) as u64;
        if added > 0 {
            self.vectors_issued += 1;
            self.lines_issued += added;
        }
    }

    /// Queues prefetch lines *without* vector-operation accounting — for
    /// index stream-ahead traffic that rides the issue queue for pacing
    /// but is not a PIE-resolved gather vector, so
    /// [`Vmig::mean_pack_width`] keeps measuring the packing efficiency
    /// of resolved targets only.
    pub fn push_stream<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) {
        for line in lines {
            self.push(line);
        }
    }

    /// Lines waiting to issue.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether any work is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Issues one vector (up to `width` lines) of prefetches at `now`,
    /// capped to the free MSHR count so elements back-pressure in the VIGU
    /// buffer rather than dropping. Returns the number of lines issued.
    ///
    /// Queued lines that are already resident (or in flight) on the NPU
    /// side are dropped without burning a vector lane — the VIGU probes
    /// the tag array before synthesising the operation, so redundant
    /// targets never crowd out fresh ones in the issue vector. The filter
    /// is skipped when fills also populate the NSB, because a redundant
    /// L2 line still wants its NSB promotion.
    ///
    /// Lines whose DRAM channel's prefetch queue is full are *deferred*,
    /// not dropped: they stay at the head of the VIGU buffer (order
    /// preserved) and retry next cycle — the VIGU paces on per-channel
    /// occupancy instead of pushing requests into a full queue where the
    /// backend would reject them.
    pub fn issue(&mut self, mem: &mut MemorySystem, now: Cycle, fill_nsb: bool) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        let cap = self.width.min(mem.prefetch_slots(now));
        if cap == 0 {
            return 0;
        }
        let mut taken = 0;
        let mut issued = 0;
        // Deferred entries are compacted in place at the front of the queue
        // (`kept` trails `taken`, so the writes never clobber unread
        // entries) — the post-issue queue is deferred lines in order
        // followed by the untouched tail, with no per-call allocation.
        let mut kept = 0;
        // Channel-readiness memo for this call: a channel's answer only
        // changes when a line issues onto it, so a deferred run of
        // same-channel lines costs one queue walk instead of one each.
        const MEMO_CHANNELS: usize = 32;
        let mut chan_ready = [None::<bool>; MEMO_CHANNELS];
        while issued < cap && taken < self.queue.len() {
            let mut entry = self.queue[taken];
            let line = entry.line;
            taken += 1;
            // The channel gate only applies to lines that would actually
            // fetch: an on-chip line (possible in NSB mode, where the
            // residency filter is skipped) needs at most an NSB promotion
            // and never touches the DRAM channel. In filtered mode a line
            // that survives the residency probe is known off-chip, so the
            // gate is the channel check alone.
            let ch = mem.channel_of(line);
            let ready = match chan_ready.get(ch).copied().flatten() {
                Some(r) => r,
                None => {
                    let r = mem.prefetch_channel_ready(line, now);
                    if let Some(slot) = chan_ready.get_mut(ch) {
                        *slot = Some(r);
                    }
                    r
                }
            };
            let deferred = if fill_nsb {
                !ready && !on_chip(&mut entry, mem)
            } else {
                if on_chip(&mut entry, mem) {
                    self.lines_filtered += 1;
                    self.scores.remove(line.index());
                    continue;
                }
                !ready
            };
            if deferred {
                self.lines_deferred += 1;
                self.queue[kept] = entry;
                kept += 1;
                continue;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "scores map only ever stores u64::from(u32) values"
            )]
            let score = self.scores.remove(line.index()).map_or(0, |s| s as u32);
            // DARE-style admission: with an active threshold, a line's
            // predicted reuse earns retention priority only once it
            // clears the threshold; below it the line carries no score.
            // The two levels then see different floors. The NSB floor is
            // 1 — the one imminent demand the line was resolved for — so
            // every prefetch still fills the NSB (the paper's §IV-G
            // behaviour; streaming workloads keep their 2-cycle hits)
            // while demonstrated-reuse lines outrank the stream for
            // residency. The L2 gets the unfloored score: a scored L2
            // ranks below-threshold speculative lines level with its
            // demand-allocated ways (score 0) instead of letting a
            // blanket floor starve demand residency. The unscored path
            // (admission off) keeps sending zeros, preserving LRU
            // equivalence.
            let (pinned, nsb_score) = if self.nsb_admit > 0 {
                let pinned = if score >= self.nsb_admit { score } else { 0 };
                (pinned, pinned.max(1))
            } else {
                (score, score)
            };
            mem.prefetch_line_scored(line, now, fill_nsb, pinned, nsb_score);
            // The issue may have queued onto (or promoted within) this
            // line's channel: drop its memo entry.
            if let Some(slot) = chan_ready.get_mut(ch) {
                *slot = None;
            }
            issued += 1;
        }
        self.queue.drain(kept..taken);
        issued
    }

    /// Queued lines dropped at issue because they were already resident or
    /// in flight (the VIGU's tag-probe filter).
    #[must_use]
    pub fn lines_filtered(&self) -> u64 {
        self.lines_filtered
    }

    /// Issue attempts deferred by per-channel queue back-pressure (the
    /// line stayed buffered and retried later).
    #[must_use]
    pub fn lines_deferred(&self) -> u64 {
        self.lines_deferred
    }

    /// Vector operations issued over the run.
    #[must_use]
    pub fn vectors_issued(&self) -> u64 {
        self.vectors_issued
    }

    /// Total lines carried.
    #[must_use]
    pub fn lines_issued(&self) -> u64 {
        self.lines_issued
    }

    /// Mean lines per vector (the packing efficiency of the VIGU).
    #[must_use]
    pub fn mean_pack_width(&self) -> f64 {
        if self.vectors_issued == 0 {
            0.0
        } else {
            self.lines_issued as f64 / self.vectors_issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_mem::MemoryConfig;

    #[test]
    fn bundles_account_at_pie_granularity() {
        let mut v = Vmig::new(4);
        v.push_bundle((0..4).map(LineAddr::new));
        v.push_bundle((4..10).map(LineAddr::new));
        assert_eq!(v.vectors_issued(), 2);
        assert_eq!(v.lines_issued(), 10);
        assert!((v.mean_pack_width() - 5.0).abs() < 1e-12);
        // The issue stage drains at most `width` lines per cycle.
        let mut mem = MemorySystem::new(MemoryConfig::default());
        assert_eq!(v.issue(&mut mem, 0, false), 4);
        assert_eq!(v.issue(&mut mem, 1, false), 4);
        assert_eq!(v.issue(&mut mem, 2, false), 2);
        assert_eq!(v.issue(&mut mem, 3, false), 0);
    }

    #[test]
    fn empty_bundle_not_counted() {
        let mut v = Vmig::new(4);
        v.push(LineAddr::new(1));
        v.push_bundle([LineAddr::new(1)]); // fully deduplicated
        assert_eq!(v.vectors_issued(), 0);
    }

    #[test]
    fn dedup_within_queue() {
        let mut v = Vmig::new(16);
        v.push(LineAddr::new(5));
        v.push(LineAddr::new(5));
        assert_eq!(v.pending(), 1);
    }

    #[test]
    fn backpressure_holds_queue() {
        let cfg = MemoryConfig {
            prefetch_mshrs: 1,
            ..MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(cfg);
        let mut v = Vmig::new(4);
        v.push(LineAddr::new(1));
        v.push(LineAddr::new(2));
        // Only one speculative MSHR: the vector is capped to one line.
        assert_eq!(v.issue(&mut mem, 0, false), 1);
        // The file is full (line 1's fill pending): queue holds.
        v.push(LineAddr::new(3));
        assert_eq!(v.issue(&mut mem, 1, false), 0);
        assert_eq!(v.pending(), 2);
    }

    #[test]
    fn issue_filters_resident_lines() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut v = Vmig::new(4);
        // Make line 1 resident via a demand fill, then queue it plus a
        // fresh line: the resident one is dropped without a lane.
        let r = mem.demand_line(LineAddr::new(1), 0);
        v.push(LineAddr::new(1));
        v.push(LineAddr::new(2));
        let n = v.issue(&mut mem, r.ready_at + 1, false);
        assert_eq!(n, 1, "resident line filtered, fresh line issued");
        assert_eq!(v.lines_filtered(), 1);
        assert!(v.is_empty());
    }

    #[test]
    fn channel_backpressure_defers_lines_in_order() {
        use nvr_mem::DramConfig;
        let cfg = MemoryConfig {
            prefetch_mshrs: 64,
            dram: DramConfig {
                queue_depth: 2,
                ..DramConfig::default()
            },
            ..MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(cfg);
        // Saturate the single channel's prefetch queue out-of-band.
        for i in 100..103u64 {
            mem.prefetch_line(LineAddr::new(i), 0, false);
        }
        let mut v = Vmig::new(4);
        v.push(LineAddr::new(1));
        v.push(LineAddr::new(2));
        // Channel full: nothing issues, the lines stay buffered in order.
        assert_eq!(v.issue(&mut mem, 0, false), 0);
        assert_eq!(v.pending(), 2);
        assert_eq!(v.lines_deferred(), 2);
        // Once the queue drains, the same lines issue.
        let later = 10 * DramConfig::default().line_transfer_cycles();
        assert_eq!(v.issue(&mut mem, later, false), 2);
        assert!(v.is_empty());
    }

    #[test]
    fn scored_dedup_keeps_max_score() {
        let mut v = Vmig::new(16);
        v.push_scored(LineAddr::new(5), 1);
        v.push_scored(LineAddr::new(5), 3);
        v.push_scored(LineAddr::new(5), 2);
        assert_eq!(v.pending(), 1);
        assert_eq!(v.queue[0].line, LineAddr::new(5));
        assert_eq!(v.scores.get(LineAddr::new(5).index()), Some(3));
    }

    #[test]
    fn admission_threshold_grants_retention_priority_not_residency() {
        // Every prefetch still fills the NSB (§IV-G — streaming workloads
        // keep their near-NPU hits); the threshold decides whose *score*
        // counts for retention. A one-line scored NSB makes the ranking
        // observable: the admitted hub holds residency and the
        // below-threshold line — carried at score 1, its single imminent
        // use — is rejected (shrink) and lands in the L2 only.
        let nsb = nvr_mem::CacheConfig {
            name: "NSB",
            size_bytes: 64,
            ways: 1,
            hit_latency: 2,
            mshr_entries: 16,
            policy: nvr_mem::RetentionPolicy::ScoredReuse,
        };
        let cfg = MemoryConfig::default().with_nsb(nsb);
        let mut mem = MemorySystem::new(cfg);
        let mut v = Vmig::new(16);
        v.set_nsb_admit(2);
        v.push_scored(LineAddr::new(2), 3); // clears the threshold
        assert_eq!(v.issue(&mut mem, 0, true), 1);
        // Wait out the hub's fill so victim selection ranks on score.
        let later = 1000;
        v.push_scored(LineAddr::new(1), 0); // below threshold
        assert_eq!(v.issue(&mut mem, later, true), 1);
        let s = mem.stats();
        let nsb = s.nsb.as_ref().expect("nsb");
        assert_eq!(s.l2.prefetch_issued.get(), 2, "both lines fill the L2");
        assert_eq!(nsb.prefetch_issued.get(), 1, "the hub holds the NSB");
        assert_eq!(nsb.retention_rejected.get(), 1, "the cold fill shrank");
    }

    #[test]
    fn zero_threshold_admits_everything() {
        let cfg = MemoryConfig::default().with_nsb(crate::nsb_scored(16));
        let mut mem = MemorySystem::new(cfg);
        let mut v = Vmig::new(16);
        v.push_scored(LineAddr::new(1), 0);
        v.push_scored(LineAddr::new(2), 5);
        assert_eq!(v.issue(&mut mem, 0, true), 2);
        assert_eq!(
            mem.stats().nsb.as_ref().expect("nsb").prefetch_issued.get(),
            2
        );
    }

    #[test]
    fn empty_issue_is_noop() {
        let mut v = Vmig::new(4);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        assert_eq!(v.issue(&mut mem, 0, false), 0);
        assert_eq!(v.vectors_issued(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = Vmig::new(0);
    }
}
