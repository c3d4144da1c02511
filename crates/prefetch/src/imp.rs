//! IMP: the Indirect Memory Prefetcher (Yu et al., MICRO'15).
//!
//! IMP observes pairs of (index value, subsequent miss address) and tries
//! to learn an affine mapping `target = base + (value << shift)`. Once a
//! mapping is locked, every index value it sees — including values it reads
//! *ahead* out of already-resident index lines — produces a target prefetch
//! `DISTANCE` elements before the NPU's gather reaches it.
//!
//! Mechanistic limits reproduced here, which drive its Fig. 5/6 standing:
//!
//! * non-affine chains (voxel-hash table lookups) rarely lock, and a lock
//!   they do reach unlocks after `UNLOCK_AFTER` mismatches, so point-cloud
//!   workloads get little beyond the index-stream prefetches;
//! * the lead time is bounded by `DISTANCE` index elements, far shorter than
//!   a runahead prefetcher's reach, costing timeliness (coverage);
//! * a locked mapping is verified against later misses and unlocked on
//!   repeated mismatch, so a workload phase change retrains.

use std::collections::VecDeque;

use nvr_common::{Addr, Cycle};
use nvr_mem::MemorySystem;
use nvr_trace::{AccessEvent, EventKind, MemoryImage, SnoopState};

use crate::api::Prefetcher;
use crate::rpt::StrideEntry;

/// Index elements of lead: on seeing index element `p`, IMP prefetches
/// the target of element `p + DISTANCE` when that value is on chip.
/// Assumed: the paper gives IMP no distance (§V-A); this is one NPU
/// vector of indices (N = 16).
const DISTANCE: u64 = 16;

/// Largest `shift` considered when learning `base + (value << shift)`.
/// Assumed: it covers power-of-two rows of up to 4 KiB.
const MAX_SHIFT: u32 = 12;

/// Candidate-table capacity. Assumed: the paper does not size IMP's
/// tables (§V-A); 64 entries hold the 26 candidates one miss adds (every
/// shift of the last two index values) twice over.
const CANDIDATES: usize = 64;

/// Consecutive prediction mismatches before a locked mapping unlocks.
/// Assumed: eight, half a vector of gathers.
const UNLOCK_AFTER: u32 = 8;

/// Lines of index stream prefetched ahead. Assumed: the stream
/// baseline's degree of four lines.
const STREAM_DEGREE: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    base: u64,
    shift: u32,
}

/// The IMP prefetcher.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::{ImpPrefetcher, Prefetcher};
///
/// let p = ImpPrefetcher::default();
/// assert_eq!(p.name(), "IMP");
/// ```
#[derive(Debug, Clone)]
pub struct ImpPrefetcher {
    /// Stride tracking of the index-load address stream.
    index_stride: StrideEntry,
    /// Recently observed index values (for correlation learning). A ring
    /// buffer: one arrives per index load, so evicting the oldest must not
    /// shift the other 31.
    recent_values: VecDeque<u32>,
    trainer: Trainer<ShiftTable>,
}

impl ImpPrefetcher {
    /// The learned mapping, if locked (exposed for tests and reporting).
    #[must_use]
    pub fn locked_mapping(&self) -> Option<(u64, u32)> {
        self.trainer.locked.map(|m| (m.base, m.shift))
    }
}

impl Default for ImpPrefetcher {
    fn default() -> Self {
        ImpPrefetcher {
            index_stride: StrideEntry::new(),
            recent_values: VecDeque::with_capacity(33),
            trainer: Trainer::new(ShiftTable::new(CANDIDATES)),
        }
    }
}

impl Prefetcher for ImpPrefetcher {
    fn name(&self) -> &'static str {
        "IMP"
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        _snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        match event.kind {
            EventKind::IndexLoad { value } => {
                self.index_stride.update(event.addr);
                self.recent_values.push_back(value);
                if self.recent_values.len() > 32 {
                    self.recent_values.pop_front();
                }
                // Stream part: keep the index array itself flowing.
                if let Some(pred) = self.index_stride.predict(1) {
                    for k in 0..STREAM_DEGREE {
                        mem.prefetch_line(pred.line().step(k), event.cycle, false);
                    }
                }
                // Indirect part: prefetch the target `distance` ahead, using
                // the ahead-value only if its line is already on chip.
                if let Some(m) = self.trainer.locked {
                    let stride = self.index_stride.stride();
                    if stride > 0 {
                        let ahead_addr = Addr::new(event.addr.raw() + DISTANCE * stride as u64);
                        if mem.npu_side_contains(ahead_addr.line()) {
                            let v = image.read_u32(ahead_addr);
                            let target = Addr::new(m.base + (u64::from(v) << m.shift));
                            mem.prefetch_line(target.line(), event.cycle, false);
                        }
                    }
                }
            }
            EventKind::GatherLoad if event.missed => {
                self.trainer.on_miss(&self.recent_values, event.addr);
            }
            _ => {}
        }
    }

    fn advance(
        &mut self,
        _from: Cycle,
        _to: Cycle,
        _snoop: &SnoopState,
        _image: &MemoryImage,
        _mem: &mut MemorySystem,
    ) {
        // IMP is event-driven; no decoupled speculative thread.
    }
}

/// A table of unique candidate mappings with hit counts, evicting the
/// oldest candidate when full.
trait CandidateTable {
    /// Counts one more sighting of `mapping`, inserting it (evicting the
    /// oldest candidate if the table is full) when absent; returns its
    /// hit count.
    fn sight(&mut self, mapping: Mapping) -> u32;
    /// Forgets every candidate.
    fn clear(&mut self);
}

/// The candidate table, bucketed by shift so a lookup scans only the
/// candidates sharing its shift. `order` records every candidate's shift
/// in insertion order and each bucket is oldest-first, so the oldest
/// candidate overall is the front of the bucket `order` names first.
#[derive(Debug, Clone)]
struct ShiftTable {
    capacity: usize,
    /// Each candidate's shift, oldest first.
    order: VecDeque<u32>,
    /// Per shift, the `(base, hits)` of its candidates, oldest first.
    buckets: Vec<VecDeque<(u64, u32)>>,
}

impl ShiftTable {
    fn new(capacity: usize) -> Self {
        ShiftTable {
            capacity,
            order: VecDeque::with_capacity(capacity),
            buckets: vec![VecDeque::new(); MAX_SHIFT as usize + 1],
        }
    }
}

impl CandidateTable for ShiftTable {
    fn sight(&mut self, mapping: Mapping) -> u32 {
        let bucket = &mut self.buckets[mapping.shift as usize];
        if let Some((_, hits)) = bucket.iter_mut().find(|(base, _)| *base == mapping.base) {
            *hits += 1;
            return *hits;
        }
        if self.order.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.buckets[oldest as usize].pop_front();
            }
        }
        self.order.push_back(mapping.shift);
        self.buckets[mapping.shift as usize].push_back((mapping.base, 1));
        1
    }

    fn clear(&mut self) {
        self.order.clear();
        self.buckets.iter_mut().for_each(VecDeque::clear);
    }
}

/// IMP's mapping trainer: the candidate table, the locked mapping and the
/// locked mapping's current mismatch streak.
#[derive(Debug, Clone)]
struct Trainer<T> {
    candidates: T,
    locked: Option<Mapping>,
    mismatches: u32,
}

impl<T: CandidateTable> Trainer<T> {
    fn new(candidates: T) -> Self {
        Trainer {
            candidates,
            locked: None,
            mismatches: 0,
        }
    }

    /// Trains on a gather miss at `miss_addr` while unlocked, or checks the
    /// locked mapping against it; `recent` holds the index values seen so
    /// far, newest last.
    fn on_miss(&mut self, recent: &VecDeque<u32>, miss_addr: Addr) {
        match self.locked {
            Some(m) => self.verify(m, recent, miss_addr),
            None => self.learn(recent, miss_addr),
        }
    }

    fn learn(&mut self, recent: &VecDeque<u32>, miss_addr: Addr) {
        for &v in recent.iter().rev().take(2) {
            for shift in 0..=MAX_SHIFT {
                let scaled = u64::from(v) << shift;
                let Some(base) = miss_addr.raw().checked_sub(scaled) else {
                    continue;
                };
                let mapping = Mapping { base, shift };
                if self.candidates.sight(mapping) >= 2 && shift > 0 {
                    self.locked = Some(mapping);
                    self.mismatches = 0;
                    return;
                }
            }
        }
    }

    fn verify(&mut self, m: Mapping, recent: &VecDeque<u32>, miss_addr: Addr) {
        let predicted = recent
            .iter()
            .rev()
            .take(8)
            .any(|&v| m.base + (u64::from(v) << m.shift) == miss_addr.raw());
        if predicted {
            self.mismatches = 0;
        } else {
            self.mismatches += 1;
            if self.mismatches >= UNLOCK_AFTER {
                self.locked = None;
                self.candidates.clear();
                self.mismatches = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::Region;
    use nvr_mem::MemoryConfig;
    use nvr_trace::SnoopState;

    fn snoop() -> SnoopState {
        SnoopState {
            tile: 0,
            total_tiles: 1,
            index_base: Addr::new(0x1000),
            elem_start: 0,
            elem_end: 64,
            elem_consumed: 0,
            gather: None,
        }
    }

    /// Feeds IMP an affine indirect pattern and checks it locks and
    /// prefetches targets.
    #[test]
    fn locks_affine_mapping() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut image = MemoryImage::new();
        let ia_base = 0x100_0000u64;
        let row = 256u64; // shift = 8
        let indices: Vec<u32> = (0..64).map(|i| (i * 37) % 1000).collect();
        image.add_u32_segment(Addr::new(0x1000), indices.clone());
        let s = snoop();

        for (i, &v) in indices.iter().enumerate() {
            let index_addr = Addr::new(0x1000 + i as u64 * 4);
            // The engine loads the index element (value on the bus)...
            mem.demand_line(index_addr.line(), i as Cycle * 10);
            p.observe(
                &AccessEvent::index_load(i as Cycle * 10, index_addr, v, false),
                &s,
                &image,
                &mut mem,
            );
            // ...then the gather for this element, which misses cold.
            let target = Addr::new(ia_base + u64::from(v) * row);
            let missed = !mem.npu_side_contains(target.line());
            mem.demand_line(target.line(), i as Cycle * 10 + 5);
            p.observe(
                &AccessEvent::gather(i as Cycle * 10 + 5, target, missed),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), Some((ia_base, 8)));
        // With the mapping locked, ahead-targets get prefetched: the DRAM
        // prefetch counter must have moved beyond the stream prefetches.
        assert!(mem.stats().l2.prefetch_issued.get() > 0);
        assert!(
            mem.stats().l2.prefetch_useful.get() > 10,
            "locked IMP should cover later gathers, useful={}",
            mem.stats().l2.prefetch_useful.get()
        );
    }

    /// A non-affine (hash-table) pattern must never lock.
    #[test]
    fn does_not_lock_non_affine() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let image = MemoryImage::new();
        let s = snoop();
        let mut rng = nvr_common::Pcg32::seed_from_u64(5);
        for i in 0..200u64 {
            let v = rng.next_u32() % 1000;
            p.observe(
                &AccessEvent::index_load(i * 10, Addr::new(0x1000 + i * 4), v, false),
                &s,
                &image,
                &mut mem,
            );
            // Target unrelated to v: random placement.
            let target = Addr::new(0x100_0000 + rng.gen_range(1 << 24));
            p.observe(
                &AccessEvent::gather(i * 10 + 5, target, true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), None);
    }

    /// A locked mapping unlocks when the pattern changes.
    #[test]
    fn unlocks_on_phase_change() {
        let mut p = ImpPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut image = MemoryImage::new();
        let indices: Vec<u32> = (0..128).collect();
        image.add_u32_segment(Addr::new(0x1000), indices.clone());
        let s = snoop();
        // Phase 1: affine with shift 8.
        for i in 0..32u64 {
            let v = indices[i as usize];
            p.observe(
                &AccessEvent::index_load(i, Addr::new(0x1000 + i * 4), v, false),
                &s,
                &image,
                &mut mem,
            );
            p.observe(
                &AccessEvent::gather(i, Addr::new(0x100_0000 + (u64::from(v) << 8)), true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert!(p.locked_mapping().is_some());
        // Phase 2: random targets -> mismatch streak -> unlock.
        let mut rng = nvr_common::Pcg32::seed_from_u64(6);
        for i in 32..64u64 {
            p.observe(
                &AccessEvent::gather(i, Addr::new(0x900_0000 + rng.gen_range(1 << 20)), true),
                &s,
                &image,
                &mut mem,
            );
        }
        assert_eq!(p.locked_mapping(), None);
    }

    #[test]
    fn index_region_helper_consistency() {
        // Guard: the test harness above assumes 4-byte index elements.
        let r = Region::new(Addr::new(0x1000), 16);
        assert_eq!(r.bytes() / 4, 4);
    }

    /// The candidate table as it stood before the per-shift split: one
    /// linear FIFO, scanned whole on every lookup and shifted down on every
    /// eviction. The differential oracle for [`ShiftTable`].
    struct ReferenceTable {
        capacity: usize,
        candidates: Vec<(Mapping, u32)>,
    }

    impl CandidateTable for ReferenceTable {
        fn sight(&mut self, mapping: Mapping) -> u32 {
            if let Some((_, hits)) = self.candidates.iter_mut().find(|(m, _)| *m == mapping) {
                *hits += 1;
                return *hits;
            }
            if self.candidates.len() == self.capacity {
                self.candidates.remove(0);
            }
            self.candidates.push((mapping, 1));
            1
        }

        fn clear(&mut self) {
            self.candidates.clear();
        }
    }

    /// Drives IMP and a trainer over the reference table with the same
    /// seeded event streams — small index values that make mappings
    /// collide, repeated values, affine misses that lock, and mismatch runs
    /// that unlock — and checks the locked mapping after every event.
    #[test]
    fn shift_table_matches_reference_fifo() {
        // The default table, and small tables that evict constantly. Two
        // entries lock only on a repeated value and a miss small enough
        // that at most two shifts of it fit, so some misses are that small.
        for (seed, candidates) in [CANDIDATES, 8, 23, 2].into_iter().enumerate() {
            let mut imp = ImpPrefetcher {
                trainer: Trainer::new(ShiftTable::new(candidates)),
                ..ImpPrefetcher::default()
            };
            let mut reference = Trainer::new(ReferenceTable {
                capacity: candidates,
                candidates: Vec::new(),
            });
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let image = MemoryImage::new();
            let s = snoop();
            let mut rng = nvr_common::Pcg32::seed_from_u64(0x1a2b + seed as u64);
            let (mut value, mut next_index, mut mismatch_run) = (0u32, 0u64, 0u32);
            let (mut locks, mut unlocks) = (0, 0);
            for event in 0..12_000u64 {
                let before = imp.locked_mapping();
                if rng.gen_bool(0.5) {
                    if !rng.gen_bool(0.3) {
                        value = rng.next_u32() % 24;
                    }
                    let addr = Addr::new(0x1000 + 4 * next_index);
                    next_index += 1;
                    let ev = AccessEvent::index_load(event, addr, value, false);
                    imp.observe(&ev, &s, &image, &mut mem);
                } else {
                    if mismatch_run == 0 && rng.gen_bool(0.02) {
                        mismatch_run = UNLOCK_AFTER + rng.gen_range(4) as u32;
                    }
                    let miss = if mismatch_run > 0 {
                        mismatch_run -= 1;
                        0x4000_0000 + rng.gen_range(1 << 24)
                    } else if rng.gen_bool(0.5) {
                        // Affine in a recent value, over a few bases.
                        let back = rng.gen_index(imp.recent_values.len().clamp(1, 3));
                        let v = imp.recent_values.iter().rev().nth(back).copied();
                        let shift = rng.gen_range(u64::from(MAX_SHIFT) + 1);
                        0x10_0000 * (1 + rng.gen_range(3)) + (u64::from(v.unwrap_or(0)) << shift)
                    } else {
                        rng.gen_range(1 << 7)
                    };
                    let ev = AccessEvent::gather(event, Addr::new(miss), true);
                    imp.observe(&ev, &s, &image, &mut mem);
                    reference.on_miss(&imp.recent_values, Addr::new(miss));
                }
                let after = imp.locked_mapping();
                assert_eq!(
                    after,
                    reference.locked.map(|m| (m.base, m.shift)),
                    "table {candidates}, event {event}"
                );
                match (before, after) {
                    (None, Some(_)) => locks += 1,
                    (Some(_), None) => unlocks += 1,
                    _ => {}
                }
            }
            assert!(
                locks >= 20 && unlocks >= 20,
                "table {candidates}: {locks} locks, {unlocks} unlocks"
            );
        }
    }
}
