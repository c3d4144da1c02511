//! DVR: Decoupled Vector Runahead (Naithani et al., MICRO'23), adapted to
//! the NPU as the paper's strongest baseline.
//!
//! On a demand-gather stall, DVR enters runahead: it walks the index stream
//! forward from the stall point, speculatively executing the indirect chain
//! (including table probes) for a fixed distance of `RUNAHEAD_ELEMS`
//! elements, vectorising target prefetches. The paper grants DVR the same
//! parallelism as NVR (§V-A: "expanded ... to the same number of
//! parallels"), which we honour via `ISSUE_PER_CYCLE`.
//!
//! What DVR structurally lacks relative to NVR (§II-C, §IV):
//!
//! * **no sparse-unit snooping** — it sees the dependent-chain *code* (it
//!   executes the actual instructions) but not the loop-bound registers, so
//!   its fixed-distance runahead overruns the index array's end into
//!   garbage, and it cannot clip per-row windows;
//! * **stall-triggered** — speculation starts only once a miss is already
//!   stalling the pipeline, costing timeliness;
//! * **no NSB fill path** — it targets the shared L2 only.

use nvr_common::{Addr, Cycle, LineAddr};
use nvr_mem::MemorySystem;
use nvr_trace::{AccessEvent, EventKind, MemoryImage, SnoopState};

use crate::api::Prefetcher;

/// Index elements speculatively executed per runahead episode. Assumed:
/// the paper gives DVR no distance (§V-A); 64 elements are four NPU
/// vectors of indices.
const RUNAHEAD_ELEMS: usize = 64;

/// Target-line prefetches issued per cycle while draining. Assumed: §V-A
/// grants DVR NVR's parallelism without a number; four lines a cycle.
const ISSUE_PER_CYCLE: usize = 4;

/// An active runahead episode.
#[derive(Debug, Clone)]
struct Episode {
    /// Next index element address to execute.
    next_elem: Addr,
    /// Elements left in this episode.
    remaining: usize,
    /// Resolved target lines awaiting issue.
    queue: Vec<Addr>,
    /// Cycle until which the episode is blocked on a speculative fill.
    blocked_until: Cycle,
    /// A probe whose slot read is pending (two-level chains): the probe
    /// address to read once `blocked_until` passes.
    pending_probe: Option<Addr>,
}

/// The DVR prefetcher.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::{DvrPrefetcher, Prefetcher};
///
/// let p = DvrPrefetcher::default();
/// assert_eq!(p.name(), "DVR");
/// ```
#[derive(Debug, Clone)]
pub struct DvrPrefetcher {
    /// Address of the most recently observed index element.
    last_index_addr: Option<Addr>,
    /// Detected element stride of the index stream (bytes).
    index_stride: u64,
    episode: Option<Episode>,
    clock: Cycle,
}

impl DvrPrefetcher {
    /// Whether a runahead episode is currently active (for tests).
    #[must_use]
    pub fn in_runahead(&self) -> bool {
        self.episode.is_some()
    }

    /// Reads a speculative `u32`: if the line is on chip and filled by
    /// `clock`, returns the value; otherwise prefetches the line and returns
    /// the cycle the value becomes readable.
    fn spec_read(
        &mut self,
        addr: Addr,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) -> Result<u32, Cycle> {
        let line = addr.line();
        if let nvr_mem::PrefetchOutcome::Issued { fill_done } =
            mem.prefetch_line(line, self.clock, false)
        {
            if fill_done > self.clock {
                return Err(fill_done);
            }
        }
        // Resident (or already in flight): read the value.
        Ok(image.read_u32(addr))
    }

    /// Executes one speculative element; returns `false` when the episode
    /// blocked or ended (state is saved for the next `advance` window).
    fn step(&mut self, snoop: &SnoopState, image: &MemoryImage, mem: &mut MemorySystem) -> bool {
        let Some(mut ep) = self.episode.take() else {
            return false;
        };
        let Some(g) = snoop.gather else {
            // No gather context: abandon the episode.
            return false;
        };
        // Resume a pending two-level probe read.
        if let Some(probe) = ep.pending_probe.take() {
            let slot = image.read_u32(probe);
            if g.func.is_two_level() {
                ep.queue
                    .extend(g.func.row(slot).lines().map(LineAddr::base));
            }
            ep.remaining = ep.remaining.saturating_sub(1);
            ep.next_elem = ep.next_elem.offset(self.index_stride);
            self.episode = Some(ep);
            return true;
        }
        if ep.remaining == 0 {
            self.episode = (!ep.queue.is_empty()).then_some(ep);
            return self.episode.is_some();
        }
        let elem_addr = ep.next_elem;
        let idx = match self.spec_read(elem_addr, image, mem) {
            Ok(v) => v,
            Err(ready) => {
                ep.blocked_until = ready;
                self.episode = Some(ep);
                return false;
            }
        };
        let key = match g.func.probe(idx) {
            None => idx,
            Some(probe) => match self.spec_read(probe, image, mem) {
                Ok(slot) => slot,
                Err(ready) => {
                    ep.blocked_until = ready;
                    ep.pending_probe = Some(probe);
                    self.episode = Some(ep);
                    return false;
                }
            },
        };
        ep.queue.extend(g.func.row(key).lines().map(LineAddr::base));
        ep.remaining -= 1;
        ep.next_elem = ep.next_elem.offset(self.index_stride);
        self.episode = Some(ep);
        true
    }

    /// Issues queued target prefetches at up to [`ISSUE_PER_CYCLE`] per
    /// cycle. Lines whose DRAM channel's prefetch queue is full are held
    /// back (order preserved) and retried next cycle, mirroring the
    /// per-channel back-pressure the paper grants every queue-bearing
    /// prefetcher.
    fn drain_queue(&mut self, mem: &mut MemorySystem) {
        if let Some(ep) = &mut self.episode {
            let n = ep.queue.len().min(ISSUE_PER_CYCLE);
            let mut deferred = Vec::new();
            for addr in ep.queue.drain(..n) {
                if mem.prefetch_channel_ready(addr.line(), self.clock) {
                    mem.prefetch_line(addr.line(), self.clock, false);
                } else {
                    deferred.push(addr);
                }
            }
            ep.queue.splice(..0, deferred);
        }
    }
}

impl Default for DvrPrefetcher {
    fn default() -> Self {
        DvrPrefetcher {
            last_index_addr: None,
            index_stride: 4,
            episode: None,
            clock: 0,
        }
    }
}

impl Prefetcher for DvrPrefetcher {
    fn name(&self) -> &'static str {
        "DVR"
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        _snoop: &SnoopState,
        _image: &MemoryImage,
        _mem: &mut MemorySystem,
    ) {
        match event.kind {
            EventKind::IndexLoad { .. } => {
                if let Some(prev) = self.last_index_addr {
                    let delta = event.addr.raw().saturating_sub(prev.raw());
                    if delta > 0 && delta <= 64 {
                        self.index_stride = delta;
                    }
                }
                self.last_index_addr = Some(event.addr);
            }
            EventKind::GatherLoad if event.missed && self.episode.is_none() => {
                // Stall-trigger: start runahead at the element after the
                // last one the NPU consumed.
                if let Some(last) = self.last_index_addr {
                    self.episode = Some(Episode {
                        next_elem: last.offset(self.index_stride),
                        remaining: RUNAHEAD_ELEMS,
                        queue: Vec::new(),
                        blocked_until: 0,
                        pending_probe: None,
                    });
                }
            }
            _ => {}
        }
    }

    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        self.clock = self.clock.max(from);
        while self.clock < to {
            let Some(ep) = &self.episode else { break };
            if ep.blocked_until > self.clock {
                // Blocked on a speculative fill; fast-forward (bounded).
                if ep.blocked_until >= to {
                    self.clock = to;
                    break;
                }
                self.clock = ep.blocked_until;
                continue;
            }
            if !ep.queue.is_empty() {
                if mem.prefetch_ready(self.clock) {
                    self.drain_queue(mem);
                    self.clock += 1;
                } else {
                    // Backpressure: hold the queue while the MSHR file is
                    // full, which lasts until its next completion.
                    self.clock = mem
                        .next_prefetch_wakeup(self.clock)
                        .map_or(to, |wake| wake.min(to));
                }
                continue;
            }
            if !self.step(snoop, image, mem) && self.episode.is_none() {
                break;
            }
            self.clock += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_mem::MemoryConfig;
    use nvr_trace::{GatherDesc, SparseFunc};

    fn snoop_with_gather(func: SparseFunc) -> SnoopState {
        SnoopState {
            tile: 0,
            total_tiles: 4,
            index_base: Addr::new(0x1000),
            elem_start: 0,
            elem_end: 64,
            elem_consumed: 0,
            gather: Some(GatherDesc { func, batch: 16 }),
        }
    }

    fn affine_setup() -> (MemoryImage, SnoopState) {
        let mut image = MemoryImage::new();
        let indices: Vec<u32> = (0..256).map(|i| (i * 97) % 4096).collect();
        image.add_u32_segment(Addr::new(0x1000), indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1000_0000),
            row_bytes: 128,
        };
        (image, snoop_with_gather(func))
    }

    #[test]
    fn triggers_on_stall_and_prefetches_targets() {
        let (image, snoop) = affine_setup();
        let mut p = DvrPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());

        // NPU consumed index elements 0 and 1...
        p.observe(
            &AccessEvent::index_load(0, Addr::new(0x1000), 0, false),
            &snoop,
            &image,
            &mut mem,
        );
        p.observe(
            &AccessEvent::index_load(1, Addr::new(0x1004), 97, false),
            &snoop,
            &image,
            &mut mem,
        );
        // ...and a gather stalls.
        p.observe(
            &AccessEvent::gather(10, Addr::new(0x1000_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        assert!(p.in_runahead());

        // Give it a generous window: speculative index fill + issue.
        p.advance(10, 5_000, &snoop, &image, &mut mem);
        let issued = mem.stats().l2.prefetch_issued.get();
        assert!(
            issued >= RUNAHEAD_ELEMS as u64,
            "a {RUNAHEAD_ELEMS}-element runahead should issue as many target lines, got {issued}"
        );
    }

    #[test]
    fn no_trigger_without_index_context() {
        let (image, snoop) = affine_setup();
        let mut p = DvrPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        p.observe(
            &AccessEvent::gather(10, Addr::new(0x1000_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        assert!(!p.in_runahead());
    }

    #[test]
    fn episode_completes_and_rearms() {
        let (image, snoop) = affine_setup();
        let mut p = DvrPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        p.observe(
            &AccessEvent::index_load(0, Addr::new(0x1000), 0, false),
            &snoop,
            &image,
            &mut mem,
        );
        p.observe(
            &AccessEvent::gather(1, Addr::new(0x1000_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        p.advance(1, 10_000, &snoop, &image, &mut mem);
        assert!(!p.in_runahead(), "episode should drain");
        // A later stall re-triggers.
        p.observe(
            &AccessEvent::gather(20_000, Addr::new(0x1200_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        assert!(p.in_runahead());
    }

    #[test]
    fn two_level_chain_probes_table() {
        let mut image = MemoryImage::new();
        // index array: buckets 0..16
        image.add_u32_segment(Addr::new(0x1000), (0..16).collect());
        // table[b] = b * 3
        image.add_u32_segment(Addr::new(0x2000), (0..64).map(|b| b * 3).collect());
        let func = SparseFunc::TableLookup {
            table_base: Addr::new(0x2000),
            ia_base: Addr::new(0x2000_0000),
            row_bytes: 64,
        };
        let snoop = snoop_with_gather(func);
        let mut p = DvrPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        p.observe(
            &AccessEvent::index_load(0, Addr::new(0x1000), 0, false),
            &snoop,
            &image,
            &mut mem,
        );
        p.observe(
            &AccessEvent::gather(1, Addr::new(0x2000_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        p.advance(1, 20_000, &snoop, &image, &mut mem);
        // Elements 1.. resolve slots 3, 6, ...: their lines must be on chip.
        let probe_target = Addr::new(0x2000_0000 + 3 * 64);
        assert!(
            mem.npu_side_contains(probe_target.line()),
            "two-level targets should be prefetched"
        );
    }

    #[test]
    fn overruns_past_array_end_prefetch_garbage() {
        // Index array of only 4 elements, which a 64-element runahead
        // overruns.
        let mut image = MemoryImage::new();
        image.add_u32_segment(Addr::new(0x1000), vec![1, 2, 3, 4]);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1000_0000),
            row_bytes: 64,
        };
        let snoop = snoop_with_gather(func);
        let mut p = DvrPrefetcher::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        p.observe(
            &AccessEvent::index_load(0, Addr::new(0x1000), 1, false),
            &snoop,
            &image,
            &mut mem,
        );
        p.observe(
            &AccessEvent::gather(1, Addr::new(0x1000_0000), true),
            &snoop,
            &image,
            &mut mem,
        );
        p.advance(1, 50_000, &snoop, &image, &mut mem);
        // It issued far more lines than the 3 useful remaining elements —
        // the fixed-distance overrun NVR's LBD exists to prevent.
        let issued = mem.stats().l2.prefetch_issued.get();
        assert!(issued > 8, "overrun should issue garbage lines ({issued})");
    }
}
