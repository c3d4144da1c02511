//! Statistics collected by the memory hierarchy.

use std::fmt;

use nvr_common::{Counter, Histogram};

/// Per-cache-level counters.
///
/// Accuracy and coverage (the paper's Fig. 6 metrics) are derived:
///
/// * **accuracy** = `prefetch_useful / (prefetch_useful + unused)` where
///   unused counts evicted-unused plus resident-unused prefetched lines.
/// * **coverage** is computed by the experiment harness from a paired
///   no-prefetch baseline run ([`crate::hierarchy::MemorySystem`] exposes the
///   per-run miss counts it needs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Level name (e.g. "L2").
    pub name: &'static str,
    /// Demand accesses that hit a filled line.
    pub demand_hits: Counter,
    /// Demand accesses that found the line absent.
    pub demand_misses: Counter,
    /// Demand accesses that merged into an outstanding fill.
    pub mshr_merges: Counter,
    /// Prefetches accepted (line absent, MSHR available).
    pub prefetch_issued: Counter,
    /// Prefetches dropped because the line was already resident or in flight.
    pub prefetch_redundant: Counter,
    /// Prefetches dropped because the MSHR file was full.
    pub prefetch_dropped: Counter,
    /// Prefetched lines that were later demanded (first touch only).
    pub prefetch_useful: Counter,
    /// Subset of `prefetch_useful` where the demand arrived mid-fill.
    pub prefetch_late: Counter,
    /// Lines evicted.
    pub evictions: Counter,
    /// Prefetched lines evicted without ever being demanded.
    pub prefetch_evicted_unused: Counter,
    /// Prefetched lines still resident and undemanded at finalisation.
    pub prefetch_resident_unused: Counter,
    /// Scored fills rejected by the `ScoredReuse` retention policy because
    /// no resident line's predicted-reuse score was strictly lower (the
    /// buffets-style *shrink* outcome; always 0 under LRU).
    pub retention_rejected: Counter,
}

impl CacheStats {
    /// Fresh counters for the named level.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        CacheStats {
            name,
            ..CacheStats::default()
        }
    }

    /// Total demand accesses (hits + merges + misses).
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits.get() + self.mshr_merges.get() + self.demand_misses.get()
    }

    /// Demand miss rate counting MSHR merges as misses avoided
    /// (`misses / accesses`); 0 when idle.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_misses.get() as f64 / total as f64
        }
    }

    /// Prefetch accuracy: useful / (useful + unused). 0 when no prefetches.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> f64 {
        let useful = self.prefetch_useful.get();
        let unused = self.prefetch_evicted_unused.get() + self.prefetch_resident_unused.get();
        if useful + unused == 0 {
            0.0
        } else {
            useful as f64 / (useful + unused) as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} acc, {:.1}% miss, pf {} issued / {:.1}% accurate",
            self.name,
            self.demand_accesses(),
            self.miss_rate() * 100.0,
            self.prefetch_issued.get(),
            self.prefetch_accuracy() * 100.0,
        )
    }
}

/// Per-channel counters of the multi-channel DRAM backend.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Lines this channel fetched on behalf of demand misses.
    pub demand_lines: Counter,
    /// Lines this channel fetched on behalf of prefetches.
    pub prefetch_lines: Counter,
    /// Cycles this channel spent transferring data (all traffic classes).
    pub busy_cycles: Counter,
    /// Queue delay (cycles between arrival and scheduled bus slot) of
    /// every speculative fill this channel accepted. Demand preemption
    /// and bus backlog both show up here.
    pub queue_delay: Histogram,
}

impl ChannelStats {
    /// Channel utilisation over `elapsed` cycles (`busy / elapsed`, 0 when
    /// `elapsed` is 0).
    #[must_use]
    pub fn utilisation(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles.get() as f64 / elapsed as f64
        }
    }
}

/// Off-chip backend counters: workload-class aggregates plus one
/// [`ChannelStats`] entry per configured channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Lines fetched on behalf of demand misses.
    pub demand_lines: Counter,
    /// Lines fetched on behalf of prefetches.
    pub prefetch_lines: Counter,
    /// Bytes written back / streamed out.
    pub write_bytes: Counter,
    /// Dense DMA read bytes (scratchpad fills), which bypass the caches.
    pub dma_bytes: Counter,
    /// Cycles spent transferring data, summed over all channels.
    pub busy_cycles: Counter,
    /// Speculative fills rejected because a channel's prefetch queue was
    /// full (the arbitration's back-pressure signal).
    pub pf_queue_rejected: Counter,
    /// Per-channel counters, one entry per configured channel.
    pub channels: Vec<ChannelStats>,
}

impl DramStats {
    /// Total lines moved over the backend.
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.demand_lines.get() + self.prefetch_lines.get()
    }

    /// Total read bytes moved over the backend.
    #[must_use]
    pub fn read_bytes(&self) -> u64 {
        self.total_lines() * nvr_common::LINE_BYTES
    }

    /// Per-channel utilisation over `elapsed` cycles, in channel order.
    #[must_use]
    pub fn channel_utilisation(&self, elapsed: u64) -> Vec<f64> {
        self.channels
            .iter()
            .map(|c| c.utilisation(elapsed))
            .collect()
    }

    /// The speculative-fill queue-delay distribution merged across all
    /// channels (empty when no prefetch was ever accepted).
    #[must_use]
    pub fn queue_delay_merged(&self) -> Histogram {
        let mut merged = Histogram::new();
        for c in &self.channels {
            merged.merge(&c.queue_delay);
        }
        merged
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DRAM[{}ch]: {} demand lines, {} prefetch lines, {} write bytes, {} queue-rejected",
            self.channels.len().max(1),
            self.demand_lines.get(),
            self.prefetch_lines.get(),
            self.write_bytes.get(),
            self.pf_queue_rejected.get(),
        )
    }
}

/// Aggregated snapshot of the full hierarchy, cheap to clone out of a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// NSB counters when the NSB is present.
    pub nsb: Option<CacheStats>,
    /// L2 counters.
    pub l2: CacheStats,
    /// Channel counters.
    pub dram: DramStats,
}

impl MemoryStats {
    /// Demand misses at the level closest to the NPU — the quantity the
    /// paper's miss-reduction claims are phrased in.
    #[must_use]
    pub fn npu_visible_misses(&self) -> u64 {
        match &self.nsb {
            Some(nsb) => nsb.demand_misses.get(),
            None => self.l2.demand_misses.get(),
        }
    }

    /// Off-chip lines fetched for demand misses (the Fig. 6c metric:
    /// off-chip accesses during actual load execution).
    #[must_use]
    pub fn demand_offchip_lines(&self) -> u64 {
        self.dram.demand_lines.get()
    }

    /// Prefetch accuracy, useful / (useful + unused), of the L2's prefetch
    /// lives: each prefetch counts once, at its first demand at any level.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> f64 {
        self.l2.prefetch_accuracy()
    }
}

impl fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(nsb) = &self.nsb {
            writeln!(f, "{nsb}")?;
        }
        writeln!(f, "{}", self.l2)?;
        write!(f, "{}", self.dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_counts_merges_in_denominator() {
        let mut s = CacheStats::new("T");
        s.demand_hits.add(6);
        s.mshr_merges.add(2);
        s.demand_misses.add(2);
        assert!((s.miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(s.demand_accesses(), 10);
    }

    #[test]
    fn accuracy_includes_resident_unused() {
        let mut s = CacheStats::new("T");
        s.prefetch_useful.add(8);
        s.prefetch_evicted_unused.add(1);
        s.prefetch_resident_unused.add(1);
        assert!((s.prefetch_accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::new("T");
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn npu_visible_misses_prefers_nsb() {
        let mut m = MemoryStats::default();
        m.l2.demand_misses.add(10);
        assert_eq!(m.npu_visible_misses(), 10);
        let mut nsb = CacheStats::new("NSB");
        nsb.demand_misses.add(3);
        m.nsb = Some(nsb);
        assert_eq!(m.npu_visible_misses(), 3);
    }

    #[test]
    fn dram_byte_accounting() {
        let mut d = DramStats::default();
        d.demand_lines.add(2);
        d.prefetch_lines.add(3);
        assert_eq!(d.total_lines(), 5);
        assert_eq!(d.read_bytes(), 5 * 64);
    }

    #[test]
    fn channel_utilisation_and_queue_delay_merge() {
        let mut d = DramStats {
            channels: vec![ChannelStats::default(), ChannelStats::default()],
            ..DramStats::default()
        };
        d.channels[0].busy_cycles.add(50);
        d.channels[1].busy_cycles.add(100);
        d.channels[0].queue_delay.record(4);
        d.channels[1].queue_delay.record(12);
        let util = d.channel_utilisation(100);
        assert!((util[0] - 0.5).abs() < 1e-12);
        assert!((util[1] - 1.0).abs() < 1e-12);
        let merged = d.queue_delay_merged();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum(), 16);
        assert_eq!(d.channel_utilisation(0), vec![0.0, 0.0]);
    }
}
