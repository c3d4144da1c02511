//! Configuration for the memory hierarchy.

use std::fmt;

use nvr_common::{Cycle, NvrError, LINE_BYTES};

/// One kibibyte, for readable capacity arithmetic.
pub const KIB: u64 = 1024;

/// Residency policy of one cache level — how fills pick victims and
/// whether a fill may be refused outright.
///
/// [`RetentionPolicy::Lru`] is the classic always-admit LRU every level
/// defaults to. [`RetentionPolicy::ScoredReuse`] turns the level into a
/// buffets-style *explicitly managed* fill/shrink buffer: each fill
/// carries a predicted-reuse score (0 = no prediction), victims are drawn
/// from score-exhausted lines first, and a fill that would have to evict a
/// line with more predicted reuse than its own is *rejected* (the buffer
/// shrinks its intake rather than thrash its hot set).
/// [`RetentionPolicy::ScoredEvict`] keeps the score-weighted victim
/// ranking but always admits — the right semantics for a level with no
/// on-chip backing store (the L2), where a rejected fill would resurface
/// as a full-latency demand miss instead of landing one level down.
/// With every score at zero all three policies coincide bit-for-bit,
/// which is the contract the retention property tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Always-admit least-recently-used victim selection.
    #[default]
    Lru,
    /// Explicitly managed fill/shrink keyed on per-line predicted-reuse
    /// scores (the NSB retention policy of the DARE-style admission path).
    ScoredReuse,
    /// Score-weighted eviction (weakest predicted reuse goes first, LRU
    /// tie-break) with unconditional admission — no shrink path.
    ScoredEvict,
}

impl fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetentionPolicy::Lru => "lru",
            RetentionPolicy::ScoredReuse => "scored",
            RetentionPolicy::ScoredEvict => "scored-evict",
        })
    }
}

/// Geometry and timing of one cache level.
///
/// # Examples
///
/// ```
/// use nvr_mem::CacheConfig;
///
/// let l2 = CacheConfig::l2_default();
/// assert_eq!(l2.size_bytes, 256 * 1024);
/// l2.validate()?;
/// # Ok::<(), nvr_common::NvrError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in stats output.
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (lines per set).
    pub ways: u64,
    /// Load-to-use latency of a hit, in cycles.
    pub hit_latency: Cycle,
    /// Number of miss-status holding registers (outstanding fills).
    pub mshr_entries: usize,
    /// Victim-selection / admission policy of this level. Defaults to
    /// [`RetentionPolicy::Lru`]; the NVR+NSB system switches its NSB to
    /// [`RetentionPolicy::ScoredReuse`] so speculative fills compete on
    /// predicted reuse instead of recency. The L2 admits every fill:
    /// [`MemoryConfig::validate`] rejects a `ScoredReuse` L2.
    pub policy: RetentionPolicy,
}

impl CacheConfig {
    /// The paper's default shared L2: 256 KB, 8-way, 20-cycle hit (§II, §V-A).
    #[must_use]
    pub fn l2_default() -> Self {
        CacheConfig {
            name: "L2",
            size_bytes: 256 * KIB,
            ways: 8,
            hit_latency: 20,
            mshr_entries: 64,
            policy: RetentionPolicy::Lru,
        }
    }

    /// The paper's default NSB: 16 KB, high-associativity, near-NPU latency
    /// (§IV-G argues for high-way set-associative mapping).
    #[must_use]
    pub fn nsb_default() -> Self {
        CacheConfig {
            name: "NSB",
            size_bytes: 16 * KIB,
            ways: 16,
            hit_latency: 2,
            mshr_entries: 16,
            policy: RetentionPolicy::Lru,
        }
    }

    /// Same configuration with a different capacity (sensitivity sweeps).
    #[must_use]
    pub fn with_size(mut self, size_bytes: u64) -> Self {
        self.size_bytes = size_bytes;
        self
    }

    /// Same configuration with a different associativity.
    #[must_use]
    pub fn with_ways(mut self, ways: u64) -> Self {
        self.ways = ways;
        self
    }

    /// Same configuration under a different retention policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetentionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways)
    }

    /// Checks the geometry is realisable.
    ///
    /// # Errors
    ///
    /// Returns [`NvrError::Config`] if the capacity is not an exact multiple
    /// of `ways * LINE_BYTES` or any field is zero. (Set counts need not be
    /// powers of two — the index function is modulo — which permits the
    /// paper's 192 KB and 384 KB sweep points of Fig. 9.)
    pub fn validate(&self) -> Result<(), NvrError> {
        if self.size_bytes == 0 || self.ways == 0 || self.mshr_entries == 0 {
            return Err(NvrError::Config(format!(
                "{}: size, ways and MSHR count must be non-zero",
                self.name
            )));
        }
        if !self.size_bytes.is_multiple_of(LINE_BYTES * self.ways) {
            return Err(NvrError::Config(format!(
                "{}: size {} is not a multiple of ways*line ({})",
                self.name,
                self.size_bytes,
                LINE_BYTES * self.ways
            )));
        }
        Ok(())
    }
}

/// Timing and geometry of the off-chip DRAM backend.
///
/// The backend owns [`DramConfig::channels`] independent channels, line
/// addresses interleaved across them (`line % channels`). Each channel has
/// a bounded speculative request queue of [`DramConfig::queue_depth`]
/// entries with demand-over-prefetch arbitration: demand fills preempt
/// queued speculative fills, and a full queue rejects further prefetches
/// (back-pressure), so speculation can never starve the demand path of
/// bus slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request issue to first data, in cycles (pipelined).
    pub latency: Cycle,
    /// Per-channel throughput in bytes per cycle. At the paper's 2 GHz NPU
    /// clock, 8 B/cycle models a 16 GB/s LPDDR-class channel.
    pub bytes_per_cycle: u64,
    /// Number of independent channels, line-address interleaved. The
    /// paper's platform has one; the `fig7b` driver sweeps 1/2/4.
    pub channels: usize,
    /// Per-channel bound on outstanding speculative transfers (the
    /// prefetch request queue). Prefetches arriving at a full queue are
    /// rejected, which the hierarchy reports as dropped — prefetchers
    /// with their own issue queues (the VIGU) read the occupancy and
    /// back-pressure instead.
    pub queue_depth: usize,
}

impl DramConfig {
    /// Cycles one channel is occupied transferring one cache line.
    #[must_use]
    pub fn line_transfer_cycles(&self) -> Cycle {
        LINE_BYTES.div_ceil(self.bytes_per_cycle)
    }

    /// Same configuration with a different channel count (fig7b sweeps).
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Checks the configuration is realisable.
    ///
    /// # Errors
    ///
    /// Returns [`NvrError::Config`] if the bandwidth, channel count or
    /// queue depth is zero.
    pub fn validate(&self) -> Result<(), NvrError> {
        if self.bytes_per_cycle == 0 {
            return Err(NvrError::Config(
                "DRAM bytes_per_cycle must be non-zero".into(),
            ));
        }
        if self.channels == 0 {
            return Err(NvrError::Config(
                "DRAM channel count must be non-zero".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(NvrError::Config(
                "DRAM prefetch queue depth must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency: 300,
            bytes_per_cycle: 8,
            channels: 1,
            queue_depth: 32,
        }
    }
}

/// Full memory-system configuration.
///
/// # Examples
///
/// ```
/// use nvr_mem::{CacheConfig, MemoryConfig};
///
/// let with_nsb = MemoryConfig::default().with_nsb(CacheConfig::nsb_default());
/// assert!(with_nsb.nsb.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Optional in-NPU speculative buffer in front of the L2.
    pub nsb: Option<CacheConfig>,
    /// The shared L2 cache.
    pub l2: CacheConfig,
    /// The off-chip channel.
    pub dram: DramConfig,
    /// Dedicated prefetch MSHR file (§IV-G): speculative fills are tracked
    /// separately from demand misses, so prefetching cannot starve the
    /// demand path of MSHRs and vice versa.
    pub prefetch_mshrs: usize,
}

impl MemoryConfig {
    /// Adds (or replaces) the NSB level.
    #[must_use]
    pub fn with_nsb(mut self, nsb: CacheConfig) -> Self {
        self.nsb = Some(nsb);
        self
    }

    /// Replaces the L2 configuration.
    #[must_use]
    pub fn with_l2(mut self, l2: CacheConfig) -> Self {
        self.l2 = l2;
        self
    }

    /// Replaces the DRAM configuration.
    #[must_use]
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Best-case load-to-use latency for an NPU demand access (all-hit path).
    #[must_use]
    pub fn min_demand_latency(&self) -> Cycle {
        match &self.nsb {
            Some(nsb) => nsb.hit_latency,
            None => self.l2.hit_latency,
        }
    }

    /// Checks every level.
    ///
    /// # Errors
    ///
    /// Returns [`NvrError::Config`] if any level's configuration is
    /// invalid, or if the L2 runs [`RetentionPolicy::ScoredReuse`]: the L2
    /// is the last on-chip level, so a fill it refused, demand or
    /// speculative, would have nowhere to land.
    pub fn validate(&self) -> Result<(), NvrError> {
        if let Some(nsb) = &self.nsb {
            nsb.validate()?;
        }
        self.l2.validate()?;
        if self.l2.policy == RetentionPolicy::ScoredReuse {
            return Err(NvrError::Config(format!(
                "{}: policy {} may refuse fills; the L2 must admit every fill (use {})",
                self.l2.name,
                RetentionPolicy::ScoredReuse,
                RetentionPolicy::ScoredEvict
            )));
        }
        self.dram.validate()
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            nsb: None,
            l2: CacheConfig::l2_default(),
            dram: DramConfig::default(),
            prefetch_mshrs: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        MemoryConfig::default().validate().expect("default valid");
        MemoryConfig::default()
            .with_nsb(CacheConfig::nsb_default())
            .validate()
            .expect("default+nsb valid");
    }

    #[test]
    fn l2_geometry() {
        let l2 = CacheConfig::l2_default();
        assert_eq!(l2.sets(), 256 * KIB / (64 * 8));
    }

    #[test]
    fn invalid_geometry_rejected() {
        let bad = CacheConfig::l2_default().with_size(100);
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            ways: 0,
            ..CacheConfig::l2_default()
        };
        assert!(bad.validate().is_err());
        // 3 sets: allowed (modulo indexing), as Fig. 9's 192/384 KB points
        // require non-power-of-two set counts.
        let odd = CacheConfig {
            size_bytes: 3 * 8 * 64,
            ..CacheConfig::l2_default()
        };
        assert!(odd.validate().is_ok());
    }

    #[test]
    fn refusing_l2_rejected() {
        let mut cfg = MemoryConfig::default();
        cfg.l2.policy = RetentionPolicy::ScoredReuse;
        let err = cfg.validate().expect_err("a ScoredReuse L2 is invalid");
        assert!(err.to_string().contains("L2: policy scored"), "{err}");
        cfg.l2.policy = RetentionPolicy::ScoredEvict;
        cfg.validate().expect("a ScoredEvict L2 is valid");
    }

    #[test]
    fn dram_transfer_cycles() {
        let dram = DramConfig::default();
        assert_eq!(dram.line_transfer_cycles(), 8);
        let slow = DramConfig {
            bytes_per_cycle: 3,
            ..DramConfig::default()
        };
        assert_eq!(slow.line_transfer_cycles(), 22);
    }

    #[test]
    fn zero_bandwidth_rejected() {
        let bad = DramConfig {
            bytes_per_cycle: 0,
            ..DramConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zero_channels_or_queue_rejected() {
        let bad = DramConfig {
            channels: 0,
            ..DramConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DramConfig {
            queue_depth: 0,
            ..DramConfig::default()
        };
        assert!(bad.validate().is_err());
        let multi = DramConfig::default().with_channels(4);
        assert_eq!(multi.channels, 4);
        multi.validate().expect("multi-channel config valid");
    }

    #[test]
    fn min_latency_tracks_nsb() {
        let base = MemoryConfig::default();
        assert_eq!(base.min_demand_latency(), 20);
        let with_nsb = base.with_nsb(CacheConfig::nsb_default());
        assert_eq!(with_nsb.min_demand_latency(), 2);
    }
}
