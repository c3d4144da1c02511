//! NSB: the Non-blocking Speculative Buffer (§IV-G).
//!
//! A compact, high-associativity, non-blocking cache inside the NPU that
//! receives NVR's speculative fills, cutting NPU-to-L2 latency and off-chip
//! traffic on actual loads. The cache structure itself is
//! [`nvr_mem::Cache`]; this module provides the paper-parameterised
//! configurations used across the evaluation (16 KB default; 4–32 KB in the
//! Fig. 9 sensitivity sweep).

use nvr_mem::{CacheConfig, RetentionPolicy};

/// An NSB configuration of `kib` kibibytes: [`CacheConfig::nsb_default`]
/// resized.
///
/// Associativity follows the paper's high-way design (§IV-G argues
/// direct-mapped/low-associativity buffers conflict-miss badly on sparse
/// index spaces): the default's 16 ways, scaled down only when the buffer
/// is too small to support them.
///
/// # Examples
///
/// ```
/// use nvr_core::nsb_config;
///
/// let nsb = nsb_config(16);
/// assert_eq!(nsb.size_bytes, 16 * 1024);
/// assert_eq!(nsb.ways, 16);
/// nsb.validate()?;
/// # Ok::<(), nvr_common::NvrError>(())
/// ```
///
/// # Panics
///
/// Panics if `kib == 0`.
#[must_use]
pub fn nsb_config(kib: u64) -> CacheConfig {
    assert!(kib > 0, "NSB size must be non-zero");
    let nsb = CacheConfig::nsb_default();
    let size_bytes = kib * 1024;
    // Keep at least one set while preferring the default's ways.
    let max_ways = size_bytes / nvr_common::LINE_BYTES;
    let mut ways = nsb.ways.min(max_ways);
    // Capacity must divide evenly into ways x line.
    while ways > 1 && !size_bytes.is_multiple_of(nvr_common::LINE_BYTES * ways) {
        ways -= 1;
    }
    nsb.with_size(size_bytes).with_ways(ways)
}

/// [`nsb_config`] with the reuse-aware retention policy
/// ([`RetentionPolicy::ScoredReuse`]): speculative fills carry a
/// predicted-reuse score, and a fill that does not strictly beat the
/// weakest resident line is rejected (buffets-style shrink) instead of
/// evicting it. With all-zero scores — i.e. when
/// [`crate::NvrConfig::nsb_admit_min_reuse`] is 0 and the controller
/// sends no scores — the policy reproduces LRU bit for bit, so this
/// configuration is a strict generalisation of [`nsb_config`].
///
/// # Examples
///
/// ```
/// use nvr_core::nsb_scored;
/// use nvr_mem::RetentionPolicy;
///
/// assert_eq!(nsb_scored(16).policy, RetentionPolicy::ScoredReuse);
/// ```
///
/// # Panics
///
/// Panics if `kib == 0`.
#[must_use]
pub fn nsb_scored(kib: u64) -> CacheConfig {
    nsb_config(kib).with_policy(RetentionPolicy::ScoredReuse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_sizes_are_valid() {
        for kib in [4, 8, 16, 32] {
            let cfg = nsb_config(kib);
            cfg.validate().expect("valid NSB geometry");
            assert_eq!(cfg.size_bytes, kib * 1024);
            assert_eq!(cfg.ways, 16, "{kib} KiB should support 16 ways");
        }
    }

    #[test]
    fn default_size_is_the_default_nsb() {
        assert_eq!(nsb_config(16), CacheConfig::nsb_default());
    }

    #[test]
    fn tiny_nsb_reduces_ways() {
        let cfg = nsb_config(1);
        cfg.validate().expect("valid");
        assert!(cfg.ways <= 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_panics() {
        let _ = nsb_config(0);
    }

    #[test]
    fn scored_config_differs_only_in_policy() {
        let lru = nsb_config(16);
        let scored = nsb_scored(16);
        assert_eq!(scored, lru.with_policy(RetentionPolicy::ScoredReuse));
        scored.validate().expect("valid scored NSB geometry");
    }
}
