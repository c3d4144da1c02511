//! Memory-hierarchy substrate for the NVR simulator.
//!
//! Models the paper's memory system (§IV-A, Fig. 3): an optional in-NPU
//! non-blocking speculative buffer (NSB) in front of a shared L2 cache,
//! backed by a multi-channel, bandwidth-limited DRAM backend
//! ([`DramBackend`]: line-address interleaved channels, bounded
//! per-channel prefetch queues, demand-over-prefetch arbitration).
//!
//! # Timing model
//!
//! The hierarchy uses *timestamp forwarding*: every access returns the cycle
//! at which its data is usable, and in-flight fills are recorded as
//! `(line, fill_done)` pairs rather than simulated event-by-event. A demand
//! that arrives while "its" line is still in flight merges into the pending
//! fill (MSHR coalescing) and becomes ready at the fill-completion cycle.
//! This reproduces non-blocking cache behaviour — including partial coverage
//! from late prefetches — at a fraction of the cost of a full event queue.
//!
//! # Examples
//!
//! ```
//! use nvr_mem::{MemoryConfig, MemorySystem};
//! use nvr_common::LineAddr;
//!
//! let mut mem = MemorySystem::new(MemoryConfig::default());
//! let miss = mem.demand_line(LineAddr::new(0x100), 0);
//! let hit = mem.demand_line(LineAddr::new(0x100), miss.ready_at);
//! assert!(hit.ready_at < miss.ready_at + 30);
//! ```

// Simulator hot paths: no panicking unwraps, no silently truncating
// casts, and no wildcard arm that would swallow a new enum variant.
#![cfg_attr(
    not(test),
    deny(
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::cast_possible_truncation,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod cache;
mod completion;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod stats;

pub use cache::{Cache, ProbeResult};
pub use config::{CacheConfig, DramConfig, MemoryConfig, RetentionPolicy};
pub use dram::{ChannelPrefetch, DramBackend};
pub use hierarchy::{AccessOutcome, AccessResult, MemorySystem, PrefetchOutcome};
pub use stats::{CacheStats, ChannelStats, DramStats, MemoryStats};
