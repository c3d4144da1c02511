//! NVR: NPU Vector Runahead — the paper's primary contribution.
//!
//! NVR is a decoupled, speculative, lightweight hardware sub-thread that
//! rides alongside the NPU (§III–§IV). It monitors CPU/NPU state through
//! read-only snoopers, borrows the sparse-operators unit during its idle
//! periods to execute approximate dependency chains ahead of the pipeline,
//! and injects native vectorised prefetch loads. Where each unit of Fig. 3
//! lives:
//!
//! | Paper unit | Where | Role |
//! |---|---|---|
//! | Snooper            | [`controller`] (`advance`) | read-only CPU/NPU state extraction |
//! | Stride Detector    | [`controller`] (index fetch and stream-ahead) | W/index stream prefetch, skipping the line a window shares with the stream ahead |
//! | Loop Bound Detector| [`loop_bound`] | window length + overrun clipping (SST) |
//! | Sparse Chain Det.  | [`controller`] (the snooped [`nvr_trace::SparseFunc`]) | indirect-chain target computation: [`nvr_trace::SparseFunc::probe`] and [`nvr_trace::SparseFunc::row`] |
//! | VMIG               | [`vmig`] | micro-instruction revectorisation, 16-wide issue |
//! | NSB                | [`nsb`] | in-NPU non-blocking speculative buffer config |
//! | —                  | [`overhead`] | Table I storage accounting |
//!
//! The timing model keeps only the state it reads: the SD's last
//! prefetched index line and the SCD's snooped sparse function are
//! controller state, not modules. [`overhead`] still counts every unit's
//! bits as Table I prints them.
//!
//! The composition — [`NvrPrefetcher`] — implements
//! [`nvr_prefetch::Prefetcher`] and plugs into the same engine socket as the
//! baselines.
//!
//! # Examples
//!
//! ```
//! use nvr_core::{NvrConfig, NvrPrefetcher};
//! use nvr_prefetch::Prefetcher;
//!
//! let nvr = NvrPrefetcher::new(NvrConfig::default());
//! assert_eq!(nvr.name(), "NVR");
//! assert!(nvr.fills_nsb()); // whenever the memory system has an NSB
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

pub mod config;
pub mod controller;
pub mod lifetime;
pub mod loop_bound;
pub mod nsb;
pub mod overhead;
pub mod reuse;
pub mod vmig;

pub use config::{NvrConfig, TriggerPolicy};
pub use controller::NvrPrefetcher;
pub use lifetime::LifetimeTracker;
pub use loop_bound::LoopBoundDetector;
pub use nsb::{nsb_config, nsb_scored};
pub use overhead::{overhead_report, OverheadReport};
pub use reuse::ReusePredictor;
pub use vmig::Vmig;
