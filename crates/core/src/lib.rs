//! NVR: NPU Vector Runahead — the paper's primary contribution.
//!
//! NVR is a decoupled, speculative, lightweight hardware sub-thread that
//! rides alongside the NPU (§III–§IV). It monitors CPU/NPU state through
//! read-only snoopers, borrows the sparse-operators unit during its idle
//! periods to execute approximate dependency chains ahead of the pipeline,
//! and injects native vectorised prefetch loads. Its components, each a
//! module here mirroring Fig. 3:
//!
//! | Paper unit | Module | Role |
//! |---|---|---|
//! | Snooper            | [`controller`] (event routing) | read-only CPU/NPU state extraction |
//! | Stride Detector    | [`stride_detector`] | W/index stream prediction |
//! | Loop Bound Detector| [`loop_bound`] | window prediction + overrun clipping (SST) |
//! | Sparse Chain Det.  | [`sparse_chain`] | indirect-chain target computation (IPT) |
//! | VMIG               | [`vmig`] | micro-instruction revectorisation, 16-wide issue |
//! | NSB                | [`nsb`] | in-NPU non-blocking speculative buffer config |
//! | —                  | [`overhead`] | Table I storage accounting |
//!
//! The composition — [`NvrPrefetcher`] — implements
//! [`nvr_prefetch::Prefetcher`] and plugs into the same engine socket as the
//! baselines.
//!
//! # Crate features
//!
//! * **`nvr-debug`** — verbose runahead tracing from the [`controller`] on
//!   stderr: every speculative window open (`NVR window [start, end) ...`)
//!   and every depth-bound stall (`NVR bound: ...`). Off by default and
//!   fully compiled out when disabled, so the timing model pays nothing
//!   for it. Enable it when a workload's coverage looks wrong and you need
//!   to see *where* runahead stopped:
//!
//!   ```sh
//!   cargo run -p nvr_sim --bin diag --features nvr_core/nvr-debug
//!   cargo test -p nvr_core --features nvr-debug -- --nocapture
//!   ```
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod controller;
pub mod lifetime;
pub mod loop_bound;
pub mod nsb;
pub mod overhead;
pub mod reuse;
pub mod sparse_chain;
pub mod stride_detector;
pub mod vmig;

pub use config::{NvrConfig, TriggerPolicy};
pub use controller::NvrPrefetcher;
pub use lifetime::LifetimeTracker;
pub use loop_bound::LoopBoundDetector;
pub use nsb::{nsb_config, nsb_scored};
pub use overhead::{overhead_report, OverheadReport};
pub use reuse::ReusePredictor;
pub use sparse_chain::SparseChainDetector;
pub use stride_detector::StrideDetector;
pub use vmig::Vmig;
