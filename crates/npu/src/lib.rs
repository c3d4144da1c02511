//! Gemmini-like NPU timing model.
//!
//! Reproduces the baseline accelerator of §IV-A: a systolic-array NPU with
//! an explicitly managed scratchpad, decoupled load/execute/store
//! controllers, a coarse-grained instruction stream, and a basic sparse
//! operators unit. The hardware is one fixed design, held as constants in
//! [`engine`], each with its source: 16 sparse-unit lanes, a 256 KiB
//! scratchpad filled at 32 B/cycle by one DMA engine, one index load per
//! cycle, and an 8-tile ROB. [`NpuConfig`] sets only which of two
//! execution modes runs, mirroring the paper's comparison points:
//!
//! * **in-order** — load and compute serialise; a cache miss in any vector
//!   element stalls the whole pipeline (§II-B);
//! * **ideal out-of-order** — loads of upcoming tiles issue while earlier
//!   tiles compute, bounded by the ROB's tile window; the paper's
//!   "ideal OoO Gemmini" that still underperforms on IO-bound workloads.
//!
//! One tile walker runs both modes; the mode only sets when a tile's loads
//! and its gather batches issue. The walker drives a
//! [`nvr_prefetch::Prefetcher`] with demand events and the same idle
//! windows in both modes, which is where NVR (and the baselines) do their
//! work.

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
pub mod engine;
pub mod result;
pub mod systolic;

pub use config::{ExecMode, NpuConfig};
pub use engine::NpuEngine;
pub use result::RunResult;
pub use systolic::SystolicArray;
