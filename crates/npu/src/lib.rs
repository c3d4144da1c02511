//! Gemmini-like NPU timing model.
//!
//! Reproduces the baseline accelerator of §IV-A: a systolic-array NPU with
//! an explicitly managed scratchpad, decoupled load/execute/store
//! controllers, a coarse-grained instruction stream, and a basic sparse
//! operators unit. Two execution modes mirror the paper's comparison
//! points:
//!
//! * **in-order** — load and compute serialise; a cache miss in any vector
//!   element stalls the whole pipeline (§II-B);
//! * **ideal out-of-order** — loads of upcoming tiles issue while earlier
//!   tiles compute, bounded by a ROB-like tile window; the paper's
//!   "ideal OoO Gemmini" that still underperforms on IO-bound workloads.
//!
//! The engine drives a [`nvr_prefetch::Prefetcher`] with demand events and
//! idle windows, which is where NVR (and the baselines) do their work.

pub mod config;
pub mod engine;
pub mod result;
pub mod sparse_unit;
pub mod systolic;

pub use config::{ExecMode, NpuConfig};
pub use engine::NpuEngine;
pub use result::RunResult;
pub use sparse_unit::SparseUnit;
pub use systolic::SystolicArray;
