//! Top-level simulator harness and per-figure experiment drivers.
//!
//! Wires the NPU engine, the memory hierarchy, the baseline prefetchers and
//! NVR into comparable runs — each system one [`SystemSpec`] value, built
//! by [`SystemKind::spec`] — and regenerates every table and figure of the
//! paper's evaluation (§V). Each `figures::fig*` module returns structured
//! data *and* prints a paper-style text rendition, so the same code backs
//! the `sweep` binary and the integration tests.
//!
//! # Examples
//!
//! ```
//! use nvr_sim::{run_system, SystemKind};
//! use nvr_workloads::{WorkloadId, WorkloadSpec};
//! use nvr_mem::MemoryConfig;
//! use nvr_common::DataWidth;
//!
//! let program = WorkloadId::St.build(&WorkloadSpec::tiny(DataWidth::Int8, 1));
//! let base = run_system(&program, &MemoryConfig::default(), SystemKind::InOrder);
//! let nvr = run_system(&program, &MemoryConfig::default(), SystemKind::Nvr);
//! assert!(nvr.result.total_cycles <= base.result.total_cycles);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figures;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod sweep;

pub use metrics::{coverage, geometric_mean, pollution, timeliness_split};
pub use report::Table;
pub use runner::{run_system, PrefetcherSpec, RunOutcome, SystemKind, SystemSpec};
pub use sweep::{run_sweep, SweepJob, SweepResults, SweepSpec};
