//! Top-level simulator harness and per-figure experiment drivers.
//!
//! Wires the NPU engine, the memory hierarchy, the baseline prefetchers and
//! NVR into comparable runs — each system one [`SystemSpec`] value, built
//! by [`SystemKind::spec`] — and regenerates every table and figure of the
//! paper's evaluation (§V). Every simulation goes through one [`Lab`],
//! which runs each distinct (program, system) cell once. Each
//! `figures::fig*` module returns structured data *and* prints a
//! paper-style text rendition, so the same code backs the `sweep` binary
//! and the integration tests.
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

// A new variant of a matched enum must be handled, not swallowed by `_`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod figures;
pub mod lab;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod sweep;

pub use lab::Lab;
pub use metrics::{coverage, geometric_mean, pollution, timeliness_split};
pub use report::Table;
pub use runner::{run_system, PrefetcherSpec, RunOutcome, SystemKind, SystemSpec};
pub use sweep::{run_sweep, SweepJob, SweepResults, SweepSpec};
