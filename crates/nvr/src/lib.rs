//! # NVR — Vector Runahead on NPUs for Sparse Memory Access
//!
//! A clean-room, cycle-level reproduction of the DAC 2025 paper *NVR:
//! Vector Runahead on NPUs for Sparse Memory Access* (Wang, Zhao, et al.):
//! a Gemmini-like NPU timing model, a non-blocking cache hierarchy with an
//! optional in-NPU speculative buffer (NSB), the NVR prefetcher itself (a
//! pipelined controller holding the snoopers, the stride detector's index
//! stream and the sparse-chain detector's snooped sparse function, plus a
//! loop-bound detector and the VMIG), three general-purpose baselines
//! (stream, IMP, DVR), the paper's eight sparse workloads, and an LLM
//! system-level model — plus experiment drivers regenerating every table
//! and figure of the evaluation.
//!
//! This facade re-exports the workspace crates under stable names.
//!
//! # Quickstart
//!
//! ```
//! use nvr::prelude::*;
//!
//! // Build a sparse-attention workload and compare no-prefetch vs NVR.
//! let spec = WorkloadSpec::tiny(DataWidth::Int8, 42);
//! let program = WorkloadId::Ds.build(&spec);
//! let baseline = run_system(&program, &MemoryConfig::default(), SystemKind::InOrder);
//! let nvr = run_system(&program, &MemoryConfig::default(), SystemKind::Nvr);
//! assert!(nvr.result.total_cycles < baseline.result.total_cycles);
//! ```

pub use nvr_common as common;
pub use nvr_core as core;
pub use nvr_llm as llm;
pub use nvr_mem as mem;
pub use nvr_npu as npu;
pub use nvr_prefetch as prefetch;
pub use nvr_sim as sim;
pub use nvr_sparse as sparse;
pub use nvr_trace as trace;
pub use nvr_workloads as workloads;

/// The most commonly used items, for `use nvr::prelude::*`.
pub mod prelude {
    pub use nvr_common::{Addr, Cycle, DataWidth, LineAddr, Pcg32, Region};
    pub use nvr_core::{nsb_config, overhead_report, LifetimeTracker, NvrConfig, NvrPrefetcher};
    pub use nvr_llm::LlmConfig;
    pub use nvr_mem::{CacheConfig, DramConfig, MemoryConfig, MemorySystem};
    pub use nvr_npu::{ExecMode, NpuConfig, NpuEngine, RunResult};
    pub use nvr_prefetch::{
        DvrPrefetcher, ImpPrefetcher, NullPrefetcher, Prefetcher, StreamPrefetcher,
        TimelinessReport,
    };
    pub use nvr_sim::figures::FigureId;
    pub use nvr_sim::sweep::pool;
    pub use nvr_sim::{
        coverage, pollution, run_sweep, run_system, timeliness_split, Lab, RunOutcome, SweepJob,
        SweepResults, SweepSpec, SystemKind,
    };
    pub use nvr_trace::{MemoryImage, NpuProgram, SnoopState, SparseFunc, TileOp};
    pub use nvr_workloads::{
        PointcloudParams, Scale, TileOrder, VoxelOrder, WorkloadId, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let cfg = NvrConfig::default();
        assert!(cfg.validate().is_ok());
        let report = overhead_report(16, 16);
        assert!(report.total_bits() > 0);
    }
}
