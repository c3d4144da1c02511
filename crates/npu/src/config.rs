//! NPU configuration.

/// Execution discipline of the NPU pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Serial load → compute → store per tile; any vector element miss
    /// stalls everything (the paper's baseline Gemmini behaviour, §II-B).
    #[default]
    InOrder,
    /// Ideal out-of-order: loads for up to eight upcoming tiles issue while
    /// earlier tiles compute, overlapping memory with computation.
    OutOfOrder,
}

/// Configuration of the NPU timing model: its execution discipline.
///
/// Everything else about the NPU is the one Gemmini-class design the
/// paper evaluates (§IV-A), fixed in the engine: 16 sparse-unit lanes, a
/// 256 KiB scratchpad filled at 32 B/cycle by one DMA engine, one index
/// load per cycle, and an 8-tile ROB when out of order.
///
/// # Examples
///
/// ```
/// use nvr_npu::{ExecMode, NpuConfig};
///
/// assert_eq!(NpuConfig::default().exec, ExecMode::InOrder);
/// assert_eq!(NpuConfig::out_of_order().exec, ExecMode::OutOfOrder);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NpuConfig {
    /// Execution discipline.
    pub exec: ExecMode,
}

impl NpuConfig {
    /// The configuration with ideal OoO execution.
    #[must_use]
    pub fn out_of_order() -> Self {
        NpuConfig {
            exec: ExecMode::OutOfOrder,
        }
    }
}
