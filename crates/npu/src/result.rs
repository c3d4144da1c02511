//! Results of an NPU simulation run.

use nvr_common::Cycle;
use nvr_mem::MemoryStats;

/// Timing and miss statistics of one program execution.
///
/// The latency split the paper's Fig. 5 plots — base execution time vs
/// cache-miss stall — pairs this timed run with the same program's
/// ideal-memory base, [`crate::NpuEngine::base_cycles`] (a closed form
/// whose reference model is the engine run over
/// [`nvr_mem::MemorySystem::ideal`]); the difference is the stall segment
/// (see the `nvr-sim` harness).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Program name.
    pub name: String,
    /// Prefetcher name attached during the run.
    pub prefetcher: &'static str,
    /// Wall-clock cycles from first issue to last retire.
    pub total_cycles: Cycle,
    /// Sum of systolic-array busy cycles.
    pub compute_cycles: u64,
    /// Gather vector batches executed.
    pub gather_batches: u64,
    /// Batches in which at least one element line truly missed (the
    /// per-batch miss metric of Fig. 8a).
    pub gather_batch_misses: u64,
    /// Gather elements executed.
    pub gather_elements: u64,
    /// Elements whose line truly missed (per-element miss metric).
    pub gather_element_misses: u64,
    /// Index-array lines demanded.
    pub index_lines: u64,
    /// Index-array lines that missed.
    pub index_line_misses: u64,
    /// Memory-system statistics snapshot (finalised).
    pub mem: MemoryStats,
    /// Aggregate DRAM utilisation over the run: busy cycles as a
    /// fraction of the capacity of all channels.
    pub dram_utilisation: f64,
    /// Per-channel DRAM utilisation over the run, in channel order.
    pub channel_utilisation: Vec<f64>,
}

impl RunResult {
    /// Per-batch miss rate (0 when no gathers ran).
    #[must_use]
    pub fn batch_miss_rate(&self) -> f64 {
        if self.gather_batches == 0 {
            0.0
        } else {
            self.gather_batch_misses as f64 / self.gather_batches as f64
        }
    }

    /// Per-element miss rate (0 when no gathers ran).
    #[must_use]
    pub fn element_miss_rate(&self) -> f64 {
        if self.gather_elements == 0 {
            0.0
        } else {
            self.gather_element_misses as f64 / self.gather_elements as f64
        }
    }

    /// Fraction of wall-clock spent outside compute (memory-bound share).
    #[must_use]
    pub fn memory_bound_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            1.0 - (self.compute_cycles.min(self.total_cycles) as f64 / self.total_cycles as f64)
        }
    }

    /// The busiest channel's utilisation — the saturation signal channel
    /// scaling studies care about (0 when no channel data was recorded).
    #[must_use]
    pub fn max_channel_utilisation(&self) -> f64 {
        self.channel_utilisation.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            name: "t".into(),
            prefetcher: "None",
            total_cycles: 1000,
            compute_cycles: 250,
            gather_batches: 10,
            gather_batch_misses: 5,
            gather_elements: 160,
            gather_element_misses: 16,
            index_lines: 4,
            index_line_misses: 4,
            mem: MemoryStats::default(),
            dram_utilisation: 0.5,
            channel_utilisation: vec![0.4, 0.6],
        }
    }

    #[test]
    fn rates() {
        let r = result();
        assert!((r.batch_miss_rate() - 0.5).abs() < 1e-12);
        assert!((r.element_miss_rate() - 0.1).abs() < 1e-12);
        assert!((r.memory_bound_fraction() - 0.75).abs() < 1e-12);
        assert!((r.max_channel_utilisation() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_run_rates_are_zero() {
        let r = RunResult {
            gather_batches: 0,
            gather_elements: 0,
            total_cycles: 0,
            ..result()
        };
        assert_eq!(r.batch_miss_rate(), 0.0);
        assert_eq!(r.element_miss_rate(), 0.0);
        assert_eq!(r.memory_bound_fraction(), 0.0);
    }
}
