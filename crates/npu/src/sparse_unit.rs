//! The NPU's sparse-operators unit.
//!
//! Handles alignment, skipping and tiling of sparse data (§IV-A, Fig. 3b).
//! For timing purposes the unit is busy for a stretch of cycles at the
//! start of each tile's compute phase (index alignment); at all other times
//! it is idle — and those idle windows are precisely where NVR borrows it
//! for speculative dependency-chain execution (§III Q&A3).

use nvr_common::Cycle;

/// Occupancy model of the sparse-operators unit.
///
/// # Examples
///
/// ```
/// use nvr_npu::SparseUnit;
///
/// let mut su = SparseUnit::new(16);
/// let done = su.process(100, 64); // 64 indices at 16 lanes -> 4 cycles
/// assert_eq!(done, 104);
/// assert_eq!(su.process(102, 0), 104); // busy at 102
/// assert_eq!(su.process(104, 0), 104); // idle from 104
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseUnit {
    lanes: usize,
    busy_until: Cycle,
}

impl SparseUnit {
    /// Creates a unit with `lanes` parallel index-processing lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "sparse unit lanes must be non-zero");
        SparseUnit {
            lanes,
            busy_until: 0,
        }
    }

    /// Occupies the unit from `start` to process `n_indices` (align/skip/
    /// tile work); returns the completion cycle.
    pub fn process(&mut self, start: Cycle, n_indices: usize) -> Cycle {
        let cycles = (n_indices as u64).div_ceil(self.lanes as u64);
        let begin = start.max(self.busy_until);
        self.busy_until = begin + cycles;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processing_time_scales_with_lanes() {
        let mut narrow = SparseUnit::new(4);
        let mut wide = SparseUnit::new(32);
        assert_eq!(narrow.process(0, 64), 16);
        assert_eq!(wide.process(0, 64), 2);
    }

    #[test]
    fn back_to_back_serialises() {
        let mut su = SparseUnit::new(16);
        assert_eq!(su.process(0, 32), 2);
        assert_eq!(su.process(0, 32), 4); // queued behind the first
        assert_eq!(su.process(0, 0), 4, "busy for both, 4 cycles");
    }

    #[test]
    fn idle_tracking() {
        let mut su = SparseUnit::new(16);
        assert_eq!(su.process(0, 0), 0, "idle at 0");
        su.process(10, 160); // busy 10..20 (reserved from now on)
        assert_eq!(su.process(15, 0), 20, "busy at 15, idle at 20");
        assert_eq!(su.process(20, 0), 20, "idle at 20");
    }

    #[test]
    fn zero_indices_is_free() {
        let mut su = SparseUnit::new(16);
        assert_eq!(su.process(7, 0), 7);
        assert_eq!(su.process(7, 0), 7, "still idle at 7");
    }
}
