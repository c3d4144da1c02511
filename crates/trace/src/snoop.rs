//! The architectural state visible to NVR's snoopers (§IV-C).
//!
//! The snoopers are read-only probes over two signal groups: CPU branch
//! instructions (loop context) and the NPU sparse-unit registers (index
//! window bounds, base addresses, the active `sparse_func`). When runahead
//! may run is not snooped: the engine grants it as `advance` windows. This
//! struct is the honest boundary between the NVR prefetcher and the
//! machine: NVR sees exactly these fields — never the program's future
//! tiles.

use nvr_common::Addr;

use crate::program::GatherDesc;

/// Snapshot of snoopable CPU/NPU state while a tile executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopState {
    /// Currently executing tile index (ROB head).
    pub tile: usize,
    /// Total tiles in the kernel's outer loop — snooped from the CPU's
    /// loop-bound branch registers (a B-type compare against the trip
    /// count; Fig. 3c). Available to LBD-equipped prefetchers only.
    pub total_tiles: usize,
    /// Base address of the index array being walked.
    pub index_base: Addr,
    /// Current tile's index window start, in elements
    /// (the sparse unit's `IdxPtr Start` register).
    pub elem_start: u64,
    /// Current tile's index window end, in elements
    /// (the sparse unit's `IdxPtr End` register).
    pub elem_end: u64,
    /// Elements the NPU has already issued demand loads for (the sparse
    /// unit's progress pointer): `elem_start <= elem_consumed <= elem_end`.
    /// Runahead covers everything past this point — including the current
    /// tile's not-yet-issued batches (§III Q&A1: prefetch for the *next*
    /// load instruction in the reservation station).
    pub elem_consumed: u64,
    /// The active gather descriptor registers, if the tile gathers.
    pub gather: Option<GatherDesc>,
}

impl SnoopState {
    /// Number of index elements in the current window.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.elem_end.saturating_sub(self.elem_start)
    }

    /// Byte address of index element `elem` in the snooped index array.
    #[must_use]
    pub fn index_elem_addr(&self, elem: u64) -> Addr {
        self.index_base.offset(elem * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SnoopState {
        SnoopState {
            tile: 3,
            total_tiles: 10,
            index_base: Addr::new(0x1000),
            elem_start: 100,
            elem_end: 130,
            elem_consumed: 100,
            gather: None,
        }
    }

    #[test]
    fn window_len_and_addressing() {
        let s = state();
        assert_eq!(s.window_len(), 30);
        assert_eq!(s.index_elem_addr(100), Addr::new(0x1000 + 400));
    }

    #[test]
    fn inverted_window_is_empty() {
        let mut s = state();
        s.elem_end = 50;
        assert_eq!(s.window_len(), 0);
    }
}
