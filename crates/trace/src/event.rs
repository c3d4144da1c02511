//! Demand-access events observed by prefetchers.
//!
//! Conventional prefetchers see only the demand stream (addresses, plus the
//! loaded values for index loads — the signal IMP correlates on). Synthetic
//! PCs distinguish the instruction slots so table-based prefetchers can key
//! their pattern tables the way hardware keys on the program counter.

use nvr_common::{Addr, Cycle};

/// Synthetic PC of index-array loads.
pub const PC_INDEX_LOAD: u64 = 0x8000_1000;
/// Synthetic PC of gather (indirect) loads.
pub const PC_GATHER: u64 = 0x8000_2000;
/// Synthetic PC of table-probe loads (two-level sparse functions).
pub const PC_TABLE_PROBE: u64 = 0x8000_3000;

/// What kind of access an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A sequential index-array load; carries the loaded value, which the
    /// hardware necessarily has on the response bus (IMP snoops it there).
    IndexLoad {
        /// The loaded index value.
        value: u32,
    },
    /// A table-probe read of a two-level sparse function.
    TableProbe {
        /// The loaded slot value.
        value: u32,
    },
    /// An indirect gather of one element row.
    GatherLoad,
}

/// One demand access, as visible on the memory request bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Issue cycle.
    pub cycle: Cycle,
    /// Tile that issued the access.
    pub tile: usize,
    /// Synthetic program counter of the issuing instruction slot.
    pub pc: u64,
    /// Element byte address.
    pub addr: Addr,
    /// Access classification.
    pub kind: EventKind,
    /// Whether the access missed the (NPU-visible) cache.
    pub missed: bool,
}

impl AccessEvent {
    /// Convenience constructor for an index-load event.
    #[must_use]
    pub fn index_load(cycle: Cycle, tile: usize, addr: Addr, value: u32, missed: bool) -> Self {
        AccessEvent {
            cycle,
            tile,
            pc: PC_INDEX_LOAD,
            addr,
            kind: EventKind::IndexLoad { value },
            missed,
        }
    }

    /// Convenience constructor for a gather event.
    #[must_use]
    pub fn gather(cycle: Cycle, tile: usize, addr: Addr, missed: bool) -> Self {
        AccessEvent {
            cycle,
            tile,
            pc: PC_GATHER,
            addr,
            kind: EventKind::GatherLoad,
            missed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_pcs() {
        let e = AccessEvent::index_load(1, 2, Addr::new(0x10), 42, false);
        assert_eq!(e.pc, PC_INDEX_LOAD);
        assert_eq!(e.kind, EventKind::IndexLoad { value: 42 });
        let g = AccessEvent::gather(3, 4, Addr::new(0x20), true);
        assert_eq!(g.pc, PC_GATHER);
        assert!(g.missed);
    }
}
