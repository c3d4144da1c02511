//! Demand-access events observed by prefetchers.
//!
//! Conventional prefetchers see only the demand stream: addresses, plus
//! the loaded values of index loads, the signal IMP correlates on.

use nvr_common::{Addr, Cycle};

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
    pub fn index_load(cycle: Cycle, addr: Addr, value: u32, missed: bool) -> Self {
        AccessEvent {
            cycle,
            addr,
            kind: EventKind::IndexLoad { value },
            missed,
        }
    }

    /// Convenience constructor for a gather event.
    #[must_use]
    pub fn gather(cycle: Cycle, addr: Addr, missed: bool) -> Self {
        AccessEvent {
            cycle,
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
    fn constructors_set_kinds() {
        let e = AccessEvent::index_load(1, Addr::new(0x10), 42, false);
        assert_eq!(e.kind, EventKind::IndexLoad { value: 42 });
        assert!(!e.missed);
        let g = AccessEvent::gather(3, Addr::new(0x20), true);
        assert_eq!(g.kind, EventKind::GatherLoad);
        assert!(g.missed);
    }
}
