//! A deterministic open-addressing map for `u64` keys on simulator hot
//! paths.
//!
//! The workspace's `clippy.toml` bans [`std::collections::HashMap`]
//! (randomised iteration order is a determinism hazard), and `BTreeMap`'s
//! pointer chasing is too slow for bookkeeping that runs once per
//! simulated prefetch or resolved target line. [`FlatMap`] fills the gap:
//! linear probing over one flat vector of key/value pairs (a probe reads
//! one cache line) under a fixed hash (Fibonacci hashing), with
//! backward-shift deletion — no tombstones, no allocator traffic after
//! warm-up, and identical behaviour on every run and host.
//!
//! Keys are restricted to values below [`FlatMap::EMPTY`] (`u64::MAX`),
//! which simulator identifiers — line indices, addresses, PCs — always
//! satisfy.

/// A `u64 -> u64` map over a flat vector of pairs (see module docs).
///
/// # Examples
///
/// ```
/// use nvr_common::FlatMap;
///
/// let mut m = FlatMap::new();
/// m.insert(7, 100);
/// assert_eq!(m.get(7), Some(100));
/// assert_eq!(m.remove(7), Some(100));
/// assert_eq!(m.get(7), None);
/// assert_eq!(m.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlatMap {
    /// (key, value) slots; key [`FlatMap::EMPTY`] marks a free slot.
    slots: Vec<(u64, u64)>,
    /// Occupied slots.
    len: usize,
}

/// Initial slot count; must be a power of two.
const INITIAL_SLOTS: usize = 64;

/// Home slot of `key` in a table of `slots` (a power of two) slots:
/// Fibonacci hashing, the top bits of the key times 2^64 / φ. One
/// multiply spreads runs and strides of simulator identifiers evenly,
/// and keeps each probe's address off a longer mixing chain.
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - slots.trailing_zeros())) as usize
}

impl Default for FlatMap {
    fn default() -> Self {
        FlatMap {
            slots: vec![(Self::EMPTY, 0); INITIAL_SLOTS],
            len: 0,
        }
    }
}

impl FlatMap {
    /// The reserved free-slot marker; not a valid key.
    pub const EMPTY: u64 = u64::MAX;

    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        FlatMap::default()
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or overwrites `key`'s value; returns the previous value if
    /// the key was present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`FlatMap::EMPTY`].
    pub fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        assert!(key != Self::EMPTY, "key {key:#x} is the free-slot marker");
        // Keep the load factor under 1/2 so probe chains stay short.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                return Some(std::mem::replace(&mut slot.1, val));
            }
            if slot.0 == Self::EMPTY {
                *slot = (key, val);
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value stored for `key`, if present.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == Self::EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion, so probe chains stay dense and lookups
    /// never cross tombstones.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let mut hole = home(key, self.slots.len());
        loop {
            if self.slots[hole].0 == key {
                break;
            }
            if self.slots[hole].0 == Self::EMPTY {
                return None;
            }
            hole = (hole + 1) & mask;
        }
        let val = self.slots[hole].1;
        self.len -= 1;
        // Backward shift: walk the cluster after the hole; any entry whose
        // home slot does not lie cyclically inside `(hole, j]` belongs at
        // or before the hole, so it moves into it and leaves a new hole.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let entry = self.slots[j];
            if entry.0 == Self::EMPTY {
                break;
            }
            let h = home(entry.0, self.slots.len());
            let in_interval = if hole <= j {
                h > hole && h <= j
            } else {
                h > hole || h <= j
            };
            if !in_interval {
                self.slots[hole] = entry;
                hole = j;
            }
        }
        self.slots[hole].0 = Self::EMPTY;
        Some(val)
    }

    /// Doubles the slot count, rehashing every occupied entry.
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(Self::EMPTY, 0); new_cap]);
        let mask = new_cap - 1;
        for (key, val) in old {
            if key == Self::EMPTY {
                continue;
            }
            let mut i = home(key, self.slots.len());
            while self.slots[i].0 != Self::EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10), "overwrite returns old value");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(2), Some(20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_growth_and_heavy_churn() {
        let mut m = FlatMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i), Some(i * 3), "key {i}");
        }
        // Remove evens, keep odds — exercises backward shift across
        // clusters of every shape the hash produces.
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(i), Some(i * 3), "key {i}");
        }
        assert_eq!(m.len(), 5_000);
        for i in 0..10_000u64 {
            let expect = if i % 2 == 1 { Some(i * 3) } else { None };
            assert_eq!(m.get(i), expect, "key {i}");
        }
    }

    #[test]
    fn deletion_preserves_colliding_probe_chains() {
        // Dense sequential keys guarantee occupied neighbouring slots, so
        // removals exercise the shift-vs-stay decision both ways.
        let mut m = FlatMap::new();
        for i in 0..48u64 {
            m.insert(i, i);
        }
        for i in 0..48u64 {
            assert_eq!(m.remove(i), Some(i));
            for j in (i + 1)..48u64 {
                assert_eq!(m.get(j), Some(j), "after removing {i}, key {j}");
            }
        }
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "free-slot marker")]
    fn empty_marker_key_rejected() {
        let mut m = FlatMap::new();
        m.insert(FlatMap::EMPTY, 1);
    }
}
