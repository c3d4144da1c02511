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
//! satisfy. Values are any `Copy` type; a slot of an 8-byte or smaller
//! value is 16 bytes.

/// A map from `u64` keys to `Copy` values over a flat vector of pairs
/// (see module docs).
///
/// # Examples
///
/// ```
/// use nvr_common::FlatMap;
///
/// let mut m = FlatMap::new();
/// m.insert(7, 100);
/// assert_eq!(m.get(7), Some(100));
/// let (count, new) = m.find_or_insert(7, 0);
/// *count += 1;
/// assert!(!new);
/// assert_eq!(m.remove(7), Some(101));
/// assert_eq!(m.get(7), None);
/// assert_eq!(m.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    /// (key, value) slots; key [`FlatMap::EMPTY`] marks a free slot.
    slots: Vec<(u64, V)>,
    /// Occupied slots.
    len: usize,
}

/// Initial slot count; must be a power of two.
const INITIAL_SLOTS: usize = 64;

/// Home slot of `key` in a table of `slots` (a power of two) slots:
/// Fibonacci hashing, the top bits of the key times 2^64 / φ. One
/// multiply spreads runs and strides of simulator identifiers evenly,
/// and keeps each probe's address off a longer mixing chain.
#[inline]
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - slots.trailing_zeros())) as usize
}

impl<V: Copy + Default> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap {
            slots: vec![(Self::EMPTY, V::default()); INITIAL_SLOTS],
            len: 0,
        }
    }
}

impl<V: Copy + Default> FlatMap<V> {
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

    /// Whether the next insert doubles the table first: one more entry
    /// would fill more than half the slots. The load factor stays under
    /// 1/2 so probe chains stay short.
    #[must_use]
    pub fn would_grow(&self) -> bool {
        (self.len + 1) * 2 > self.slots.len()
    }

    /// Finds `key`, inserting it with value `fresh` if absent, in one
    /// probe chain; returns the key's value and whether the key was new.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`FlatMap::EMPTY`].
    pub fn find_or_insert(&mut self, key: u64, fresh: V) -> (&mut V, bool) {
        assert!(key != Self::EMPTY, "key {key:#x} is the free-slot marker");
        if self.would_grow() {
            self.rehash(self.slots.len() * 2);
        }
        let mask = self.slots.len() - 1;
        let mut i = home(key, self.slots.len());
        loop {
            let k = self.slots[i].0;
            if k == key {
                return (&mut self.slots[i].1, false);
            }
            if k == Self::EMPTY {
                self.slots[i] = (key, fresh);
                self.len += 1;
                return (&mut self.slots[i].1, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or overwrites `key`'s value; returns the previous value if
    /// the key was present.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`FlatMap::EMPTY`].
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        let (slot, new) = self.find_or_insert(key, val);
        (!new).then(|| std::mem::replace(slot, val))
    }

    /// The value stored for `key`, if present.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<V> {
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

    /// Every entry, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.slots
            .iter()
            .copied()
            .filter(|&(k, _)| k != Self::EMPTY)
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion, so probe chains stay dense and lookups
    /// never cross tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
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

    /// Keeps the entries for which `keep` returns true, in the smallest
    /// table, from the initial size up, that they and one more entry fill
    /// at most a quarter of. The table can shrink: a map whose entries
    /// expire retains at its grow point instead of growing.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, V) -> bool) {
        let mut live = 0;
        for slot in &mut self.slots {
            if slot.0 != Self::EMPTY && !keep(slot.0, slot.1) {
                slot.0 = Self::EMPTY;
            }
            live += usize::from(slot.0 != Self::EMPTY);
        }
        let mut slots = INITIAL_SLOTS;
        while (live + 1) * 4 > slots {
            slots *= 2;
        }
        self.rehash(slots);
        self.len = live;
    }

    /// Moves every entry into a fresh table of `slots` (a power of two)
    /// slots.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(Self::EMPTY, V::default()); slots]);
        let mask = slots - 1;
        for (key, val) in old {
            if key == Self::EMPTY {
                continue;
            }
            let mut i = home(key, slots);
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
        m.insert(FlatMap::<u64>::EMPTY, 1);
    }

    #[test]
    fn find_or_insert_remove_and_retain_match_btreemap() {
        use std::collections::BTreeMap;
        for seed in 0..4u64 {
            let mut rng = crate::Pcg32::seed_from_u64(seed);
            let (mut m, mut r) = (FlatMap::new(), BTreeMap::new());
            let mut shrank = false;
            // 256 to 2048 distinct keys: the table grows, and shrinks
            // again as retains halve the population.
            let keys = 256 << seed;
            for op in 0..20_000 {
                let key = rng.gen_range(keys);
                match rng.gen_index(64) {
                    0..=39 => {
                        let (count, new) = m.find_or_insert(key, 0u32);
                        assert_eq!(new, !r.contains_key(&key), "seed {seed} op {op}");
                        *count += 1;
                        let want = r.entry(key).or_insert(0u32);
                        *want += 1;
                        assert_eq!(*count, *want, "seed {seed} op {op}");
                    }
                    40..=62 => assert_eq!(m.remove(key), r.remove(&key), "seed {seed} op {op}"),
                    _ => {
                        // Drop about half the entries.
                        let parity = rng.gen_range(2);
                        let keep = |k: u64, v: u32| k & 1 == parity || v > 2;
                        let before = m.slots.len();
                        m.retain(keep);
                        r.retain(|&k, &mut v| keep(k, v));
                        shrank |= m.slots.len() < before;
                        // The smallest table the survivors and one more
                        // entry fill at most a quarter of.
                        let slots = m.slots.len();
                        assert!((m.len() + 1) * 4 <= slots, "seed {seed} op {op}");
                        assert!(slots == INITIAL_SLOTS || (m.len() + 1) * 8 > slots);
                    }
                }
                assert_eq!(m.len(), r.len(), "seed {seed} op {op}");
                if op % 499 == 0 {
                    let mut got: Vec<(u64, u32)> = m.iter().collect();
                    got.sort_unstable();
                    let want: Vec<(u64, u32)> = r.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "seed {seed} op {op}");
                }
            }
            assert!(shrank, "seed {seed}: no retain shrank the table");
        }
    }
}
