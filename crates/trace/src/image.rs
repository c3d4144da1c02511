//! The simulated memory image: real index data at real addresses.

use nvr_common::{Addr, Region};

/// A sparse map of 32-bit words over the simulated address space.
///
/// Workload generators lay out their index structures (row pointers, column
/// indices, top-k lists, hash buckets) as `u32` segments. Reads outside any
/// segment return a deterministic pseudo-random "garbage" word derived from
/// the address — which is exactly what a runahead prefetcher that overruns a
/// loop boundary would consume, and what makes overrun prefetches
/// mechanically inaccurate rather than inaccurate-by-fiat.
///
/// # Examples
///
/// ```
/// use nvr_trace::MemoryImage;
/// use nvr_common::Addr;
///
/// let mut img = MemoryImage::new();
/// img.add_u32_segment(Addr::new(0x100), vec![7, 8, 9]);
/// assert_eq!(img.read_u32(Addr::new(0x104)), 8);
/// assert!(img.in_segment(Addr::new(0x108)));
/// assert!(!img.in_segment(Addr::new(0x10c)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    /// `(base address, contents)`, sorted by base, non-overlapping.
    /// Installation is rare (workload build time) while `read_u32` sits on
    /// every simulated index access, so the store is a flat sorted vector
    /// a lookup can binary-search without pointer chasing.
    segments: Vec<(u64, Vec<u32>)>,
}

impl MemoryImage {
    /// An empty image.
    #[must_use]
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// Installs a `u32` array at `base`. Addresses are byte addresses; the
    /// segment occupies `4 * data.len()` bytes, so an empty one covers no
    /// word and installs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned or the segment would overlap
    /// an existing one.
    pub fn add_u32_segment(&mut self, base: Addr, data: Vec<u32>) {
        assert!(
            base.raw().is_multiple_of(4),
            "segment base must be 4-byte aligned"
        );
        if data.is_empty() {
            return;
        }
        let bytes = data.len() as u64 * 4;
        assert!(
            !self.overlaps(Region::new(base, bytes)),
            "segment at {base} overlaps an existing segment"
        );
        let pos = self.segments.partition_point(|&(b, _)| b < base.raw());
        self.segments.insert(pos, (base.raw(), data));
    }

    /// Whether `region` intersects any existing segment.
    #[must_use]
    pub fn overlaps(&self, region: Region) -> bool {
        if region.is_empty() {
            return false;
        }
        // Candidate: the last segment starting before region end, plus
        // any segment starting inside the region.
        let end = region.end().raw();
        let idx = self.segments.partition_point(|&(b, _)| b < end);
        idx > 0 && {
            let (base, data) = &self.segments[idx - 1];
            base + data.len() as u64 * 4 > region.start().raw()
        }
    }

    /// Reads the `u32` at `addr`.
    ///
    /// In-segment reads return the stored word (unaligned reads snap down to
    /// the containing word, as a hardware load of the enclosing word would).
    /// Out-of-segment reads return a deterministic address-hash word.
    #[must_use]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        match self.lookup(addr) {
            Some(word) => word,
            None => Self::background(addr),
        }
    }

    /// Reads the `u32` at `addr`, or `None` if no segment covers it.
    #[must_use]
    pub fn try_read_u32(&self, addr: Addr) -> Option<u32> {
        self.lookup(addr)
    }

    /// Whether `addr` falls inside an installed segment.
    #[must_use]
    pub fn in_segment(&self, addr: Addr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Reads `n` consecutive `u32` values starting at `addr`: the words
    /// [`MemoryImage::read_u32`] returns at `addr`, `addr + 4`, …, found
    /// with one segment search per run rather than per word, each
    /// segment's run copied whole.
    #[must_use]
    pub fn read_u32_slice(&self, addr: Addr, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        // Word addresses: an unaligned read snaps to its word.
        let mut word = addr.raw() >> 2;
        let end = word + n as u64;
        while word < end {
            // As in `lookup`: the last segment based at or below `word`
            // covers it, until the next segment's base.
            let idx = self.segments.partition_point(|&(b, _)| b >> 2 <= word);
            let stop = self
                .segments
                .get(idx)
                .map_or(end, |&(b, _)| end.min(b >> 2));
            let covered = self.segments[..idx]
                .last()
                .and_then(|(base, data)| data.get((word - (base >> 2)) as usize..));
            match covered {
                Some(run) if !run.is_empty() => {
                    let take = run.len().min((stop - word) as usize);
                    out.extend_from_slice(&run[..take]);
                    word += take as u64;
                }
                _ => {
                    out.extend((word..stop).map(|w| Self::background(Addr::new(w << 2))));
                    word = stop;
                }
            }
        }
        out
    }

    /// Total bytes covered by installed segments.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|(_, d)| d.len() as u64 * 4).sum()
    }

    fn lookup(&self, addr: Addr) -> Option<u32> {
        let idx = self.segments.partition_point(|&(b, _)| b <= addr.raw());
        let (base, data) = self.segments.get(idx.wrapping_sub(1))?;
        let off = addr.raw() - base;
        data.get((off / 4) as usize).copied()
    }

    /// Deterministic pseudo-random word for out-of-segment reads
    /// (splitmix64 finaliser over the word-aligned address).
    #[must_use]
    pub fn background(addr: Addr) -> u32 {
        let mut h = addr.raw() >> 2;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        (h ^ (h >> 31)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn segment_read_exact() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![10, 20, 30]);
        assert_eq!(img.read_u32(Addr::new(0x1000)), 10);
        assert_eq!(img.read_u32(Addr::new(0x1008)), 30);
        assert_eq!(img.try_read_u32(Addr::new(0x100c)), None);
    }

    #[test]
    fn unaligned_read_snaps_to_word() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![10, 20]);
        assert_eq!(img.read_u32(Addr::new(0x1001)), 10);
        assert_eq!(img.read_u32(Addr::new(0x1007)), 20);
    }

    #[test]
    fn background_is_deterministic() {
        let a = MemoryImage::background(Addr::new(0x5000));
        let b = MemoryImage::background(Addr::new(0x5000));
        assert_eq!(a, b);
        assert_ne!(a, MemoryImage::background(Addr::new(0x5004)));
    }

    #[test]
    fn out_of_segment_reads_background() {
        let img = MemoryImage::new();
        assert_eq!(
            img.read_u32(Addr::new(0x42)),
            MemoryImage::background(Addr::new(0x42))
        );
    }

    #[test]
    fn multiple_segments_route_correctly() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![1, 2]);
        img.add_u32_segment(Addr::new(0x2000), vec![3]);
        assert_eq!(img.read_u32(Addr::new(0x1004)), 2);
        assert_eq!(img.read_u32(Addr::new(0x2000)), 3);
        assert!(!img.in_segment(Addr::new(0x1800)));
        assert_eq!(img.segment_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_segments_rejected() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![1, 2, 3]);
        img.add_u32_segment(Addr::new(0x1008), vec![9]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_base_rejected() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1002), vec![1]);
    }

    #[test]
    fn read_slice_spans_boundary() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![1, 2]);
        let v = img.read_u32_slice(Addr::new(0x1000), 3);
        assert_eq!(v[0], 1);
        assert_eq!(v[1], 2);
        assert_eq!(v[2], MemoryImage::background(Addr::new(0x1008)));
    }

    #[test]
    fn empty_segment_inside_another_installs_nothing() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![1, 2, 3, 4]);
        img.add_u32_segment(Addr::new(0x1008), Vec::new());
        assert_eq!(img.read_u32(Addr::new(0x100c)), 4);
        assert_eq!(img.read_u32_slice(Addr::new(0x1000), 4), [1, 2, 3, 4]);
        // A later segment over those words is still rejected.
        assert!(img.overlaps(Region::new(Addr::new(0x100c), 4)));
    }

    #[test]
    fn adjacent_segments_do_not_overlap() {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![1, 2]);
        img.add_u32_segment(Addr::new(0x1008), vec![3]); // exactly adjacent
        assert_eq!(img.read_u32(Addr::new(0x1008)), 3);
    }

    /// A random image and one read from it: up to six segments in
    /// ascending order, each after a gap of 0–3 words (0: adjacent to the
    /// previous one) and 0–5 words long; in half the cases one more, empty
    /// segment at any word, even inside another segment, which installs
    /// nothing; a start anywhere in or around them, word-aligned or not;
    /// and a length of up to 24 words, so runs cross segment ends, gaps and
    /// the image's edges.
    struct SliceCases;

    impl Strategy for SliceCases {
        type Value = (Vec<(u64, Vec<u32>)>, u64, usize);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let mut segments = Vec::new();
            let mut at = 0x100;
            for _ in 0..rng.below(7) {
                at += 4 * rng.below(4);
                let len = rng.below(6) as usize;
                segments.push((at, (0..len).map(|_| rng.next_u64() as u32).collect()));
                at += 4 * len as u64;
            }
            if rng.next_u64() & 1 == 0 {
                segments.push((0x100 + 4 * rng.below((at - 0x100) / 4 + 1), Vec::new()));
            }
            let start = 0xf0 + rng.below(at + 0x20 - 0xf0);
            (segments, start, rng.below(25) as usize)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A slice read returns the per-word reads it replaces.
        #[test]
        fn read_u32_slice_matches_per_word_reads(case in SliceCases) {
            let (segments, start, n) = case;
            let mut img = MemoryImage::new();
            for (base, data) in segments {
                img.add_u32_segment(Addr::new(base), data);
            }
            let start = Addr::new(start);
            let words: Vec<u32> = (0..n)
                .map(|i| img.read_u32(start.offset(i as u64 * 4)))
                .collect();
            prop_assert_eq!(img.read_u32_slice(start, n), words);
        }
    }
}
