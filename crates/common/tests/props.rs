//! Property-based tests of the shared primitives.

use proptest::prelude::*;

use nvr_common::rng::Zipf;
use nvr_common::{Addr, Pcg32, Region, LINE_BYTES};

proptest! {
    /// Region line iteration visits exactly the lines between the first
    /// and last byte, consecutively.
    #[test]
    fn region_lines_cover_exactly(start in 0u64..1 << 40, bytes in 0u64..100_000) {
        let r = Region::new(Addr::new(start), bytes);
        let lines: Vec<u64> = r.lines().map(|l| l.index()).collect();
        prop_assert_eq!(lines.len() as u64, r.line_count());
        if bytes == 0 {
            prop_assert!(lines.is_empty());
        } else {
            prop_assert_eq!(lines[0], start / LINE_BYTES);
            prop_assert_eq!(*lines.last().unwrap(), (start + bytes - 1) / LINE_BYTES);
            prop_assert!(lines.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    /// Every byte of a region maps to one of its lines.
    #[test]
    fn region_contains_implies_line_member(
        start in 0u64..1 << 30,
        bytes in 1u64..10_000,
        probe in 0u64..1 << 31,
    ) {
        let r = Region::new(Addr::new(start), bytes);
        let a = Addr::new(probe);
        if r.contains(a) {
            let member = r.lines().any(|l| l == a.line());
            prop_assert!(member);
        }
    }

    /// gen_range stays in bounds for arbitrary bounds and seeds.
    #[test]
    fn gen_range_in_bounds(seed in any::<u64>(), bound in 1u64..1 << 48) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    /// Zipf samples stay in support and rank-0 is at least as likely as a
    /// deep-tail rank.
    #[test]
    fn zipf_support_and_skew(seed in any::<u64>(), n in 10usize..300) {
        let zipf = Zipf::new(n, 1.2);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut head = 0usize;
        let mut tail = 0usize;
        for _ in 0..600 {
            let s = zipf.sample(&mut rng);
            prop_assert!(s < n);
            if s == 0 { head += 1; }
            if s == n - 1 { tail += 1; }
        }
        prop_assert!(head >= tail);
    }

    /// Identical seeds give identical streams; shuffles are permutations.
    #[test]
    fn pcg_determinism_and_shuffle(seed in any::<u64>(), len in 0usize..200) {
        let mut a = Pcg32::seed_from_u64(seed);
        let mut b = Pcg32::seed_from_u64(seed);
        let mut va: Vec<u32> = (0..len as u32).collect();
        let mut vb = va.clone();
        a.shuffle(&mut va);
        b.shuffle(&mut vb);
        prop_assert_eq!(&va, &vb);
        let mut sorted = va.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len as u32).collect::<Vec<_>>());
    }
}
