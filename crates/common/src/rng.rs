//! Deterministic pseudo-random number generation.
//!
//! The workload generators must produce bit-identical traces for a given
//! seed across platforms and toolchain versions — a prerequisite for
//! comparing prefetchers on the *same* access stream. We therefore ship the
//! ~40-line PCG-XSH-RR core (O'Neill, 2014) here instead of depending on
//! the `rand` crate, whose generator selection and API have shifted across
//! major versions.

/// A PCG-XSH-RR 64/32 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use nvr_common::Pcg32;
///
/// let mut a = Pcg32::seed_from_u64(7);
/// let mut b = Pcg32::seed_from_u64(7);
/// assert_eq!(a.next_u32(), b.next_u32()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;
const PCG_DEFAULT_INC: u64 = 1_442_695_040_888_963_407;

impl Pcg32 {
    /// Creates a generator from a 64-bit seed with the default stream.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: PCG_DEFAULT_INC | 1,
        };
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator on an independent stream, so that two generators
    /// seeded identically but with different `stream` values are decorrelated.
    #[must_use]
    pub fn seed_with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound != 0, "gen_range bound must be non-zero");
        if bound == 1 {
            return 0;
        }
        // Rejection sampling on the top bits avoids modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = widening_mul(r, bound);
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[inline]
fn widening_mul(a: u64, b: u64) -> (u64, u64) {
    let wide = u128::from(a) * u128::from(b);
    ((wide >> 64) as u64, wide as u64)
}

/// A Zipf-distributed sampler over `[0, n)` with exponent `s`.
///
/// Heavy-hitter access patterns (the paper's H2O workload, §V-A) follow a
/// Zipfian popularity law: a small hot set absorbs most accesses. The sampler
/// precomputes the CDF once, plus a guide table that narrows each draw's
/// search to the few ranks whose CDF values share its bucket, so a draw is
/// typically O(1) probes.
///
/// # Examples
///
/// ```
/// use nvr_common::rng::{Pcg32, Zipf};
///
/// let mut rng = Pcg32::seed_from_u64(1);
/// let zipf = Zipf::new(1000, 1.1);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF value is `>= j / G`, for
    /// `G = guide.len() - 1` (a power of two, so `j / G` and `u * G` are
    /// exact): a draw `u` in bucket `floor(u * G)` lands on a rank in
    /// `guide[j]..=guide[j + 1]`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds a sampler over ranks `0..n` with exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = n.next_power_of_two();
        let guide = (0..=buckets)
            .map(|j| {
                let edge = j as f64 / buckets as f64;
                cdf.partition_point(|&c| c < edge).min(n - 1) as u32
            })
            .collect();
        Zipf { cdf, guide }
    }

    /// Number of ranks in the support.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    ///
    /// The rank is the first whose CDF value is `>= u` for a uniform `u`
    /// (the last rank if none is), found inside the guide table's bucket.
    /// A draw that hits a CDF value exactly falls back to the full binary
    /// search, so even ties between equal CDF values resolve as they
    /// always have.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        self.sample_at(rng.gen_f64())
    }

    /// The rank [`Zipf::sample`] returns for the uniform draw `u` in `[0, 1)`.
    fn sample_at(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let j = (u * buckets as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let i = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        if self.cdf[i] != u {
            return i;
        }
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seed_from_u64(1);
        let mut b = Pcg32::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be decorrelated, {same} collisions"
        );
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::seed_with_stream(9, 1);
        let mut b = Pcg32::seed_with_stream(9, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn gen_range_one_is_zero() {
        let mut rng = Pcg32::seed_from_u64(3);
        assert_eq!(rng.gen_range(1), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_panics() {
        Pcg32::seed_from_u64(0).gen_range(0);
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 64-element shuffle virtually never fixes all");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Pcg32::seed_from_u64(13);
        let zipf = Zipf::new(1000, 1.2);
        let mut low = 0usize;
        let draws = 10_000;
        for _ in 0..draws {
            if zipf.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // With s=1.2 the top-10 ranks hold a large share of the mass.
        assert!(
            low > draws / 4,
            "top-10 ranks got {low}/{draws}, expected heavy skew"
        );
    }

    /// The reference draw: a binary search over the whole CDF.
    fn zipf_reference(zipf: &Zipf, u: f64) -> usize {
        match zipf
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(zipf.cdf.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_table_matches_binary_search() {
        for (n, s) in [
            (1, 1.0),
            (5, 0.9),
            (64, 1.2),
            (512, 1.1),
            (1000, 3.0),
            (4096, 0.5),
        ] {
            let zipf = Zipf::new(n, s);
            let mut a = Pcg32::seed_from_u64(n as u64);
            let mut b = a.clone();
            for _ in 0..20_000 {
                let u = b.gen_f64();
                assert_eq!(zipf.sample(&mut a), zipf_reference(&zipf, u), "n={n} s={s}");
            }
            // Draws on and next to every CDF value and bucket edge.
            let edges = zipf.cdf.iter().copied();
            let buckets = zipf.guide.len() - 1;
            let grid = (0..buckets).map(|j| j as f64 / buckets as f64);
            for x in edges.chain(grid).filter(|&x| x < 1.0) {
                for u in [x, x.next_down().max(0.0), x.next_up()] {
                    if u >= 1.0 {
                        continue;
                    }
                    let rank = zipf.sample_at(u);
                    assert_eq!(rank, zipf_reference(&zipf, u), "n={n} s={s} u={u}");
                }
            }
        }
    }

    #[test]
    fn zipf_sample_in_bounds() {
        let mut rng = Pcg32::seed_from_u64(17);
        let zipf = Zipf::new(5, 0.9);
        for _ in 0..500 {
            assert!(zipf.sample(&mut rng) < 5);
        }
    }
}
