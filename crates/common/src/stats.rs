//! Lightweight statistics primitives shared by the timing models.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use nvr_common::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// A counter starting at zero.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// A fixed-bucket latency histogram with power-of-two bucket edges.
///
/// Records per-access latencies so stall distributions can be inspected
/// without storing every sample.
///
/// # Examples
///
/// ```
/// use nvr_common::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(300);
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `value < 2^i` (and ≥ the previous edge).
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 32],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).min(31) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[inline]
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    #[must_use]
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[inline]
    #[must_use]
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts; `buckets()[i]` counts samples in
    /// `[2^(i-1), 2^i)` for `i` in `1..31` (bucket 0 holds exact zeros;
    /// bucket 31 is open-ended — it clamps every sample `>= 2^30`).
    #[inline]
    #[must_use]
    pub const fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// The non-empty buckets as `(low, high, count)` ranges, low edge
    /// inclusive and high edge exclusive — the compact form reports
    /// render. The final clamp bucket is open-ended, reported with
    /// `high == u64::MAX`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| match i {
                0 => (0, 1, c),
                31 => (1u64 << 30, u64::MAX, c),
                _ => (1u64 << (i - 1), 1u64 << i, c),
            })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the exclusive upper
    /// edge of the first bucket at which the cumulative count reaches
    /// `q * count`, clamped to the observed maximum. Resolution is the
    /// power-of-two bucket grid; 0 when the histogram is empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (_, hi, n) in self.nonzero_buckets() {
            seen += n;
            if seen >= target {
                return hi.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }
}

/// Arithmetic mean of a slice (0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample mean and the half-width of a 95% confidence interval under the
/// normal approximation (`1.96 * s / sqrt(n)`, with the `n - 1` sample
/// standard deviation). The half-width is 0 for fewer than two samples —
/// a single seed carries no spread information.
#[must_use]
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    let m = mean(values);
    if values.len() < 2 {
        return (m, 0.0);
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    (m, 1.96 * var.sqrt() / (values.len() as f64).sqrt())
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn histogram_mean_and_max() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        h.record(10);
        h.record(20);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 20);
        assert!((h.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.sum(), 1_000_105);
    }

    #[test]
    fn histogram_bucket_ranges() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(3);
        let b: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(b, vec![(0, 1, 1), (1, 2, 1), (2, 4, 1)]);
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_huge_values_clamp_to_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_follow_bucket_edges() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for _ in 0..9 {
            h.record(3); // bucket [2, 4)
        }
        h.record(1000); // bucket [512, 1024)
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(0.9), 3);
        assert_eq!(h.percentile(1.0), 1000); // clamped to the observed max
        let mut zeros = Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
    }

    #[test]
    fn mean_and_ci95() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean_ci95(&[2.0]), (2.0, 0.0));
        let (m, ci) = mean_ci95(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        // s = 1, n = 3 → 1.96 / sqrt(3)
        assert!((ci - 1.96 / 3f64.sqrt()).abs() < 1e-12);
    }
}
