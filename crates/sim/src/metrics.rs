//! Derived comparison metrics.

use nvr_prefetch::TimelinessReport;

/// Splits a measured [`TimelinessReport`] into `(timely, late,
/// evicted-unused)` fractions of all *resolved* prefetches — the fig. 6b′
/// timeliness breakdown. All zeros when nothing resolved.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::TimelinessReport;
///
/// let r = TimelinessReport {
///     timely: 6,
///     late: 3,
///     evicted_unused: 1,
///     ..TimelinessReport::default()
/// };
/// let (t, l, w) = nvr_sim::timeliness_split(&r);
/// assert!((t - 0.6).abs() < 1e-12);
/// assert!((l - 0.3).abs() < 1e-12);
/// assert!((w - 0.1).abs() < 1e-12);
/// ```
#[must_use]
pub fn timeliness_split(report: &TimelinessReport) -> (f64, f64, f64) {
    let resolved = report.timely + report.late + report.evicted_unused;
    if resolved == 0 {
        return (0.0, 0.0, 0.0);
    }
    let n = resolved as f64;
    (
        report.timely as f64 / n,
        report.late as f64 / n,
        report.evicted_unused as f64 / n,
    )
}

/// Speedup of a run of `cycles` over a `baseline` run of the same
/// program: `baseline / cycles`, a zero-cycle run counting as one cycle.
///
/// # Examples
///
/// ```
/// assert_eq!(nvr_sim::speedup(300, 100), 3.0);
/// assert_eq!(nvr_sim::speedup(300, 0), 300.0);
/// ```
#[must_use]
pub fn speedup(baseline: u64, cycles: u64) -> f64 {
    baseline as f64 / cycles.max(1) as f64
}

/// Prefetch coverage: the fraction of baseline misses a prefetcher
/// eliminated (`1 - with/without`), clamped to `[0, 1]`.
///
/// The clamp is deliberate and part of this function's contract: coverage
/// answers "how many of the baseline's misses went away", so a prefetcher
/// that *adds* misses reads as 0 coverage here, never negative. Use
/// [`pollution`] for the signed view — the clamp would otherwise hide a
/// polluting prefetcher behind the same 0.0 an inert one gets.
///
/// # Examples
///
/// ```
/// assert_eq!(nvr_sim::coverage(100, 10), 0.9);
/// assert_eq!(nvr_sim::coverage(0, 5), 0.0);
/// assert_eq!(nvr_sim::coverage(100, 130), 0.0); // pollution clamped away
/// ```
#[must_use]
pub fn coverage(baseline_misses: u64, with_prefetch_misses: u64) -> f64 {
    if baseline_misses == 0 {
        return 0.0;
    }
    (1.0 - with_prefetch_misses as f64 / baseline_misses as f64).clamp(0.0, 1.0)
}

/// Signed miss delta relative to the baseline: `with/without - 1`.
///
/// Positive values are pollution — the prefetcher's fills evicted useful
/// lines and the run saw *more* demand misses than no prefetching at all
/// (`0.3` = 30% extra misses). Negative values mirror [`coverage`]
/// (`-0.9` = 90% of misses eliminated). Returns 0 when the baseline had
/// no misses.
///
/// # Examples
///
/// ```
/// assert!((nvr_sim::pollution(100, 130) - 0.3).abs() < 1e-12);
/// assert!((nvr_sim::pollution(100, 10) + 0.9).abs() < 1e-12);
/// assert_eq!(nvr_sim::pollution(0, 5), 0.0);
/// ```
#[must_use]
pub fn pollution(baseline_misses: u64, with_prefetch_misses: u64) -> f64 {
    if baseline_misses == 0 {
        return 0.0;
    }
    with_prefetch_misses as f64 / baseline_misses as f64 - 1.0
}

/// Geometric mean of a slice of positive values (0 when empty).
///
/// Speedup ratios are averaged geometrically, as in the paper's "average
/// 4x speedup" style claims.
///
/// # Examples
///
/// ```
/// let g = nvr_sim::geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_bounds() {
        assert_eq!(coverage(10, 0), 1.0);
        assert_eq!(coverage(10, 10), 0.0);
        // Pollution can raise misses; coverage clamps at zero.
        assert_eq!(coverage(10, 15), 0.0);
        assert!((coverage(200, 50) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pollution_is_signed() {
        assert!((pollution(10, 15) - 0.5).abs() < 1e-12);
        assert!((pollution(10, 5) + 0.5).abs() < 1e-12);
        assert_eq!(pollution(10, 10), 0.0);
        assert_eq!(pollution(0, 10), 0.0);
        // Where coverage clamps, pollution keeps the sign.
        assert_eq!(coverage(10, 15), 0.0);
        assert!(pollution(10, 15) > 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
