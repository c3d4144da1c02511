//! LBD: the Loop Bound Detector (§IV-E).
//!
//! Maintains the Sparse Structure Table (SST): per-tile index windows
//! observed through the snoopers. The controller sizes each speculative
//! window from an exponentially weighted average of the observed window
//! lengths, stretched by a fuzzy-range factor (§III coverage-oriented
//! philosophy) that trades a little redundancy for whole-batch coverage,
//! and clips runahead at the index array's estimated end, extrapolated
//! from the last observed tile over the total-tile count snooped from the
//! CPU's loop branch — the overrun protection fixed-distance runahead
//! lacks.

/// A speculative index window, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    /// First element (inclusive).
    pub(crate) start: u64,
    /// Last element (exclusive).
    pub(crate) end: u64,
}

impl Window {
    /// Number of elements in the window.
    #[must_use]
    pub(crate) fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The loop-bound detector.
///
/// # Examples
///
/// ```
/// use nvr_core::LoopBoundDetector;
///
/// let mut lbd = LoopBoundDetector::new(1.0);
/// lbd.observe(0, 0, 32);
/// lbd.observe(1, 32, 64);
/// assert_eq!(lbd.predicted_len(), 32);
/// // Ten tiles in all: eight more of 32 elements after tile 1 ends at 64.
/// assert_eq!(lbd.estimated_end(10), Some(64 + 8 * 32));
/// ```
#[derive(Debug, Clone)]
pub struct LoopBoundDetector {
    /// EWMA of observed window lengths.
    avg_len: f64,
    /// Last exactly observed tile and its end element.
    anchor: Option<(usize, u64)>,
    fuzzy: f64,
    observed: u64,
}

impl LoopBoundDetector {
    /// Creates a detector with the given fuzzy-range factor (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `fuzzy < 1.0`.
    #[must_use]
    pub fn new(fuzzy: f64) -> Self {
        assert!(fuzzy >= 1.0, "fuzzy factor must be >= 1");
        LoopBoundDetector {
            avg_len: 0.0,
            anchor: None,
            fuzzy,
            observed: 0,
        }
    }

    /// Records an exact window for `tile` from the sparse-unit registers.
    pub fn observe(&mut self, tile: usize, start: u64, end: u64) {
        let len = end.saturating_sub(start) as f64;
        self.avg_len = if self.observed == 0 {
            len
        } else {
            0.75 * self.avg_len + 0.25 * len
        };
        self.observed += 1;
        // Anchor advances monotonically with the ROB head.
        match self.anchor {
            Some((t, _)) if t >= tile => {}
            _ => self.anchor = Some((tile, end)),
        }
    }

    /// The fuzzy-stretched predicted window length, in elements (0 until
    /// the first observation).
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "window lengths and ends are non-negative element counts far below 2^53"
    )]
    pub fn predicted_len(&self) -> u64 {
        if self.observed == 0 {
            0
        } else {
            (self.avg_len * self.fuzzy).ceil() as u64
        }
    }

    /// Estimated end of the whole index array in elements, extrapolating
    /// the average window length over the remaining snooped trip count.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "window lengths and ends are non-negative element counts far below 2^53"
    )]
    pub fn estimated_end(&self, total_tiles: usize) -> Option<u64> {
        let (anchor_tile, anchor_end) = self.anchor?;
        let remaining = total_tiles.saturating_sub(anchor_tile + 1) as f64;
        Some(anchor_end + (remaining * self.avg_len).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_windows_predict_exactly() {
        let mut lbd = LoopBoundDetector::new(1.0);
        for t in 0..4 {
            lbd.observe(t, t as u64 * 50, (t as u64 + 1) * 50);
        }
        assert_eq!(lbd.predicted_len(), 50);
        // Tile 3 ends at 200; 96 more tiles of 50 follow it.
        assert_eq!(lbd.estimated_end(100), Some(200 + 96 * 50));
    }

    #[test]
    fn clips_at_total_tiles() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.observe(0, 0, 10);
        assert_eq!(lbd.estimated_end(3), Some(30));
        // The observed tile is the last one: the array ends with it.
        assert_eq!(lbd.estimated_end(1), Some(10));
        // A trip count behind the anchor never clips before it.
        assert_eq!(lbd.estimated_end(0), Some(10));
    }

    #[test]
    fn fuzzy_stretches_fetch_range() {
        let mut lbd = LoopBoundDetector::new(1.5);
        lbd.observe(0, 0, 100);
        // 100 * 1.5 stretched; the array end extrapolates the
        // unstretched average.
        assert_eq!(lbd.predicted_len(), 150);
        assert_eq!(lbd.estimated_end(2), Some(200));
    }

    #[test]
    fn ewma_adapts_to_varying_lengths() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.observe(0, 0, 100);
        lbd.observe(1, 100, 120);
        lbd.observe(2, 120, 140);
        // Two windows of 20: the average drifts toward 20 but retains
        // history, 0.75 * (0.75 * 100 + 0.25 * 20) + 0.25 * 20 = 65.
        assert_eq!(lbd.predicted_len(), 65);
        assert_eq!(
            lbd.estimated_end(4),
            Some(140 + 65),
            "chained from last exact anchor"
        );
    }

    #[test]
    fn no_prediction_without_observation() {
        let lbd = LoopBoundDetector::new(1.1);
        assert_eq!(lbd.predicted_len(), 0);
        assert_eq!(lbd.estimated_end(10), None);
    }

    #[test]
    fn no_prediction_for_executed_tiles() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.observe(5, 500, 550);
        // An older tile trains the average but never moves the anchor
        // back: from tile 4 the end would be 450 + 3 * 50.
        lbd.observe(4, 400, 450);
        assert_eq!(lbd.estimated_end(8), Some(550 + 2 * 50));
        lbd.observe(6, 550, 650);
        // avg = 0.75 * 50 + 0.25 * 100 = 62.5, rounded up past tile 6.
        assert_eq!(lbd.estimated_end(8), Some(650 + 63));
    }

    #[test]
    fn window_len_and_empty() {
        let len = |start, end| Window { start, end }.len();
        assert_eq!(len(10, 14), 4);
        assert_eq!(len(10, 10), 0);
        assert_eq!(len(10, 5), 0, "an inverted window is empty");
    }
}
