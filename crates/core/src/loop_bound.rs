//! LBD: the Loop Bound Detector (§IV-E).
//!
//! Maintains the Sparse Structure Table (SST): per-tile index windows
//! observed through the snoopers. For the tile currently at the ROB head
//! the bounds are exact (read out of the sparse unit's `IdxPtr` registers);
//! for future tiles the LBD *predicts* windows by chaining an exponentially
//! weighted average of observed window lengths from the last exact anchor.
//! Predictions carry a fuzzy-range factor (§III coverage-oriented
//! philosophy), trading a little redundancy for whole-batch coverage, and
//! the total-tile count snooped from the CPU's loop branch clips runahead
//! at the kernel's end — the overrun protection fixed-distance runahead
//! lacks.

/// A predicted or observed index window, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First element (inclusive).
    pub start: u64,
    /// Last element (exclusive).
    pub end: u64,
    /// Whether the bounds are exact (snooped) rather than predicted.
    pub exact: bool,
}

impl Window {
    /// Number of elements in the window.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
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
/// lbd.set_total_tiles(10);
/// lbd.observe(0, 0, 32);
/// lbd.observe(1, 32, 64);
/// let w = lbd.predict(2).expect("in range");
/// assert_eq!((w.start, w.end), (64, 96));
/// ```
#[derive(Debug, Clone)]
pub struct LoopBoundDetector {
    /// EWMA of observed window lengths.
    avg_len: f64,
    /// Last exactly observed tile and its end element.
    anchor: Option<(usize, u64)>,
    total_tiles: Option<usize>,
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
            total_tiles: None,
            fuzzy,
            observed: 0,
        }
    }

    /// Records the kernel's outer trip count (snooped from CPU branches).
    pub fn set_total_tiles(&mut self, total: usize) {
        self.total_tiles = Some(total);
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

    /// Predicts the window of `tile`, or `None` when the tile is past the
    /// snooped trip count or no anchor exists yet.
    ///
    /// The predicted *fetch* range is the average length stretched by the
    /// fuzzy factor; chained starts use the unstretched average so
    /// consecutive predictions overlap slightly rather than drift.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "window lengths and ends are non-negative element counts far below 2^53"
    )]
    pub fn predict(&self, tile: usize) -> Option<Window> {
        if let Some(total) = self.total_tiles {
            if tile >= total {
                return None;
            }
        }
        let (anchor_tile, anchor_end) = self.anchor?;
        if tile <= anchor_tile {
            return None; // already executed; nothing to predict
        }
        let gap = (tile - anchor_tile - 1) as f64;
        let start = anchor_end as f64 + gap * self.avg_len;
        let len = (self.avg_len * self.fuzzy).ceil();
        Some(Window {
            start: start.floor() as u64,
            end: (start + len).ceil() as u64,
            exact: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_windows_predict_exactly() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.set_total_tiles(100);
        for t in 0..4 {
            lbd.observe(t, t as u64 * 50, (t as u64 + 1) * 50);
        }
        let w = lbd.predict(4).expect("next tile");
        assert_eq!((w.start, w.end), (200, 250));
        let w6 = lbd.predict(6).expect("two ahead");
        assert_eq!(w6.start, 300);
    }

    #[test]
    fn clips_at_total_tiles() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.set_total_tiles(3);
        lbd.observe(0, 0, 10);
        assert!(lbd.predict(2).is_some());
        assert!(lbd.predict(3).is_none());
        assert!(lbd.predict(99).is_none());
    }

    #[test]
    fn fuzzy_stretches_fetch_range() {
        let mut lbd = LoopBoundDetector::new(1.5);
        lbd.observe(0, 0, 100);
        let w = lbd.predict(1).expect("predictable");
        assert_eq!(w.start, 100);
        assert_eq!(w.end, 250); // 100 * 1.5 stretched
        assert!(!w.exact);
    }

    #[test]
    fn ewma_adapts_to_varying_lengths() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.observe(0, 0, 100);
        lbd.observe(1, 100, 120); // len 20
        lbd.observe(2, 120, 140); // len 20
        let w = lbd.predict(3).expect("predictable");
        // Average drifts toward 20 but retains history.
        assert!(w.len() < 100 && w.len() >= 20, "len {}", w.len());
        assert_eq!(w.start, 140, "chained from last exact anchor");
    }

    #[test]
    fn no_prediction_without_observation() {
        let lbd = LoopBoundDetector::new(1.1);
        assert!(lbd.predict(1).is_none());
    }

    #[test]
    fn no_prediction_for_executed_tiles() {
        let mut lbd = LoopBoundDetector::new(1.0);
        lbd.observe(5, 500, 550);
        assert!(lbd.predict(5).is_none());
        assert!(lbd.predict(4).is_none());
        assert!(lbd.predict(6).is_some());
    }

    #[test]
    fn window_len_and_empty() {
        let w = Window {
            start: 10,
            end: 10,
            exact: true,
        };
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }
}
