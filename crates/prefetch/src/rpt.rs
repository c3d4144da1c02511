//! Reference-prediction-table infrastructure shared by the prefetchers.
//!
//! The classic stride-detection entry: previous address, stride, and a
//! saturating confidence counter. The IMP baseline builds on it to learn
//! the index stream's stride.

use nvr_common::Addr;

/// One stride-tracking entry.
///
/// # Examples
///
/// ```
/// use nvr_prefetch::StrideEntry;
/// use nvr_common::Addr;
///
/// let mut e = StrideEntry::new();
/// e.update(Addr::new(100));
/// e.update(Addr::new(104));
/// e.update(Addr::new(108));
/// assert_eq!(e.stride(), 4);
/// assert!(e.is_confident());
/// assert_eq!(e.predict(2), Some(Addr::new(116)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrideEntry {
    prev: Option<Addr>,
    stride: i64,
    /// 2-bit saturating confidence, as in hardware reference prediction
    /// tables (Table I allots 2 bits per entry).
    confidence: u8,
}

/// Confidence threshold above which predictions are trusted: one confirmed
/// repeat of the stride (i.e. three consistent addresses).
const CONFIDENT: u8 = 1;
/// Saturation value of the confidence counter.
const SATURATE: u8 = 3;

impl StrideEntry {
    /// A fresh, untrained entry.
    #[must_use]
    pub fn new() -> Self {
        StrideEntry::default()
    }

    /// Feeds the next observed address; trains stride and confidence.
    pub fn update(&mut self, addr: Addr) {
        match self.prev {
            None => {
                self.prev = Some(addr);
            }
            Some(prev) => {
                let observed = addr.raw() as i64 - prev.raw() as i64;
                if observed == self.stride && observed != 0 {
                    self.confidence = (self.confidence + 1).min(SATURATE);
                } else {
                    // One strike: lose confidence; retrain stride when flat.
                    if self.confidence > 0 {
                        self.confidence -= 1;
                    }
                    if self.confidence == 0 {
                        self.stride = observed;
                    }
                }
                self.prev = Some(addr);
            }
        }
    }

    /// The current stride estimate (0 until two updates arrive).
    #[must_use]
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Whether predictions are trustworthy.
    #[must_use]
    pub fn is_confident(&self) -> bool {
        self.confidence >= CONFIDENT && self.stride != 0
    }

    /// Predicted address `ahead` strides past the last observation, or
    /// `None` when untrained/unconfident.
    #[must_use]
    pub fn predict(&self, ahead: u64) -> Option<Addr> {
        if !self.is_confident() {
            return None;
        }
        let prev = self.prev?;
        let delta = self.stride.checked_mul(ahead as i64)?;
        let raw = prev.raw() as i64 + delta;
        (raw >= 0).then(|| Addr::new(raw as u64))
    }

    /// Last observed address.
    #[must_use]
    pub fn last(&self) -> Option<Addr> {
        self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_on_constant_stride() {
        let mut e = StrideEntry::new();
        for i in 0..4 {
            e.update(Addr::new(1000 + i * 64));
        }
        assert_eq!(e.stride(), 64);
        assert!(e.is_confident());
        assert_eq!(e.predict(1), Some(Addr::new(1000 + 4 * 64)));
    }

    #[test]
    fn loses_confidence_on_break() {
        let mut e = StrideEntry::new();
        for i in 0..4 {
            e.update(Addr::new(i * 8));
        }
        assert!(e.is_confident());
        e.update(Addr::new(10_000));
        e.update(Addr::new(99));
        assert!(!e.is_confident());
    }

    #[test]
    fn retrains_after_pattern_change() {
        let mut e = StrideEntry::new();
        for i in 0..4 {
            e.update(Addr::new(i * 8));
        }
        // New stride: needs confidence to drain then rebuild.
        for i in 0..8 {
            e.update(Addr::new(100_000 + i * 128));
        }
        assert_eq!(e.stride(), 128);
        assert!(e.is_confident());
    }

    #[test]
    fn no_prediction_untrained() {
        let mut e = StrideEntry::new();
        assert_eq!(e.predict(1), None);
        e.update(Addr::new(5));
        assert_eq!(e.predict(1), None);
    }

    #[test]
    fn negative_stride_predicts_downward() {
        let mut e = StrideEntry::new();
        for i in (0..6).rev() {
            e.update(Addr::new(1000 + i * 16));
        }
        assert_eq!(e.stride(), -16);
        assert_eq!(e.predict(1), Some(Addr::new(1000 - 16)));
    }

    #[test]
    fn prediction_never_negative() {
        let mut e = StrideEntry::new();
        for i in (0..6).rev() {
            e.update(Addr::new(i * 16));
        }
        // Last observation at 0; next prediction would be negative.
        assert_eq!(e.predict(1), None);
    }

    #[test]
    fn zero_stride_is_not_confident() {
        let mut e = StrideEntry::new();
        for _ in 0..5 {
            e.update(Addr::new(500));
        }
        assert!(!e.is_confident());
    }
}
