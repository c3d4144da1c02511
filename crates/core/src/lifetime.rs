//! The DARE-style usefulness throttle's input: a rolling window over how
//! NVR's most recent prefetches ended.
//!
//! The controller's pipelined lookahead (see [`crate::controller`]) is only
//! safe to run deep if its speculation is actually being consumed: deep
//! windows that fill the L2 with lines the NPU never touches *add* misses
//! instead of hiding them. The L2 records each prefetch's life once (see
//! [`nvr_mem::Cache`]) — used at its first demand at any level, or evicted
//! unused — and keeps the ordered outcomes once NVR asks. The
//! [`LifetimeTracker`] folds them into a rolling wasted-prefetch ratio over
//! the most recent outcomes, which the controller compares against its
//! evicted-unused threshold (0.1 over the last 128 outcomes, constants in
//! [`crate::controller`]) to back its cross-tile
//! lookahead depth off — filtered runahead in the spirit of DARE's
//! usefulness-gated prefetch stream, where the throttle input is
//! *observed* usefulness rather than window extent. The run's
//! [`nvr_prefetch::TimelinessReport`] is read from the memory system at
//! the end of the run, not from here.
//!
//! Everything here is deterministic: outcomes arrive in simulation order
//! and the rolling window is a fixed-size FIFO, so identical runs throttle
//! identically regardless of host parallelism.

use std::collections::VecDeque;

use nvr_mem::MemorySystem;

/// A rolling window over the memory system's ordered prefetch outcomes.
///
/// # Examples
///
/// ```
/// use nvr_core::LifetimeTracker;
/// use nvr_common::LineAddr;
/// use nvr_mem::{MemoryConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// mem.record_prefetch_outcomes();
/// let line = LineAddr::new(7);
/// mem.prefetch_line(line, 0, false);
/// mem.demand_line(line, 1_000); // the prefetch's life ends used
/// let mut t = LifetimeTracker::new(2);
/// t.drain(&mut mem);
/// assert_eq!(t.rolling_wasted_ratio(), 0.0);
/// assert!(t.warmed_up()); // one outcome half-fills a window of two
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeTracker {
    /// Whether each of the most recent ended prefetches was wasted
    /// (evicted unused), oldest first.
    recent: VecDeque<bool>,
    /// Wasted entries currently in `recent`.
    recent_wasted: usize,
    /// Capacity of the rolling window.
    window: usize,
}

impl LifetimeTracker {
    /// Creates a tracker whose rolling usefulness window holds the last
    /// `window` ended prefetches (`window` is clamped to at least 1).
    #[must_use]
    pub fn new(window: usize) -> Self {
        LifetimeTracker {
            recent: VecDeque::with_capacity(window.max(1)),
            recent_wasted: 0,
            window: window.max(1),
        }
    }

    /// Folds in every prefetch outcome the memory system kept since the
    /// last call, oldest first.
    pub fn drain(&mut self, mem: &mut MemorySystem) {
        for wasted in mem.drain_prefetch_outcomes() {
            if self.recent.len() == self.window && self.recent.pop_front() == Some(true) {
                self.recent_wasted -= 1;
            }
            self.recent.push_back(wasted);
            self.recent_wasted += usize::from(wasted);
        }
    }

    /// Fraction of the rolling window's ended prefetches that were evicted
    /// unused; 0 until anything ends.
    #[must_use]
    pub fn rolling_wasted_ratio(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent_wasted as f64 / self.recent.len() as f64
        }
    }

    /// Whether the window has seen enough outcomes for the ratio to mean
    /// anything (at least half full).
    #[must_use]
    pub fn warmed_up(&self) -> bool {
        self.recent.len() * 2 >= self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::{Cycle, LineAddr};
    use nvr_mem::{MemoryConfig, PrefetchOutcome};
    use nvr_prefetch::TimelinessReport;

    fn issue(mem: &mut MemorySystem, line: LineAddr) -> Cycle {
        match mem.prefetch_line(line, 0, false) {
            PrefetchOutcome::Issued { fill_done } => fill_done,
            other => panic!("expected issue for {line}, got {other:?}"),
        }
    }

    #[test]
    fn exact_outcome_counts() {
        let cfg = MemoryConfig::default();
        let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways);
        let mut mem = MemorySystem::new(cfg);
        mem.record_prefetch_outcomes();
        let mut t = LifetimeTracker::new(16);
        // Three prefetches: one timely, one late, one evicted unused.
        let timely = LineAddr::new(1);
        let fill = issue(&mut mem, timely);
        mem.demand_line(timely, fill + 10);
        let late = LineAddr::new(2);
        let fill = issue(&mut mem, late);
        mem.demand_line(late, fill / 2);
        for k in 0..=ways {
            issue(&mut mem, LineAddr::new(3 + k * sets));
        }
        t.drain(&mut mem);
        assert!((t.rolling_wasted_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!t.warmed_up(), "three outcomes under-fill a window of 16");
        // A second drain finds nothing new: each life is folded once.
        t.drain(&mut mem);
        assert!((t.rolling_wasted_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.recent.len(), 3);
        assert_eq!(t.recent_wasted, 1);

        // The memory system's own record agrees with the window.
        mem.finalize();
        let r = TimelinessReport::measure(&mem);
        assert_eq!((r.timely, r.late, r.evicted_unused), (1, 1, 1));
        assert_eq!(r.used(), 2);
        assert!((r.late_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rolling_window_evicts_old_outcomes() {
        let cfg = MemoryConfig::default();
        let (sets, ways) = (cfg.l2.sets(), cfg.l2.ways);
        let mut mem = MemorySystem::new(cfg);
        mem.record_prefetch_outcomes();
        let mut t = LifetimeTracker::new(2);
        // One set over-filled by one prefetch: its first line is evicted
        // unused.
        for k in 0..=ways {
            mem.prefetch_line(LineAddr::new(k * sets), 0, false);
        }
        t.drain(&mut mem);
        assert_eq!(t.rolling_wasted_ratio(), 1.0);
        // Two used lines later, a window of two has forgotten the waste.
        for k in 1..3 {
            mem.demand_line(LineAddr::new(k * sets), 10_000);
        }
        t.drain(&mut mem);
        assert_eq!(t.rolling_wasted_ratio(), 0.0);
        assert!(t.warmed_up());
    }
}
