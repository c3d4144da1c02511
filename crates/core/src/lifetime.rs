//! Per-prefetch lifetime tracking and the DARE-style usefulness throttle.
//!
//! The controller's pipelined lookahead (see [`crate::controller`]) is only
//! safe to run deep if its speculation is actually being consumed: deep
//! windows that fill the L2 with lines the NPU never touches *add* misses
//! instead of hiding them. This module measures that directly. The memory
//! system records raw [`PrefetchLifeEvent`]s — issue, first demand use,
//! unused eviction — and the [`LifetimeTracker`] folds them into:
//!
//! * a [`TimelinessReport`]: the issue→use slack histogram plus measured
//!   timely / late / evicted-unused counts (fig. 6b's data), and
//! * a rolling wasted-prefetch ratio over the most recent resolved
//!   prefetches, which the controller compares against
//!   [`crate::NvrConfig::throttle_evicted_ratio`] to back its cross-tile
//!   lookahead depth off — filtered runahead in the spirit of DARE's
//!   usefulness-gated prefetch stream, where the throttle input is
//!   *observed* usefulness rather than window extent.
//!
//! Everything here is deterministic: events arrive in simulation order and
//! the rolling window is a fixed-size FIFO, so identical runs produce
//! bit-identical reports regardless of host parallelism.

use std::collections::VecDeque;

use nvr_common::FlatMap;
use nvr_mem::{MemorySystem, PrefetchLifeEvent};
use nvr_prefetch::TimelinessReport;

/// Folds the memory system's prefetch lifetime events into a timeliness
/// report and a rolling usefulness signal.
///
/// # Examples
///
/// ```
/// use nvr_core::LifetimeTracker;
/// use nvr_common::LineAddr;
/// use nvr_mem::PrefetchLifeEvent;
///
/// let mut t = LifetimeTracker::new(8);
/// let line = LineAddr::new(7);
/// t.ingest(PrefetchLifeEvent::Issued { line, at: 10, fill_done: 100, queue_delay: 4 });
/// t.ingest(PrefetchLifeEvent::FirstUse { line, at: 150, late: false });
/// let r = t.report();
/// assert_eq!(r.timely, 1);
/// assert_eq!(r.slack.sum(), 140); // issued at 10, used at 150
/// assert_eq!(r.queue_delay.sum(), 4); // channel arbitration delay
/// ```
#[derive(Debug, Clone)]
pub struct LifetimeTracker {
    /// Issue cycle of prefetches with no observed outcome yet, keyed by
    /// line index ([`FlatMap`]: deterministic, and cheap enough for the
    /// one-op-per-lifetime-event rate this sustains).
    pending: FlatMap,
    /// Accumulated outcome counts and the slack histogram.
    report: TimelinessReport,
    /// Whether each of the most recent resolved prefetches was wasted
    /// (evicted unused), oldest first.
    recent: VecDeque<bool>,
    /// Wasted entries currently in `recent`.
    recent_wasted: usize,
    /// Capacity of the rolling window.
    window: usize,
    /// Reusable drain buffer, exchanged with the memory system's event log
    /// each [`LifetimeTracker::drain`] so the steady state recycles two
    /// allocations instead of allocating a fresh log per drain.
    scratch: Vec<PrefetchLifeEvent>,
}

impl LifetimeTracker {
    /// Creates a tracker whose rolling usefulness window holds the last
    /// `window` resolved prefetches (`window` is clamped to at least 1).
    #[must_use]
    pub fn new(window: usize) -> Self {
        LifetimeTracker {
            pending: FlatMap::new(),
            report: TimelinessReport::default(),
            recent: VecDeque::with_capacity(window.max(1)),
            recent_wasted: 0,
            window: window.max(1),
            scratch: Vec::new(),
        }
    }

    /// Drains and ingests every lifetime event the memory system recorded
    /// since the last call.
    pub fn drain(&mut self, mem: &mut MemorySystem) {
        let mut buf = std::mem::take(&mut self.scratch);
        mem.swap_prefetch_life_events(&mut buf);
        for event in buf.drain(..) {
            self.ingest(event);
        }
        self.scratch = buf;
    }

    /// Ingests one lifetime event.
    pub fn ingest(&mut self, event: PrefetchLifeEvent) {
        match event {
            PrefetchLifeEvent::Issued {
                line,
                at,
                queue_delay,
                ..
            } => {
                // A re-issue after eviction restarts the line's life.
                self.pending.insert(line.index(), at);
                self.report.queue_delay.record(queue_delay);
            }
            PrefetchLifeEvent::FirstUse { line, at, late } => {
                if let Some(issued) = self.pending.remove(line.index()) {
                    self.report.slack.record(at.saturating_sub(issued));
                    if late {
                        self.report.late += 1;
                    } else {
                        self.report.timely += 1;
                    }
                    self.push_outcome(false);
                }
            }
            PrefetchLifeEvent::EvictedUnused { line, at: _ } => {
                if self.pending.remove(line.index()).is_some() {
                    self.report.evicted_unused += 1;
                    self.push_outcome(true);
                }
            }
        }
    }

    fn push_outcome(&mut self, wasted: bool) {
        if self.recent.len() == self.window && self.recent.pop_front() == Some(true) {
            self.recent_wasted -= 1;
        }
        self.recent.push_back(wasted);
        self.recent_wasted += usize::from(wasted);
    }

    /// Fraction of the rolling window's resolved prefetches that were
    /// evicted unused; 0 until anything resolves.
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

    /// Speculative lines currently outstanding: issued and neither
    /// demanded nor evicted yet. This is the prefetcher's *measured* L2
    /// footprint — the quantity the paper's lookahead-line budget is
    /// really about (element distance is only a proxy for it).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The accumulated report; `unresolved` counts prefetches still
    /// pending at the time of the call.
    #[must_use]
    pub fn report(&self) -> TimelinessReport {
        TimelinessReport {
            unresolved: self.pending.len() as u64,
            ..self.report.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::{Cycle, LineAddr};

    fn issued(i: u64, at: Cycle) -> PrefetchLifeEvent {
        PrefetchLifeEvent::Issued {
            line: LineAddr::new(i),
            at,
            fill_done: at + 100,
            queue_delay: 8,
        }
    }

    #[test]
    fn exact_outcome_counts() {
        let mut t = LifetimeTracker::new(16);
        // Three prefetches: one timely, one late, one evicted unused.
        t.ingest(issued(1, 0));
        t.ingest(issued(2, 10));
        t.ingest(issued(3, 20));
        t.ingest(PrefetchLifeEvent::FirstUse {
            line: LineAddr::new(1),
            at: 200,
            late: false,
        });
        t.ingest(PrefetchLifeEvent::FirstUse {
            line: LineAddr::new(2),
            at: 50,
            late: true,
        });
        t.ingest(PrefetchLifeEvent::EvictedUnused {
            line: LineAddr::new(3),
            at: 300,
        });
        let r = t.report();
        assert_eq!(
            (r.timely, r.late, r.evicted_unused, r.unresolved),
            (1, 1, 1, 0)
        );
        assert_eq!(r.queue_delay.count(), 3, "every issue records its delay");
        assert_eq!(r.queue_delay.sum(), 3 * 8);
        assert_eq!(r.slack.count(), 2);
        assert_eq!(r.slack.sum(), 200 + 40);
        assert_eq!(r.used(), 2);
        assert!((r.late_fraction() - 0.5).abs() < 1e-12);
        assert!((t.rolling_wasted_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unresolved_counts_pending() {
        let mut t = LifetimeTracker::new(4);
        t.ingest(issued(9, 5));
        assert_eq!(t.report().unresolved, 1);
        assert_eq!(t.rolling_wasted_ratio(), 0.0);
    }

    #[test]
    fn orphan_events_are_ignored() {
        let mut t = LifetimeTracker::new(4);
        // Use/eviction without a matching issue (e.g. events from before
        // the log was enabled) must not corrupt the counts.
        t.ingest(PrefetchLifeEvent::FirstUse {
            line: LineAddr::new(1),
            at: 10,
            late: false,
        });
        t.ingest(PrefetchLifeEvent::EvictedUnused {
            line: LineAddr::new(2),
            at: 10,
        });
        let r = t.report();
        assert_eq!((r.timely, r.late, r.evicted_unused), (0, 0, 0));
    }

    #[test]
    fn rolling_window_evicts_old_outcomes() {
        let mut t = LifetimeTracker::new(2);
        for i in 0..3 {
            t.ingest(issued(i, 0));
        }
        // First outcome wasted, next two used: window of 2 forgets the
        // wasted one.
        t.ingest(PrefetchLifeEvent::EvictedUnused {
            line: LineAddr::new(0),
            at: 1,
        });
        assert_eq!(t.rolling_wasted_ratio(), 1.0);
        for i in 1..3 {
            t.ingest(PrefetchLifeEvent::FirstUse {
                line: LineAddr::new(i),
                at: 2,
                late: false,
            });
        }
        assert_eq!(t.rolling_wasted_ratio(), 0.0);
        assert!(t.warmed_up());
    }

    #[test]
    fn reissue_after_eviction_restarts_life() {
        let mut t = LifetimeTracker::new(4);
        t.ingest(issued(5, 0));
        t.ingest(PrefetchLifeEvent::EvictedUnused {
            line: LineAddr::new(5),
            at: 10,
        });
        t.ingest(issued(5, 1000));
        t.ingest(PrefetchLifeEvent::FirstUse {
            line: LineAddr::new(5),
            at: 1100,
            late: false,
        });
        let r = t.report();
        assert_eq!((r.timely, r.evicted_unused), (1, 1));
        assert_eq!(r.slack.sum(), 100, "slack measured from the re-issue");
    }
}
