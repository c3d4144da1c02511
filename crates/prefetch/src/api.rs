//! The prefetcher interface driven by the NPU engine.

use nvr_common::{Cycle, Histogram};
use nvr_mem::MemorySystem;
use nvr_trace::{AccessEvent, MemoryImage, SnoopState};

/// Measured per-prefetch timeliness of one run: how the speculative fills
/// a prefetcher issued actually fared against the demand stream.
///
/// Reported by prefetchers that read it (NVR, in `nvr_core`), through
/// [`TimelinessReport::measure`]; [`Prefetcher::timeliness`] returns
/// `None` for the rest. Each count is one way an L2 prefetch life ends,
/// recorded once by the L2 (see [`nvr_mem::Cache`]), so the four add up
/// to the L2's `prefetch_issued` (less any speculative fill a
/// [`nvr_mem::RetentionPolicy::ScoredReuse`] L2 refused):
///
/// * **timely** — the first demand, at any level, found the serving
///   copy's fill complete;
/// * **late** — the first demand merged into the serving copy's
///   still-pending fill (the NPU waited part of the latency: coverage
///   without full benefit);
/// * **evicted unused** — the L2 evicted the line untouched (pollution),
///   even if the NSB still held a copy;
/// * **unresolved** — neither demanded nor evicted by the end of the run
///   (in flight or resident unused at finalisation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimelinessReport {
    /// Issue→first-use slack distribution, in cycles, over all used
    /// prefetches (timely and late).
    pub slack: Histogram,
    /// DRAM-channel queue delay (arrival → scheduled bus slot) of every
    /// speculative fill the channels accepted, in cycles — how much of a
    /// late fill was arbitration (demand preemption, bus backlog) rather
    /// than prediction distance.
    pub queue_delay: Histogram,
    /// Prefetches whose fill completed before the first demand touch.
    pub timely: u64,
    /// Prefetches demanded mid-fill.
    pub late: u64,
    /// Prefetches evicted without a demand touch.
    pub evicted_unused: u64,
    /// Prefetches with no observed outcome by end of run.
    pub unresolved: u64,
}

impl TimelinessReport {
    /// The report of the run `mem` simulated, read after
    /// [`MemorySystem::finalize`]: the L2's four prefetch-life counters
    /// and slack histogram, and the DRAM channels' merged queue delays.
    #[must_use]
    pub fn measure(mem: &MemorySystem) -> Self {
        let stats = mem.stats();
        let l2 = &stats.l2;
        TimelinessReport {
            slack: mem.prefetch_slack().clone(),
            queue_delay: stats.dram.queue_delay_merged(),
            timely: l2.prefetch_useful.get() - l2.prefetch_late.get(),
            late: l2.prefetch_late.get(),
            evicted_unused: l2.prefetch_evicted_unused.get(),
            unresolved: l2.prefetch_resident_unused.get(),
        }
    }

    /// Prefetches with a demand touch (timely + late).
    #[must_use]
    pub fn used(&self) -> u64 {
        self.timely + self.late
    }

    /// Fraction of used prefetches the demand had to wait on; 0 when
    /// nothing was used.
    #[must_use]
    pub fn late_fraction(&self) -> f64 {
        let used = self.used();
        if used == 0 {
            0.0
        } else {
            self.late as f64 / used as f64
        }
    }
}

/// A hardware prefetcher attached to the NPU's memory system.
///
/// The engine calls [`Prefetcher::observe`] for every demand access it
/// issues (the request/response bus a real prefetcher snoops), and
/// [`Prefetcher::advance`] to grant wall-clock windows in which the
/// prefetcher may perform speculative work and issue prefetches into `mem`.
///
/// # Honesty contract
///
/// Implementations must not look at future program state. Everything they
/// may use arrives through three channels:
///
/// 1. the demand-access event stream (`observe`),
/// 2. the snoopable architectural state (`snoop`) — and only the fields the
///    modelled hardware could see (each implementation documents which),
/// 3. *speculative memory reads*: index values read from `image`, but only
///    for lines the implementation has itself made resident (checked
///    through `mem`) — this is runahead execution, not oracle knowledge.
pub trait Prefetcher {
    /// Short display name ("Stream", "IMP", "DVR", "NVR").
    fn name(&self) -> &'static str;

    /// Observes one demand access event.
    ///
    /// `image` is available for reads of *resident* lines only (data the
    /// hardware has on-chip, e.g. index values ahead in an already-cached
    /// index line) — see the honesty contract above.
    fn observe(
        &mut self,
        event: &AccessEvent,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    );

    /// Performs speculative work during the window `[from, to)`.
    ///
    /// Called by the engine whenever simulated time passes; the prefetcher
    /// maintains its own internal clock within the window and may leave
    /// work pending for the next call.
    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    );

    /// Whether this prefetcher's fills also populate the NSB when the
    /// memory system has one (§IV-G: the NSB pays off only with accurate
    /// prefetchers). Informational: the engine never reads it, and each
    /// prefetcher decides its own fills (NVR fills whenever an NSB is
    /// present). It stays on the trait because the `perfbench/` package's
    /// timing wrapper implements it.
    fn fills_nsb(&self) -> bool {
        false
    }

    /// Called once after the program's last cycle, after the engine's
    /// [`MemorySystem::finalize`] and before results are read: a
    /// prefetcher that reports timeliness takes its
    /// [`TimelinessReport::measure`] here. No-op by default.
    fn finalize_run(&mut self, _mem: &mut MemorySystem) {}

    /// The measured per-prefetch timeliness of the finished run (taken by
    /// [`Prefetcher::finalize_run`]), for prefetchers that report it;
    /// `None` (the default) for those that do not.
    fn timeliness(&self) -> Option<TimelinessReport> {
        None
    }
}

/// The no-prefetching baseline (the paper's in-order / OoO "no prefetch"
/// configurations).
///
/// # Examples
///
/// ```
/// use nvr_prefetch::{NullPrefetcher, Prefetcher};
///
/// let p = NullPrefetcher::new();
/// assert_eq!(p.name(), "None");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the null prefetcher.
    #[must_use]
    pub fn new() -> Self {
        NullPrefetcher
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "None"
    }

    fn observe(&mut self, _: &AccessEvent, _: &SnoopState, _: &MemoryImage, _: &mut MemorySystem) {}

    fn advance(
        &mut self,
        _: Cycle,
        _: Cycle,
        _: &SnoopState,
        _: &MemoryImage,
        _: &mut MemorySystem,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetcher_is_inert() {
        use nvr_common::Addr;
        use nvr_mem::MemoryConfig;

        let mut p = NullPrefetcher::new();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let snoop = SnoopState {
            tile: 0,
            total_tiles: 1,
            index_base: Addr::new(0),
            elem_start: 0,
            elem_end: 0,
            elem_consumed: 0,
            gather: None,
        };
        let ev = AccessEvent::gather(0, Addr::new(0x40), true);
        p.observe(&ev, &snoop, &MemoryImage::new(), &mut mem);
        p.advance(0, 100, &snoop, &MemoryImage::new(), &mut mem);
        assert_eq!(mem.stats().dram.prefetch_lines.get(), 0);
        assert!(!p.fills_nsb());
    }
}
