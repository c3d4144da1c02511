//! The NVR controller: pipelined cross-tile runahead orchestration
//! (§III, §IV-A/C).
//!
//! The controller monitors CPU and NPU state via the snoopers and, whenever
//! the sparse-operators unit is idle, runs a *pipelined lookahead engine*
//! over future tiles: up to [`NvrConfig::lookahead_tiles`] speculative
//! windows are in flight at once, each stepping through the phases
//!
//! 1. **window sizing** — a window opens at the coverage cursor with the
//!    LBD's predicted length (the fuzzy-stretched average of the snooped
//!    tile windows), clipped at the LBD's estimated end of the index
//!    array;
//! 2. **index fetch** (`FetchIndex`) — the window's index lines are
//!    prefetched, with one window-length of stream-ahead (the SD's W/index
//!    stream), the moment the window opens, and the window then waits for
//!    the fills — real speculative execution, never oracle access;
//! 3. **chain resolution** (`Resolve`) — the PIE evaluates `sparse_func`
//!    on the fetched index values, `vector_width` lanes per cycle,
//!    scheduling intermediate table probes for two-level chains
//!    (`ProbeWait`);
//! 4. **vector issue** — resolved target lines drain through the VMIG,
//!    which accumulates a full vector (`VMIG_BATCH_LINES`, 32 lines) while
//!    resolution is flowing and flushes whenever the thread blocks or runs
//!    dry, filling L2 (and the NSB when configured). The
//!    issue stage paces on *per-channel* occupancy of the multi-channel
//!    DRAM backend: a line whose channel's prefetch queue is full defers
//!    in place instead of being rejected at the channel, so speculative
//!    traffic back-pressures per channel rather than dropping.
//!
//! The pipeline decouples the phases *across* windows, with the two sides
//! of a window's life held to different leashes:
//!
//! * **Index side, deep.** The next window opens — and its index lines
//!   issue — as soon as the previous window's index lines have been
//!   **issued**, not resolved, up to [`NvrConfig::lookahead_tiles`]
//!   windows of reach past the consumer. Opening costs only a handful of
//!   sequential line fetches, and those fetches drain through the VIGU
//!   queue behind the current window's targets instead of bursting onto
//!   the DRAM channel (a same-cycle burst of a window's worth of index
//!   lines used to queue in front of in-flight target fills and turn
//!   them late). While window *k* waits for its fills, windows
//!   *k+1..k+d* are already in flight.
//! * **Target side, shallow.** A fetched window may enter `Resolve` only
//!   once its start is within one [`NvrConfig::lookahead_lines`] budget
//!   of the NPU's consumption pointer, so the expensive, cache-filling
//!   target stream trickles just ahead of demand instead of flooding the
//!   L2 the moment a window opens.
//!
//! This closes the dead gaps at tile boundaries that the
//! one-window-at-a-time episode loop left: prefetches for tile *t+1*
//! used to start only after tile *t* fully resolved, arriving late
//! (`prefetch_late`) on bandwidth-hungry workloads like GCN and GSA-BT.
//!
//! The lookahead is kept honest by a DARE-style usefulness throttle fed
//! by how each prefetch's L2 life ended (first use or unused eviction —
//! see [`crate::lifetime`]): when the rolling evicted-unused ratio over
//! the last `THROTTLE_WINDOW` (128) ended prefetches crosses
//! `THROTTLE_EVICTED_RATIO` (0.1), the effective depth collapses to a
//! single window until the speculation is being consumed again, and
//! once *any* waste has been observed, oversized window
//! predictions are chunked down to the reach budget so the speculative
//! footprint stays inside what the L2 demonstrably holds until use.
//!
//! All work is paced by an internal clock that only moves inside the
//! `[from, to)` windows the engine grants — the NPU's index and gather
//! waits and the compute phase after the sparse unit's alignment — so
//! NVR's speculation consumes exactly the slack resources the paper
//! claims (§III Q&A1, Q&A3).

use std::collections::VecDeque;

use nvr_common::{Addr, Cycle, LineAddr, Region};
use nvr_mem::MemorySystem;
use nvr_prefetch::{Prefetcher, TimelinessReport};
use nvr_trace::{AccessEvent, EventKind, MemoryImage, SnoopState, SparseFunc};

use crate::config::{NvrConfig, TriggerPolicy};
use crate::lifetime::LifetimeTracker;
use crate::loop_bound::{LoopBoundDetector, Window};
use crate::reuse::ReusePredictor;
use crate::vmig::Vmig;

/// Line capacity of one VIGU vector operation (§IV-F). Each of the 16 PIE
/// lanes resolves one gather target per cycle, and a target row may
/// straddle a line boundary, so the issued vector carries up to 32 line
/// addresses. Collapsing this to 16 lines throttles VMIG drain on
/// multi-line rows and under-reports the paper's miss coverage. It stays
/// 32 when the ablations vary [`NvrConfig::vector_width`].
const VMIG_BATCH_LINES: usize = 32;

/// DARE-style usefulness throttle: when the rolling ratio of
/// evicted-unused prefetches over the last [`THROTTLE_WINDOW`] ended
/// prefetches crosses this threshold, the effective lookahead depth
/// collapses back to 1, recovering as the ratio drops. A rolling window
/// where more than one prefetch in ten is evicted untouched means the
/// pipeline is churning the L2 (GCN-class turnover) and pipelined opens
/// stop paying for themselves.
const THROTTLE_EVICTED_RATIO: f64 = 0.1;

/// Ended-prefetch capacity of the throttle's rolling window: half the
/// default line budget, so a fully wasted window is noticed within one
/// lookahead depth's worth of outcomes.
const THROTTLE_WINDOW: usize = 128;

/// Progress of one speculative window in the lookahead pipeline.
#[derive(Debug, Clone)]
enum Phase {
    /// Index lines prefetched; waiting until `ready` before reading values.
    FetchIndex { window: Window, ready: Cycle },
    /// Reading values / evaluating `sparse_func` group by group.
    Resolve { window: Window, next_elem: u64 },
    /// Two-level chains: waiting for probe fills of the current group.
    ProbeWait {
        window: Window,
        next_elem: u64,
        probes: Vec<Addr>,
        ready: Cycle,
    },
}

impl Phase {
    /// The element window this phase works on.
    fn window(&self) -> Window {
        match *self {
            Phase::FetchIndex { window, .. }
            | Phase::Resolve { window, .. }
            | Phase::ProbeWait { window, .. } => window,
        }
    }

    /// The cycle this window is waiting for, if it is blocked on a fill.
    fn blocked_until(&self) -> Option<Cycle> {
        match *self {
            Phase::FetchIndex { ready, .. } | Phase::ProbeWait { ready, .. } => Some(ready),
            Phase::Resolve { .. } => None,
        }
    }
}

/// What the runahead thread accomplished in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// Useful work happened (fetch issued, group resolved, window opened).
    Worked,
    /// Blocked on a speculative fill until the given cycle.
    Blocked(Cycle),
    /// No work available (depth bound reached or kernel exhausted).
    Idle,
}

/// The NVR prefetcher (see module docs).
///
/// # Examples
///
/// ```
/// use nvr_core::{NvrConfig, NvrPrefetcher};
/// use nvr_prefetch::Prefetcher;
///
/// let nvr = NvrPrefetcher::new(NvrConfig::default());
/// assert!(nvr.fills_nsb()); // whenever the memory system has an NSB
/// ```
#[derive(Debug, Clone)]
pub struct NvrPrefetcher {
    cfg: NvrConfig,
    lbd: LoopBoundDetector,
    /// The last snooped sparse function (the sparse unit's gather
    /// registers, §IV-D): resolves every speculative gather target.
    func: Option<SparseFunc>,
    vmig: Vmig,
    lifetime: LifetimeTracker,
    /// The run's timeliness, measured by [`Prefetcher::finalize_run`].
    timeliness: TimelinessReport,
    /// Per-line reuse scoring over resolved targets, feeding the NSB's
    /// DARE-style admission (active only when
    /// [`NvrConfig::nsb_admit_min_reuse`] is non-zero and the memory
    /// system has an NSB).
    reuse: ReusePredictor,
    clock: Cycle,
    /// In-flight speculative windows, oldest first (the lookahead
    /// pipeline). Capacity is the throttled effective depth.
    windows: VecDeque<Phase>,
    /// Whether prefetches also fill the NSB (§IV-G): set on each
    /// `advance` to whether the memory system has one.
    fill_nsb: bool,
    current_tile: usize,
    miss_seen_in_tile: bool,
    /// Monotone element-space cursor: everything below it has either been
    /// demanded by the NPU or already resolved by runahead. Guarantees each
    /// index element is speculatively executed at most once, so restarted
    /// runahead never re-floods the cache with shifted re-predictions.
    covered_until: u64,
    /// Scratch for one resolve group's index values, reused across steps.
    scratch_values: Vec<u32>,
    /// Scratch for one resolve group's scored target lines, reused across
    /// steps (drained into the VIGU each use).
    scratch_bundle: Vec<(LineAddr, u32)>,
    /// Arena of probe-address buffers recycled between `ProbeWait` phases:
    /// a retired window's buffer is cleared and reused by the next
    /// two-level group instead of allocating per group.
    probe_pool: Vec<Vec<Addr>>,
    /// Advance-loop turns taken over the run: the cycles the loop
    /// simulated one by one rather than skipped.
    turns: u64,
}

impl NvrPrefetcher {
    /// Creates an NVR instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NvrConfig::validate`].
    #[must_use]
    pub fn new(cfg: NvrConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "init-time config validation in the constructor, outside the tick loop"
        )]
        cfg.validate().expect("nvr config must be valid");
        let mut vmig = Vmig::new(VMIG_BATCH_LINES);
        vmig.set_nsb_admit(cfg.nsb_admit_min_reuse);
        NvrPrefetcher {
            lbd: LoopBoundDetector::new(cfg.fuzzy_factor),
            func: None,
            vmig,
            lifetime: LifetimeTracker::new(THROTTLE_WINDOW),
            timeliness: TimelinessReport::default(),
            reuse: ReusePredictor::new(),
            clock: 0,
            windows: VecDeque::with_capacity(cfg.lookahead_tiles),
            fill_nsb: false,
            current_tile: 0,
            miss_seen_in_tile: false,
            covered_until: 0,
            scratch_values: Vec::new(),
            scratch_bundle: Vec::new(),
            probe_pool: Vec::new(),
            turns: 0,
            cfg,
        }
    }

    /// The VMIG issue statistics (vectors, lines, mean pack width).
    #[must_use]
    pub fn vmig(&self) -> &Vmig {
        &self.vmig
    }

    /// Advance-loop turns taken over the run, one per simulated cycle
    /// that the event-driven ticking did not skip.
    #[must_use]
    pub fn turns(&self) -> u64 {
        self.turns
    }

    /// Whether reuse scoring is active: fills target the NSB *and* the
    /// admission threshold is non-zero. When inactive every line carries
    /// score 0 and the memory side behaves exactly as pure LRU.
    fn scoring_active(&self) -> bool {
        self.fill_nsb && self.cfg.nsb_admit_min_reuse > 0
    }

    /// Whether *unscored* single-use traffic (index stream lines,
    /// two-level intermediate probes) should fill the NSB. With scoring
    /// active it must not: those lines are consumed once by the runahead
    /// thread itself, and letting them compete for the NSB's 256 lines is
    /// precisely the thrash the admission threshold exists to stop.
    fn bulk_fill_nsb(&self) -> bool {
        self.fill_nsb && !self.scoring_active()
    }

    /// The current lookahead depth after the usefulness throttle: the
    /// configured [`NvrConfig::lookahead_tiles`] while the rolling
    /// evicted-unused ratio stays at or below `THROTTLE_EVICTED_RATIO`
    /// (0.1); 1 (the single-window
    /// episode loop) once it crosses — DARE-style filtering by observed
    /// usefulness rather than window extent.
    #[must_use]
    pub fn effective_depth(&self) -> usize {
        let d = self.cfg.lookahead_tiles;
        if d > 1
            && self.lifetime.warmed_up()
            && self.lifetime.rolling_wasted_ratio() > THROTTLE_EVICTED_RATIO
        {
            1
        } else {
            d
        }
    }

    /// Element-space lookahead bound: how far past the NPU's consumption
    /// pointer the next window may start — the line budget in elements,
    /// so the reach adapts to row width (fat rows get shallow lookahead,
    /// thin rows deep). This is deliberately *not* scaled by the pipeline
    /// depth: the pipeline parallelises windows inside this fixed budget
    /// (overlapping their index fetches and resolution), it does not
    /// extend the speculative footprint — extending it floods the L2 and
    /// the DRAM channel on turnover-heavy workloads (GCN, MK) faster than
    /// any throttle can react.
    fn max_ahead_elems(&self) -> u64 {
        let row_lines = self
            .func
            .map_or(1, |f| f.row_bytes().div_ceil(nvr_common::LINE_BYTES).max(1));
        (self.cfg.lookahead_lines as u64 / row_lines).max(self.cfg.vector_width as u64)
    }

    /// Opens the next speculative window at the coverage cursor — issuing
    /// its index-line fetch immediately — bounded in element space by the
    /// lookahead line budget scaled to the effective pipeline depth, and
    /// clipped at the kernel's estimated end (LBD) so fixed-distance
    /// overrun cannot happen.
    fn try_start(&mut self, snoop: &SnoopState, mem: &mut MemorySystem) -> bool {
        let len = if self.cfg.use_lbd {
            self.lbd.predicted_len()
        } else {
            (self.cfg.vector_width * 4) as u64
        };
        if len == 0 {
            return false;
        }
        let start = self.covered_until;
        let max_ahead = self.max_ahead_elems();
        // Opening a window costs only its index-line fetch (a handful of
        // sequential lines), so the *open* bound reaches `lookahead_tiles`
        // windows of budget ahead; the FetchIndex -> Resolve transition is
        // gated separately on the one-budget reach below, which is what
        // actually paces the (expensive, cache-filling) target stream.
        if start >= snoop.elem_consumed + max_ahead * self.effective_depth() as u64 {
            return false;
        }
        // Adaptive chunking: once the tracker has seen *any* of our
        // speculation evicted unused, oversized predictions are cut down
        // to the reach budget, so the pipeline (small windows overlapping
        // index fetch and resolution) is the unit of lookahead and the
        // speculative footprint stays inside what the L2 demonstrably
        // holds until use (GCN's turnover). While the waste ratio is
        // exactly zero, predictions keep their natural size — the
        // overshoot past the budget is whole-batch coverage that a chunk
        // boundary would forfeit for free (GSA-BT's block tails).
        let len = if len > max_ahead
            && self.lifetime.warmed_up()
            && self.lifetime.rolling_wasted_ratio() > 0.0
        {
            max_ahead.max(self.cfg.vector_width as u64)
        } else {
            len
        };
        let mut end = start + len;
        if self.cfg.use_lbd {
            if let Some(array_end) = self.lbd.estimated_end(snoop.total_tiles) {
                if start >= array_end {
                    return false;
                }
                end = end.min(array_end);
            }
        }
        let window = Window { start, end };
        // Commit the coverage immediately so a mid-tile reset cannot
        // re-predict (and re-flood) the same element range.
        self.covered_until = window.end;
        // Pipelined open: the index fetch issues *now*, so the next window
        // can open as soon as this one's lines are in flight — fills of
        // consecutive windows overlap instead of serialising.
        let ready = self.fetch_index_lines(window, snoop, mem);
        self.windows.push_back(Phase::FetchIndex { window, ready });
        true
    }

    /// Issues index-line prefetches for `window`, plus one window-length of
    /// stream-ahead (§IV-B: the W/index stream keeps flowing ahead of
    /// resolution, so the next window's FetchIndex finds its lines
    /// resident instead of paying a serialised DRAM round trip). Returns
    /// the fill-ready cycle of the window's own lines.
    fn fetch_index_lines(
        &mut self,
        window: Window,
        snoop: &SnoopState,
        mem: &mut MemorySystem,
    ) -> Cycle {
        let start = snoop.index_elem_addr(window.start);
        let bytes = window.len() * 4;
        let region = Region::new(start, bytes);
        let mut ready = self.clock;
        let mut last_line = None;
        for line in region.lines() {
            // The window's own lines are fetched (or waited on)
            // unconditionally — stream-ahead may have only *queued* a line
            // in the VIGU without issuing it yet, and a window must never
            // resolve against lines that were never fetched.
            // `prefetch_line` is redundancy-safe, and a still-queued
            // duplicate is dropped later by the VIGU's residency filter.
            last_line = Some(line);
            match mem.prefetch_line(line, self.clock, self.bulk_fill_nsb()) {
                nvr_mem::PrefetchOutcome::Issued { fill_done } => ready = ready.max(fill_done),
                nvr_mem::PrefetchOutcome::Redundant => {
                    // Already resident or in flight (e.g. from stream-ahead):
                    // wait for its actual fill, not zero.
                    if let Some(t) = mem.line_ready_time(line, self.clock) {
                        ready = ready.max(t);
                    }
                }
                nvr_mem::PrefetchOutcome::Dropped => {}
            }
        }
        // Stream-ahead: the next window's index lines. Their fill time is
        // not urgent (they only need to be in flight before that window
        // resolves), so they drain through the VIGU queue behind the
        // current window's targets instead of bursting onto the channel
        // here — a same-cycle burst of a window's worth of index lines
        // used to queue in front of in-flight target fills and turn them
        // late. They ride outside the VIGU's vector accounting: a
        // sequential index run is not a PIE-resolved gather vector. A
        // window that ends mid-line shares that line with the stream
        // ahead, which must not queue it again (the "last prefetch addr"
        // field of Table I's SD entry).
        let ahead = Region::new(region.end(), bytes);
        self.vmig
            .push_stream(ahead.lines().filter(|&line| Some(line) != last_line));
        ready
    }

    /// One cycle of runahead-thread work. Returns what the thread did so
    /// the advance loop can overlap VMIG issue with blocked waits.
    ///
    /// Priorities per cycle: retire fully-resolved windows (free — they
    /// hold no hardware), open the next window while a pipeline slot is
    /// free (its index fetch issues immediately), then give the shared PIE
    /// to the *oldest* window with data ready. A cycle where every window
    /// is waiting on fills reports the earliest wake-up so the advance
    /// loop can fast-forward.
    fn step(
        &mut self,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) -> StepOutcome {
        self.windows.retain(|phase| match phase {
            Phase::Resolve { window, next_elem } => *next_elem < window.end,
            Phase::FetchIndex { .. } | Phase::ProbeWait { .. } => true,
        });
        // Open the next window only while the VIGU backlog is shallow:
        // resolved lines the memory system has not accepted yet mean the
        // prefetch stream is already ahead of the channel, and opening
        // deeper windows would only queue speculative traffic in front of
        // demand fetches on the shared DRAM channel.
        let backlog_ok = self.vmig.pending() < 2 * VMIG_BATCH_LINES;
        if backlog_ok && self.windows.len() < self.effective_depth() && self.try_start(snoop, mem) {
            return StepOutcome::Worked;
        }
        let resolve_limit = snoop.elem_consumed.saturating_add(self.max_ahead_elems());
        let mut next_ready: Option<Cycle> = None;
        for i in 0..self.windows.len() {
            // A fetched window parks until its start is inside the target
            // reach: its index lines may fly ahead, its target stream may
            // not (no wake-up time — the NPU's progress at the next
            // advance window unblocks it).
            if let Phase::FetchIndex { window, .. } = &self.windows[i] {
                if window.start >= resolve_limit {
                    continue;
                }
            }
            match self.windows[i].blocked_until() {
                Some(ready) if ready > self.clock => {
                    next_ready = Some(next_ready.map_or(ready, |r| r.min(ready)));
                }
                _ => return self.progress_window(i, snoop, image, mem),
            }
        }
        match next_ready {
            Some(ready) => StepOutcome::Blocked(ready),
            None => StepOutcome::Idle,
        }
    }

    /// Advances window `i` (whose data is ready) by one pipeline stage.
    fn progress_window(
        &mut self,
        i: usize,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) -> StepOutcome {
        // Move the phase out (every arm returns a fresh one) instead of
        // cloning it — `ProbeWait` carries a probe Vec, and cloning it made
        // every step of a two-level window an allocation.
        let placeholder = Phase::Resolve {
            window: Window { start: 0, end: 0 },
            next_elem: 0,
        };
        let phase = std::mem::replace(&mut self.windows[i], placeholder);
        self.windows[i] = match phase {
            // Skip straight past anything the NPU demanded while the fill
            // was in flight.
            Phase::FetchIndex { window, .. } => Phase::Resolve {
                window,
                next_elem: window.start.max(snoop.elem_consumed.min(window.end)),
            },
            Phase::Resolve { window, next_elem } => {
                let group_end = (next_elem + self.cfg.vector_width as u64).min(window.end);
                let mut values = std::mem::take(&mut self.scratch_values);
                values.clear();
                values.extend(
                    (next_elem..group_end).map(|e| image.read_u32(snoop.index_elem_addr(e))),
                );
                let phase = if let Some(func) = self.func.filter(SparseFunc::is_two_level) {
                    // Schedule probe fills for the group, into a recycled
                    // probe buffer from the arena.
                    let mut probes = self.probe_pool.pop().unwrap_or_default();
                    probes.clear();
                    let mut ready = self.clock;
                    for probe in values.iter().filter_map(|&v| func.probe(v)) {
                        if let nvr_mem::PrefetchOutcome::Issued { fill_done } =
                            mem.prefetch_line(probe.line(), self.clock, self.bulk_fill_nsb())
                        {
                            ready = ready.max(fill_done);
                        }
                        probes.push(probe);
                    }
                    Phase::ProbeWait {
                        window,
                        next_elem: group_end,
                        probes,
                        ready,
                    }
                } else {
                    self.push_targets(values.iter().copied());
                    Phase::Resolve {
                        window,
                        next_elem: group_end,
                    }
                };
                self.scratch_values = values;
                phase
            }
            Phase::ProbeWait {
                window,
                next_elem,
                mut probes,
                ..
            } => {
                self.push_targets(probes.iter().map(|&probe| image.read_u32(probe)));
                // Return the consumed probe buffer to the arena.
                probes.clear();
                self.probe_pool.push(probes);
                Phase::Resolve { window, next_elem }
            }
        };
        StepOutcome::Worked
    }

    /// Resolves the gather target of each of `keys` (index values, or the
    /// slots two-level probes read) and queues its lines on the VIGU as
    /// one vector. Each line is scored by how often the window machinery
    /// has touched it: hub rows resolved by many neighbouring windows earn
    /// admission to the NSB, cold rows stay L2-only (scores all-zero when
    /// scoring is inactive, reproducing unscored behaviour exactly).
    fn push_targets(&mut self, keys: impl Iterator<Item = u32>) {
        let Some(func) = self.func else {
            return;
        };
        let scoring = self.scoring_active();
        let mut bundle = std::mem::take(&mut self.scratch_bundle);
        bundle.clear();
        for key in keys {
            for line in func.row(key).lines() {
                let score = if scoring { self.reuse.observe(line) } else { 0 };
                bundle.push((line, score));
            }
        }
        self.vmig.push_bundle_scored(bundle.drain(..));
        self.scratch_bundle = bundle;
    }
}

impl Prefetcher for NvrPrefetcher {
    fn name(&self) -> &'static str {
        "NVR"
    }

    fn fills_nsb(&self) -> bool {
        true
    }

    fn finalize_run(&mut self, mem: &mut MemorySystem) {
        self.timeliness = TimelinessReport::measure(mem);
    }

    fn timeliness(&self) -> Option<TimelinessReport> {
        Some(self.timeliness.clone())
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        _snoop: &SnoopState,
        _image: &MemoryImage,
        _mem: &mut MemorySystem,
    ) {
        match event.kind {
            EventKind::GatherLoad if event.missed => {
                self.miss_seen_in_tile = true;
            }
            EventKind::IndexLoad { .. } | EventKind::GatherLoad | EventKind::TableProbe => {}
        }
    }

    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        // Ask the memory system to keep its prefetch outcomes (a no-op
        // after the first window) and fill the NSB if the NPU has one
        // (§IV-G); then fold every outcome kept since the last window into
        // the tracker — the throttle input.
        mem.record_prefetch_outcomes();
        self.fill_nsb = mem.has_nsb();
        self.lifetime.drain(mem);
        // Snoop ingestion is free (hardware registers).
        if snoop.window_len() > 0 {
            self.lbd
                .observe(snoop.tile, snoop.elem_start, snoop.elem_end);
        }
        if let Some(g) = snoop.gather {
            self.func = Some(g.func);
        }
        // The NPU has demand-loaded everything up to its progress pointer.
        self.covered_until = self.covered_until.max(snoop.elem_consumed);
        if snoop.tile != self.current_tile {
            self.current_tile = snoop.tile;
            self.miss_seen_in_tile = false;
        }
        // Abandon windows the NPU has already demand-loaded past, and
        // fast-forward paced windows over elements the NPU consumed while
        // they were parked — resolving those would prefetch lines the
        // demand stream has already fetched (pure waste), and it is the
        // ROB-head progress register that says so, not oracle knowledge.
        self.windows
            .retain(|phase| phase.window().end > snoop.elem_consumed);
        for phase in &mut self.windows {
            if let Phase::Resolve { window, next_elem } = phase {
                *next_elem = (*next_elem).max(snoop.elem_consumed.min(window.end));
            }
        }
        self.clock = self.clock.max(from);
        if self.cfg.trigger == TriggerPolicy::OnStall && !self.miss_seen_in_tile {
            return;
        }

        // Per cycle: the VIGU issue port drains one vector while the
        // runahead thread (sparse unit + PIE) makes independent progress —
        // they are separate hardware units. The VIGU accumulates a *full*
        // vector (`VMIG_BATCH_LINES`) while resolution is flowing — partial
        // issue would fragment the speculative MSHR file across undersized
        // vectors — and flushes whenever the thread blocks or runs dry.
        while self.clock < to {
            self.turns += 1;
            let flowing = self
                .windows
                .iter()
                .any(|phase| matches!(phase, Phase::Resolve { .. }));
            let mut issued = if self.vmig.pending() >= VMIG_BATCH_LINES || !flowing {
                self.vmig.issue(mem, self.clock, self.fill_nsb) > 0
            } else {
                false
            };
            let outcome = self.step(snoop, image, mem);
            // Dead turn: after an issue the thread did no work, so no
            // window is resolving and the next turn's VIGU tries to issue
            // again. With the speculative MSHR file full at the next cycle
            // it issues nothing, and unless a blocked window wakes exactly
            // then, its step repeats this one. Take that turn as taken: its
            // wake-up below is this turn's outcome with nothing issued.
            let next = self.clock + 1;
            if issued
                && next < to
                && outcome != StepOutcome::Worked
                && outcome != StepOutcome::Blocked(next)
                && !mem.prefetch_ready(next)
            {
                self.clock = next;
                issued = false;
            }
            // Event-driven ticking: a cycle where the thread cannot progress
            // (`Blocked`/`Idle`) and the VIGU issued nothing is *provably
            // repeatable* — a zero-line issue pass leaves the queue holding
            // only deferred (channel-full) or slot-starved lines, the
            // residency filter is time-independent, and no window becomes
            // ready before the reported wake-up — so the clock jumps
            // straight to the earliest event that can change anything: the
            // blocking fill, a speculative-MSHR completion, or a channel
            // queue position opening (`next_prefetch_wakeup`). The skipped
            // cycles would each have re-walked the queue and re-scanned the
            // windows to do nothing.
            let wake = match outcome {
                StepOutcome::Worked => None,
                StepOutcome::Blocked(_) | StepOutcome::Idle if issued => None,
                StepOutcome::Idle if self.vmig.is_empty() => break,
                StepOutcome::Blocked(until) if self.vmig.is_empty() => Some(until),
                StepOutcome::Blocked(until) => Some(
                    mem.next_prefetch_wakeup(self.clock)
                        .map_or(until, |w| w.min(until)),
                ),
                StepOutcome::Idle => mem.next_prefetch_wakeup(self.clock),
            };
            self.clock = wake.map_or(self.clock + 1, |w| w.min(to).max(self.clock + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::{DataWidth, Region};
    use nvr_mem::MemoryConfig;
    use nvr_npu::{NpuConfig, NpuEngine};
    use nvr_prefetch::NullPrefetcher;
    use nvr_trace::{GatherDesc, NpuProgram, SparseFunc, TileOp};

    /// A gather-heavy program over a large IA space (mostly cold misses
    /// without prefetching).
    fn sparse_program(tiles_n: usize, per_tile: usize) -> NpuProgram {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let n = tiles_n * per_tile;
        let indices: Vec<u32> = (0..n)
            .map(|i| MemoryImage::background(Addr::new(i as u64 * 4)) % (1 << 18))
            .collect();
        image.add_u32_segment(index_base, indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let tiles: Vec<TileOp> = (0..tiles_n)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(
                    index_base.offset((i * per_tile) as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 200,
                store_bytes: 0,
            })
            .collect();
        NpuProgram {
            name: "nvr-unit".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        }
    }

    /// Stream-ahead never queues the index line a window shares with it:
    /// the window's own fetch already covers that line.
    #[test]
    fn duplicate_prefetch_suppressed() {
        let mut nvr = NvrPrefetcher::new(NvrConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let snoop = SnoopState {
            tile: 0,
            total_tiles: 1,
            index_base: Addr::new(0x10_0000),
            elem_start: 0,
            elem_end: 64,
            elem_consumed: 0,
            gather: None,
        };
        // Elements [0, 24) end mid-line: their 96 bytes span index lines
        // 0 and 1, and the 96 bytes of stream-ahead span lines 1 and 2.
        nvr.fetch_index_lines(Window { start: 0, end: 24 }, &snoop, &mut mem);
        assert_eq!(nvr.vmig.pending(), 1, "only line 2 streams ahead");
        // Elements [32, 48) fill line 2 exactly; line 3 streams ahead.
        nvr.fetch_index_lines(Window { start: 32, end: 48 }, &snoop, &mut mem);
        assert_eq!(nvr.vmig.pending(), 2);
    }

    /// Before the sparse unit's gather registers are snooped, runahead
    /// still fetches index lines but resolves no gather target.
    #[test]
    fn untrained_predicts_nothing() {
        let mut image = MemoryImage::new();
        image.add_u32_segment(Addr::new(0x10_0000), (0..256).collect());
        let snoop = |gather| SnoopState {
            tile: 0,
            total_tiles: 4,
            index_base: Addr::new(0x10_0000),
            elem_start: 0,
            elem_end: 64,
            elem_consumed: 0,
            gather,
        };
        let run = |gather| {
            let mut nvr = NvrPrefetcher::new(NvrConfig::default());
            let mut mem = MemorySystem::new(MemoryConfig::default());
            nvr.advance(0, 20_000, &snoop(gather), &image, &mut mem);
            (
                mem.stats().l2.prefetch_issued.get(),
                nvr.vmig().vectors_issued(),
            )
        };
        let (issued, vectors) = run(None);
        assert!(issued > 0, "index lines are fetched");
        assert_eq!(vectors, 0, "no target without a snooped function");
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let (_, vectors) = run(Some(GatherDesc { func, batch: 16 }));
        assert!(vectors > 0, "a snooped function resolves targets");
    }

    #[test]
    fn nvr_beats_no_prefetch_end_to_end() {
        let program = sparse_program(32, 64);
        let engine = NpuEngine::new(NpuConfig::default());

        let mut mem_base = MemorySystem::new(MemoryConfig::default());
        let base = engine.run(&program, &mut mem_base, &mut NullPrefetcher::new());

        let mut mem_nvr = MemorySystem::new(MemoryConfig::default());
        let mut nvr = NvrPrefetcher::new(NvrConfig::default());
        let with_nvr = engine.run(&program, &mut mem_nvr, &mut nvr);

        assert!(
            with_nvr.total_cycles * 2 < base.total_cycles,
            "NVR {} vs baseline {}",
            with_nvr.total_cycles,
            base.total_cycles
        );
        // Misses visible to the NPU collapse.
        assert!(
            with_nvr.gather_element_misses * 3 < base.gather_element_misses,
            "NVR misses {} vs baseline {}",
            with_nvr.gather_element_misses,
            base.gather_element_misses
        );
    }

    #[test]
    fn nvr_accuracy_is_high_on_uniform_tiles() {
        let program = sparse_program(32, 64);
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut nvr = NvrPrefetcher::new(NvrConfig::default());
        let _ = engine.run(&program, &mut mem, &mut nvr);
        let acc = mem.stats().prefetch_accuracy();
        assert!(acc > 0.85, "accuracy {acc} should exceed 0.85");
    }

    #[test]
    fn vmig_packs_multiple_lines_per_vector() {
        let program = sparse_program(16, 64);
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut nvr = NvrPrefetcher::new(NvrConfig::default());
        let _ = engine.run(&program, &mut mem, &mut nvr);
        assert!(
            nvr.vmig().mean_pack_width() > 2.0,
            "pack width {}",
            nvr.vmig().mean_pack_width()
        );
    }

    #[test]
    fn disabling_lbd_hurts_accuracy() {
        let program = sparse_program(32, 64);
        let engine = NpuEngine::new(NpuConfig::default());

        let mut mem_lbd = MemorySystem::new(MemoryConfig::default());
        let mut with_lbd = NvrPrefetcher::new(NvrConfig::default());
        let _ = engine.run(&program, &mut mem_lbd, &mut with_lbd);

        let mut mem_no = MemorySystem::new(MemoryConfig::default());
        let mut without = NvrPrefetcher::new(NvrConfig {
            use_lbd: false,
            ..NvrConfig::default()
        });
        let _ = engine.run(&program, &mut mem_no, &mut without);

        assert!(
            mem_lbd.stats().prefetch_accuracy() >= mem_no.stats().prefetch_accuracy(),
            "LBD {} vs no-LBD {}",
            mem_lbd.stats().prefetch_accuracy(),
            mem_no.stats().prefetch_accuracy()
        );
    }

    #[test]
    fn on_stall_trigger_is_less_effective() {
        let program = sparse_program(32, 64);
        let engine = NpuEngine::new(NpuConfig::default());

        let mut mem_load = MemorySystem::new(MemoryConfig::default());
        let mut on_load = NvrPrefetcher::new(NvrConfig::default());
        let r_load = engine.run(&program, &mut mem_load, &mut on_load);

        let mut mem_stall = MemorySystem::new(MemoryConfig::default());
        let mut on_stall = NvrPrefetcher::new(NvrConfig {
            trigger: TriggerPolicy::OnStall,
            ..NvrConfig::default()
        });
        let r_stall = engine.run(&program, &mut mem_stall, &mut on_stall);

        assert!(
            r_load.total_cycles <= r_stall.total_cycles,
            "on-load {} should be <= on-stall {}",
            r_load.total_cycles,
            r_stall.total_cycles
        );
    }

    /// NSB pays off when sparse rows are *reused* (§IV-G: implicit cache
    /// line reuse): resident rows then hit at NSB latency instead of L2
    /// latency.
    #[test]
    fn nsb_fill_reduces_npu_latency_on_reuse() {
        use nvr_mem::CacheConfig;
        // Hot set of 128 rows (8 KB) — fits the 16 KB NSB.
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let tiles_n = 32usize;
        let per_tile = 64usize;
        let indices: Vec<u32> = (0..(tiles_n * per_tile))
            .map(|i| MemoryImage::background(Addr::new(i as u64 * 4)) % 128)
            .collect();
        image.add_u32_segment(index_base, indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let tiles: Vec<TileOp> = (0..tiles_n)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(
                    index_base.offset((i * per_tile) as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 50,
                store_bytes: 0,
            })
            .collect();
        let program = NpuProgram {
            name: "nsb-reuse".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        let engine = NpuEngine::new(NpuConfig::default());

        let mut mem_plain = MemorySystem::new(MemoryConfig::default());
        let mut plain = NvrPrefetcher::new(NvrConfig::default());
        let r_plain = engine.run(&program, &mut mem_plain, &mut plain);

        let nsb_cfg = MemoryConfig::default().with_nsb(CacheConfig::nsb_default());
        let mut mem_nsb = MemorySystem::new(nsb_cfg);
        let mut with_nsb = NvrPrefetcher::new(NvrConfig::default());
        let r_nsb = engine.run(&program, &mut mem_nsb, &mut with_nsb);

        assert!(
            r_nsb.total_cycles < r_plain.total_cycles,
            "NSB {} vs plain {}",
            r_nsb.total_cycles,
            r_plain.total_cycles
        );
    }
}
