//! Non-blocking set-associative cache with timestamp-forwarded fills.

use std::hint::select_unpredictable;

use nvr_common::{Cycle, Histogram, LineAddr};

use crate::completion::CompletionFile;
use crate::config::{CacheConfig, RetentionPolicy};
use crate::stats::CacheStats;

/// Result of probing a cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The line is resident and filled; data usable after the hit latency.
    Hit {
        /// Cycle at which the data is usable.
        ready_at: Cycle,
    },
    /// The line is being filled by an outstanding request; the access merges
    /// into the pending fill (MSHR coalescing).
    InFlight {
        /// Cycle at which the pending fill completes.
        ready_at: Cycle,
    },
    /// The line is absent; the caller must fetch it from the next level.
    Miss,
}

/// Tag of a never-filled way. No line maps to it: line indices are byte
/// addresses shifted down by the line-size log, so they, and the tags
/// derived from them, stay far below `u64::MAX`. A filled way is never
/// invalidated, so the tag lane alone decides residency.
const NO_TAG: u64 = u64::MAX;
/// Per-way provenance bit in the SoA `flags` lane: the fill was initiated
/// by a prefetch.
const F_PREFETCH: u8 = 1 << 0;
/// Whether a demand access touched the line since its fill.
const F_DEMANDED: u8 = 1 << 1;
/// Fingerprint of a never-filled way and of a fingerprint row's padding.
/// Every tag's fingerprint has its high bit set, so none equals this one.
const NO_FP: u8 = 0;
/// Fingerprints matched per `u64` word; each set's row of the `fps` lane
/// is padded to a multiple of it.
const FP_LANES: usize = 8;
/// Every byte of a word holding 1.
const BYTE_ONES: u64 = u64::from_le_bytes([1; FP_LANES]);
/// The low seven bits of every byte of a word.
const LOW7: u64 = 0x7F * BYTE_ONES;
/// The high bit of every byte of a word.
const HIGH: u64 = 0x80 * BYTE_ONES;

/// `tag`'s fingerprint in the `fps` lane: the top 7 bits of a
/// multiplicative hash, which every tag bit reaches, under a set high bit.
#[inline]
fn fingerprint(tag: u64) -> u8 {
    0x80 | (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as u8
}

/// One resolved tag lookup of a line in a [`Cache`]: its set and tag, and
/// its SoA slot when resident or in flight.
///
/// The hierarchy looks each level up once per call and hands the result
/// to the slot-taking methods ([`Cache::probe_slot`], [`Cache::install_at`],
/// [`Cache::ready_at`], [`Cache::refresh_reuse_at`]). A slot stays valid
/// until its cache installs another line, which never happens between the
/// lookup and its uses inside one hierarchy call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    set: usize,
    tag: u64,
    /// SoA index of the line's way, if resident or in flight.
    way: Option<usize>,
}

impl Slot {
    /// Whether the line is resident or in flight.
    pub(crate) fn found(&self) -> bool {
        self.way.is_some()
    }
}

/// The weaker of a way's ranked (score, `last_use`, way) entry and the
/// best one so far, chosen without a branch: which wins is data-dependent,
/// so a branch would mispredict. On a full tie `best` stays, so the
/// earlier way wins.
#[inline]
fn weaker(way: (u64, u64, usize), best: (u64, u64, usize)) -> (u64, u64, usize) {
    let key =
        |(score, last_use, _): (u64, u64, usize)| (u128::from(score) << 64) | u128::from(last_use);
    select_unpredictable(key(way) < key(best), way, best)
}

/// A non-blocking set-associative cache level.
///
/// Fills are modelled by timestamps: [`Cache::install`] records the cycle at
/// which a line's data arrives, and later probes to that line before the
/// fill completes report [`ProbeResult::InFlight`] — exactly the behaviour a
/// miss-status holding register file provides in hardware.
///
/// MSHR capacity is enforced on the ascending file of pending fill
/// completions: [`Cache::mshr_available`] and [`Cache::mshr_free_at`] each
/// read the one entry that decides them, so demand accesses stall (and
/// NSB fills are skipped) when the file is full, as in §IV-F–G of the
/// paper.
///
/// # Layout
///
/// Way metadata lives in dense structure-of-arrays form: parallel vectors
/// (`tags`, `fill_done`, `issued_at`, `last_use`, `reuse`, `flags`), each
/// indexed by `set * ways + way`. Never-filled ways hold a sentinel tag no
/// line maps to, so the `tags` lane alone decides residency — one tightly
/// packed array, with no per-set `Vec` indirection on the hot path.
///
/// A lookup reads one more lane first: `fps`, one fingerprint byte per way
/// (7 hashed tag bits under a set high bit, 0 for a never-filled way),
/// indexed by `set * fp_stride + way`, with each set's row zero-padded to
/// `fp_stride`, a multiple of 8 ways. It matches 8 fingerprints per `u64`
/// and compares the full tag only of the ways whose fingerprint matches,
/// so a lookup usually makes one tag compare on a hit and none on a miss.
///
/// # Prefetch lives
///
/// A prefetched line's way records its one life, which begins when the
/// fill is installed and ends exactly once: **used** at its first demand
/// (here, or at a level above through [`MemorySystem`]'s NSB path; late
/// when the serving copy was still filling), **evicted unused**, or
/// **resident unused** at [`Cache::finalize_stats`]. The four
/// `prefetch_useful` / `prefetch_late` / `prefetch_evicted_unused` /
/// `prefetch_resident_unused` counters are those ends, the slack
/// histogram holds each used life's issue→use cycles, and the ordered
/// used/wasted outcomes are kept once
/// [`MemorySystem::record_prefetch_outcomes`] asks.
///
/// [`MemorySystem`]: crate::MemorySystem
/// [`MemorySystem::record_prefetch_outcomes`]: crate::MemorySystem::record_prefetch_outcomes
///
/// # Examples
///
/// ```
/// use nvr_mem::{Cache, CacheConfig, ProbeResult};
/// use nvr_common::LineAddr;
///
/// let mut cache = Cache::new(CacheConfig::l2_default());
/// let line = LineAddr::new(0x40);
/// assert_eq!(cache.probe(line, 0, true), ProbeResult::Miss);
/// cache.install(line, 100, false, 0);
/// assert!(matches!(cache.probe(line, 50, true), ProbeResult::InFlight { .. }));
/// assert!(matches!(cache.probe(line, 200, true), ProbeResult::Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: usize,
    n_sets: u64,
    /// `n_sets - 1` when the set count is a power of two (the usual
    /// geometry), letting the per-lookup `%`/`/` pair collapse to mask and
    /// shift; `u64::MAX` marks the division fallback.
    set_mask: u64,
    /// `log2(n_sets)` when the set count is a power of two.
    set_shift: u32,
    /// SoA way metadata, indexed by `set * ways + way`; [`NO_TAG`] marks a
    /// never-filled way.
    tags: Vec<u64>,
    /// Length of a set's row in `fps`: `ways` rounded up to [`FP_LANES`].
    fp_stride: usize,
    /// Each way's tag [`fingerprint`], indexed by `set * fp_stride + way`;
    /// [`NO_FP`] for a never-filled way and for a row's padding.
    fps: Vec<u8>,
    /// Cycle at which each way's fill completes; `<= now` means filled.
    fill_done: Vec<Cycle>,
    /// Cycle each way's fill was installed: a prefetch life's issue cycle.
    issued_at: Vec<Cycle>,
    /// LRU timestamps.
    last_use: Vec<Cycle>,
    /// Predicted-reuse scores under [`RetentionPolicy::ScoredReuse`]: how
    /// many more demand touches the producer expects for the line. Decays
    /// by one per demand hit and ages on rejected fills; always 0 under
    /// [`RetentionPolicy::Lru`].
    reuse: Vec<u32>,
    /// Provenance bits (`F_PREFETCH | F_DEMANDED`); 0 for never-filled ways.
    flags: Vec<u8>,
    /// Completion cycles of outstanding demand fills (the MSHR file).
    inflight: CompletionFile,
    stats: CacheStats,
    /// Issue→use slack, in cycles, of every prefetch life that ended used.
    slack: Histogram,
    /// How prefetch lives ended, oldest first (`true`: evicted unused),
    /// kept only once a consumer asked (`None` costs nothing).
    outcomes: Option<Vec<bool>>,
    /// Lines placed into a way so far. Lines become resident only here,
    /// so a line absent while this count holds stays absent.
    fills: u64,
    /// Tag lookups so far, for the one-lookup-per-level invariant test.
    #[cfg(test)]
    lookups: std::cell::Cell<u64>,
    /// Full-tag compares so far, made by lookups on fingerprint matches.
    #[cfg(test)]
    tag_compares: std::cell::Cell<u64>,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`]; callers
    /// configuring from user input should validate first.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a geometry whose line count overflows usize could not be allocated"
    )]
    pub fn new(cfg: CacheConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "init-time config validation in the constructor, outside the tick loop"
        )]
        cfg.validate().expect("cache config must be valid");
        let sets = cfg.sets();
        let slots = (sets * cfg.ways) as usize;
        let (set_mask, set_shift) = if sets.is_power_of_two() {
            (sets - 1, sets.trailing_zeros())
        } else {
            (u64::MAX, 0)
        };
        let fp_stride = (cfg.ways as usize).next_multiple_of(FP_LANES);
        Cache {
            ways: cfg.ways as usize,
            n_sets: sets,
            set_mask,
            set_shift,
            tags: vec![NO_TAG; slots],
            fp_stride,
            fps: vec![NO_FP; sets as usize * fp_stride],
            fill_done: vec![0; slots],
            issued_at: vec![0; slots],
            last_use: vec![0; slots],
            reuse: vec![0; slots],
            flags: vec![0; slots],
            inflight: CompletionFile::with_capacity(cfg.mshr_entries),
            stats: CacheStats::new(cfg.name),
            slack: Histogram::new(),
            outcomes: None,
            fills: 0,
            #[cfg(test)]
            lookups: std::cell::Cell::new(0),
            #[cfg(test)]
            tag_compares: std::cell::Cell::new(0),
            cfg,
        }
    }

    /// Starts keeping the order in which prefetch lives end. Idempotent;
    /// outcomes accumulate until drained with [`Cache::drain_outcomes`],
    /// so only a consumer that drains regularly (NVR's usefulness
    /// throttle, once per `advance`) should ask.
    pub(crate) fn record_outcomes(&mut self) {
        self.outcomes.get_or_insert_with(Vec::new);
    }

    /// The prefetch outcomes kept since the last drain, oldest first:
    /// `false` for a life that ended used, `true` for one evicted unused.
    /// Empty until [`Cache::record_outcomes`].
    pub(crate) fn drain_outcomes(&mut self) -> impl Iterator<Item = bool> + '_ {
        self.outcomes.iter_mut().flat_map(|log| log.drain(..))
    }

    /// Issue→first-use slack, in cycles, of every prefetch life that ended
    /// used.
    pub(crate) fn prefetch_slack(&self) -> &Histogram {
        &self.slack
    }

    /// Whether way `i` holds a prefetched line whose life has not ended.
    fn undemanded_prefetch(&self, i: usize) -> bool {
        self.flags[i] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH
    }

    /// Ends way `i`'s prefetch life as used by a demand at `now`, late when
    /// the copy that served the demand was still filling.
    fn prefetch_used(&mut self, i: usize, now: Cycle, late: bool) {
        self.flags[i] |= F_DEMANDED;
        self.stats.prefetch_useful.inc();
        self.stats.prefetch_late.add(u64::from(late));
        self.slack.record(now.saturating_sub(self.issued_at[i]));
        if let Some(log) = &mut self.outcomes {
            log.push(false);
        }
    }

    /// Ends the prefetch life of `line`'s copy, if it is still undemanded,
    /// as used by a demand that a level above this cache served at `now`
    /// (late when that level's copy was still filling). The copy's LRU
    /// stamp, score and fill time stay as they are.
    pub(crate) fn used_above(&mut self, line: LineAddr, now: Cycle, late: bool) {
        if let Some(i) = self.lookup(line).way {
            if self.undemanded_prefetch(i) {
                self.prefetch_used(i, now, late);
            }
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lines placed into a way so far (refills of a resident line and
    /// rejected scored fills do not count). Evictions only remove lines,
    /// so a line seen absent stays absent until this count moves.
    pub(crate) fn fills(&self) -> u64 {
        self.fills
    }

    /// Resolves `line`'s set, tag and way — the one tag lookup per level
    /// that each hierarchy call makes. Power-of-two set counts split the
    /// line index by mask and shift; other counts divide. The way comes
    /// from the fingerprint match of [`Cache::find`]; debug builds check
    /// it against a scan of the set's tag lane.
    #[inline]
    pub(crate) fn lookup(&self, line: LineAddr) -> Slot {
        #[cfg(test)]
        self.lookups.set(self.lookups.get() + 1);
        let (set, tag) = if self.set_mask != u64::MAX {
            (line.index() & self.set_mask, line.index() >> self.set_shift)
        } else {
            (line.index() % self.n_sets, line.index() / self.n_sets)
        };
        debug_assert_ne!(tag, NO_TAG, "{line:?} maps to the never-filled tag");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "set < n_sets, and n_sets * ways slots are allocated"
        )]
        let set = set as usize;
        let way = self.find(set, tag);
        debug_assert_eq!(
            way,
            (set * self.ways..(set + 1) * self.ways).find(|&i| self.tags[i] == tag),
            "fingerprint lookup of {line:?} disagrees with the tag scan"
        );
        Slot { set, tag, way }
    }

    /// The SoA index of the way of `set` that holds `tag`, if any.
    ///
    /// Each `u64` of the set's fingerprint row holds 8 ways' fingerprints.
    /// XOR with the probe's fingerprint in every byte zeroes the bytes of
    /// matching ways, and an exact zero-byte test (no borrow between
    /// bytes) marks them. Only a marked way's full tag is compared. A line
    /// occupies at most one way, so the first verified match is the line's,
    /// and on a hit the search stops there.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let row = &self.fps[set * self.fp_stride..(set + 1) * self.fp_stride];
        let probe = u64::from(fingerprint(tag)) * BYTE_ONES;
        for (word, lanes) in row.chunks_exact(FP_LANES).enumerate() {
            let diff = u64::from_le_bytes(lanes.try_into().unwrap_or([NO_FP; FP_LANES])) ^ probe;
            // A byte's high bit ends up set unless the byte was zero.
            let mut matches = !(((diff & LOW7) + LOW7) | diff) & HIGH;
            while matches != 0 {
                let i = base + word * FP_LANES + (matches.trailing_zeros() / 8) as usize;
                #[cfg(test)]
                self.tag_compares.set(self.tag_compares.get() + 1);
                if self.tags[i] == tag {
                    return Some(i);
                }
                matches &= matches - 1;
            }
        }
        None
    }

    /// Tag lookups so far.
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Looks up `line` at cycle `now`. `is_demand` controls statistics and
    /// the `demanded` mark used for prefetch-usefulness accounting.
    pub fn probe(&mut self, line: LineAddr, now: Cycle, is_demand: bool) -> ProbeResult {
        let slot = self.lookup(line);
        self.probe_slot(slot, now, is_demand)
    }

    /// [`Cache::probe`] at an already resolved slot.
    pub(crate) fn probe_slot(&mut self, slot: Slot, now: Cycle, is_demand: bool) -> ProbeResult {
        let hit_latency = self.cfg.hit_latency;
        let Some(i) = slot.way else {
            if is_demand {
                self.stats.demand_misses.inc();
            }
            return ProbeResult::Miss;
        };
        self.last_use[i] = now;
        let filled = self.fill_done[i] <= now;
        if is_demand {
            if self.undemanded_prefetch(i) {
                self.prefetch_used(i, now, !filled);
            }
            self.flags[i] |= F_DEMANDED;
            // Each consumption spends one unit of predicted reuse, so a
            // line whose forecast is exhausted becomes evictable again
            // (no-op under LRU, where scores are always 0).
            self.reuse[i] = self.reuse[i].saturating_sub(1);
        }
        if filled {
            if is_demand {
                self.stats.demand_hits.inc();
            }
            ProbeResult::Hit {
                ready_at: now + hit_latency,
            }
        } else {
            if is_demand {
                self.stats.mshr_merges.inc();
            }
            ProbeResult::InFlight {
                ready_at: self.fill_done[i].max(now + hit_latency),
            }
        }
    }

    /// Whether the line is resident or in flight, without disturbing LRU
    /// state or statistics. Used by prefetchers to test redundancy.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lookup(line).found()
    }

    /// Cycle at which `line`'s data is (or becomes) available, if resident,
    /// without touching LRU state or statistics.
    #[must_use]
    pub fn ready_time(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.ready_at(self.lookup(line), now)
    }

    /// [`Cache::ready_time`] at an already resolved slot.
    pub(crate) fn ready_at(&self, slot: Slot, now: Cycle) -> Option<Cycle> {
        slot.way.map(|i| self.fill_done[i].max(now))
    }

    /// Whether a new fill can be accepted at `now`: fewer than
    /// `mshr_entries` fills are pending.
    #[must_use]
    pub fn mshr_available(&self, now: Cycle) -> bool {
        self.inflight.pending_below(self.cfg.mshr_entries, now)
    }

    /// Earliest cycle at which an MSHR slot is free: `now` when a slot is
    /// free already, otherwise the completion that leaves fewer than
    /// `mshr_entries` fills pending. Under an out-of-order burst the file
    /// can hold more fills than it has entries; that completion is then
    /// not the soonest one.
    #[must_use]
    pub fn mshr_free_at(&self, now: Cycle) -> Cycle {
        self.inflight.free_at(self.cfg.mshr_entries, now)
    }

    /// Installs `line` with its data arriving at `fill_done`, allocating an
    /// MSHR entry and evicting the LRU way if needed.
    ///
    /// Prefetch fills (`from_prefetch`) do not occupy this cache's MSHR
    /// file — they are tracked by the dedicated speculative MSHR file of
    /// the hierarchy (§IV-G), so demand and speculation do not contend for
    /// miss-tracking slots.
    ///
    /// The caller is responsible for having checked [`Cache::mshr_available`]
    /// for demand fills.
    pub fn install(&mut self, line: LineAddr, fill_done: Cycle, from_prefetch: bool, now: Cycle) {
        let slot = self.lookup(line);
        self.install_at(slot, fill_done, from_prefetch, now, 0);
    }

    /// [`Cache::install`] for a speculative fill that carries a
    /// predicted-reuse score for [`RetentionPolicy::ScoredReuse`] victim
    /// selection. Returns whether the fill was accepted: a scored
    /// cache *shrinks* instead of evicting when every resident line's
    /// score is at least the incoming one, and the rejected fill never
    /// becomes resident (counted in `retention_rejected`). Always accepted
    /// under [`RetentionPolicy::Lru`].
    pub fn install_speculative_scored(
        &mut self,
        line: LineAddr,
        fill_done: Cycle,
        now: Cycle,
        reuse: u32,
    ) -> bool {
        let slot = self.lookup(line);
        self.install_at(slot, fill_done, true, now, reuse)
    }

    /// Installs the line of an already resolved `slot` — the body of every
    /// install form. A resident line is refilled in place; otherwise the
    /// level's policy picks a victim way in the slot's set.
    pub(crate) fn install_at(
        &mut self,
        slot: Slot,
        fill_done: Cycle,
        from_prefetch: bool,
        now: Cycle,
        reuse: u32,
    ) -> bool {
        if let Some(i) = slot.way {
            // Refill of a resident line (e.g. prefetch after demand raced in).
            self.fill_done[i] = self.fill_done[i].min(fill_done);
            self.last_use[i] = now;
            self.reuse[i] = self.reuse[i].max(reuse);
            if !from_prefetch {
                self.track_fill(fill_done, now);
            }
            return true;
        }

        // Victim selection happens *before* any bookkeeping so a rejected
        // scored fill leaves the cache (MSHRs, prefetch lives, stats other
        // than the rejection counter) untouched.
        let base = slot.set * self.ways;
        let victim = match self.cfg.policy {
            RetentionPolicy::Lru => self.pick_victim(base, now),
            RetentionPolicy::ScoredReuse => match self.pick_victim_scored(base, now, reuse) {
                Ok(i) => i,
                Err(shrink) => {
                    self.stats.retention_rejected.inc();
                    // Age the weakest resident so a stream of rejections
                    // deterministically drains a stale hot set.
                    self.reuse[shrink] = self.reuse[shrink].saturating_sub(1);
                    return false;
                }
            },
            // Always admit; the shrink arm's "weakest resident" becomes
            // the victim instead of a rejection. No active-window
            // protection here: with rejection off the table, sparing
            // un-demanded speculative lines would only displace the
            // eviction onto demanded-hot residents — worse than letting
            // score order decide.
            RetentionPolicy::ScoredEvict => self.pick_victim_weakest(base, now),
        };

        if !from_prefetch {
            self.track_fill(fill_done, now);
        }
        if self.tags[victim] != NO_TAG {
            self.stats.evictions.inc();
            if self.undemanded_prefetch(victim) {
                self.stats.prefetch_evicted_unused.inc();
                if let Some(log) = &mut self.outcomes {
                    log.push(true);
                }
            }
        }
        self.fills += 1;
        self.tags[victim] = slot.tag;
        self.fps[slot.set * self.fp_stride + (victim - base)] = fingerprint(slot.tag);
        self.fill_done[victim] = fill_done;
        self.issued_at[victim] = now;
        self.last_use[victim] = now;
        self.reuse[victim] = reuse;
        self.flags[victim] = if from_prefetch { F_PREFETCH } else { 0 };
        true
    }

    /// Records a demand fill completing at `fill_done` in the MSHR file,
    /// first dropping the fills completed by `now`.
    fn track_fill(&mut self, fill_done: Cycle, now: Cycle) {
        self.inflight.retire(now);
        self.inflight.insert(fill_done);
    }

    /// LRU victim of the set at SoA offset `base`: the first never-filled
    /// way, else the least recently used way whose fill completed (so
    /// in-flight fills are not silently clobbered), else — every way
    /// mid-fill, which is pathological — the least recently used way.
    /// Returns a SoA slot index.
    ///
    /// One branch-free pass finds the first-minimum `last_use` way: which
    /// way is older is data-dependent, so a branch would mispredict. When
    /// that way is filled it is also the filled LRU, so the fill-state
    /// filter runs only when it is mid-fill.
    fn pick_victim(&self, base: usize, now: Cycle) -> usize {
        let end = base + self.ways;
        let last_use = &self.last_use[base..end];
        let fill_done = &self.fill_done[base..end];
        if let Some(w) = self.first_unfilled(base) {
            return base + w;
        }
        let mut lru = (0, last_use[0]);
        for (w, &used) in last_use.iter().enumerate().skip(1) {
            // Strictly less keeps the earliest way on ties, matching an
            // LRU scan in way order.
            lru = select_unpredictable(used < lru.1, (w, used), lru);
        }
        let (lru, _) = lru;
        if fill_done[lru] <= now {
            return base + lru;
        }
        let mut filled_lru: Option<usize> = None;
        for w in 0..last_use.len() {
            if fill_done[w] <= now && filled_lru.is_none_or(|b| last_use[w] < last_use[b]) {
                filled_lru = Some(w);
            }
        }
        base + filled_lru.unwrap_or(lru)
    }

    /// The first never-filled way of the set at `base`, if any. Victims
    /// take the first never-filled way and a filled way is never
    /// invalidated, so never-filled ways form a suffix of the set: a set
    /// whose last way is filled has none.
    fn first_unfilled(&self, base: usize) -> Option<usize> {
        let tags = &self.tags[base..base + self.ways];
        if tags[tags.len() - 1] != NO_TAG {
            return None;
        }
        tags.iter().position(|&t| t == NO_TAG)
    }

    /// Victim selection under [`RetentionPolicy::ScoredReuse`] — the
    /// buffets-style explicitly-managed fill/shrink decision:
    ///
    /// 1. an invalid way is always filled;
    /// 2. a filled way whose score is exhausted (`reuse == 0`) is evicted
    ///    LRU-first — identical to what [`RetentionPolicy::Lru`] would do,
    ///    which is why all-zero scores reproduce LRU bit for bit;
    /// 3. otherwise the weakest *evictable* resident (min score, LRU
    ///    tie-break) is evicted only if the incoming score strictly beats
    ///    it — else the fill is rejected (`Err` carries the weakest way so
    ///    the caller can age it). A speculative line that has not yet seen
    ///    its demand and still carries score is an **active-window line** —
    ///    the runahead thread only resolves targets inside the lookahead
    ///    horizon, so its demand is imminent — and never competes for
    ///    eviction; letting a freshly pinned hub clobber it converts a
    ///    timely prefetch into a demand miss. When every filled way is such
    ///    a line the fill is rejected and the weakest ages, so a set full of
    ///    mispredicted "imminent" lines drains deterministically.
    ///
    /// One pass ([`Cache::weakest`]) ranks both the weakest filled way and
    /// the weakest evictable one. Case 2 is the weakest filled way having
    /// score 0 (an exhausted way outranks every scored one). The
    /// all-mid-fill pathological case falls back to [`Cache::pick_victim`]'s
    /// plain-LRU behaviour. Returns SoA slot indices.
    fn pick_victim_scored(&self, base: usize, now: Cycle, incoming: u32) -> Result<usize, usize> {
        if let Some(w) = self.first_unfilled(base) {
            return Ok(base + w);
        }
        let (Some(filled), evictable) = self.weakest(base, now) else {
            return Ok(self.pick_victim(base, now));
        };
        if self.reuse[base + filled] == 0 {
            return Ok(base + filled);
        }
        match evictable {
            None => Err(base + filled),
            Some(w) if incoming > self.reuse[base + w] => Ok(base + w),
            Some(w) => Err(base + w),
        }
    }

    /// Victim selection under [`RetentionPolicy::ScoredEvict`]: the first
    /// never-filled way, else the weakest filled way (min score, LRU
    /// tie-break) — an exhausted way first, as under
    /// [`RetentionPolicy::ScoredReuse`] — else, every way mid-fill, plain
    /// LRU. No way is protected and no fill is refused. Returns a SoA slot
    /// index.
    fn pick_victim_weakest(&self, base: usize, now: Cycle) -> usize {
        if let Some(w) = self.first_unfilled(base) {
            return base + w;
        }
        self.weakest(base, now)
            .0
            .map_or_else(|| self.pick_victim(base, now), |w| base + w)
    }

    /// The weakest filled way of the set at `base` and its weakest
    /// evictable way (filled and not an active-window line), ranked by
    /// minimum score, then least recent use, then way order; indices within
    /// the set, `None` when no way qualifies.
    ///
    /// One branch-free pass ranks every way on an exact (score, `last_use`)
    /// key, with the score widened to `u64` so that `u64::MAX`, above any
    /// score, marks a way a ranking excludes.
    fn weakest(&self, base: usize, now: Cycle) -> (Option<usize>, Option<usize>) {
        let end = base + self.ways;
        let (flags, fill_done) = (&self.flags[base..end], &self.fill_done[base..end]);
        let (reuse, last_use) = (&self.reuse[base..end], &self.last_use[base..end]);
        let none = (u64::MAX, u64::MAX, 0);
        let (mut filled, mut evictable) = (none, none);
        for w in 0..reuse.len() {
            let pending = fill_done[w] > now;
            let score = select_unpredictable(pending, u64::MAX, u64::from(reuse[w]));
            filled = weaker((score, last_use[w], w), filled);
            let active = flags[w] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH;
            let score = select_unpredictable(active, u64::MAX, score);
            evictable = weaker((score, last_use[w], w), evictable);
        }
        let way = |(score, _, w): (u64, u64, usize)| (score != u64::MAX).then_some(w);
        (way(filled), way(evictable))
    }

    /// Raises the predicted-reuse score of the line at a resolved `slot`
    /// to at least `reuse` — how a *redundant* scored prefetch keeps a hot
    /// line pinned: later runahead windows re-observe the line with a
    /// larger remaining-touch forecast, and without the refresh the score
    /// would only ever decay (one per demand hit) until the line became
    /// evictable mid-stream. A no-op under [`RetentionPolicy::Lru`]
    /// (scores must stay 0 for the LRU-equivalence invariant) and for an
    /// absent line.
    pub(crate) fn refresh_reuse_at(&mut self, slot: Slot, reuse: u32) {
        if self.cfg.policy == RetentionPolicy::Lru {
            return;
        }
        if let Some(i) = slot.way {
            self.reuse[i] = self.reuse[i].max(reuse);
        }
    }

    /// Counts resident prefetched-but-never-demanded lines into the stats.
    ///
    /// Call once at the end of a simulation so that accuracy denominators
    /// include prefetches that were still resident (and unused) at the end.
    pub fn finalize_stats(&mut self) {
        // Never-filled ways carry no flags, so they never match.
        let unused = (0..self.flags.len())
            .filter(|&i| self.undemanded_prefetch(i))
            .count() as u64;
        self.stats.prefetch_resident_unused.add(unused);
    }

    /// Record a prefetch acceptance in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_issued(&mut self) {
        self.stats.prefetch_issued.inc();
    }

    /// Record a redundant prefetch in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_redundant(&mut self) {
        self.stats.prefetch_redundant.inc();
    }

    /// Record a dropped prefetch in the stats (called by the hierarchy).
    pub(crate) fn note_prefetch_dropped(&mut self) {
        self.stats.prefetch_dropped.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KIB;
    use nvr_common::Pcg32;

    fn tiny_cache(ways: u64, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 4,
            mshr_entries: 2,
            policy: RetentionPolicy::Lru,
        })
    }

    fn tiny_scored(ways: u64, sets: u64) -> Cache {
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 4,
            mshr_entries: 2,
            policy: RetentionPolicy::ScoredReuse,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x10);
        assert_eq!(c.probe(line, 0, true), ProbeResult::Miss);
        c.install(line, 50, false, 0);
        match c.probe(line, 60, true) {
            ProbeResult::Hit { ready_at } => assert_eq!(ready_at, 64),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().demand_hits.get(), 1);
        assert_eq!(c.stats().demand_misses.get(), 1);
    }

    #[test]
    fn inflight_merge_reports_fill_time() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x10);
        c.probe(line, 0, true);
        c.install(line, 100, false, 0);
        match c.probe(line, 10, true) {
            ProbeResult::InFlight { ready_at } => assert_eq!(ready_at, 100),
            other => panic!("expected in-flight, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_merges.get(), 1);
    }

    #[test]
    fn prefetch_useful_accounting() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x20);
        c.install(line, 10, true, 0);
        // First demand marks the prefetch useful, once.
        c.probe(line, 20, true);
        c.probe(line, 30, true);
        assert_eq!(c.stats().prefetch_useful.get(), 1);
        assert_eq!(c.stats().prefetch_late.get(), 0);
    }

    #[test]
    fn late_prefetch_counts_as_late_useful() {
        let mut c = tiny_cache(2, 4);
        let line = LineAddr::new(0x20);
        c.install(line, 100, true, 0);
        assert_eq!(
            c.probe(line, 10, true),
            ProbeResult::InFlight { ready_at: 100 }
        );
        assert_eq!(c.stats().prefetch_useful.get(), 1);
        assert_eq!(c.stats().prefetch_late.get(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny_cache(2, 1); // one set, two ways
        let a = LineAddr::new(1);
        let b = LineAddr::new(2);
        let d = LineAddr::new(3);
        c.install(a, 0, false, 0);
        c.install(b, 0, false, 1);
        c.probe(a, 10, true); // a is now MRU
        c.install(d, 20, false, 11); // must evict b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
        assert_eq!(c.stats().evictions.get(), 1);
    }

    #[test]
    fn eviction_of_unused_prefetch_is_counted() {
        let mut c = tiny_cache(1, 1);
        c.install(LineAddr::new(1), 0, true, 0);
        c.install(LineAddr::new(2), 0, false, 1);
        assert_eq!(c.stats().prefetch_evicted_unused.get(), 1);
    }

    #[test]
    fn mshr_capacity_tracking() {
        let mut c = tiny_cache(4, 4); // mshr_entries = 2
        c.install(LineAddr::new(1), 100, false, 0);
        assert!(c.mshr_available(0));
        c.install(LineAddr::new(2), 120, false, 0);
        assert!(!c.mshr_available(0));
        assert_eq!(c.mshr_free_at(0), 100);
        // After the first fill lands, a slot frees.
        assert!(c.mshr_available(100));
        assert_eq!(c.mshr_free_at(100), 100);
    }

    #[test]
    fn mshr_slot_recycling() {
        let mut c = tiny_cache(4, 4);
        c.install(LineAddr::new(1), 10, false, 0);
        c.install(LineAddr::new(2), 20, false, 0);
        // Both done by cycle 30; new installs reuse slots rather than grow.
        c.install(LineAddr::new(3), 40, false, 30);
        c.install(LineAddr::new(4), 50, false, 30);
        assert_eq!(c.inflight.pending(30), 2);
        assert!(c.inflight.len() <= 2, "slots must be recycled");
    }

    #[test]
    fn mshr_free_at_selects_pending_rank_beyond_capacity() {
        // The inflight file can transiently exceed mshr_entries when a
        // stalled demand installs at `now` with a future issue slot; the
        // freeing rank is then the (pending - entries + 1)-th completion.
        let mut c = tiny_cache(4, 4); // mshr_entries = 2
        c.install(LineAddr::new(1), 100, false, 0);
        c.install(LineAddr::new(2), 120, false, 0);
        c.install(LineAddr::new(3), 110, false, 0); // grows the file to 3
        assert_eq!(c.inflight.pending(0), 3);
        // Ranks at 100, 110, 120: with 2 entries, a slot frees at the
        // 2nd-smallest pending completion.
        assert_eq!(c.mshr_free_at(0), 110);
        assert_eq!(c.mshr_free_at(105), 110);
        assert_eq!(c.mshr_free_at(110), 110);
        // The same rank decides availability: two fills pend until 110.
        assert!(!c.mshr_available(105));
        assert!(c.mshr_available(110));
    }

    #[test]
    fn finalize_counts_resident_unused_prefetches() {
        let mut c = tiny_cache(2, 2);
        c.install(LineAddr::new(1), 0, true, 0);
        c.install(LineAddr::new(2), 0, true, 0);
        c.probe(LineAddr::new(1), 5, true);
        c.finalize_stats();
        assert_eq!(c.stats().prefetch_resident_unused.get(), 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(CacheConfig::l2_default().with_size(16 * KIB));
        let sets = c.config().sets();
        // Lines mapping to different sets never evict each other.
        for i in 0..sets {
            c.install(LineAddr::new(i), 0, false, 0);
        }
        for i in 0..sets {
            assert!(c.contains(LineAddr::new(i)));
        }
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn non_power_of_two_set_count_uses_division_path() {
        // 3 sets: the mask/shift fast path must not engage.
        let mut c = tiny_cache(2, 3);
        assert_eq!(c.config().sets(), 3);
        for i in 0..6u64 {
            c.install(LineAddr::new(i), 0, false, 0);
        }
        for i in 0..6u64 {
            assert!(c.contains(LineAddr::new(i)), "line {i}");
        }
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn scored_rejects_fill_that_does_not_beat_residents() {
        let mut c = tiny_scored(1, 1);
        let hot = LineAddr::new(1);
        assert!(c.install_speculative_scored(hot, 0, 0, 3));
        // Equal score does not displace the resident: reject + shrink.
        assert!(!c.install_speculative_scored(LineAddr::new(2), 0, 1, 3));
        assert!(c.contains(hot));
        assert!(!c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 1);
        // The rejected fill never began a prefetch life.
        assert_eq!(c.stats().evictions.get(), 0);
    }

    #[test]
    fn scored_evicts_strictly_weaker_resident() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 2);
        // Spend the resident's active-window protection: once demanded it
        // competes on score alone (2 -> 1 after the hit).
        c.probe(LineAddr::new(1), 5, true);
        assert!(c.install_speculative_scored(LineAddr::new(2), 0, 6, 5));
        assert!(!c.contains(LineAddr::new(1)));
        assert!(c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 0);
    }

    #[test]
    fn scored_never_evicts_undemanded_speculative_resident() {
        // An active-window line — speculative, not yet demanded, score
        // remaining — is rejected against rather than evicted, no matter
        // how strong the incoming fill is.
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 1);
        assert!(!c.install_speculative_scored(LineAddr::new(2), 0, 1, 100));
        assert!(c.contains(LineAddr::new(1)));
        assert_eq!(c.stats().retention_rejected.get(), 1);
    }

    #[test]
    fn rejections_age_the_weakest_resident_until_it_drains() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 2);
        let probe = LineAddr::new(2);
        // Two rejections age the resident 2 -> 1 -> 0; the third fill then
        // takes the exhausted-score LRU path and lands.
        assert!(!c.install_speculative_scored(probe, 0, 1, 0));
        assert!(!c.install_speculative_scored(probe, 0, 2, 0));
        assert!(c.install_speculative_scored(probe, 0, 3, 0));
        assert!(c.contains(probe));
        assert_eq!(c.stats().retention_rejected.get(), 2);
    }

    #[test]
    fn demand_hits_decay_the_score() {
        let mut c = tiny_scored(1, 1);
        c.install_speculative_scored(LineAddr::new(1), 0, 0, 2);
        // Each demand touch spends one predicted use.
        c.probe(LineAddr::new(1), 5, true);
        c.probe(LineAddr::new(1), 6, true);
        // Score exhausted: a zero-score fill now evicts it LRU-style.
        assert!(c.install_speculative_scored(LineAddr::new(2), 0, 7, 0));
        assert!(c.contains(LineAddr::new(2)));
        assert_eq!(c.stats().retention_rejected.get(), 0);
    }

    #[test]
    fn scored_with_zero_scores_matches_lru_bit_for_bit() {
        // Same operation sequence against both policies; with all scores
        // zero the scored cache must reproduce LRU exactly.
        let mut lru = tiny_cache(2, 1);
        let mut scored = tiny_scored(2, 1);
        for c in [&mut lru, &mut scored] {
            c.install(LineAddr::new(1), 0, false, 0);
            c.install(LineAddr::new(2), 5, true, 1);
            c.probe(LineAddr::new(1), 10, true);
            c.install(LineAddr::new(3), 20, false, 11); // evicts 2
            c.probe(LineAddr::new(2), 30, true); // miss
            c.finalize_stats();
        }
        for line in [1u64, 2, 3] {
            assert_eq!(
                lru.contains(LineAddr::new(line)),
                scored.contains(LineAddr::new(line))
            );
        }
        let (mut a, mut b) = (lru.stats().clone(), scored.stats().clone());
        a.name = "X";
        b.name = "X";
        assert_eq!(a, b);
    }

    #[test]
    fn scored_never_clobbers_midfill_line_when_filled_victim_exists() {
        let mut c = tiny_scored(2, 1);
        c.install_speculative_scored(LineAddr::new(1), 100, 0, 4); // mid-fill until 100
        c.install_speculative_scored(LineAddr::new(2), 0, 1, 0); // filled, score 0
                                                                 // Incoming fill must pick the exhausted filled way, not the
                                                                 // high-score in-flight one.
        assert!(c.install_speculative_scored(LineAddr::new(3), 0, 10, 1));
        assert!(c.contains(LineAddr::new(1)));
        assert!(!c.contains(LineAddr::new(2)));
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut c = tiny_cache(2, 2);
        c.install(LineAddr::new(7), 0, false, 0);
        let before = c.stats().clone();
        assert!(c.contains(LineAddr::new(7)));
        assert!(!c.contains(LineAddr::new(9)));
        assert_eq!(&before, c.stats());
    }

    #[test]
    fn outcomes_are_kept_in_order_once_asked() {
        let mut c = tiny_cache(1, 1);
        // Before the ask, a wasted life leaves no outcome behind.
        c.install(LineAddr::new(1), 10, true, 0);
        c.install(LineAddr::new(2), 10, true, 20);
        assert_eq!(c.drain_outcomes().count(), 0);
        c.record_outcomes();
        // Line 2 is used, line 3 evicts line 4 unused.
        c.probe(LineAddr::new(2), 30, true);
        c.install(LineAddr::new(4), 40, true, 40);
        c.install(LineAddr::new(3), 50, false, 50);
        assert_eq!(c.drain_outcomes().collect::<Vec<_>>(), [false, true]);
        assert_eq!(c.drain_outcomes().count(), 0, "a drain empties the record");
        assert_eq!(c.stats().prefetch_evicted_unused.get(), 2);
        assert_eq!(c.prefetch_slack().sum(), 30 - 20);
    }

    /// The way a plain scan of the set's tag lane finds for `line`, with
    /// the set and tag split by division: the oracle for [`Cache::lookup`].
    fn reference_lookup(c: &Cache, line: LineAddr) -> Option<usize> {
        let (set, tag) = (line.index() % c.n_sets, line.index() / c.n_sets);
        let base = set as usize * c.ways;
        (base..base + c.ways).find(|&i| c.tags[i] == tag)
    }

    /// Installs a random line of `lines` (a demand or a prefetch, filling
    /// now or later) into `c`, then checks `c.lookup` against the tag scan
    /// for one line of `lines` and for the one just installed.
    fn install_and_check(c: &mut Cache, rng: &mut Pcg32, lines: &[LineAddr], now: Cycle) {
        let line = lines[rng.gen_index(lines.len())];
        if rng.gen_bool(0.3) {
            c.probe(line, now, true);
        } else {
            c.install(line, now + rng.gen_range(4), rng.gen_bool(0.5), now);
        }
        for line in [lines[rng.gen_index(lines.len())], line] {
            assert_eq!(
                c.lookup(line).way,
                reference_lookup(c, line),
                "{} ways, {line:?} at cycle {now}",
                c.ways
            );
        }
    }

    #[test]
    fn lookup_matches_tag_scan() {
        let mut rng = Pcg32::seed_from_u64(0xf1f0);
        // 3 and 12 ways pad their fingerprint rows to 8 and 16 bytes.
        for ways in [1u64, 3, 8, 12, 16] {
            // Random lines over three times the capacity, so sets fill,
            // evict and refill.
            let mut c = tiny_cache(ways, 4);
            let lines: Vec<_> = (0..ways * 12)
                .map(|_| LineAddr::new(rng.gen_range(1 << 40)))
                .collect();
            for now in 0..6_000 {
                install_and_check(&mut c, &mut rng, &lines, now);
            }
            // One set whose tags all share a fingerprint byte, so every
            // filled way is a fingerprint match and only the tag decides.
            let mut c = tiny_cache(ways, 1);
            let shared: Vec<_> = (0..)
                .filter(|&t| fingerprint(t) == fingerprint(0))
                .take(ways as usize * 2)
                .map(LineAddr::new)
                .collect();
            for now in 0..2_000 {
                install_and_check(&mut c, &mut rng, &shared, now);
            }
            // Tags just below the never-filled tag.
            let mut c = tiny_cache(ways, 1);
            let top: Vec<_> = (1..=ways * 2).map(|k| LineAddr::new(NO_TAG - k)).collect();
            for now in 0..2_000 {
                install_and_check(&mut c, &mut rng, &top, now);
            }
        }
    }

    #[test]
    fn fingerprints_spare_full_tag_compares() {
        // The paper's 8-way L2 under random lines over twice its capacity:
        // about half the probes hit, and each miss installs.
        let mut c = Cache::new(CacheConfig::l2_default());
        let span = 2 * c.config().sets() * c.config().ways;
        let mut rng = Pcg32::seed_from_u64(0xc0de);
        for now in 0..200_000 {
            let line = LineAddr::new(rng.gen_range(span));
            if c.probe(line, now, true) == ProbeResult::Miss {
                c.install(line, now, false, now);
            }
        }
        let (compares, lookups) = (c.tag_compares.get(), c.lookups());
        // A scan of every way would compare 8 tags per lookup of a full
        // set; a fingerprint match compares about one per hit.
        assert!(
            compares * 10 <= lookups * 11,
            "{compares} full-tag compares in {lookups} lookups"
        );
    }

    /// `pick_victim` as it stood before the single-pass rewrite (never-filled
    /// ways then had a clear valid bit; now they carry [`NO_TAG`]): the
    /// differential oracle for the production scan.
    fn reference_pick_victim(c: &Cache, base: usize, now: Cycle) -> usize {
        let mut filled_lru: Option<usize> = None;
        let mut any_lru: Option<usize> = None;
        for i in base..base + c.ways {
            if c.tags[i] == NO_TAG {
                return i;
            }
            if c.fill_done[i] <= now && filled_lru.is_none_or(|b| c.last_use[i] < c.last_use[b]) {
                filled_lru = Some(i);
            }
            if any_lru.is_none_or(|b| c.last_use[i] < c.last_use[b]) {
                any_lru = Some(i);
            }
        }
        filled_lru.or(any_lru).expect("ways is non-empty")
    }

    /// `pick_victim_scored` as it stood before the single-pass rewrite: an
    /// exhausted-way pass, then the weakest-resident ranking pass.
    fn reference_pick_victim_scored(
        c: &Cache,
        base: usize,
        now: Cycle,
        incoming: u32,
        protect_active: bool,
    ) -> Result<usize, usize> {
        let ways = base..base + c.ways;
        let mut exhausted_lru: Option<usize> = None;
        for i in ways.clone() {
            if c.tags[i] == NO_TAG {
                return Ok(i);
            }
            if c.fill_done[i] > now {
                continue;
            }
            if c.reuse[i] == 0 && exhausted_lru.is_none_or(|b| c.last_use[i] < c.last_use[b]) {
                exhausted_lru = Some(i);
            }
        }
        if let Some(i) = exhausted_lru {
            return Ok(i);
        }
        let mut weakest_evictable: Option<usize> = None;
        let mut weakest_filled: Option<usize> = None;
        let weaker = |i: usize, b: usize| (c.reuse[i], c.last_use[i]) < (c.reuse[b], c.last_use[b]);
        for i in ways {
            if c.fill_done[i] > now {
                continue;
            }
            let active = protect_active && c.flags[i] & (F_PREFETCH | F_DEMANDED) == F_PREFETCH;
            if !active && weakest_evictable.is_none_or(|b| weaker(i, b)) {
                weakest_evictable = Some(i);
            }
            if weakest_filled.is_none_or(|b| weaker(i, b)) {
                weakest_filled = Some(i);
            }
        }
        match weakest_evictable {
            Some(i) if incoming > c.reuse[i] => Ok(i),
            Some(i) => Err(i),
            None => match weakest_filled {
                Some(i) => Err(i),
                None => Ok(reference_pick_victim(c, base, now)),
            },
        }
    }

    /// A draw from a tiny range (dense ties) or a cycle-sized one, or, in
    /// a `wide` set state, sometimes within `tiny` of `max` or anywhere
    /// below it — where high bits decide the order, so a ranking key
    /// narrower than the field would misorder ways.
    fn draw(rng: &mut Pcg32, wide: bool, tiny: u64, max: u64) -> u64 {
        match rng.gen_index(5) {
            2 => rng.gen_range(1 << 16),
            3 if wide => max - rng.gen_range(tiny),
            4 if wide => rng.gen_range(max),
            _ => rng.gen_range(tiny),
        }
    }

    #[test]
    fn victim_selection_matches_reference_loops() {
        let mut rng = Pcg32::seed_from_u64(0x71c7);
        let mut states = 0u64;
        for ways in [1u64, 2, 4, 8, 16] {
            // Two sets, so victims are checked at a non-zero SoA base too.
            let mut c = tiny_cache(ways, 2);
            for _ in 0..24_000 {
                let base = rng.gen_index(2) * c.ways;
                let wide = rng.gen_bool(0.3);
                let now = draw(&mut rng, wide, 8, u64::MAX - 8);
                // A full set most of the time; otherwise an invalid suffix
                // (ways fill in way order and are never invalidated).
                let valid = if rng.gen_bool(0.6) {
                    c.ways
                } else {
                    rng.gen_index(c.ways + 1)
                };
                let all_mid_fill = rng.gen_bool(0.1);
                let zero_scores = rng.gen_bool(0.2);
                for w in 0..c.ways {
                    let i = base + w;
                    if w >= valid {
                        (c.tags[i], c.fill_done[i], c.last_use[i]) = (NO_TAG, 0, 0);
                        (c.reuse[i], c.flags[i]) = (0, 0);
                        continue;
                    }
                    c.tags[i] = w as u64;
                    c.fill_done[i] = match rng.gen_index(3) {
                        _ if all_mid_fill => now + 1 + rng.gen_range(4),
                        0 => now.saturating_sub(rng.gen_range(4)),
                        1 => now,
                        _ => now + 1 + rng.gen_range(4),
                    };
                    c.last_use[i] = draw(&mut rng, wide, 4, u64::MAX);
                    c.reuse[i] = if zero_scores {
                        0
                    } else {
                        draw(&mut rng, wide, 4, u64::from(u32::MAX)) as u32
                    };
                    c.flags[i] = rng.gen_index(4) as u8;
                }
                let weakest = (base..base + valid).map(|i| c.reuse[i]).min().unwrap_or(0);
                let incoming = match rng.gen_index(5) {
                    0 => 0,
                    1 => weakest.saturating_sub(1),
                    2 => weakest,
                    3 => weakest.saturating_add(1),
                    _ => draw(&mut rng, wide, 4, u64::from(u32::MAX)) as u32,
                };
                assert_eq!(
                    c.pick_victim(base, now),
                    reference_pick_victim(&c, base, now),
                    "LRU, {ways} ways, valid {valid}, now {now}"
                );
                // Protection on: the ScoredReuse fill/shrink decision.
                assert_eq!(
                    c.pick_victim_scored(base, now, incoming),
                    reference_pick_victim_scored(&c, base, now, incoming, true),
                    "scored, {ways} ways, valid {valid}, now {now}, incoming {incoming}"
                );
                // Protection off: ScoredEvict takes either outcome's slot.
                let (Ok(evict) | Err(evict)) =
                    reference_pick_victim_scored(&c, base, now, incoming, false);
                assert_eq!(
                    c.pick_victim_weakest(base, now),
                    evict,
                    "weakest, {ways} ways, valid {valid}, now {now}"
                );
                states += 1;
            }
        }
        assert!(states >= 100_000);
    }
}
