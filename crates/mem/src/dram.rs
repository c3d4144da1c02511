//! Multi-channel, bandwidth-limited DRAM backend with per-channel request
//! queues and demand-over-prefetch arbitration.
//!
//! The backend owns [`DramConfig::channels`] independent channels; cache
//! lines interleave across them by line address (`line % channels`, a
//! mask for power-of-two counts), so the mapping is deterministic and
//! sequential line runs stripe evenly.
//! Each channel models a pipelined bus — one line transfer occupies the
//! bus for [`DramConfig::line_transfer_cycles`] and completes a fixed
//! latency after its slot starts — plus a bounded queue of *speculative*
//! transfers awaiting the bus.
//!
//! # Arbitration
//!
//! Demand fills have absolute priority over queued speculation:
//!
//! * a **demand** takes the earliest bus slot after the transfers that
//!   have already *started* (it cannot preempt data mid-flight), jumping
//!   every queued speculative transfer, which restack behind it;
//! * a **prefetch** is scheduled behind all traffic, and the cycles
//!   between its arrival and its scheduled slot are recorded as its
//!   channel's *queue delay* ([`crate::ChannelStats::queue_delay`]);
//! * a prefetch arriving at a **full queue** is rejected — the hierarchy
//!   counts it dropped, and queue-aware issuers (the VIGU) read
//!   [`DramBackend::prefetch_ready`] to back-pressure instead.
//!
//! One modelling caveat of the timestamp-forwarded style: a queued
//! prefetch's completion cycle is returned at admission; a demand that
//! preempts it afterwards delays the *channel* (and every later request)
//! but not that already-returned timestamp. The error is bounded by
//! `queue_depth * line_transfer_cycles` and only ever optimistic for
//! speculation — demand timing is exact.
//!
//! # Examples
//!
//! ```
//! use nvr_mem::{DramBackend, DramConfig};
//! use nvr_common::LineAddr;
//!
//! let mut dram = DramBackend::new(DramConfig::default().with_channels(2));
//! // Even/odd lines land on different channels: both start immediately.
//! let a = dram.demand_fetch(LineAddr::new(0), 0);
//! let b = dram.demand_fetch(LineAddr::new(1), 0);
//! assert_eq!(a, b);
//! ```

use nvr_common::{Cycle, LineAddr, LINE_BYTES};

use crate::cache::completed_by;
use crate::config::DramConfig;
use crate::stats::DramStats;

/// Disposition of a speculative fill at its channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelPrefetch {
    /// Accepted and scheduled.
    Scheduled {
        /// Fill-completion cycle.
        fill_done: Cycle,
    },
    /// Rejected: the channel's speculative queue is full.
    QueueFull,
}

/// Per-channel timing state (counters live in [`DramStats::channels`]).
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Cycle the bus is free of demand traffic and of speculative
    /// transfers that have already started.
    busy_free: Cycle,
    /// Scheduled start cycles of queued (not yet started) speculative
    /// transfers, ascending. A started transfer leaves it at the lane's
    /// next demand slot or enqueue.
    pf_queue: Vec<Cycle>,
}

/// The multi-channel DRAM backend (see module docs).
#[derive(Debug, Clone)]
pub struct DramBackend {
    cfg: DramConfig,
    /// `channels - 1` when the channel count is a power of two, letting
    /// the per-line channel map mask instead of divide; `u64::MAX` marks
    /// the modulo fallback.
    channel_mask: u64,
    lanes: Vec<Lane>,
    stats: DramStats,
}

impl DramBackend {
    /// Creates a backend with the given timing and channel count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "init-time config validation in the constructor, outside the tick loop"
        )]
        cfg.validate().expect("dram config must be valid");
        let stats = DramStats {
            channels: vec![Default::default(); cfg.channels],
            ..DramStats::default()
        };
        let channels = cfg.channels as u64;
        DramBackend {
            channel_mask: if channels.is_power_of_two() {
                channels - 1
            } else {
                u64::MAX
            },
            lanes: vec![Lane::default(); cfg.channels],
            stats,
            cfg,
        }
    }

    /// The configuration this backend was built with.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics (aggregates plus per-channel counters).
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The channel `line` interleaves onto.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the result is below cfg.channels, a usize"
    )]
    pub fn channel_of(&self, line: LineAddr) -> usize {
        if self.channel_mask != u64::MAX {
            (line.index() & self.channel_mask) as usize
        } else {
            (line.index() % self.cfg.channels as u64) as usize
        }
    }

    /// Promotes queued speculative transfers whose slot has started by
    /// `now` onto the channel's busy timeline.
    fn promote(&mut self, ch: usize, now: Cycle) {
        let t = self.cfg.line_transfer_cycles();
        let lane = &mut self.lanes[ch];
        let started = completed_by(&lane.pf_queue, now);
        if started > 0 {
            // Starts ascend, so the last started transfer ends last.
            lane.busy_free = lane.busy_free.max(lane.pf_queue[started - 1] + t);
            lane.pf_queue.drain(..started);
        }
    }

    /// Takes a demand-priority slot of `transfer` cycles on channel `ch`
    /// at `now`, preempting queued speculative transfers (they restack
    /// behind it). Returns the slot start.
    fn demand_slot(&mut self, ch: usize, now: Cycle, transfer: Cycle) -> Cycle {
        self.promote(ch, now);
        let lane = &mut self.lanes[ch];
        let slot = now.max(lane.busy_free);
        lane.busy_free = slot + transfer;
        let mut cur = lane.busy_free;
        let t = self.cfg.line_transfer_cycles();
        for s in &mut lane.pf_queue {
            if *s < cur {
                *s = cur;
            }
            cur = *s + t;
        }
        self.stats.busy_cycles.add(transfer);
        self.stats.channels[ch].busy_cycles.add(transfer);
        slot
    }

    /// Fetches one cache line for a demand miss at cycle `now`; returns
    /// the completion cycle. Demands wait only for other demand traffic
    /// and for speculative transfers already on the bus — never for the
    /// queued speculative backlog.
    pub fn demand_fetch(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        let t = self.cfg.line_transfer_cycles();
        let ch = self.channel_of(line);
        let slot = self.demand_slot(ch, now, t);
        self.stats.demand_lines.inc();
        self.stats.channels[ch].demand_lines.inc();
        slot + self.cfg.latency + t
    }

    /// Schedules one speculative line fill at cycle `now`.
    ///
    /// The transfer queues behind everything already scheduled on the
    /// line's channel; the channel records `slot_start - now` as its
    /// queue delay.
    /// Returns [`ChannelPrefetch::QueueFull`] when the channel's bounded
    /// prefetch queue has no room.
    pub fn prefetch_fetch(&mut self, line: LineAddr, now: Cycle) -> ChannelPrefetch {
        let t = self.cfg.line_transfer_cycles();
        let ch = self.channel_of(line);
        self.promote(ch, now);
        if self.lanes[ch].pf_queue.len() >= self.cfg.queue_depth {
            self.stats.pf_queue_rejected.inc();
            return ChannelPrefetch::QueueFull;
        }
        let lane = &mut self.lanes[ch];
        let tail_end = lane.pf_queue.last().map_or(lane.busy_free, |&s| s + t);
        let start = now.max(tail_end);
        if start <= now {
            // Starts immediately: straight onto the bus, never queued.
            lane.busy_free = lane.busy_free.max(start + t);
        } else {
            lane.pf_queue.push(start);
        }
        self.stats.busy_cycles.add(t);
        self.stats.prefetch_lines.inc();
        let cstats = &mut self.stats.channels[ch];
        cstats.busy_cycles.add(t);
        cstats.prefetch_lines.inc();
        cstats.queue_delay.record(start - now);
        ChannelPrefetch::Scheduled {
            fill_done: start + t + self.cfg.latency,
        }
    }

    /// Whether `line`'s channel can accept another speculative fill at
    /// `now` — the per-channel occupancy signal queue-aware issuers (the
    /// VIGU) pace on instead of letting requests drop.
    #[must_use]
    pub fn prefetch_ready(&self, line: LineAddr, now: Cycle) -> bool {
        self.prefetch_queue_len(line, now) < self.cfg.queue_depth
    }

    /// Queued (not yet started) speculative transfers on `line`'s channel
    /// at `now`.
    #[must_use]
    pub fn prefetch_queue_len(&self, line: LineAddr, now: Cycle) -> usize {
        // Start cycles ascend, so the transfers still waiting at `now` are
        // a suffix; the started prefix lingers until the next enqueue.
        let q = &self.lanes[self.channel_of(line)].pf_queue;
        q.len() - completed_by(q, now)
    }

    /// Per-channel share of `bytes` under even striping (dense traffic),
    /// with the remainder spread over the leading channels.
    fn stripe_share(&self, bytes: u64, ch: usize) -> u64 {
        let n = self.cfg.channels as u64;
        bytes / n + u64::from((ch as u64) < bytes % n)
    }

    /// Streams `bytes` of dense DMA read traffic (scratchpad fills),
    /// striped across all channels at demand priority; returns the cycle
    /// the last stripe's data arrives.
    pub fn read_stream(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.stats.dma_bytes.add(bytes);
        self.stripe(now, bytes, self.cfg.latency)
    }

    /// Streams `bytes` out (stores / writebacks), striped across all
    /// channels at demand priority; returns the cycle the last channel
    /// drains.
    pub fn write_bytes(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.stats.write_bytes.add(bytes);
        self.stripe(now, bytes, 0)
    }

    /// Schedules each channel's share of `bytes` at demand priority from
    /// `now`; returns the cycle the last share completes, `latency` after
    /// its transfer ends (`now` when `bytes` is 0).
    fn stripe(&mut self, now: Cycle, bytes: u64, latency: Cycle) -> Cycle {
        let mut done = now;
        for ch in 0..self.cfg.channels {
            let share = self.stripe_share(bytes, ch);
            if share == 0 {
                continue;
            }
            let transfer = share.div_ceil(self.cfg.bytes_per_cycle);
            let slot = self.demand_slot(ch, now, transfer);
            done = done.max(slot + latency + transfer);
        }
        done
    }

    /// Earliest scheduled start, strictly after `now`, among every
    /// channel's queued speculative transfers — the next moment a queue
    /// position opens on its own. `None` when no channel has a queued
    /// transfer still waiting. Event-driven issuers combine this with the
    /// speculative MSHR completions to skip cycles where a back-pressured
    /// retry would be futile.
    #[must_use]
    pub fn next_pf_queue_start(&self, now: Cycle) -> Option<Cycle> {
        // Per-lane queues are ascending: the earliest pending start in
        // each is the first entry past `now`.
        self.lanes
            .iter()
            .filter_map(|lane| {
                let q = &lane.pf_queue;
                q.get(completed_by(q, now)).copied()
            })
            .min()
    }

    /// Aggregate utilisation over `elapsed` cycles: total busy cycles as
    /// a fraction of the capacity of all channels (0 when `elapsed` is 0).
    #[must_use]
    pub fn utilisation(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.stats.busy_cycles.get() as f64 / (elapsed * self.cfg.channels as u64) as f64
        }
    }

    /// Per-channel utilisation over `elapsed` cycles, in channel order.
    #[must_use]
    pub fn channel_utilisation(&self, elapsed: Cycle) -> Vec<f64> {
        self.stats.channel_utilisation(elapsed)
    }

    /// Effective read bandwidth consumed, in bytes (reads only).
    #[must_use]
    pub fn read_bytes(&self) -> u64 {
        (self.stats.demand_lines.get() + self.stats.prefetch_lines.get()) * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer() -> Cycle {
        DramConfig::default().line_transfer_cycles()
    }

    fn once() -> Cycle {
        DramConfig::default().latency + transfer()
    }

    #[test]
    fn single_fetch_latency() {
        let mut d = DramBackend::new(DramConfig::default());
        let done = d.demand_fetch(LineAddr::new(1), 100);
        assert_eq!(done, 100 + once());
        assert_eq!(d.stats().demand_lines.get(), 1);
        assert_eq!(d.stats().channels[0].demand_lines.get(), 1);
    }

    #[test]
    fn back_to_back_fetches_pipeline() {
        let mut d = DramBackend::new(DramConfig::default());
        let a = d.demand_fetch(LineAddr::new(1), 0);
        let b = d.demand_fetch(LineAddr::new(2), 0);
        let c = d.demand_fetch(LineAddr::new(3), 0);
        // Completion spacing equals the transfer time, not the full latency.
        assert_eq!(b - a, transfer());
        assert_eq!(c - b, transfer());
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = DramBackend::new(DramConfig::default());
        let a = d.demand_fetch(LineAddr::new(1), 0);
        let b = d.demand_fetch(LineAddr::new(2), 10_000);
        assert_eq!(a, once());
        assert_eq!(b, 10_000 + once());
    }

    #[test]
    fn lines_interleave_deterministically() {
        // Power-of-two counts take the mask path, the rest the modulo
        // path; both must be `line % channels`.
        for channels in [1, 2, 3, 4, 5, 8] {
            let d = DramBackend::new(DramConfig::default().with_channels(channels));
            for i in (0..64).chain([u64::MAX >> 6, (1 << 40) + 7]) {
                let line = LineAddr::new(i);
                assert_eq!(d.channel_of(line), (i % channels as u64) as usize);
            }
        }
    }

    #[test]
    fn queue_len_counts_only_waiting_transfers() {
        let cfg = DramConfig {
            queue_depth: 4,
            ..DramConfig::default()
        };
        let t = cfg.line_transfer_cycles();
        let mut d = DramBackend::new(cfg);
        // One transfer on the bus, three queued at t, 2t and 3t.
        for i in 0..4 {
            d.prefetch_fetch(LineAddr::new(i), 0);
        }
        assert_eq!(d.prefetch_queue_len(LineAddr::new(0), 0), 3);
        assert_eq!(d.prefetch_queue_len(LineAddr::new(0), t - 1), 3);
        // Started transfers stay at the head until the next enqueue, but
        // no longer count as waiting.
        assert_eq!(d.prefetch_queue_len(LineAddr::new(0), t), 2);
        assert_eq!(d.prefetch_queue_len(LineAddr::new(0), 2 * t + 1), 1);
        assert_eq!(d.prefetch_queue_len(LineAddr::new(0), 3 * t), 0);
    }

    #[test]
    fn channels_serve_disjoint_lines_in_parallel() {
        let mut d = DramBackend::new(DramConfig::default().with_channels(2));
        // Lines 0 and 1 land on different channels: both complete as if alone.
        let a = d.demand_fetch(LineAddr::new(0), 0);
        let b = d.demand_fetch(LineAddr::new(1), 0);
        assert_eq!(a, once());
        assert_eq!(b, once());
        // A third request on channel 0 queues behind the first.
        let c = d.demand_fetch(LineAddr::new(2), 0);
        assert_eq!(c, once() + transfer());
    }

    #[test]
    fn demand_never_starved_behind_full_prefetch_queue() {
        let cfg = DramConfig {
            queue_depth: 8,
            ..DramConfig::default()
        };
        let mut d = DramBackend::new(cfg.clone());
        // Fill the speculative queue to the brim: the first transfer goes
        // straight onto the bus, the next `queue_depth` wait in the queue.
        for i in 0..=cfg.queue_depth {
            assert!(matches!(
                d.prefetch_fetch(LineAddr::new(100 + i as u64), 0),
                ChannelPrefetch::Scheduled { .. }
            ));
        }
        assert_eq!(
            d.prefetch_fetch(LineAddr::new(999), 0),
            ChannelPrefetch::QueueFull
        );
        assert_eq!(d.stats().pf_queue_rejected.get(), 1);
        // A demand arriving now waits only for the transfer already on the
        // bus — not for the queued speculative backlog.
        let done = d.demand_fetch(LineAddr::new(1), 0);
        assert_eq!(
            done,
            transfer() + once(),
            "demand must preempt queued prefetches"
        );
    }

    #[test]
    fn prefetch_reports_queue_delay() {
        let mut d = DramBackend::new(DramConfig::default());
        // The first prefetch starts immediately; the second queues behind
        // its transfer.
        d.prefetch_fetch(LineAddr::new(1), 0);
        assert_eq!(
            d.prefetch_fetch(LineAddr::new(2), 0),
            ChannelPrefetch::Scheduled {
                fill_done: transfer() + once()
            }
        );
        let delays = &d.stats().channels[0].queue_delay;
        assert_eq!((delays.count(), delays.sum()), (2, transfer()));
        assert_eq!(delays.max(), transfer());
    }

    #[test]
    fn demand_preemption_delays_later_prefetches() {
        let mut d = DramBackend::new(DramConfig::default());
        // Queue two prefetches, then preempt with a demand.
        d.prefetch_fetch(LineAddr::new(1), 0);
        d.prefetch_fetch(LineAddr::new(2), 0);
        d.demand_fetch(LineAddr::new(3), 0);
        // A third prefetch now queues behind prefetch#2 *and* the demand.
        d.prefetch_fetch(LineAddr::new(4), 0);
        assert_eq!(d.stats().channels[0].queue_delay.max(), 3 * transfer());
    }

    #[test]
    fn queue_drains_as_time_passes() {
        let cfg = DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        };
        let mut d = DramBackend::new(cfg);
        // One on the bus, two in the queue: the 2-entry queue is full.
        d.prefetch_fetch(LineAddr::new(1), 0);
        d.prefetch_fetch(LineAddr::new(2), 0);
        d.prefetch_fetch(LineAddr::new(4), 0);
        assert!(!d.prefetch_ready(LineAddr::new(3), 0));
        // By 3 transfers later the queued transfers have started: room again.
        let later = 3 * transfer();
        assert!(d.prefetch_ready(LineAddr::new(3), later));
        assert!(matches!(
            d.prefetch_fetch(LineAddr::new(3), later),
            ChannelPrefetch::Scheduled { .. }
        ));
    }

    #[test]
    fn writes_occupy_channel() {
        let mut d = DramBackend::new(DramConfig::default());
        let drain = d.write_bytes(0, 160); // ceil(160/8) = 20 cycles
        assert_eq!(drain, 20);
        let fetch_done = d.demand_fetch(LineAddr::new(1), 0);
        // The fetch had to wait for the write to drain.
        assert_eq!(fetch_done, 20 + once());
        assert_eq!(d.stats().write_bytes.get(), 160);
    }

    #[test]
    fn zero_byte_write_is_free() {
        let mut d = DramBackend::new(DramConfig::default());
        assert_eq!(d.write_bytes(5, 0), 5);
        assert_eq!(d.demand_fetch(LineAddr::new(1), 0), once());
    }

    #[test]
    fn streams_stripe_across_channels() {
        let mut two = DramBackend::new(DramConfig::default().with_channels(2));
        let mut one = DramBackend::new(DramConfig::default());
        // The same dense burst finishes in half the transfer time on two
        // channels (latency unchanged).
        let t_two = two.read_stream(0, 1600);
        let t_one = one.read_stream(0, 1600);
        assert_eq!(t_one, 300 + 200);
        assert_eq!(t_two, 300 + 100);
        assert_eq!(two.stats().dma_bytes.get(), 1600);
        // Both channels carry half the busy cycles.
        assert_eq!(two.stats().channels[0].busy_cycles.get(), 100);
        assert_eq!(two.stats().channels[1].busy_cycles.get(), 100);
    }

    #[test]
    fn utilisation_tracks_busy_fraction() {
        let mut d = DramBackend::new(DramConfig::default());
        for i in 0..10 {
            d.demand_fetch(LineAddr::new(i), 0);
        }
        let busy = 10 * transfer();
        assert!((d.utilisation(2 * busy) - 0.5).abs() < 1e-12);
        assert_eq!(d.utilisation(0), 0.0);
        // Two channels double the capacity denominator.
        let mut two = DramBackend::new(DramConfig::default().with_channels(2));
        for i in 0..10 {
            two.demand_fetch(LineAddr::new(i), 0);
        }
        assert!((two.utilisation(busy) - 0.5).abs() < 1e-12);
        let per = two.channel_utilisation(busy);
        assert_eq!(per.len(), 2);
        assert!((per[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefetch_and_demand_counted_separately() {
        let mut d = DramBackend::new(DramConfig::default());
        d.demand_fetch(LineAddr::new(1), 0);
        d.prefetch_fetch(LineAddr::new(2), 0);
        d.prefetch_fetch(LineAddr::new(3), 0);
        assert_eq!(d.stats().demand_lines.get(), 1);
        assert_eq!(d.stats().prefetch_lines.get(), 2);
        assert_eq!(d.read_bytes(), 3 * 64);
    }
}
