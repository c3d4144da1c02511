//! Completion files: the ascending cycle lists behind every occupancy
//! question the hierarchy asks on its hot path.

use std::collections::VecDeque;

use nvr_common::Cycle;

/// An ascending list of cycles: an MSHR file's fill completions, or a DRAM
/// channel's queued transfer starts.
///
/// An entry is *done* at `now` when it is `<= now`, so the done entries
/// form a prefix and the pending ones the rest. The list is a ring, so
/// retiring the done prefix pops the front instead of shifting the tail.
///
/// The questions a bounded resource of `k` slots asks need no count. Take
/// a file of n entries: fewer than `k` are pending at `now` exactly when
/// n < k or entry n − k is done, and when all `k` slots are taken the next
/// one frees at entry n − k. Both are one indexed compare
/// ([`CompletionFile::pending_below`], [`CompletionFile::free_at`]), also
/// when the file holds more than `k` entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompletionFile {
    cycles: VecDeque<Cycle>,
    /// Binary searches so far, made by done counts past a prefix of one
    /// and by out-of-order inserts.
    #[cfg(test)]
    searches: std::cell::Cell<u64>,
}

impl CompletionFile {
    /// An empty file with room for `capacity` entries before it grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        CompletionFile {
            cycles: VecDeque::with_capacity(capacity),
            #[cfg(test)]
            searches: std::cell::Cell::new(0),
        }
    }

    /// Entries held, done or pending.
    pub(crate) fn len(&self) -> usize {
        self.cycles.len()
    }

    /// The entries done by `now`: the length of the done prefix. Two
    /// compares answer a prefix of 0 (on a saturated channel the head is
    /// usually still pending) or 1 before a binary search.
    fn done_by(&self, now: Cycle) -> usize {
        let done = |i: usize| self.cycles.get(i).is_some_and(|&c| c <= now);
        if !done(0) {
            0
        } else if !done(1) {
            1
        } else {
            self.search(|&c| c <= now)
        }
    }

    /// The first position whose entry fails `pred`, by binary search.
    fn search(&self, pred: impl FnMut(&Cycle) -> bool) -> usize {
        #[cfg(test)]
        self.searches.set(self.searches.get() + 1);
        self.cycles.partition_point(pred)
    }

    /// Entries still pending at `now`.
    pub(crate) fn pending(&self, now: Cycle) -> usize {
        self.cycles.len() - self.done_by(now)
    }

    /// The first entry pending at `now`, if any.
    pub(crate) fn first_pending(&self, now: Cycle) -> Option<Cycle> {
        self.cycles.get(self.done_by(now)).copied()
    }

    /// Whether fewer than `k` entries are pending at `now`: the file holds
    /// fewer than `k`, or its entry n − k is done. Never true for `k` = 0.
    pub(crate) fn pending_below(&self, k: usize, now: Cycle) -> bool {
        match self.cycles.len().checked_sub(k) {
            None => true,
            Some(i) => self.cycles.get(i).is_some_and(|&c| c <= now),
        }
    }

    /// The earliest cycle from `now` at which fewer than `k` (at least 1)
    /// entries are pending: `now` if that holds already, else entry n − k.
    pub(crate) fn free_at(&self, k: usize, now: Cycle) -> Cycle {
        debug_assert!(k > 0, "a file of no slots never frees one");
        self.cycles
            .len()
            .checked_sub(k)
            .and_then(|i| self.cycles.get(i))
            .map_or(now, |&c| c.max(now))
    }

    /// The last entry, done or pending.
    pub(crate) fn last(&self) -> Option<Cycle> {
        self.cycles.back().copied()
    }

    /// Drops the entries done by `now`, front first; returns the last one
    /// dropped. Each entry is popped once, so retiring costs a compare per
    /// entry over the file's life.
    pub(crate) fn retire(&mut self, now: Cycle) -> Option<Cycle> {
        let mut last = None;
        while let Some(&c) = self.cycles.front() {
            if c > now {
                break;
            }
            last = self.cycles.pop_front();
        }
        last
    }

    /// Adds `cycle` in order. Timestamp-forwarded bursts append later
    /// cycles, so the common case is a push at the back.
    pub(crate) fn insert(&mut self, cycle: Cycle) {
        match self.cycles.back() {
            Some(&last) if last > cycle => {
                let pos = self.search(|&c| c <= cycle);
                self.cycles.insert(pos, cycle);
            }
            _ => self.cycles.push_back(cycle),
        }
    }

    /// Moves every entry to at least `from` and at least `gap` after the
    /// entry before it, keeping the order: a channel's queued transfers
    /// restacking behind a demand slot.
    pub(crate) fn restack(&mut self, from: Cycle, gap: Cycle) {
        let mut next = from;
        for c in &mut self.cycles {
            *c = (*c).max(next);
            next = *c + gap;
        }
    }

    /// Binary searches so far.
    #[cfg(test)]
    pub(crate) fn searches(&self) -> u64 {
        self.searches.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::Pcg32;

    /// The reference model: a plain sorted `Vec`, every answer found by a
    /// linear scan.
    #[derive(Default)]
    struct Reference(Vec<Cycle>);

    impl Reference {
        fn pending(&self, now: Cycle) -> usize {
            self.0.iter().filter(|&&c| c > now).count()
        }

        fn first_pending(&self, now: Cycle) -> Option<Cycle> {
            self.0.iter().copied().find(|&c| c > now)
        }

        /// The first cycle from `now` at which fewer than `k` (at least 1)
        /// are pending: the count only falls at an entry, so try `now`,
        /// then each pending entry in order.
        fn free_at(&self, k: usize, now: Cycle) -> Option<Cycle> {
            std::iter::once(now)
                .chain(self.0.iter().copied().filter(|&c| c > now))
                .find(|&t| self.pending(t) < k)
        }

        fn retire(&mut self, now: Cycle) -> Option<Cycle> {
            let last = self.0.iter().copied().filter(|&c| c <= now).max();
            self.0.retain(|&c| c > now);
            last
        }

        fn insert(&mut self, cycle: Cycle) {
            self.0.push(cycle);
            self.0.sort_unstable();
        }

        /// Entry i moves to the latest of `from + i * gap` and, for each
        /// j <= i, entry j's old cycle plus `(i - j) * gap`.
        fn restack(&mut self, from: Cycle, gap: Cycle) {
            let old = self.0.clone();
            for (i, c) in self.0.iter_mut().enumerate() {
                let i = i as u64;
                let pushed = (0..=i).map(|j| old[j as usize] + (i - j) * gap).max();
                *c = pushed.map_or(from, |p| p.max(from + i * gap));
            }
        }
    }

    /// Checks every query of `file` at `now` against `model`, for
    /// capacities below, at and above its length.
    fn check(file: &CompletionFile, model: &Reference, now: Cycle, op: usize) {
        let n = model.0.len();
        assert!(file.cycles.iter().eq(&model.0), "op {op}: contents");
        let searches = file.searches();
        assert_eq!(
            file.pending(now),
            model.pending(now),
            "op {op}: pending at {now}"
        );
        assert_eq!(
            file.first_pending(now),
            model.first_pending(now),
            "op {op}: first pending at {now}"
        );
        let done = n - model.pending(now);
        assert_eq!(
            file.searches() > searches,
            done >= 2,
            "op {op}: a done prefix of {done} and a binary search"
        );
        assert_eq!(file.last(), model.0.last().copied(), "op {op}: last");
        let searches = file.searches();
        for k in [0, 1, 2, 3, n.saturating_sub(1), n, n + 1, n + 5] {
            assert_eq!(
                file.pending_below(k, now),
                model.pending(now) < k,
                "op {op}: fewer than {k} of {n} pending at {now}"
            );
            if k > 0 {
                assert_eq!(
                    Some(file.free_at(k, now)),
                    model.free_at(k, now),
                    "op {op}: a free slot of {k} from {now} in {:?}",
                    model.0
                );
            }
        }
        assert_eq!(
            file.searches(),
            searches,
            "op {op}: a threshold query searched"
        );
    }

    #[test]
    fn answers_match_a_sorted_vec_scanned_linearly() {
        let mut rng = Pcg32::seed_from_u64(0xf11e);
        let (mut checks, mut wrapped, mut searched) = (0, 0, 0);
        for round in 0..12 {
            let mut file = CompletionFile::with_capacity(4);
            let mut model = Reference::default();
            // Tight spreads make ties and long done prefixes; wide ones
            // keep most entries pending.
            let spread = [4, 40, 4_000][round % 3];
            let mut now: Cycle = 10_000;
            for op in 0..2_500 {
                // Time mostly moves on, sometimes stands, sometimes goes back.
                now = match rng.gen_index(8) {
                    0 => now.saturating_sub(rng.gen_range(spread)),
                    1 => now,
                    _ => now + rng.gen_range(spread / 4 + 1),
                };
                // At most 24 entries, so capacities near the length stay
                // cheap to check by scan.
                let room = model.0.len() < 24;
                match rng.gen_index(10) {
                    // In order: at or after the last entry.
                    0..=2 if room => {
                        let c = file.last().unwrap_or(now).max(now) + rng.gen_range(spread);
                        file.insert(c);
                        model.insert(c);
                    }
                    // Out of order: anywhere around `now`, ties included.
                    3..=5 if room => {
                        let c = now.saturating_sub(spread / 2) + rng.gen_range(2 * spread);
                        file.insert(c);
                        model.insert(c);
                    }
                    6 => {
                        let gap = rng.gen_range(spread / 4 + 1);
                        file.restack(now, gap);
                        model.restack(now, gap);
                    }
                    7 => assert_eq!(file.retire(now), model.retire(now), "op {op}: retire"),
                    // Queries only, so done prefixes build up.
                    _ => {}
                }
                // The ring's second slice is non-empty once it wraps.
                wrapped += usize::from(!file.cycles.as_slices().1.is_empty());
                searched += usize::from(model.0.len() - model.pending(now) >= 2);
                check(&file, &model, now, op);
                checks += 1;
            }
        }
        assert_eq!(checks, 30_000);
        assert!(
            wrapped > 1_000 && searched > 1_000,
            "{wrapped} wrapped states, {searched} done prefixes past one"
        );
    }
}
