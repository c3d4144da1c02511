//! Property-based tests of the memory hierarchy's timing invariants.

use proptest::prelude::*;

use nvr_common::{LineAddr, Pcg32};
use nvr_mem::{AccessOutcome, CacheConfig, MemoryConfig, MemorySystem};

proptest! {
    /// Data is never ready before `now + min latency`, and a second access
    /// to the same line at/after readiness always hits.
    #[test]
    fn ready_time_sane_and_refetch_hits(seed in any::<u64>(), n in 1usize..60) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let min_lat = MemoryConfig::default().min_demand_latency();
        let mut now = 0;
        for _ in 0..n {
            let line = LineAddr::new(rng.gen_range(1 << 20));
            let r = mem.demand_line(line, now);
            prop_assert!(r.ready_at >= now + min_lat);
            let again = mem.demand_line(line, r.ready_at);
            prop_assert!(matches!(again.outcome, AccessOutcome::L2Hit));
            now = r.ready_at + 1;
        }
    }

    /// Prefetching never changes functional behaviour, only timing: after
    /// an arbitrary mix of prefetches, a demand still completes and the
    /// stats identity (hits + merges + misses == accesses) holds. Every
    /// prefetch the L2 issued ends exactly one way, with or without an NSB
    /// that prefetches also fill and that serves demands first, and so
    /// does every prefetch the NSB issued.
    #[test]
    fn prefetch_preserves_invariants(
        seed in any::<u64>(),
        ops in 1usize..120,
        with_nsb in any::<bool>(),
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let cfg = if with_nsb {
            MemoryConfig::default().with_nsb(CacheConfig::nsb_default())
        } else {
            MemoryConfig::default()
        };
        let mut mem = MemorySystem::new(cfg);
        let mut now = 0u64;
        for _ in 0..ops {
            // 256 lines over four L2 sets and one NSB set: lines are
            // reused, and both levels evict.
            let line = LineAddr::new(rng.gen_range(1 << 8) << 7);
            if rng.gen_bool(0.5) {
                let _ = mem.prefetch_line(line, now, with_nsb);
            } else {
                let r = mem.demand_line(line, now);
                prop_assert!(r.ready_at >= now);
            }
            now += rng.gen_range(50) + 1;
        }
        mem.finalize();
        let s = mem.stats();
        prop_assert_eq!(
            s.l2.demand_accesses(),
            s.l2.demand_hits.get() + s.l2.mshr_merges.get() + s.l2.demand_misses.get()
        );
        for level in std::iter::once(&s.l2).chain(&s.nsb) {
            prop_assert_eq!(
                level.prefetch_issued.get(),
                level.prefetch_useful.get()
                    + level.prefetch_evicted_unused.get()
                    + level.prefetch_resident_unused.get()
            );
        }
    }

    /// DRAM completions are monotone in request order at a fixed address
    /// stream: later requests never complete before earlier ones.
    #[test]
    fn dram_completions_monotone(seed in any::<u64>(), n in 2usize..50) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut last_ready = 0;
        let mut now = 0;
        for i in 0..n {
            // Distinct lines so every access is a true miss.
            let r = mem.demand_line(LineAddr::new(1 << 30 | i as u64), now);
            prop_assert!(r.ready_at >= last_ready);
            last_ready = r.ready_at;
            now += rng.gen_range(10);
        }
    }
}
