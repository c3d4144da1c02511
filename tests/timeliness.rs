//! Exact-count checks of the prefetch lifetime record: scripted
//! memory-system traces whose timely / late / evicted-unused / unresolved
//! outcomes are known in advance, read through the same
//! `TimelinessReport::measure` and `LifetimeTracker` the NVR controller
//! uses.

use nvr::core::LifetimeTracker;
use nvr::mem::{AccessOutcome, MemoryConfig, MemorySystem, PrefetchOutcome};
use nvr::prelude::*;

fn issue(mem: &mut MemorySystem, line: LineAddr, now: Cycle, fill_nsb: bool) -> Cycle {
    match mem.prefetch_line(line, now, fill_nsb) {
        PrefetchOutcome::Issued { fill_done } => fill_done,
        other => panic!("expected issue for {line}, got {other:?}"),
    }
}

/// The report of the finished run: finalizes `mem` first, as the engine
/// does before NVR measures.
fn report(mem: &mut MemorySystem) -> TimelinessReport {
    mem.finalize();
    TimelinessReport::measure(mem)
}

/// Prefetches `ways` lines that share `line`'s L2 set at `now`, without
/// filling the NSB: enough to evict `line` from the L2 when it is the
/// set's least recently used way.
fn crowd_out(mem: &mut MemorySystem, line: LineAddr, now: Cycle) {
    let (sets, ways) = (mem.config().l2.sets(), mem.config().l2.ways);
    for k in 1..=ways {
        issue(mem, LineAddr::new(line.index() + k * sets), now, false);
    }
}

#[test]
fn scripted_trace_has_exact_outcome_counts() {
    let cfg = MemoryConfig::default();
    let sets = cfg.l2.sets();
    let mut mem = MemorySystem::new(cfg);
    mem.record_prefetch_outcomes();
    let mut tracker = LifetimeTracker::new(64);

    // 1. Timely: prefetched at 0, demanded well after the fill.
    let timely_line = LineAddr::new(1);
    let fill_timely = issue(&mut mem, timely_line, 0, false);
    let r = mem.demand_line(timely_line, fill_timely + 10);
    assert!(r.ready_at >= fill_timely);

    // 2. Late: prefetched at 0, demanded mid-fill (merges into the MSHR).
    let late_line = LineAddr::new(2);
    let fill_late = issue(&mut mem, late_line, 0, false);
    mem.demand_line(late_line, fill_late / 2);

    // 3. Evicted unused: fill one L2 set with ways + 1 prefetched lines;
    // the first one is evicted without ever being demanded.
    let ways = mem.config().l2.ways;
    for k in 0..=ways {
        issue(&mut mem, LineAddr::new(3 + k * sets), 0, false);
    }

    // The throttle sees the three ended lives, one of them wasted.
    tracker.drain(&mut mem);
    assert!((tracker.rolling_wasted_ratio() - 1.0 / 3.0).abs() < 1e-12);

    let report = report(&mut mem);
    assert_eq!(report.timely, 1, "exactly the one post-fill demand");
    assert_eq!(report.late, 1, "exactly the one mid-fill demand");
    assert_eq!(report.evicted_unused, 1, "exactly the one way overflow");
    // The remaining same-set prefetches are still outstanding.
    assert_eq!(report.unresolved, ways);
    assert_eq!(report.used(), 2);
    assert!((report.late_fraction() - 0.5).abs() < 1e-12);
    // Every accepted fill records its channel queue delay.
    assert_eq!(report.queue_delay.count(), ways + 3);

    // Slack is measured issue→first-use, per line.
    assert_eq!(report.slack.count(), 2);
    assert_eq!(report.slack.sum(), (fill_timely + 10) + fill_late / 2);
    assert_eq!(report.slack.max(), fill_timely + 10);
}

#[test]
fn redundant_prefetches_do_not_enter_the_log() {
    let mut mem = MemorySystem::new(MemoryConfig::default());

    let line = LineAddr::new(7);
    let fill = issue(&mut mem, line, 0, false);
    // A second prefetch of the same line is redundant, not a new life.
    assert_eq!(
        mem.prefetch_line(line, 1, false),
        PrefetchOutcome::Redundant
    );
    mem.demand_line(line, fill + 1);

    let report = report(&mut mem);
    assert_eq!(report.timely, 1);
    assert_eq!(report.slack.count(), 1);
    assert_eq!(report.slack.sum(), fill + 1, "slack from the first issue");
}

#[test]
fn unresolved_counts_pending() {
    let mut mem = MemorySystem::new(MemoryConfig::default());
    mem.record_prefetch_outcomes();
    let mut tracker = LifetimeTracker::new(4);
    issue(&mut mem, LineAddr::new(9), 5, false);
    tracker.drain(&mut mem);
    assert_eq!(tracker.rolling_wasted_ratio(), 0.0, "nothing ended yet");
    let report = report(&mut mem);
    assert_eq!(report.unresolved, 1);
    assert_eq!(report.used() + report.evicted_unused, 0);
}

#[test]
fn reissue_after_eviction_restarts_life() {
    let mut mem = MemorySystem::new(MemoryConfig::default());
    let line = LineAddr::new(5);
    issue(&mut mem, line, 0, false);
    crowd_out(&mut mem, line, 0);
    assert!(!mem.npu_side_contains(line), "the first life ended unused");
    // Re-issued once every fill has landed, the line starts a new life
    // (evicting one more of the crowd, unused) and is used in time.
    let reissue = 10_000;
    let fill = issue(&mut mem, line, reissue, false);
    mem.demand_line(line, fill + 50);

    let report = report(&mut mem);
    assert_eq!((report.timely, report.late), (1, 0));
    assert_eq!(report.evicted_unused, 2);
    assert_eq!(
        report.slack.sum(),
        fill + 50 - reissue,
        "slack measured from the re-issue"
    );
}

fn nsb_mem() -> MemorySystem {
    MemorySystem::new(MemoryConfig::default().with_nsb(CacheConfig::nsb_default()))
}

#[test]
fn nsb_hits_count_as_first_use() {
    // With an NSB, demands are satisfied without ever probing the L2 —
    // the L2's record must still see the consumption, or every consumed
    // prefetch would later be misread as an unused eviction (and the
    // usefulness throttle would falsely collapse the lookahead depth).
    let mut mem = nsb_mem();
    let line = LineAddr::new(5);
    let fill = issue(&mut mem, line, 0, true);
    let r = mem.demand_line(line, fill + 1);
    assert_eq!(r.outcome, AccessOutcome::NsbHit, "demand never reaches L2");

    let report = report(&mut mem);
    assert_eq!(report.timely, 1, "NSB hit recorded as first use");
    assert_eq!(report.evicted_unused, 0);
    assert_eq!(report.unresolved, 0);
}

#[test]
fn nsb_hit_on_a_filled_copy_is_timely_while_the_l2_refetches() {
    // The NSB keeps a filled copy of a line the L2 evicted. A new prefetch
    // of the line starts a second L2 life whose fill is still in flight
    // when the NSB serves the next demand: the serving copy was ready, so
    // that use is timely.
    let mut mem = nsb_mem();
    let line = LineAddr::new(5);
    let fill = issue(&mut mem, line, 0, true);
    assert_eq!(
        mem.demand_line(line, fill + 1).outcome,
        AccessOutcome::NsbHit
    );
    crowd_out(&mut mem, line, fill + 10);
    let refetch = fill + 11;
    let refill = issue(&mut mem, line, refetch, true);
    let served = refetch + 1;
    assert!(served < refill, "the L2's copy is still filling");
    assert_eq!(mem.demand_line(line, served).outcome, AccessOutcome::NsbHit);

    let report = report(&mut mem);
    assert_eq!((report.timely, report.late), (2, 0));
    assert_eq!(mem.stats().l2.prefetch_late.get(), 0);
}

#[test]
fn a_prefetch_used_only_through_the_nsb_is_fully_accurate() {
    let mut mem = nsb_mem();
    let line = LineAddr::new(11);
    let fill = issue(&mut mem, line, 0, true);
    mem.demand_line(line, fill + 1);
    mem.finalize();
    let stats = mem.stats();
    assert_eq!(stats.nsb.as_ref().map(|n| n.prefetch_useful.get()), Some(1));
    assert_eq!(stats.l2.prefetch_useful.get(), 1, "counted once, at the L2");
    assert_eq!(stats.prefetch_accuracy(), 1.0);
}

#[test]
fn nvr_run_report_is_consistent_with_l2_counters() {
    // On every tiny workload under NVR and NVR+NSB, at one and two DRAM
    // channels, NVR's reported outcomes are the L2's record of each
    // prefetch's life, and every prefetch the L2 issued ends exactly one
    // way: timely, late, evicted unused, or still unresolved when the run
    // ends.
    for channels in [1, 2] {
        let mem = MemoryConfig::default().with_dram(DramConfig::default().with_channels(channels));
        for seed in [11, 2025] {
            for workload in WorkloadId::ALL {
                let program = workload.build(&WorkloadSpec::tiny(DataWidth::Fp16, seed));
                for system in [SystemKind::Nvr, SystemKind::NvrNsb] {
                    let cell = format!(
                        "{} {} seed {seed}, {channels} ch",
                        workload.short(),
                        system.label()
                    );
                    let outcome = run_system(&program, &mem, system);
                    let t = outcome.timeliness.expect("NVR reports timeliness");
                    let stats = &outcome.result.mem;
                    let l2 = &stats.l2;
                    assert_eq!(
                        t.timely + t.late + t.evicted_unused + t.unresolved,
                        l2.prefetch_issued.get(),
                        "{cell}: outcomes {t:?} do not add up to the L2's issued prefetches"
                    );
                    assert!(t.used() > 0, "{cell}: runahead must land used prefetches");
                    assert_eq!(t.used(), l2.prefetch_useful.get(), "{cell}: used");
                    assert_eq!(t.late, l2.prefetch_late.get(), "{cell}: late");
                    assert_eq!(
                        t.evicted_unused,
                        l2.prefetch_evicted_unused.get(),
                        "{cell}: evicted unused"
                    );
                    assert_eq!(
                        t.unresolved,
                        l2.prefetch_resident_unused.get(),
                        "{cell}: unresolved"
                    );
                    assert_eq!(
                        t.queue_delay,
                        stats.dram.queue_delay_merged(),
                        "{cell}: queue delay"
                    );
                    assert_eq!(t.slack.count(), t.used(), "{cell}");
                    assert!(t.slack.mean() > 0.0, "{cell}");
                }
            }
        }
    }
}
