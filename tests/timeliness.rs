//! Exact-count checks of the prefetch lifetime pipeline: a scripted
//! memory-system trace whose timely / late / evicted-unused outcomes are
//! known in advance, measured through the same `PrefetchLifeEvent` log and
//! `LifetimeTracker` the NVR controller uses.

use nvr::core::LifetimeTracker;
use nvr::mem::{AccessOutcome, MemoryConfig, MemorySystem, PrefetchOutcome};
use nvr::prelude::*;

fn issue(mem: &mut MemorySystem, line: LineAddr, now: Cycle) -> Cycle {
    match mem.prefetch_line(line, now, false) {
        PrefetchOutcome::Issued { fill_done } => fill_done,
        other => panic!("expected issue for {line}, got {other:?}"),
    }
}

#[test]
fn scripted_trace_has_exact_outcome_counts() {
    let cfg = MemoryConfig::default();
    let sets = cfg.l2.sets();
    let mut mem = MemorySystem::new(cfg);
    mem.enable_prefetch_life_log();
    let mut tracker = LifetimeTracker::new(64);

    // 1. Timely: prefetched at 0, demanded well after the fill.
    let timely_line = LineAddr::new(1);
    let fill_timely = issue(&mut mem, timely_line, 0);
    let r = mem.demand_line(timely_line, fill_timely + 10);
    assert!(r.ready_at >= fill_timely);

    // 2. Late: prefetched at 0, demanded mid-fill (merges into the MSHR).
    let late_line = LineAddr::new(2);
    let fill_late = issue(&mut mem, late_line, 0);
    mem.demand_line(late_line, fill_late / 2);

    // 3. Evicted unused: fill one L2 set with ways + 1 prefetched lines;
    // the first one is evicted without ever being demanded.
    let ways = mem.config().l2.ways as usize;
    let base = 3u64;
    for k in 0..=(ways as u64) {
        issue(&mut mem, LineAddr::new(base + k * sets), 0);
    }

    tracker.drain(&mut mem);
    let report = tracker.report();
    assert_eq!(report.timely, 1, "exactly the one post-fill demand");
    assert_eq!(report.late, 1, "exactly the one mid-fill demand");
    assert_eq!(report.evicted_unused, 1, "exactly the one way overflow");
    // The remaining same-set prefetches are still outstanding.
    assert_eq!(report.unresolved, ways as u64);
    assert_eq!(tracker.outstanding(), ways);

    // Slack is measured issue→first-use, per line.
    assert_eq!(report.slack.count(), 2);
    assert_eq!(report.slack.sum(), (fill_timely + 10) + fill_late / 2);
    assert_eq!(report.slack.max(), fill_timely + 10);
}

#[test]
fn redundant_prefetches_do_not_enter_the_log() {
    let mut mem = MemorySystem::new(MemoryConfig::default());
    mem.enable_prefetch_life_log();
    let mut tracker = LifetimeTracker::new(8);

    let line = LineAddr::new(7);
    let fill = issue(&mut mem, line, 0);
    // A second prefetch of the same line is redundant, not a new life.
    assert_eq!(
        mem.prefetch_line(line, 1, false),
        PrefetchOutcome::Redundant
    );
    mem.demand_line(line, fill + 1);

    tracker.drain(&mut mem);
    let report = tracker.report();
    assert_eq!(report.timely, 1);
    assert_eq!(report.slack.count(), 1);
    assert_eq!(report.slack.sum(), fill + 1, "slack from the first issue");
}

#[test]
fn nsb_hits_count_as_first_use() {
    // With an NSB, demands are satisfied without ever probing the L2 —
    // the lifetime log must still see the consumption, or every consumed
    // prefetch would later be misread as an unused eviction (and the
    // usefulness throttle would falsely collapse the lookahead depth).
    let cfg = MemoryConfig::default().with_nsb(CacheConfig::nsb_default());
    let mut mem = MemorySystem::new(cfg);
    mem.enable_prefetch_life_log();
    let mut tracker = LifetimeTracker::new(8);

    let line = LineAddr::new(5);
    let fill = issue_nsb(&mut mem, line);
    let r = mem.demand_line(line, fill + 1);
    assert_eq!(r.outcome, AccessOutcome::NsbHit, "demand never reaches L2");

    tracker.drain(&mut mem);
    let report = tracker.report();
    assert_eq!(report.timely, 1, "NSB hit recorded as first use");
    assert_eq!(report.evicted_unused, 0);
    assert_eq!(report.unresolved, 0);
}

fn issue_nsb(mem: &mut MemorySystem, line: LineAddr) -> Cycle {
    match mem.prefetch_line(line, 0, true) {
        PrefetchOutcome::Issued { fill_done } => fill_done,
        other => panic!("expected issue, got {other:?}"),
    }
}

#[test]
fn nvr_run_report_is_consistent_with_l2_counters() {
    // On every tiny workload under NVR and NVR+NSB, at one and two DRAM
    // channels, the tracker's measured outcomes must agree with the
    // hierarchy's aggregate prefetch counters. Every prefetch the L2
    // issued ends exactly one way: timely, late, evicted unused, or still
    // unresolved when the run ends. Every used prefetch the tracker saw
    // was counted useful by the level its first demand touched (the NSB
    // when there is one, else the L2). Without an NSB, late is bounded by
    // the L2's prefetch_late (the L2 also counts lives begun before the
    // log could resolve them); with one, the tracker judges lateness by
    // the L2 copy's fill and neither level's count bounds it.
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
                    let nsb_useful = stats
                        .nsb
                        .as_ref()
                        .map_or(0, |nsb| nsb.prefetch_useful.get());
                    assert_eq!(
                        t.timely + t.late + t.evicted_unused + t.unresolved,
                        l2.prefetch_issued.get(),
                        "{cell}: outcomes {t:?} do not add up to the L2's issued prefetches"
                    );
                    assert!(t.used() > 0, "{cell}: runahead must land used prefetches");
                    assert!(
                        t.used() <= l2.prefetch_useful.get() + nsb_useful,
                        "{cell}: tracker used {} exceeds L2 useful {} + NSB useful {nsb_useful}",
                        t.used(),
                        l2.prefetch_useful.get()
                    );
                    if stats.nsb.is_none() {
                        assert!(
                            t.late <= l2.prefetch_late.get(),
                            "{cell}: tracker late {} exceeds L2 late {}",
                            t.late,
                            l2.prefetch_late.get()
                        );
                    }
                    assert_eq!(t.slack.count(), t.used(), "{cell}");
                    assert!(t.slack.mean() > 0.0, "{cell}");
                }
            }
        }
    }
}
