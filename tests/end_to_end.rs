//! End-to-end integration tests spanning the whole stack: workload
//! generators → NPU engine → memory hierarchy → prefetchers.

use nvr::prelude::*;

/// Every workload runs to completion under every system, and basic timing
/// invariants hold.
#[test]
fn all_workloads_under_all_systems() {
    let mem_cfg = MemoryConfig::default();
    for workload in WorkloadId::ALL {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 1);
        let program = workload.build(&spec);
        let stats = program.stats();
        for system in SystemKind::ALL {
            let o = run_system(&program, &mem_cfg, system);
            assert!(
                o.result.total_cycles > 0,
                "{}/{}: zero cycles",
                workload.short(),
                system.label()
            );
            assert!(
                o.base_cycles <= o.result.total_cycles,
                "{}/{}: base exceeds total",
                workload.short(),
                system.label()
            );
            assert_eq!(
                o.result.gather_elements,
                stats.gather_elems,
                "{}/{}: gather count drifted",
                workload.short(),
                system.label()
            );
            assert!(
                o.result.compute_cycles == stats.compute_cycles,
                "{}/{}: compute drifted",
                workload.short(),
                system.label()
            );
        }
    }
}

/// NVR never loses to the in-order baseline, on any workload or width.
#[test]
fn nvr_dominates_inorder_everywhere() {
    let mem_cfg = MemoryConfig::default();
    for workload in WorkloadId::ALL {
        for width in DataWidth::ALL {
            let spec = WorkloadSpec::tiny(width, 5);
            let program = workload.build(&spec);
            let ino = run_system(&program, &mem_cfg, SystemKind::InOrder);
            let nvr = run_system(&program, &mem_cfg, SystemKind::Nvr);
            assert!(
                nvr.result.total_cycles <= ino.result.total_cycles,
                "{}/{}: NVR {} vs InO {}",
                workload.short(),
                width,
                nvr.result.total_cycles,
                ino.result.total_cycles
            );
        }
    }
}

/// Out-of-order issue never loses to the in-order baseline, on any
/// workload or width: hiding latency behind independent work can only
/// help on the same memory system.
#[test]
fn ooo_never_slower_than_inorder() {
    let mem_cfg = MemoryConfig::default();
    for workload in WorkloadId::ALL {
        for width in DataWidth::ALL {
            let spec = WorkloadSpec::tiny(width, 2025);
            let program = workload.build(&spec);
            let ino = run_system(&program, &mem_cfg, SystemKind::InOrder);
            let ooo = run_system(&program, &mem_cfg, SystemKind::OutOfOrder);
            assert!(
                ooo.result.total_cycles <= ino.result.total_cycles,
                "{}/{}: OoO {} vs InO {}",
                workload.short(),
                width,
                ooo.result.total_cycles,
                ino.result.total_cycles
            );
        }
    }
}

/// Memory-bound runs respond monotonically to the memory: raising DRAM
/// latency 150 → 300 → 600 cycles never lowers a total, and adding
/// channels 1 → 2 → 4 never raises one. Every workload under every system,
/// tiny scale, FP16, all through one lab.
#[test]
fn totals_monotone_in_dram_latency_and_channels() {
    use nvr::sim::lab::Cell;

    let memory = |latency, channels| {
        let mut mem =
            MemoryConfig::default().with_dram(DramConfig::default().with_channels(channels));
        mem.dram.latency = latency;
        mem
    };
    // Indices 0..=2 step the latency at one channel; 1, 3 and 4 step the
    // channels at the default latency.
    let memories = [
        memory(150, 1),
        memory(300, 1),
        memory(600, 1),
        memory(300, 2),
        memory(300, 4),
    ];
    assert_eq!(memories[1], MemoryConfig::default());
    let spec = WorkloadSpec::tiny(DataWidth::Fp16, 2025);
    let cells: Vec<Cell> = memories
        .iter()
        .flat_map(|mem| Cell::grid(&WorkloadId::ALL, &SystemKind::ALL, spec, mem))
        .collect();
    let outcomes = Lab::new(2).run(&cells);
    let per_memory = WorkloadId::ALL.len() * SystemKind::ALL.len();
    for i in 0..per_memory {
        let total = |m: usize| outcomes[m * per_memory + i].result.total_cycles;
        let cell = &outcomes[i];
        let name = format!("{}/{}", cell.result.name, cell.system.label());
        // (the faster memory, the slower one, the step between them)
        for (fast, slow, step) in [
            (0, 1, "latency 150 -> 300"),
            (1, 2, "latency 300 -> 600"),
            (3, 1, "channels 1 -> 2"),
            (4, 3, "channels 2 -> 4"),
        ] {
            assert!(
                total(fast) <= total(slow),
                "{name}, {step}: {} cycles on the faster memory, {} on the slower",
                total(fast),
                total(slow)
            );
        }
    }
}

/// The paper's ordering on the scattered-gather workloads: runahead beats
/// pattern-based prefetching, which beats nothing.
#[test]
fn prefetcher_hierarchy_on_scattered_gathers() {
    let mem_cfg = MemoryConfig::default();
    let spec = WorkloadSpec::tiny(DataWidth::Fp16, 9);
    let program = WorkloadId::Ds.build(&spec);
    let cycles = |system| run_system(&program, &mem_cfg, system).result.total_cycles;
    let ino = cycles(SystemKind::InOrder);
    let dvr = cycles(SystemKind::Dvr);
    let nvr = cycles(SystemKind::Nvr);
    assert!(nvr < ino, "NVR {nvr} must beat InO {ino}");
    assert!(nvr <= dvr, "NVR {nvr} must not lose to DVR {dvr}");
    assert!(dvr < ino, "DVR {dvr} must beat InO {ino}");
}

/// The NSB helps NVR but not an inaccurate prefetcher (§V-B: "NSB
/// activation depends on prefetcher accuracy").
#[test]
fn nsb_depends_on_prefetcher_accuracy() {
    use nvr::core::nsb_config;
    let plain = MemoryConfig::default();
    let with_nsb = MemoryConfig::default().with_nsb(nsb_config(16));
    let spec = WorkloadSpec::tiny(DataWidth::Int32, 13);
    let program = WorkloadId::H2o.build(&spec);

    let nvr_plain = run_system(&program, &plain, SystemKind::Nvr);
    let nvr_nsb = run_system(&program, &with_nsb, SystemKind::Nvr);
    // Latency must not regress beyond noise (the NSB lookup adds 2 cycles
    // to its misses), and NPU-visible L2 traffic must drop (its purpose).
    assert!(
        nvr_nsb.result.total_cycles as f64 <= nvr_plain.result.total_cycles as f64 * 1.02,
        "NSB should not hurt accurate NVR: {} vs {}",
        nvr_nsb.result.total_cycles,
        nvr_plain.result.total_cycles
    );
    let l2_demands_nsb = nvr_nsb.result.mem.l2.demand_accesses();
    let l2_demands_plain = nvr_plain.result.mem.l2.demand_accesses();
    assert!(
        l2_demands_nsb < l2_demands_plain,
        "NSB should absorb NPU-side reads: {l2_demands_nsb} vs {l2_demands_plain}"
    );
}

/// The first-class NVR+NSB system beats plain NVR on a reuse-heavy
/// workload (SCN's voxel neighbourhoods revisit rows; §IV-G's implicit
/// cache-line reuse): retained rows hit at NSB latency instead of L2
/// latency.
#[test]
fn nvr_nsb_wins_on_reuse_heavy_workload() {
    let mem_cfg = MemoryConfig::default();
    for seed in [1, 5, 13] {
        let spec = WorkloadSpec::tiny(DataWidth::Fp16, seed);
        let program = WorkloadId::Scn.build(&spec);
        let nvr = run_system(&program, &mem_cfg, SystemKind::Nvr);
        let nsb = run_system(&program, &mem_cfg, SystemKind::NvrNsb);
        assert!(
            nsb.result.total_cycles <= nvr.result.total_cycles,
            "seed {seed}: NVR+NSB {} should not lose to NVR {} on SCN",
            nsb.result.total_cycles,
            nvr.result.total_cycles
        );
        // The win comes from the buffer absorbing NPU-side reads.
        let nsb_hits = nsb
            .result
            .mem
            .nsb
            .as_ref()
            .expect("NSB stats present")
            .demand_hits
            .get();
        assert!(nsb_hits > 0, "seed {seed}: NSB should serve demands");
    }
}

/// Gather counts, misses and hits are mutually consistent.
#[test]
fn stat_consistency() {
    let mem_cfg = MemoryConfig::default();
    let spec = WorkloadSpec::tiny(DataWidth::Int8, 21);
    let program = WorkloadId::Gcn.build(&spec);
    let o = run_system(&program, &mem_cfg, SystemKind::Nvr);
    let l2 = &o.result.mem.l2;
    assert_eq!(
        l2.demand_accesses(),
        l2.demand_hits.get() + l2.mshr_merges.get() + l2.demand_misses.get()
    );
    assert!(o.result.gather_element_misses <= o.result.gather_elements);
    assert!(o.result.gather_batch_misses <= o.result.gather_batches);
    assert!(o.result.batch_miss_rate() >= o.result.element_miss_rate());
    let acc = o.result.mem.prefetch_accuracy();
    assert!((0.0..=1.0).contains(&acc));
}

/// The ideal-memory run is a true lower bound across systems.
#[test]
fn ideal_memory_is_lower_bound() {
    let spec = WorkloadSpec::tiny(DataWidth::Fp16, 17);
    let program = WorkloadId::Gsabt.build(&spec);
    let bases: Vec<u64> = SystemKind::ALL
        .iter()
        .map(|&s| run_system(&program, &MemoryConfig::default(), s).base_cycles)
        .collect();
    // In-order systems share the same base; OoO's differs but is not larger.
    let ino_base = bases[0];
    for (i, &b) in bases.iter().enumerate() {
        assert!(
            b <= ino_base,
            "system {i} base {b} exceeds in-order base {ino_base}"
        );
    }
}
