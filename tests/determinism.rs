//! Bit-level determinism: identical seeds must produce identical programs
//! and identical simulation results — the precondition for comparing
//! prefetchers on the same access stream.

use nvr::prelude::*;
use nvr::sim::{PrefetcherSpec, SystemSpec};
use nvr::trace::GatherDesc;
use nvr::workloads::spec::{INDEX_BASE, TABLE_BASE};

#[test]
fn identical_seeds_identical_results() {
    for workload in [WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat] {
        let run = || {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, 777);
            let program = workload.build(&spec);
            let o = run_system(&program, &MemoryConfig::default(), SystemKind::Nvr);
            (
                o.result.total_cycles,
                o.result.gather_element_misses,
                o.result.mem.l2.prefetch_issued.get(),
                o.result.mem.dram.demand_lines.get(),
            )
        };
        assert_eq!(run(), run(), "{} not deterministic", workload.short());
    }
}

#[test]
fn different_seeds_differ() {
    let totals: Vec<u64> = (0..3)
        .map(|seed| {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, seed);
            let program = WorkloadId::Ds.build(&spec);
            run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
                .result
                .total_cycles
        })
        .collect();
    assert!(
        totals.windows(2).any(|w| w[0] != w[1]),
        "seeds should change the trace: {totals:?}"
    );
}

#[test]
fn width_changes_timing_not_structure() {
    let structure = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        (program.tiles.len(), program.stats().gather_elems)
    };
    // Same tile structure across widths (only row bytes change)...
    assert_eq!(structure(DataWidth::Int8), structure(DataWidth::Int32));
    // ...but wider data takes longer on the same memory system.
    let cycles = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
            .result
            .total_cycles
    };
    assert!(cycles(DataWidth::Int32) > cycles(DataWidth::Int8));
}

#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    // The sweep runner must be a pure parallelisation: fanning the grid
    // out over 4 workers may not change a single counter relative to the
    // single-threaded run of the same spec. The spec deliberately covers
    // the NSB-backed system (whose scored retention and VMIG admission
    // threshold are active), every tile order (so the order-permuted GAT
    // builds are part of the contract), and a two-channel DRAM backend,
    // so the demand/prefetch arbitration and channel interleave are part
    // of the bit-equality contract.
    let spec = SweepSpec {
        workloads: vec![WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat],
        systems: vec![SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb],
        scales: vec![Scale::Tiny],
        orders: TileOrder::ALL.to_vec(),
        widths: vec![DataWidth::Fp16],
        seeds: vec![777, 778],
        mem_cfg: MemoryConfig {
            dram: DramConfig::default().with_channels(2),
            ..MemoryConfig::default()
        },
    };
    let serial = run_sweep(&spec, 1);
    let parallel = run_sweep(&spec, 4);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.job.key(), b.job.key(), "job order must be stable");
        assert_eq!(
            a.outcome.result.total_cycles,
            b.outcome.result.total_cycles,
            "{}: cycles differ across worker counts",
            a.job.key()
        );
        assert_eq!(
            a.outcome.base_cycles,
            b.outcome.base_cycles,
            "{}: base cycles differ",
            a.job.key()
        );
        assert_eq!(
            (
                a.outcome.result.gather_element_misses,
                a.outcome.result.mem.l2.demand_misses.get(),
                a.outcome.result.mem.l2.prefetch_issued.get(),
                a.outcome.result.mem.dram.demand_lines.get(),
            ),
            (
                b.outcome.result.gather_element_misses,
                b.outcome.result.mem.l2.demand_misses.get(),
                b.outcome.result.mem.l2.prefetch_issued.get(),
                b.outcome.result.mem.dram.demand_lines.get(),
            ),
            "{}: memory counters differ across worker counts",
            a.job.key()
        );
        // The measured timeliness — including the full issue→use slack
        // histogram, bucket by bucket — must be bit-identical too.
        assert_eq!(
            a.outcome.timeliness,
            b.outcome.timeliness,
            "{}: timeliness histogram differs across worker counts",
            a.job.key()
        );
        // Per-channel counters (utilisation inputs, queue-delay
        // histograms) are part of the bit-equality contract too.
        assert_eq!(
            a.outcome.result.mem.dram.channels,
            b.outcome.result.mem.dram.channels,
            "{}: per-channel stats differ across worker counts",
            a.job.key()
        );
        assert_eq!(a.outcome.result.mem.dram.channels.len(), 2);
        if a.job.system == SystemKind::Nvr || a.job.system == SystemKind::NvrNsb {
            let t = a
                .outcome
                .timeliness
                .as_ref()
                .expect("NVR cells carry a timeliness report");
            assert!(
                t.slack.count() > 0,
                "{}: NVR should measure a nonzero slack distribution",
                a.job.key()
            );
            assert!(
                t.queue_delay.count() > 0,
                "{}: issued prefetches record channel queue delay",
                a.job.key()
            );
        }
    }
    // And the canonical CSV renditions are byte-identical.
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

/// Pinned result fingerprints for every system on one graph workload and
/// one attention workload.
///
/// The simulator's hot paths are data-layout- and scheduling-optimised
/// (SoA cache metadata, sorted MSHR files, event-driven issue skipping,
/// open-addressed bookkeeping maps); none of that may move a single
/// counter. This table is the seed behaviour, captured before those
/// rewrites: cycles, hit/miss splits, DRAM traffic, prefetch usefulness
/// and the full timeliness outcome, per system. A mismatch means a
/// "performance" change altered simulation semantics — exactly the
/// regression this suite exists to catch. (`tiny_grid_cycle_total_is_pinned`
/// covers the whole tiny grid's cycle sum; this test pins the per-system,
/// per-counter decomposition.)
#[test]
fn optimised_hot_paths_match_seed_fingerprints() {
    // Columns: workload, system, total_cycles, base_cycles,
    // l2_demand_misses, l2_demand_hits, dram_demand_lines,
    // l2_prefetch_issued, l2_prefetch_useful, timely, late,
    // evicted_unused, slack_sum.
    const GOLDEN: &[(&str, &str, [u64; 11])] = &[
        (
            "GCN",
            "InO",
            [331088, 50435, 18542, 3009, 18542, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "OoO",
            [244120, 42440, 18546, 3001, 18546, 0, 0, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "Stream",
            [327376, 50435, 18197, 3160, 18197, 523, 364, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "IMP",
            [324648, 50435, 17812, 3714, 17812, 1288, 812, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "DVR",
            [269000, 50435, 11578, 9967, 11578, 7771, 7096, 0, 0, 0, 0],
        ),
        (
            "GCN",
            "NVR",
            [
                190193, 50435, 5789, 8578, 5789, 12862, 12814, 5630, 7184, 47, 10622041,
            ],
        ),
        (
            "GCN",
            "NVR+NSB",
            [
                189670, 45448, 5585, 3376, 5585, 12872, 4546, 5693, 7018, 160, 10439650,
            ],
        ),
        (
            "H2O",
            "InO",
            [71816, 16928, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "OoO",
            [49949, 12338, 2168, 4168, 2168, 0, 0, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "Stream",
            [71280, 16928, 2012, 4232, 2012, 157, 156, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "IMP",
            [67504, 16928, 1629, 4706, 1629, 735, 540, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "DVR",
            [68000, 16928, 1744, 4264, 1744, 498, 424, 0, 0, 0, 0],
        ),
        (
            "H2O",
            "NVR",
            [
                25167, 16928, 40, 5902, 40, 2135, 2128, 1734, 394, 0, 1837241,
            ],
        ),
        (
            "H2O",
            "NVR+NSB",
            [25241, 12896, 40, 253, 40, 2135, 281, 1454, 674, 0, 1630986],
        ),
    ];
    let mut idx = 0;
    for workload in [WorkloadId::Gcn, WorkloadId::H2o] {
        let spec = WorkloadSpec {
            width: DataWidth::Fp16,
            seed: 777,
            scale: Scale::Tiny,
            order: TileOrder::Natural,
        };
        let program = workload.build(&spec);
        for system in SystemKind::ALL {
            let o = run_system(&program, &MemoryConfig::default(), system);
            let m = &o.result.mem;
            let t = o.timeliness.clone().unwrap_or_default();
            let got = (
                workload.short(),
                system.label(),
                [
                    o.result.total_cycles,
                    o.base_cycles,
                    m.l2.demand_misses.get(),
                    m.l2.demand_hits.get(),
                    m.dram.demand_lines.get(),
                    m.l2.prefetch_issued.get(),
                    m.l2.prefetch_useful.get(),
                    t.timely,
                    t.late,
                    t.evicted_unused,
                    t.slack.sum(),
                ],
            );
            assert_eq!(
                got,
                GOLDEN[idx],
                "{} / {} deviates from the seed fingerprint",
                workload.short(),
                system.label()
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "every golden row must be exercised");
}

/// The summed `total_cycles` of the pinned tiny grid: every workload under
/// every system, natural order, FP16, seed 2025 (56 cells). The total is
/// bit-exact on any host, so a change that moves any cell's timing fails
/// here even when it leaves the fingerprinted workloads above untouched.
#[test]
fn tiny_grid_cycle_total_is_pinned() {
    let spec = SweepSpec {
        workloads: WorkloadId::ALL.to_vec(),
        systems: SystemKind::ALL.to_vec(),
        scales: vec![Scale::Tiny],
        orders: vec![TileOrder::Natural],
        widths: vec![DataWidth::Fp16],
        seeds: vec![2025],
        mem_cfg: MemoryConfig::default(),
    };
    let results = run_sweep(&spec, 2);
    assert_eq!(results.cells.len(), 56);
    let total: u64 = results
        .cells
        .iter()
        .map(|c| c.outcome.result.total_cycles)
        .sum();
    assert_eq!(total, 5_699_443);
}

/// `SystemSpec::base_cycles` computes the ideal-memory base in closed form
/// (`NpuEngine::base_cycles`); the engine run over `MemorySystem::ideal`
/// is its reference model. They must agree on every workload under both
/// NPU modes, with and without an NSB (whose hit latency is the all-hit
/// latency), over every order and width at tiny scale and at default
/// scale.
#[test]
fn closed_form_base_matches_ideal_memory_engine() {
    let mut specs: Vec<WorkloadSpec> = TileOrder::ALL
        .into_iter()
        .flat_map(|order| {
            DataWidth::ALL
                .into_iter()
                .map(move |width| WorkloadSpec::tiny(width, 2025).with_order(order))
        })
        .collect();
    specs.push(WorkloadSpec::new(DataWidth::Fp16, 2025));
    let mems = [
        MemoryConfig::default(),
        MemoryConfig::default().with_nsb(nsb_config(16)),
    ];
    let mut cells = 0;
    for spec in &specs {
        for workload in WorkloadId::ALL {
            let program = workload.build(spec);
            for npu in [NpuConfig::default(), NpuConfig::out_of_order()] {
                let engine = NpuEngine::new(npu.clone());
                for mem in &mems {
                    let system = SystemSpec {
                        npu: npu.clone(),
                        mem: mem.clone(),
                        prefetcher: PrefetcherSpec::None,
                    };
                    let reference = engine
                        .run(
                            &program,
                            &mut MemorySystem::ideal(mem.clone()),
                            &mut NullPrefetcher::new(),
                        )
                        .total_cycles;
                    assert_eq!(
                        system.base_cycles(&program),
                        reference,
                        "{} {:?} {:?} {:?}, {:?}, NSB {}",
                        workload.short(),
                        spec.scale,
                        spec.order,
                        spec.width,
                        npu.exec,
                        mem.nsb.is_some()
                    );
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 10 * 8 * 2 * 2);
}

/// FNV-1a over 64-bit words: the program fingerprint's digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Content hash of a built program: its name and width, every tile's
/// fields and index values, and every word of every image segment.
fn program_fingerprint(p: &NpuProgram) -> u64 {
    let mut d = Digest::new();
    for b in p.name.bytes() {
        d.word(u64::from(b));
    }
    d.word(p.width.bytes());
    d.word(p.tiles.len() as u64);
    for t in &p.tiles {
        d.word(t.id as u64);
        d.word(t.index_region.start().raw());
        d.word(t.index_region.bytes());
        match t.gather {
            None => d.word(0),
            Some(GatherDesc { func, batch }) => {
                match func {
                    SparseFunc::Affine { ia_base, row_bytes } => {
                        d.word(1);
                        d.word(ia_base.raw());
                        d.word(row_bytes);
                    }
                    SparseFunc::TableLookup {
                        table_base,
                        ia_base,
                        row_bytes,
                    } => {
                        d.word(2);
                        d.word(table_base.raw());
                        d.word(ia_base.raw());
                        d.word(row_bytes);
                    }
                }
                d.word(batch as u64);
            }
        }
        d.word(t.dma_bytes);
        d.word(t.compute_cycles);
        d.word(t.store_bytes);
        for v in t.index_values(&p.image) {
            d.word(u64::from(v));
        }
    }
    // The builders install segments only at the index and table bases;
    // walking both until the first uncovered word must account for every
    // installed byte.
    let mut covered = 0;
    for base in [INDEX_BASE, TABLE_BASE] {
        d.word(base.raw());
        let mut words = 0u64;
        while let Some(w) = p.image.try_read_u32(base.offset(words * 4)) {
            d.word(u64::from(w));
            words += 1;
        }
        d.word(words);
        covered += words * 4;
    }
    assert_eq!(
        covered,
        p.image.segment_bytes(),
        "{}: image has a segment outside the index and table bases",
        p.name
    );
    d.0
}

/// Pinned content hashes of every workload's program at every scale, in
/// natural and clustered order (FP16, seed 2025).
///
/// This is the byte-identity contract of the program builders: a faster
/// generator (R-MAT, voxel probing, top-k sampling) must reproduce every
/// tile, index and table word exactly, because those words are the
/// simulated addresses. On a mismatch the test prints the full table as
/// computed; a change that means to alter programs replaces `GOLDEN`
/// with it and says so.
#[test]
fn builders_match_pinned_program_fingerprints() {
    const GOLDEN: &[(&str, &str, &str, u64)] = &[
        ("DS", "tiny", "natural", 0x6914ff42e9fc1a6c),
        ("DS", "tiny", "clustered", 0x6914ff42e9fc1a6c),
        ("DS", "default", "natural", 0xfd0efe2e9cc8d568),
        ("DS", "default", "clustered", 0xfd0efe2e9cc8d568),
        ("DS", "large", "natural", 0x3f0923aa8c89ee02),
        ("DS", "large", "clustered", 0x3f0923aa8c89ee02),
        ("GAT", "tiny", "natural", 0xdb3a47f143df2744),
        ("GAT", "tiny", "clustered", 0x5cdc065d3d1b26f9),
        ("GAT", "default", "natural", 0xe40f3c5c817c6db7),
        ("GAT", "default", "clustered", 0x30d31eefa123fb26),
        ("GAT", "large", "natural", 0x119c84e6d62963b2),
        ("GAT", "large", "clustered", 0x6a72596f65303476),
        ("GCN", "tiny", "natural", 0x72de3d1429b53ddb),
        ("GCN", "tiny", "clustered", 0x3b7d25a40ceccba8),
        ("GCN", "default", "natural", 0xef078f86e0c82beb),
        ("GCN", "default", "clustered", 0x8dc333e46bf29f6f),
        ("GCN", "large", "natural", 0x81e345106e1d5b1c),
        ("GCN", "large", "clustered", 0xdad1bb22fe4b98ce),
        ("GSABT", "tiny", "natural", 0x150e81af0994bb36),
        ("GSABT", "tiny", "clustered", 0x150e81af0994bb36),
        ("GSABT", "default", "natural", 0x87bcdf87a6e71296),
        ("GSABT", "default", "clustered", 0x87bcdf87a6e71296),
        ("GSABT", "large", "natural", 0x3a480bae6f4f94d6),
        ("GSABT", "large", "clustered", 0x3a480bae6f4f94d6),
        ("H2O", "tiny", "natural", 0x5697f70854b0f082),
        ("H2O", "tiny", "clustered", 0x5697f70854b0f082),
        ("H2O", "default", "natural", 0xc6069214a39bbfb2),
        ("H2O", "default", "clustered", 0xc6069214a39bbfb2),
        ("H2O", "large", "natural", 0x28056286c9e834ba),
        ("H2O", "large", "clustered", 0x28056286c9e834ba),
        ("MK", "tiny", "natural", 0x4871735330f7e763),
        ("MK", "tiny", "clustered", 0x4871735330f7e763),
        ("MK", "default", "natural", 0x7ee70d890384678d),
        ("MK", "default", "clustered", 0x7ee70d890384678d),
        ("MK", "large", "natural", 0xc0c0fb6f830bdbea),
        ("MK", "large", "clustered", 0xc0c0fb6f830bdbea),
        ("SCN", "tiny", "natural", 0xd1efcbfbb70c7d6b),
        ("SCN", "tiny", "clustered", 0xd1efcbfbb70c7d6b),
        ("SCN", "default", "natural", 0x459cfeb6b7a4cdf8),
        ("SCN", "default", "clustered", 0x459cfeb6b7a4cdf8),
        ("SCN", "large", "natural", 0x92681337e712011f),
        ("SCN", "large", "clustered", 0x92681337e712011f),
        ("ST", "tiny", "natural", 0x3a797bed1641be60),
        ("ST", "tiny", "clustered", 0x3a797bed1641be60),
        ("ST", "default", "natural", 0x53c4e873337ce1a0),
        ("ST", "default", "clustered", 0x53c4e873337ce1a0),
        ("ST", "large", "natural", 0xf9a99282d1db89a0),
        ("ST", "large", "clustered", 0xf9a99282d1db89a0),
    ];
    let mut rows = Vec::new();
    for workload in WorkloadId::ALL {
        for scale in Scale::ALL {
            for order in [TileOrder::Natural, TileOrder::Clustered] {
                let spec = WorkloadSpec {
                    width: DataWidth::Fp16,
                    seed: 2025,
                    scale,
                    order,
                };
                let fp = program_fingerprint(&workload.build(&spec));
                rows.push((workload.short(), scale.to_string(), order.to_string(), fp));
            }
        }
    }
    let got: Vec<(&str, &str, &str, u64)> = rows
        .iter()
        .map(|(w, s, o, fp)| (*w, s.as_str(), o.as_str(), *fp))
        .collect();
    if got != GOLDEN {
        for (w, s, o, fp) in &got {
            println!("        ({w:?}, {s:?}, {o:?}, 0x{fp:016x}),");
        }
        panic!("program fingerprints deviate from the pinned table (computed table above)");
    }
}

/// Pinned result digests for the configurations the default grid never
/// reaches: a 192 KB L2 (384 sets, so set indexing takes the division
/// path), scored NSBs of 1, 2, 4 and 8 ways in front of a score-evicting
/// L2, 2 and 3 DRAM channels (the masked and the modulo channel maps),
/// and NVR+NSB with admission scoring off. Tiny GCN and H2O, FP16, seed
/// 777. Each digest is FNV-1a over the cell's full `RunOutcome` `Debug`
/// rendering, so every counter, histogram bucket and timeliness field is
/// covered. On a mismatch the test prints the computed table.
#[test]
fn fallback_configurations_match_pinned_digests() {
    use nvr::core::nsb_scored;
    use nvr::mem::RetentionPolicy;

    const GOLDEN: &[(&str, &str, &str, u64)] = &[
        ("GCN", "l2-192k", "InO", 0x003736dcedca2845),
        ("GCN", "l2-192k", "NVR", 0x392999e79e452b1b),
        ("GCN", "l2-192k", "NVR+NSB", 0xcd67fc66af530f72),
        ("GCN", "nsb-1way", "NVR+NSB", 0xc3e7c0ad795c41be),
        ("GCN", "nsb-2way", "NVR+NSB", 0xd183d3e2d808c0ea),
        ("GCN", "nsb-4way", "NVR+NSB", 0x1851701cfee87834),
        ("GCN", "nsb-8way", "NVR+NSB", 0x44d85f217c0f51b0),
        ("GCN", "dram-2ch", "InO", 0x104d994abd44a9dd),
        ("GCN", "dram-2ch", "NVR", 0x3a0fbd0747150b56),
        ("GCN", "dram-2ch", "NVR+NSB", 0x9d481f58f31a150c),
        ("GCN", "dram-3ch", "InO", 0x83433fc46dcefd3a),
        ("GCN", "dram-3ch", "NVR", 0xcfdee60c65b1acbc),
        ("GCN", "dram-3ch", "NVR+NSB", 0xd6362e2d4302fbf6),
        ("GCN", "admit-0", "NVR+NSB", 0x11449661792e074e),
        ("H2O", "l2-192k", "InO", 0x45883ff6d3bf858b),
        ("H2O", "l2-192k", "NVR", 0x1b218f067000e3b0),
        ("H2O", "l2-192k", "NVR+NSB", 0x5371dcae7b69fa6c),
        ("H2O", "nsb-1way", "NVR+NSB", 0x6604bc9f689b93b1),
        ("H2O", "nsb-2way", "NVR+NSB", 0xf078cd4147f5172d),
        ("H2O", "nsb-4way", "NVR+NSB", 0x1319ce4a3f91cca0),
        ("H2O", "nsb-8way", "NVR+NSB", 0x82d9cd9c13c5fd31),
        ("H2O", "dram-2ch", "InO", 0x7364f48a8310a4fb),
        ("H2O", "dram-2ch", "NVR", 0x3648c4e1e4147552),
        ("H2O", "dram-2ch", "NVR+NSB", 0x189edaeec69a4ed7),
        ("H2O", "dram-3ch", "InO", 0xf2dc5e873b3d82df),
        ("H2O", "dram-3ch", "NVR", 0x972866951f1753f3),
        ("H2O", "dram-3ch", "NVR+NSB", 0xcb0c0377fe1d8d37),
        ("H2O", "admit-0", "NVR+NSB", 0xa8df705eddcb30d8),
    ];
    let base = MemoryConfig::default();
    let mut cases: Vec<(String, SystemKind, SystemSpec)> = Vec::new();
    let l2_192k = base
        .clone()
        .with_l2(CacheConfig::l2_default().with_size(192 * 1024));
    for system in [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb] {
        cases.push(("l2-192k".into(), system, system.spec(&l2_192k)));
    }
    for ways in [1, 2, 4, 8] {
        let mut cfg = base.clone().with_nsb(nsb_scored(16).with_ways(ways));
        cfg.l2.policy = RetentionPolicy::ScoredEvict;
        let system = SystemKind::NvrNsb;
        cases.push((format!("nsb-{ways}way"), system, system.spec(&cfg)));
    }
    for channels in [2, 3] {
        let cfg = base
            .clone()
            .with_dram(DramConfig::default().with_channels(channels));
        for system in [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb] {
            cases.push((format!("dram-{channels}ch"), system, system.spec(&cfg)));
        }
    }
    let admit_0 = SystemSpec {
        prefetcher: PrefetcherSpec::Nvr(NvrConfig {
            nsb_admit_min_reuse: 0,
            ..NvrConfig::default()
        }),
        ..SystemKind::NvrNsb.spec(&base)
    };
    cases.push(("admit-0".into(), SystemKind::NvrNsb, admit_0));

    let mut rows = Vec::new();
    for workload in [WorkloadId::Gcn, WorkloadId::H2o] {
        let program = workload.build(&WorkloadSpec::tiny(DataWidth::Fp16, 777));
        for (label, system, spec) in &cases {
            let mut prefetcher = spec.prefetcher.build();
            let result = spec.run_with(&program, prefetcher.as_mut());
            let outcome = RunOutcome {
                system: *system,
                result,
                base_cycles: spec.base_cycles(&program),
                timeliness: prefetcher.timeliness(),
            };
            let mut d = Digest::new();
            for b in format!("{outcome:?}").bytes() {
                d.word(u64::from(b));
            }
            rows.push((workload.short(), label.clone(), system.label(), d.0));
        }
    }
    let got: Vec<(&str, &str, &str, u64)> = rows
        .iter()
        .map(|(w, c, s, fp)| (*w, c.as_str(), *s, *fp))
        .collect();
    if got != GOLDEN {
        for (w, c, s, fp) in &got {
            println!("        ({w:?}, {c:?}, {s:?}, 0x{fp:016x}),");
        }
        panic!(
            "fallback-configuration digests deviate from the pinned table (computed table above)"
        );
    }
}

/// Pinned digests of the figure renditions whose drivers build their own
/// systems: `FigureId::regenerate` at `Scale::Tiny`, seed 2025, through
/// one two-worker `Lab`, for fig6b, fig7, fig9, headline and the
/// ablations, plus fig9's policy-study CSV. Each digest is FNV-1a over
/// the rendition's bytes, so a driver refactor that moves any printed
/// digit fails here. On a mismatch the test prints the computed table.
#[test]
fn figure_renditions_match_pinned_digests() {
    const GOLDEN: &[(&str, u64)] = &[
        ("fig6b", 0x9e7f94d29e75d197),
        ("fig7", 0xc6df3e5b2e6d7e44),
        ("fig9", 0x612edaafa6ba0cd9),
        ("headline", 0x6e8bf8f25fbfb947),
        ("ablations", 0x33178c95ad6785cc),
        ("fig9-policy-csv", 0xa04a7e6bad076e70),
    ];
    let digest = |text: &str| {
        let mut d = Digest::new();
        for b in text.bytes() {
            d.word(u64::from(b));
        }
        d.0
    };
    let mut lab = Lab::new(2);
    let mut got: Vec<(&str, u64)> = [
        FigureId::Fig6b,
        FigureId::Fig7,
        FigureId::Fig9,
        FigureId::Headline,
        FigureId::Ablations,
    ]
    .into_iter()
    .map(|fig| {
        (
            fig.name(),
            digest(&fig.regenerate(&mut lab, Scale::Tiny, 2025)),
        )
    })
    .collect();
    let policy = nvr::sim::figures::fig9::policy_sweep(&mut lab, Scale::Tiny, 2025);
    got.push((
        "fig9-policy-csv",
        digest(&nvr::sim::figures::fig9::policy_csv(&policy)),
    ));
    if got != GOLDEN {
        for (name, fp) in &got {
            println!("        ({name:?}, 0x{fp:016x}),");
        }
        panic!("figure digests deviate from the pinned table (computed table above)");
    }
}

/// All twelve figures regenerated through one `Lab`, as `sweep` does: a
/// cell that several figures share is simulated once, under the first
/// figure that needs it, and served to the others. The five renditions
/// pinned by `figure_renditions_match_pinned_digests` keep their digests
/// here too, and the lab's count of distinct simulated cells is pinned,
/// so a driver that stops sharing its cells, or a cell key that merges two
/// different cells, fails here.
#[test]
fn one_lab_regenerates_every_figure_bit_for_bit() {
    const PINNED: [(&str, u64); 5] = [
        ("fig6b", 0x9e7f94d29e75d197),
        ("fig7", 0xc6df3e5b2e6d7e44),
        ("fig9", 0x612edaafa6ba0cd9),
        ("headline", 0x6e8bf8f25fbfb947),
        ("ablations", 0x33178c95ad6785cc),
    ];
    let mut lab = Lab::new(2);
    let mut got = Vec::new();
    for fig in FigureId::ALL {
        let text = fig.regenerate(&mut lab, Scale::Tiny, 2025);
        if PINNED.iter().any(|(name, _)| *name == fig.name()) {
            let mut d = Digest::new();
            for b in text.bytes() {
                d.word(u64::from(b));
            }
            got.push((fig.name(), d.0));
        }
    }
    assert_eq!(got, PINNED);
    assert_eq!(lab.simulated(), 370, "distinct cells of the twelve figures");
}
