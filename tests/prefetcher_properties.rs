//! Property-based integration tests: invariants of the prefetcher/engine
//! stack over randomly generated programs.

use proptest::prelude::*;

use nvr::prelude::*;
use nvr::sim::runner::SystemSpec;
use nvr::trace::GatherDesc;

/// Builds a random affine-gather program from proptest-chosen parameters.
fn random_program(tiles: usize, per_tile: usize, row_bytes: u64, seed: u64) -> NpuProgram {
    let mut rng = Pcg32::seed_from_u64(seed);
    let index_base = Addr::new(0x10_0000);
    let n = tiles * per_tile;
    let indices: Vec<u32> = (0..n).map(|_| rng.gen_range(1 << 16) as u32).collect();
    let mut image = MemoryImage::new();
    image.add_u32_segment(index_base, indices);
    let func = SparseFunc::Affine {
        ia_base: Addr::new(0x1_0000_0000),
        row_bytes,
    };
    let tiles: Vec<TileOp> = (0..tiles)
        .map(|i| TileOp {
            id: i,
            index_region: Region::new(
                index_base.offset((i * per_tile) as u64 * 4),
                per_tile as u64 * 4,
            ),
            gather: Some(GatherDesc { func, batch: 16 }),
            dma_bytes: 64,
            compute_cycles: 50,
            store_bytes: 0,
        })
        .collect();
    let program = NpuProgram {
        name: "prop".into(),
        width: DataWidth::Int8,
        tiles,
        image,
    };
    program.assert_valid();
    program
}

/// A prefetcher changes when data arrives, never what is demanded. On
/// every tiny workload, under both engines and with and without an NSB,
/// each prefetcher's run demands the same gather elements, batches and
/// index lines as the no-prefetch run, and the level closest to the NPU
/// (the NSB when there is one, else the L2) serves as many demand
/// accesses.
#[test]
fn prefetchers_never_change_the_demand_stream() {
    let spec = WorkloadSpec::tiny(DataWidth::Fp16, 2025);
    let nsb = MemoryConfig::default().with_nsb(nsb_config(16));
    for w in WorkloadId::ALL {
        let program = w.build(&spec);
        for npu in [NpuConfig::default(), NpuConfig::out_of_order()] {
            for mem in [MemoryConfig::default(), nsb.clone()] {
                let demand = |kind: SystemKind| {
                    let system = SystemSpec {
                        npu: npu.clone(),
                        ..kind.spec(&mem)
                    };
                    let r = system.run_with(&program, system.prefetcher.build().as_mut());
                    let closest = r.mem.nsb.as_ref().unwrap_or(&r.mem.l2);
                    let accesses = closest.demand_accesses();
                    (r.gather_elements, r.gather_batches, r.index_lines, accesses)
                };
                let want = demand(SystemKind::InOrder);
                // NVR+NSB aside: it changes the memory, too.
                for kind in &SystemKind::PREFETCHERS[..4] {
                    let at = format!("{} {:?} NSB {}", w.short(), npu.exec, mem.nsb.is_some());
                    assert_eq!(demand(*kind), want, "{kind:?} on {at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// NVR never slows a program down relative to the no-prefetch baseline,
    /// and its accuracy/coverage stats stay within bounds, for arbitrary
    /// program shapes.
    #[test]
    fn nvr_is_never_slower(
        tiles in 4usize..12,
        per_tile in 16usize..96,
        row_pow in 6u32..9, // 64..256-byte rows
        seed in 0u64..1_000,
    ) {
        let program = random_program(tiles, per_tile, 1 << row_pow, seed);
        let mem_cfg = MemoryConfig::default();
        let ino = run_system(&program, &mem_cfg, SystemKind::InOrder);
        let nvr = run_system(&program, &mem_cfg, SystemKind::Nvr);
        prop_assert!(nvr.result.total_cycles <= ino.result.total_cycles);
        let acc = nvr.result.mem.prefetch_accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert!(nvr.result.gather_element_misses <= ino.result.gather_element_misses);
    }

    /// Timing monotonicity: more DRAM bandwidth never increases wall-clock.
    #[test]
    fn bandwidth_monotonicity(
        seed in 0u64..1_000,
        per_tile in 16usize..64,
    ) {
        let program = random_program(6, per_tile, 64, seed);
        let cycles_at = |bpc: u64| {
            let cfg = MemoryConfig::default().with_dram(DramConfig {
                bytes_per_cycle: bpc,
                ..DramConfig::default()
            });
            run_system(&program, &cfg, SystemKind::InOrder).result.total_cycles
        };
        prop_assert!(cycles_at(32) <= cycles_at(8));
        prop_assert!(cycles_at(8) <= cycles_at(2));
    }

    /// A bigger L2 never increases misses for the same trace.
    #[test]
    fn cache_size_monotonicity(
        seed in 0u64..1_000,
    ) {
        let program = random_program(8, 64, 128, seed);
        let misses_at = |kb: u64| {
            let cfg = MemoryConfig::default()
                .with_l2(CacheConfig::l2_default().with_size(kb * 1024));
            run_system(&program, &cfg, SystemKind::InOrder)
                .result
                .mem
                .l2
                .demand_misses
                .get()
        };
        prop_assert!(misses_at(1024) <= misses_at(64));
    }

    /// Batch-level misses dominate element-level misses (§II-B's argument
    /// for coverage-oriented prefetching), for any program shape.
    #[test]
    fn batch_miss_rate_bounds_element_miss_rate(
        tiles in 4usize..10,
        per_tile in 16usize..80,
        seed in 0u64..1_000,
    ) {
        let program = random_program(tiles, per_tile, 64, seed);
        let o = run_system(&program, &MemoryConfig::default(), SystemKind::InOrder);
        prop_assert!(o.result.batch_miss_rate() >= o.result.element_miss_rate());
    }
}
