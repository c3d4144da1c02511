//! The cycle-stepped NPU execution engine.

use nvr_common::{Addr, Cycle};
use nvr_mem::{AccessOutcome, MemorySystem};
use nvr_prefetch::Prefetcher;
use nvr_trace::event::PC_TABLE_PROBE;
use nvr_trace::{AccessEvent, EventKind, NpuProgram, SnoopState, TileOp};

use crate::config::{ExecMode, NpuConfig};
use crate::result::RunResult;
use crate::sparse_unit::SparseUnit;
use crate::systolic::SystolicArray;

/// The NPU engine: executes an [`NpuProgram`] against a memory system,
/// driving an attached prefetcher with events and idle windows.
///
/// # Examples
///
/// ```
/// use nvr_npu::{NpuConfig, NpuEngine};
/// use nvr_mem::{MemoryConfig, MemorySystem};
/// use nvr_prefetch::NullPrefetcher;
/// use nvr_trace::{MemoryImage, NpuProgram};
/// use nvr_common::DataWidth;
///
/// let engine = NpuEngine::new(NpuConfig::default());
/// let program = NpuProgram {
///     name: "empty".into(),
///     width: DataWidth::Int8,
///     tiles: vec![],
///     image: MemoryImage::new(),
/// };
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let result = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
/// assert_eq!(result.total_cycles, 0);
/// ```
#[derive(Debug, Clone)]
pub struct NpuEngine {
    cfg: NpuConfig,
    systolic: SystolicArray,
}

/// Mutable per-run accounting shared by the execution modes.
#[derive(Debug, Default)]
struct Counters {
    compute_cycles: u64,
    gather_batches: u64,
    gather_batch_misses: u64,
    gather_elements: u64,
    gather_element_misses: u64,
    index_lines: u64,
    index_line_misses: u64,
}

impl NpuEngine {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NpuConfig::validate`].
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        cfg.validate().expect("npu config must be valid");
        NpuEngine {
            cfg,
            systolic: SystolicArray::gemmini_default(),
        }
    }

    /// The configuration this engine was built with.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// The systolic array whose timing this engine assumes; workload
    /// generators should size `compute_cycles` with the same array.
    #[must_use]
    pub fn systolic(&self) -> &SystolicArray {
        &self.systolic
    }

    /// Executes `program` to completion; returns timing and miss counts.
    ///
    /// The prefetcher observes every demand access and receives
    /// [`Prefetcher::advance`] windows covering stall and compute phases.
    pub fn run(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        match self.cfg.exec {
            ExecMode::InOrder => self.run_in_order(program, mem, prefetcher),
            ExecMode::OutOfOrder { rob_tiles } => {
                self.run_out_of_order(program, mem, prefetcher, rob_tiles)
            }
        }
    }

    /// Total cycles of `program` on this NPU when every demand access
    /// completes `demand_latency` cycles after it issues and nothing is
    /// prefetched: the ideal-memory base run (Fig. 5's lower bar segment)
    /// in closed form. One pass over the tiles, with no memory system, no
    /// image reads and no gather resolution; it equals [`NpuEngine::run`]
    /// over [`MemorySystem::ideal`], the reference model, bit for bit.
    ///
    /// Under that memory the timed schedule collapses per tile: the index
    /// lines complete `(lines − 1) / loads_per_cycle + demand_latency`
    /// after issue, each gather batch takes `demand_latency` (twice that
    /// when a table probe precedes the element loads), engine-side DMA
    /// still serialises through the scratchpad, and channel-side DMA and
    /// stores are free, so the run ends with the last tile's compute.
    #[must_use]
    pub fn base_cycles(&self, program: &NpuProgram, demand_latency: Cycle) -> Cycle {
        let mut spad =
            nvr_mem::Scratchpad::new(self.cfg.scratchpad_bytes, self.cfg.dma_bytes_per_cycle);
        let mut load_free: Cycle = 0;
        let mut compute_free: Cycle = 0;
        let mut compute_starts: Vec<Cycle> = Vec::with_capacity(program.tiles.len());
        for (i, tile) in program.tiles.iter().enumerate() {
            let issue = match self.cfg.exec {
                ExecMode::InOrder => compute_free,
                ExecMode::OutOfOrder { rob_tiles } => {
                    let gate = i.checked_sub(rob_tiles).map_or(0, |j| compute_starts[j]);
                    load_free.max(gate)
                }
            };
            let dma_done = if tile.dma_bytes > 0 {
                spad.dma_in(issue, tile.dma_bytes.min(self.cfg.scratchpad_bytes))
                    .expect("tile DMA sized within scratchpad")
            } else {
                issue
            };
            let lines = tile.index_region.line_count();
            let index_ready = if lines == 0 {
                issue
            } else {
                issue + (lines - 1) / self.cfg.loads_per_cycle + demand_latency
            };
            let (batches, batch_cycles) = tile.gather.map_or((0, 0), |g| {
                let batches = tile.index_count().div_ceil(g.batch.max(1)) as u64;
                let levels = if g.func.is_two_level() { 2 } else { 1 };
                (batches, levels * demand_latency)
            });
            let data_ready = match self.cfg.exec {
                // Blocking batches run back to back.
                ExecMode::InOrder => index_ready + batches * batch_cycles,
                // One batch issues per cycle; the last one completes last.
                ExecMode::OutOfOrder { .. } => {
                    load_free = index_ready + batches;
                    if batches == 0 {
                        index_ready
                    } else {
                        index_ready + batches - 1 + batch_cycles
                    }
                }
            };
            let compute_start = compute_free.max(data_ready.max(dma_done));
            compute_starts.push(compute_start);
            compute_free = compute_start + tile.compute_cycles;
        }
        compute_free
    }

    fn snoop_for(
        program: &NpuProgram,
        tile: &TileOp,
        index_base: Addr,
        consumed_in_tile: u64,
        load_in_flight: bool,
        sparse_idle: bool,
    ) -> SnoopState {
        let elem_start = tile
            .index_region
            .start()
            .raw()
            .saturating_sub(index_base.raw())
            / 4;
        let elem_end = elem_start + tile.index_count() as u64;
        SnoopState {
            tile: tile.id,
            total_tiles: program.tiles.len(),
            index_base,
            elem_start,
            elem_end,
            elem_consumed: (elem_start + consumed_in_tile).min(elem_end),
            gather: tile.gather,
            npu_load_in_flight: load_in_flight,
            sparse_unit_idle: sparse_idle,
        }
    }

    /// Demand-loads the tile's index slice, emitting per-element events.
    /// Returns the cycle all index data is ready and the index values,
    /// which the gather phase resolves without reading the image again.
    #[expect(
        clippy::too_many_arguments,
        reason = "the demand path borrows the tile, memory and prefetcher state separately"
    )]
    fn load_index(
        &self,
        tile: &TileOp,
        program: &NpuProgram,
        snoop: &SnoopState,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
        issue_at: Cycle,
        counters: &mut Counters,
    ) -> (Cycle, Vec<u32>) {
        let mut ready = issue_at;
        if tile.index_region.is_empty() {
            return (ready, Vec::new());
        }
        let values = tile.index_values(&program.image);
        let first_line = tile.index_region.start().line();
        let mut line_missed = Vec::new();
        for (k, line) in tile.index_region.lines().enumerate() {
            let t = issue_at + (k as u64) / self.cfg.loads_per_cycle;
            let r = mem.demand_line(line, t);
            ready = ready.max(r.ready_at);
            counters.index_lines += 1;
            if r.outcome == AccessOutcome::Miss {
                counters.index_line_misses += 1;
            }
            line_missed.push(r.outcome == AccessOutcome::Miss);
        }
        for (p, &v) in values.iter().enumerate() {
            let addr = tile.index_region.start().offset(p as u64 * 4);
            let line_idx = (addr.line().index() - first_line.index()) as usize;
            let ev = AccessEvent::index_load(
                issue_at,
                tile.id,
                addr,
                v,
                line_missed.get(line_idx).copied().unwrap_or(false),
            );
            prefetcher.observe(&ev, snoop, &program.image, mem);
        }
        (ready, values)
    }

    /// Demand-loads one gather batch (probes first for two-level chains).
    /// Returns (issue cycle of the element loads, batch-complete cycle).
    #[expect(
        clippy::too_many_arguments,
        reason = "the demand path borrows the tile, memory and prefetcher state separately"
    )]
    fn load_batch(
        &self,
        tile: &TileOp,
        program: &NpuProgram,
        snoop: &SnoopState,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
        batch: &[nvr_trace::ResolvedGather],
        issue_at: Cycle,
        counters: &mut Counters,
    ) -> (Cycle, Cycle) {
        // Phase 1: table probes (dependency: targets need slot values).
        let mut elem_issue = issue_at;
        let two_level = batch.iter().any(|rg| rg.probe.is_some());
        if two_level {
            let mut probe_ready = issue_at;
            for rg in batch {
                if let Some(probe) = rg.probe {
                    let r = mem.demand_line(probe.line(), issue_at);
                    probe_ready = probe_ready.max(r.ready_at);
                    let ev = AccessEvent {
                        cycle: issue_at,
                        tile: tile.id,
                        pc: PC_TABLE_PROBE,
                        addr: probe,
                        kind: EventKind::TableProbe {
                            value: program.image.read_u32(probe),
                        },
                        missed: r.outcome == AccessOutcome::Miss,
                    };
                    prefetcher.observe(&ev, snoop, &program.image, mem);
                }
            }
            elem_issue = probe_ready;
        }
        // Phase 2: the element loads; the batch retires when all arrive.
        let mut batch_ready = elem_issue + mem.config().min_demand_latency();
        let mut any_missed = false;
        for rg in batch {
            let mut elem_missed = false;
            for line in rg.target.lines() {
                let r = mem.demand_line(line, elem_issue);
                batch_ready = batch_ready.max(r.ready_at);
                if r.outcome == AccessOutcome::Miss {
                    elem_missed = true;
                }
            }
            counters.gather_elements += 1;
            if elem_missed {
                counters.gather_element_misses += 1;
                any_missed = true;
            }
            let ev = AccessEvent::gather(elem_issue, tile.id, rg.target.start(), elem_missed);
            prefetcher.observe(&ev, snoop, &program.image, mem);
        }
        counters.gather_batches += 1;
        if any_missed {
            counters.gather_batch_misses += 1;
        }
        (elem_issue, batch_ready)
    }

    fn finish(
        program: &NpuProgram,
        prefetcher: &dyn Prefetcher,
        mem: &mut MemorySystem,
        total_cycles: Cycle,
        counters: Counters,
    ) -> RunResult {
        mem.finalize();
        RunResult {
            name: program.name.clone(),
            prefetcher: prefetcher.name(),
            total_cycles,
            compute_cycles: counters.compute_cycles,
            gather_batches: counters.gather_batches,
            gather_batch_misses: counters.gather_batch_misses,
            gather_elements: counters.gather_elements,
            gather_element_misses: counters.gather_element_misses,
            index_lines: counters.index_lines,
            index_line_misses: counters.index_line_misses,
            mem: mem.stats(),
            dram_utilisation: mem.dram().utilisation(total_cycles.max(1)),
            channel_utilisation: mem.dram().channel_utilisation(total_cycles.max(1)),
        }
    }

    fn run_in_order(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        let mut counters = Counters::default();
        let mut spad =
            nvr_mem::Scratchpad::new(self.cfg.scratchpad_bytes, self.cfg.dma_bytes_per_cycle);
        let mut sparse_unit = SparseUnit::new(self.cfg.vector_width);
        let index_base = program
            .tiles
            .first()
            .map_or(Addr::new(0), |t| t.index_region.start());
        let mut cycle: Cycle = 0;
        let mut last_drain: Cycle = 0;

        for tile in &program.tiles {
            let snoop = Self::snoop_for(program, tile, index_base, 0, true, true);
            // Dense operand DMA: engine-side and channel-side in parallel.
            let dma_done = if tile.dma_bytes > 0 {
                let engine_side = spad
                    .dma_in(cycle, tile.dma_bytes.min(self.cfg.scratchpad_bytes))
                    .expect("tile DMA sized within scratchpad");
                let channel_side = mem.dma_read_bytes(cycle, tile.dma_bytes);
                engine_side.max(channel_side)
            } else {
                cycle
            };

            // Index loads.
            let (index_ready, indices) =
                self.load_index(tile, program, &snoop, mem, prefetcher, cycle, &mut counters);
            prefetcher.advance(cycle, index_ready, &snoop, &program.image, mem);

            // Gather batches: strictly serialised (in-order blocking loads).
            let mut t = index_ready;
            if let Some(g) = tile.gather {
                let resolved = g.func.element_regions(&indices, &program.image);
                let mut consumed = 0u64;
                for batch in resolved.chunks(g.batch.max(1)) {
                    consumed += batch.len() as u64;
                    // The snooped progress pointer advances with each
                    // issued vector load.
                    let snoop = Self::snoop_for(program, tile, index_base, consumed, true, true);
                    let (issue, ready) = self.load_batch(
                        tile,
                        program,
                        &snoop,
                        mem,
                        prefetcher,
                        batch,
                        t,
                        &mut counters,
                    );
                    // The stall window is runahead opportunity.
                    prefetcher.advance(issue, ready, &snoop, &program.image, mem);
                    t = ready;
                }
            }

            // Compute: sparse unit aligns indices first, then the array runs.
            let compute_start = t.max(dma_done);
            let sparse_done = sparse_unit.process(compute_start, tile.index_count());
            let compute_end = compute_start + tile.compute_cycles;
            counters.compute_cycles += tile.compute_cycles;
            let idle_snoop = Self::snoop_for(
                program,
                tile,
                index_base,
                tile.index_count() as u64,
                false,
                true,
            );
            prefetcher.advance(
                sparse_done.min(compute_end),
                compute_end,
                &idle_snoop,
                &program.image,
                mem,
            );

            // Store: write buffer drains in the background.
            if tile.store_bytes > 0 {
                last_drain = last_drain.max(mem.store_bytes(compute_end, tile.store_bytes));
            }
            cycle = compute_end;
        }
        let total = cycle.max(last_drain);
        Self::finish(program, prefetcher, mem, total, counters)
    }

    fn run_out_of_order(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
        rob_tiles: usize,
    ) -> RunResult {
        let mut counters = Counters::default();
        let mut spad =
            nvr_mem::Scratchpad::new(self.cfg.scratchpad_bytes, self.cfg.dma_bytes_per_cycle);
        let mut sparse_unit = SparseUnit::new(self.cfg.vector_width);
        let index_base = program
            .tiles
            .first()
            .map_or(Addr::new(0), |t| t.index_region.start());

        let mut load_free: Cycle = 0;
        let mut compute_free: Cycle = 0;
        let mut compute_starts: Vec<Cycle> = Vec::with_capacity(program.tiles.len());
        let mut last_drain: Cycle = 0;

        for (i, tile) in program.tiles.iter().enumerate() {
            let snoop = Self::snoop_for(program, tile, index_base, 0, true, true);
            // ROB gating: tile i's loads wait for tile i-rob_tiles to start.
            let gate = if i >= rob_tiles {
                compute_starts[i - rob_tiles]
            } else {
                0
            };
            let issue_base = load_free.max(gate);

            let dma_done = if tile.dma_bytes > 0 {
                let engine_side = spad
                    .dma_in(issue_base, tile.dma_bytes.min(self.cfg.scratchpad_bytes))
                    .expect("tile DMA sized within scratchpad");
                let channel_side = mem.dma_read_bytes(issue_base, tile.dma_bytes);
                engine_side.max(channel_side)
            } else {
                issue_base
            };

            let (index_ready, indices) = self.load_index(
                tile,
                program,
                &snoop,
                mem,
                prefetcher,
                issue_base,
                &mut counters,
            );
            prefetcher.advance(issue_base, index_ready, &snoop, &program.image, mem);

            // Gathers: batches issue back-to-back without waiting for the
            // previous batch to complete (non-blocking vector loads).
            let mut data_ready = index_ready;
            let mut issue = index_ready;
            if let Some(g) = tile.gather {
                let resolved = g.func.element_regions(&indices, &program.image);
                for batch in resolved.chunks(g.batch.max(1)) {
                    let (_elem_issue, ready) = self.load_batch(
                        tile,
                        program,
                        &snoop,
                        mem,
                        prefetcher,
                        batch,
                        issue,
                        &mut counters,
                    );
                    data_ready = data_ready.max(ready);
                    issue += 1; // one vector load per cycle
                }
            }
            load_free = issue.max(issue_base);

            let ready = data_ready.max(dma_done);
            let compute_start = compute_free.max(ready);
            compute_starts.push(compute_start);
            let _sparse_done = sparse_unit.process(compute_start, tile.index_count());
            let compute_end = compute_start + tile.compute_cycles;
            counters.compute_cycles += tile.compute_cycles;
            compute_free = compute_end;

            if tile.store_bytes > 0 {
                last_drain = last_drain.max(mem.store_bytes(compute_end, tile.store_bytes));
            }
        }
        let total = compute_free.max(last_drain);
        Self::finish(program, prefetcher, mem, total, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::{DataWidth, Region};
    use nvr_mem::{CacheConfig, MemoryConfig};
    use nvr_prefetch::NullPrefetcher;
    use nvr_trace::{GatherDesc, MemoryImage, SparseFunc};

    /// Builds a small gather-heavy program: `tiles` tiles of `per_tile`
    /// indices each, gathering 64-byte rows from a wide IA space.
    fn gather_program(tiles: usize, per_tile: usize, compute: u64) -> NpuProgram {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let n = tiles * per_tile;
        // Spread indices across a 4 Mi-row space with a deterministic hash.
        let indices: Vec<u32> = (0..n)
            .map(|i| MemoryImage::background(Addr::new(i as u64 * 4)) % (1 << 18))
            .collect();
        image.add_u32_segment(index_base, indices);
        let func = SparseFunc::Affine {
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        let tiles: Vec<TileOp> = (0..tiles)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(
                    index_base.offset(i as u64 * per_tile as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 256,
                compute_cycles: compute,
                store_bytes: 64,
            })
            .collect();
        let prog = NpuProgram {
            name: "unit-gather".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        prog.assert_valid();
        prog
    }

    #[test]
    fn empty_program_is_zero_cycles() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = NpuProgram {
            name: "empty".into(),
            width: DataWidth::Int8,
            tiles: vec![],
            image: MemoryImage::new(),
        };
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.gather_batches, 0);
    }

    #[test]
    fn cold_gathers_mostly_miss() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(8, 64, 50);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert_eq!(r.gather_elements, 8 * 64);
        assert!(
            r.element_miss_rate() > 0.9,
            "cold random gathers should miss, rate {}",
            r.element_miss_rate()
        );
        assert_eq!(r.gather_batches, 8 * 4);
        assert!(r.batch_miss_rate() >= r.element_miss_rate());
    }

    #[test]
    fn ideal_memory_gives_base_time() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(8, 64, 50);
        let mut real = MemorySystem::new(MemoryConfig::default());
        let mut ideal = MemorySystem::ideal(MemoryConfig::default());
        let r_real = engine.run(&program, &mut real, &mut NullPrefetcher::new());
        let r_ideal = engine.run(&program, &mut ideal, &mut NullPrefetcher::new());
        assert!(
            r_ideal.total_cycles < r_real.total_cycles / 2,
            "ideal {} vs real {}",
            r_ideal.total_cycles,
            r_real.total_cycles
        );
        assert_eq!(r_ideal.gather_elements, r_real.gather_elements);
    }

    #[test]
    fn ooo_overlaps_memory_and_compute() {
        let program = gather_program(16, 64, 2000);
        let ino = NpuEngine::new(NpuConfig::default());
        let ooo = NpuEngine::new(NpuConfig::out_of_order());
        let mut mem_a = MemorySystem::new(MemoryConfig::default());
        let mut mem_b = MemorySystem::new(MemoryConfig::default());
        let r_ino = ino.run(&program, &mut mem_a, &mut NullPrefetcher::new());
        let r_ooo = ooo.run(&program, &mut mem_b, &mut NullPrefetcher::new());
        assert!(
            r_ooo.total_cycles < r_ino.total_cycles,
            "OoO {} should beat InO {}",
            r_ooo.total_cycles,
            r_ino.total_cycles
        );
    }

    #[test]
    fn repeat_run_hits_warm_cache() {
        // A program whose IA working set fits in L2: second tile pass hits.
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let per_tile = 64usize;
        let tiles_n = 8usize;
        let indices: Vec<u32> = (0..(tiles_n * per_tile))
            .map(|i| (i % 128) as u32) // only 128 distinct rows = 8 KB
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
                    index_base.offset(i as u64 * per_tile as u64 * 4),
                    per_tile as u64 * 4,
                ),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 10,
                store_bytes: 0,
            })
            .collect();
        let program = NpuProgram {
            name: "warm".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        // 128 distinct lines cold-miss once; the rest of the 512 gathers hit.
        assert!(r.gather_element_misses <= 128 + 8);
        assert!(r.element_miss_rate() < 0.3);
    }

    /// One tile gathering 64 rows through a 64-entry slot table.
    fn two_level_program() -> NpuProgram {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        let table_base = Addr::new(0x20_0000);
        image.add_u32_segment(index_base, (0..64).collect());
        image.add_u32_segment(table_base, (0..64).map(|b| (b * 7) % 64).collect());
        let func = SparseFunc::TableLookup {
            table_base,
            ia_base: Addr::new(0x1_0000_0000),
            row_bytes: 64,
        };
        NpuProgram {
            name: "2lvl".into(),
            width: DataWidth::Int8,
            tiles: vec![TileOp {
                id: 0,
                index_region: Region::new(index_base, 64 * 4),
                gather: Some(GatherDesc { func, batch: 16 }),
                dma_bytes: 0,
                compute_cycles: 10,
                store_bytes: 0,
            }],
            image,
        }
    }

    #[test]
    fn two_level_gathers_probe_and_fetch() {
        let program = two_level_program();
        let engine = NpuEngine::new(NpuConfig::default());
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        // Probes hit the table lines (1 KB), targets hit 64 distinct rows.
        assert_eq!(r.gather_elements, 64);
        assert!(r.total_cycles > 2 * 164, "two serialised memory levels");
    }

    /// Dense tiles only: DMA (some past the scratchpad's capacity),
    /// compute and stores, with no index or gather phase.
    fn dense_program() -> NpuProgram {
        let tiles = (0..6)
            .map(|i| TileOp {
                id: i,
                index_region: Region::empty(),
                gather: None,
                dma_bytes: [0, 4096, 1 << 20, 64, 300_000, 32][i],
                compute_cycles: [7, 0, 90, 500, 3, 40][i],
                store_bytes: 128,
            })
            .collect();
        NpuProgram {
            name: "dense".into(),
            width: DataWidth::Int8,
            tiles,
            image: MemoryImage::new(),
        }
    }

    /// Index slices that start mid-line and end mid-batch (37 indices from
    /// byte 20 of a line, batches of 16), plus a gather tile whose slice is
    /// empty and a tile that loads indices without gathering.
    fn unaligned_program() -> NpuProgram {
        let mut image = MemoryImage::new();
        let index_base = Addr::new(0x10_0000);
        image.add_u32_segment(index_base, (0..512).map(|i| (i * 13) % 1000).collect());
        let gather = Some(GatherDesc {
            func: SparseFunc::Affine {
                ia_base: Addr::new(0x1_0000_0000),
                row_bytes: 96,
            },
            batch: 16,
        });
        let mut tiles: Vec<TileOp> = (0..9)
            .map(|i| TileOp {
                id: i,
                index_region: Region::new(index_base.offset(20 + i as u64 * 37 * 4), 37 * 4),
                gather,
                dma_bytes: 512,
                compute_cycles: 30 + 40 * (i as u64 % 3),
                store_bytes: 64,
            })
            .collect();
        tiles[3].index_region = Region::empty();
        tiles[6].gather = None;
        NpuProgram {
            name: "unaligned".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        }
    }

    #[test]
    fn closed_form_base_matches_ideal_memory_run() {
        let empty = NpuProgram {
            name: "empty".into(),
            width: DataWidth::Int8,
            tiles: vec![],
            image: MemoryImage::new(),
        };
        let programs = [
            empty,
            dense_program(),
            gather_program(16, 64, 50),
            two_level_program(),
            unaligned_program(),
        ];
        let mems = [
            MemoryConfig::default(),
            MemoryConfig::default().with_nsb(CacheConfig::nsb_default()),
        ];
        // A two-tile ROB gates most tiles of every multi-tile program.
        for exec in [ExecMode::InOrder, ExecMode::OutOfOrder { rob_tiles: 2 }] {
            for loads_per_cycle in [1, 3] {
                let engine = NpuEngine::new(NpuConfig {
                    exec,
                    loads_per_cycle,
                    ..NpuConfig::default()
                });
                for program in &programs {
                    for mem_cfg in &mems {
                        let mut ideal = MemorySystem::ideal(mem_cfg.clone());
                        let reference = engine
                            .run(program, &mut ideal, &mut NullPrefetcher::new())
                            .total_cycles;
                        assert_eq!(
                            engine.base_cycles(program, mem_cfg.min_demand_latency()),
                            reference,
                            "{}: {exec:?}, {loads_per_cycle} loads/cycle, NSB {}",
                            program.name,
                            mem_cfg.nsb.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stall_dominates_for_io_bound_inorder() {
        let engine = NpuEngine::new(NpuConfig::default());
        let program = gather_program(16, 64, 10); // tiny compute
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let r = engine.run(&program, &mut mem, &mut NullPrefetcher::new());
        assert!(
            r.memory_bound_fraction() > 0.8,
            "IO-bound fraction {}",
            r.memory_bound_fraction()
        );
    }
}
