//! The cycle-stepped NPU execution engine.

use nvr_common::{Addr, Cycle};
use nvr_mem::{AccessOutcome, MemorySystem};
use nvr_prefetch::Prefetcher;
use nvr_trace::{AccessEvent, EventKind, NpuProgram, ResolvedGather, SnoopState, TileOp};

use crate::config::{ExecMode, NpuConfig};
use crate::result::RunResult;

/// Index-processing lanes of the sparse-operators unit: it aligns 16 of a
/// tile's indices per cycle, the paper's vector width N = 16 (§IV-A).
const SPARSE_LANES: u64 = 16;

/// The scratchpad's capacity: Gemmini's default 256 KiB (§IV-A). A tile's
/// engine-side DMA moves at most this much. It bounds each transfer, not
/// their sum, since a tile's operands leave when the tile retires.
const SCRATCHPAD_BYTES: u64 = 256 * 1024;

/// Throughput of the one DMA engine that fills the scratchpad. Assumed:
/// the paper gives no DMA width; this is half of a 64 B line per cycle.
const DMA_BYTES_PER_CYCLE: u64 = 32;

/// Index lines the load controller issues per cycle. Assumed: the paper
/// gives no port count; one port issues a tile's index lines one a cycle.
const LOADS_PER_CYCLE: u64 = 1;

/// Tiles the ideal out-of-order NPU keeps in flight: a tile's loads issue
/// only once the tile this many back has started compute. Assumed: the
/// paper gives no window for its ideal OoO Gemmini (§V-A).
const ROB_TILES: usize = 8;

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
    exec: ExecMode,
}

/// Mutable per-run accounting.
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
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        NpuEngine { exec: cfg.exec }
    }

    /// Executes `program` to completion; returns timing and miss counts.
    ///
    /// Both execution modes walk each tile through the same phases: dense
    /// DMA, index lines, each gather batch's table probes and element
    /// loads, compute, store. Only the schedule differs. In order, a
    /// tile's loads issue at the previous tile's compute end and each
    /// batch once the one before it completes; out of order, a tile's
    /// loads issue once the load port is free and the tile eight back
    /// (`ROB_TILES`) has started compute, and one batch issues per cycle.
    ///
    /// The prefetcher [observes](Prefetcher::observe) every demand access,
    /// and each tile grants it the same [`Prefetcher::advance`] windows in
    /// both modes:
    /// 1. the index wait, from the tile's issue until its index lines
    ///    arrive, with the snooped progress pointer at the tile's start;
    /// 2. each batch's wait, from its element loads' issue until the batch
    ///    completes, with the pointer past that batch;
    /// 3. the compute phase once the sparse unit has aligned the tile's
    ///    indices, with the pointer at the tile's end.
    ///
    /// Out of order, the windows of batches in flight together overlap,
    /// and a tile's windows may open before the previous tile's compute
    /// window closes. A prefetcher's clock only moves forward, so a window
    /// that opens behind it grants only the cycles past it.
    pub fn run(
        &self,
        program: &NpuProgram,
        mem: &mut MemorySystem,
        prefetcher: &mut dyn Prefetcher,
    ) -> RunResult {
        let index_base = program
            .tiles
            .first()
            .map_or(Addr::new(0), |t| t.index_region.start());
        let mut walk = Walk {
            program,
            mem,
            prefetcher,
            index_base,
            counters: Counters::default(),
        };
        let mut sched = Schedule::new(self.exec, program.tiles.len());
        let mut last_drain: Cycle = 0;
        for tile in &program.tiles {
            let issue = sched.tile_issue();
            // Dense operand DMA: engine-side and channel-side in parallel.
            let mut dma_done = sched.dma_in(issue, tile.dma_bytes);
            if tile.dma_bytes > 0 {
                dma_done = dma_done.max(walk.mem.dma_read_bytes(issue, tile.dma_bytes));
            }
            let snoop = walk.snoop(tile, 0);
            let (index_ready, indices) = walk.load_index(tile, &snoop, issue);
            walk.advance(issue, index_ready, &snoop);
            // Gather batches; the snooped progress pointer passes each
            // batch as it issues.
            let (mut next, mut data_ready) = (index_ready, index_ready);
            if let Some(g) = tile.gather {
                let resolved = g.func.element_regions(&indices, &program.image);
                let mut consumed = 0u64;
                for batch in resolved.chunks(g.batch.max(1)) {
                    consumed += batch.len() as u64;
                    let snoop = walk.snoop(tile, consumed);
                    let (elem_issue, ready) = walk.load_batch(&snoop, batch, next);
                    walk.advance(elem_issue, ready, &snoop);
                    data_ready = data_ready.max(ready);
                    next = sched.next_batch(next, ready);
                }
            }
            // Compute: the sparse unit aligns the indices, then the array runs.
            let (compute_start, compute_end) =
                sched.compute(next, data_ready.max(dma_done), tile.compute_cycles);
            let sparse_done = sched.align(compute_start, tile.index_count());
            walk.counters.compute_cycles += tile.compute_cycles;
            let snoop = walk.snoop(tile, tile.index_count() as u64);
            walk.advance(sparse_done.min(compute_end), compute_end, &snoop);
            // Store: the write buffer drains in the background.
            if tile.store_bytes > 0 {
                last_drain = last_drain.max(walk.mem.store_bytes(compute_end, tile.store_bytes));
            }
        }
        walk.finish(sched.compute_free.max(last_drain))
    }

    /// Total cycles of `program` on this NPU when every demand access
    /// completes `demand_latency` cycles after it issues and nothing is
    /// prefetched: the ideal-memory base run (Fig. 5's lower bar segment).
    /// It walks the tiles on [`NpuEngine::run`]'s schedule with no memory
    /// system, no image reads and no gather resolution, and equals
    /// [`NpuEngine::run`] over [`MemorySystem::ideal`], the reference
    /// model, bit for bit.
    ///
    /// Under that memory the index lines complete
    /// `(lines − 1) / LOADS_PER_CYCLE + demand_latency` after issue, each
    /// gather batch takes `demand_latency` (twice that when a table probe
    /// precedes the element loads), engine-side DMA still serialises
    /// through the one DMA engine, and channel-side DMA and stores are free,
    /// so the run ends with the last tile's compute.
    #[must_use]
    pub fn base_cycles(&self, program: &NpuProgram, demand_latency: Cycle) -> Cycle {
        let mut sched = Schedule::new(self.exec, program.tiles.len());
        for tile in &program.tiles {
            let issue = sched.tile_issue();
            let dma_done = sched.dma_in(issue, tile.dma_bytes);
            let lines = tile.index_region.line_count();
            let index_ready = if lines == 0 {
                issue
            } else {
                issue + (lines - 1) / LOADS_PER_CYCLE + demand_latency
            };
            let batches = tile
                .gather
                .map_or(0, |g| tile.index_count().div_ceil(g.batch.max(1)));
            let two_level = tile.gather.is_some_and(|g| g.func.is_two_level());
            let batch_cycles = demand_latency * (1 + u64::from(two_level));
            let (mut next, mut data_ready) = (index_ready, index_ready);
            for _ in 0..batches {
                data_ready = next + batch_cycles;
                next = sched.next_batch(next, data_ready);
            }
            sched.compute(next, data_ready.max(dma_done), tile.compute_cycles);
        }
        sched.compute_free
    }
}

/// The tile schedule of one run, the only part of it that depends on the
/// [`ExecMode`]: when each tile's loads issue and when each gather batch
/// issues after the one before it. In both modes engine-side DMA
/// serialises through the one DMA engine, index alignment through the
/// sparse-operators unit and compute through the array.
#[derive(Debug)]
struct Schedule {
    exec: ExecMode,
    /// The DMA engine's next free cycle.
    dma_free: Cycle,
    /// The sparse-operators unit's next free cycle.
    sparse_free: Cycle,
    /// The load port's next free cycle.
    load_free: Cycle,
    /// The previous tile's compute end.
    compute_free: Cycle,
    /// Every earlier tile's compute start: the out-of-order ROB gate.
    compute_starts: Vec<Cycle>,
}

impl Schedule {
    fn new(exec: ExecMode, tiles: usize) -> Self {
        Schedule {
            exec,
            dma_free: 0,
            sparse_free: 0,
            load_free: 0,
            compute_free: 0,
            compute_starts: Vec::with_capacity(tiles),
        }
    }

    /// When the next tile's loads issue: in order, at the previous tile's
    /// compute end; out of order, once the load port is free and the tile
    /// [`ROB_TILES`] back has started compute.
    fn tile_issue(&self) -> Cycle {
        match self.exec {
            ExecMode::InOrder => self.compute_free,
            ExecMode::OutOfOrder => {
                let back = self.compute_starts.len().checked_sub(ROB_TILES);
                let gate = back.map_or(0, |j| self.compute_starts[j]);
                self.load_free.max(gate)
            }
        }
    }

    /// When the gather batch after one that issued at `issue` and
    /// completes at `ready` issues: in order, once it completes (blocking
    /// vector loads); out of order, the next cycle.
    fn next_batch(&self, issue: Cycle, ready: Cycle) -> Cycle {
        match self.exec {
            ExecMode::InOrder => ready,
            ExecMode::OutOfOrder => issue + 1,
        }
    }

    /// The completion cycle of a tile's engine-side DMA of `bytes` dense
    /// operands issued at `at`, at most a scratchpad's worth; `at` itself
    /// when it has none.
    fn dma_in(&mut self, at: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return at;
        }
        let start = at.max(self.dma_free);
        self.dma_free = start + bytes.min(SCRATCHPAD_BYTES).div_ceil(DMA_BYTES_PER_CYCLE);
        self.dma_free
    }

    /// The cycle the sparse-operators unit finishes aligning `indices`
    /// indices it starts at `at`, once it is free.
    fn align(&mut self, at: Cycle, indices: usize) -> Cycle {
        let start = at.max(self.sparse_free);
        self.sparse_free = start + (indices as u64).div_ceil(SPARSE_LANES);
        self.sparse_free
    }

    /// Starts a tile's compute once its operands are `ready` and the
    /// array is free, and frees the load port at `load_end`; returns the
    /// compute start and end.
    fn compute(&mut self, load_end: Cycle, ready: Cycle, cycles: Cycle) -> (Cycle, Cycle) {
        self.load_free = load_end;
        let start = self.compute_free.max(ready);
        self.compute_starts.push(start);
        self.compute_free = start + cycles;
        (start, self.compute_free)
    }
}

/// One timed run: the program, the memory system and prefetcher it
/// drives, and the counters it reports.
struct Walk<'a> {
    program: &'a NpuProgram,
    mem: &'a mut MemorySystem,
    prefetcher: &'a mut dyn Prefetcher,
    /// The first tile's index address: the snooped index array's base.
    index_base: Addr,
    counters: Counters,
}

impl Walk<'_> {
    /// The snoopable state while `tile` executes with `consumed` of its
    /// indices demand-loaded.
    fn snoop(&self, tile: &TileOp, consumed: u64) -> SnoopState {
        let start = tile.index_region.start().raw();
        let elem_start = start.saturating_sub(self.index_base.raw()) / 4;
        let elem_end = elem_start + tile.index_count() as u64;
        SnoopState {
            tile: tile.id,
            total_tiles: self.program.tiles.len(),
            index_base: self.index_base,
            elem_start,
            elem_end,
            elem_consumed: (elem_start + consumed).min(elem_end),
            gather: tile.gather,
        }
    }

    /// Grants the prefetcher the window `[from, to)`.
    fn advance(&mut self, from: Cycle, to: Cycle, snoop: &SnoopState) {
        let image = &self.program.image;
        self.prefetcher.advance(from, to, snoop, image, self.mem);
    }

    /// Demand-loads the tile's index slice, emitting per-element events.
    /// Returns the cycle all index data is ready and the index values,
    /// which the gather phase resolves without reading the image again.
    fn load_index(
        &mut self,
        tile: &TileOp,
        snoop: &SnoopState,
        issue_at: Cycle,
    ) -> (Cycle, Vec<u32>) {
        let mut ready = issue_at;
        if tile.index_region.is_empty() {
            return (ready, Vec::new());
        }
        let values = tile.index_values(&self.program.image);
        let mut line_missed = Vec::new();
        for (k, line) in tile.index_region.lines().enumerate() {
            let t = issue_at + (k as u64) / LOADS_PER_CYCLE;
            let r = self.mem.demand_line(line, t);
            ready = ready.max(r.ready_at);
            let missed = r.outcome == AccessOutcome::Miss;
            self.counters.index_lines += 1;
            self.counters.index_line_misses += u64::from(missed);
            line_missed.push(missed);
        }
        let start = tile.index_region.start();
        for (p, &v) in values.iter().enumerate() {
            let addr = start.offset(p as u64 * 4);
            let line = usize::try_from(addr.line().index() - start.line().index());
            let missed = line.ok().and_then(|l| line_missed.get(l));
            let ev = AccessEvent::index_load(issue_at, addr, v, missed == Some(&true));
            self.prefetcher
                .observe(&ev, snoop, &self.program.image, self.mem);
        }
        (ready, values)
    }

    /// Demand-loads one gather batch: its table probes first, for
    /// two-level chains, then its element loads. Returns the issue cycle
    /// of the element loads and the cycle the batch completes.
    fn load_batch(
        &mut self,
        snoop: &SnoopState,
        batch: &[ResolvedGather],
        issue_at: Cycle,
    ) -> (Cycle, Cycle) {
        // The element loads need the probed slot values.
        let mut elem_issue = issue_at;
        for probe in batch.iter().filter_map(|rg| rg.probe) {
            let r = self.mem.demand_line(probe.line(), issue_at);
            elem_issue = elem_issue.max(r.ready_at);
            let ev = AccessEvent {
                cycle: issue_at,
                addr: probe,
                kind: EventKind::TableProbe {
                    value: self.program.image.read_u32(probe),
                },
                missed: r.outcome == AccessOutcome::Miss,
            };
            self.prefetcher
                .observe(&ev, snoop, &self.program.image, self.mem);
        }
        // The batch completes when its last element arrives.
        let mut batch_ready = elem_issue + self.mem.config().min_demand_latency();
        let mut any_missed = false;
        for rg in batch {
            let mut elem_missed = false;
            for line in rg.target.lines() {
                let r = self.mem.demand_line(line, elem_issue);
                batch_ready = batch_ready.max(r.ready_at);
                elem_missed |= r.outcome == AccessOutcome::Miss;
            }
            self.counters.gather_elements += 1;
            self.counters.gather_element_misses += u64::from(elem_missed);
            any_missed |= elem_missed;
            let ev = AccessEvent::gather(elem_issue, rg.target.start(), elem_missed);
            self.prefetcher
                .observe(&ev, snoop, &self.program.image, self.mem);
        }
        self.counters.gather_batches += 1;
        self.counters.gather_batch_misses += u64::from(any_missed);
        (elem_issue, batch_ready)
    }

    /// Ends the run at `total_cycles` and reports it.
    fn finish(self, total_cycles: Cycle) -> RunResult {
        self.mem.finalize();
        let c = self.counters;
        RunResult {
            name: self.program.name.clone(),
            prefetcher: self.prefetcher.name(),
            total_cycles,
            compute_cycles: c.compute_cycles,
            gather_batches: c.gather_batches,
            gather_batch_misses: c.gather_batch_misses,
            gather_elements: c.gather_elements,
            gather_element_misses: c.gather_element_misses,
            index_lines: c.index_lines,
            index_line_misses: c.index_line_misses,
            mem: self.mem.stats(),
            dram_utilisation: self.mem.dram().utilisation(total_cycles.max(1)),
            channel_utilisation: self.mem.dram().channel_utilisation(total_cycles.max(1)),
        }
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

    /// Dense tiles only, one per `dma_bytes` and `compute_cycles` pair:
    /// DMA, compute and stores, with no index or gather phase.
    fn dense_program(dma_bytes: &[u64], compute_cycles: &[u64]) -> NpuProgram {
        let tiles = dma_bytes
            .iter()
            .zip(compute_cycles)
            .enumerate()
            .map(|(id, (&dma_bytes, &compute_cycles))| TileOp {
                id,
                index_region: Region::empty(),
                gather: None,
                dma_bytes,
                compute_cycles,
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
            // Some DMA past the scratchpad's capacity.
            dense_program(
                &[0, 4096, 1 << 20, 64, 300_000, 32],
                &[7, 0, 90, 500, 3, 40],
            ),
            gather_program(16, 64, 50),
            // Compute-bound, so the ROB gates its tiles past the eighth.
            gather_program(24, 16, 2000),
            two_level_program(),
            unaligned_program(),
        ];
        let mems = [
            MemoryConfig::default(),
            MemoryConfig::default().with_nsb(CacheConfig::nsb_default()),
        ];
        for cfg in [NpuConfig::default(), NpuConfig::out_of_order()] {
            let engine = NpuEngine::new(cfg.clone());
            for program in &programs {
                for mem_cfg in &mems {
                    let mut ideal = MemorySystem::ideal(mem_cfg.clone());
                    let reference = engine
                        .run(program, &mut ideal, &mut NullPrefetcher::new())
                        .total_cycles;
                    assert_eq!(
                        engine.base_cycles(program, mem_cfg.min_demand_latency()),
                        reference,
                        "{}: {:?}, NSB {}",
                        program.name,
                        cfg.exec,
                        mem_cfg.nsb.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn dma_serialises_back_to_back_tiles() {
        // Out of order, every dense tile's loads issue at cycle 0, yet each
        // DMA waits for the one before it on the one DMA engine, at 32 B a
        // cycle. A transfer past the 256 KiB scratchpad moves only that.
        let engine = NpuEngine::new(NpuConfig::out_of_order());
        assert_eq!(engine.base_cycles(&dense_program(&[4096], &[0]), 0), 128);
        let three = dense_program(&[4096, 4096, 1 << 20], &[0; 3]);
        assert_eq!(engine.base_cycles(&three, 0), 128 + 128 + 8192);
    }

    /// Records every window the engine grants (`Some((from, to))`) and
    /// every demand access it shows (`None`), each with its snooped state.
    #[derive(Default)]
    struct Recorder(Vec<(Option<(Cycle, Cycle)>, SnoopState)>);

    impl Prefetcher for Recorder {
        fn name(&self) -> &'static str {
            "Recorder"
        }

        fn observe(
            &mut self,
            _: &AccessEvent,
            s: &SnoopState,
            _: &MemoryImage,
            _: &mut MemorySystem,
        ) {
            self.0.push((None, *s));
        }

        fn advance(
            &mut self,
            from: Cycle,
            to: Cycle,
            s: &SnoopState,
            _: &MemoryImage,
            _: &mut MemorySystem,
        ) {
            self.0.push((Some((from, to)), *s));
        }
    }

    /// Each tile's window and demand-access counts over one run of
    /// `program`, once its windows are checked: the index wait, one per
    /// batch and the compute phase, with the snooped progress pointer
    /// never falling and at the tile's end by the compute phase.
    fn tile_windows(program: &NpuProgram, cfg: NpuConfig) -> Vec<(usize, usize)> {
        let mut rec = Recorder::default();
        let mut mem = MemorySystem::new(MemoryConfig::default());
        NpuEngine::new(cfg).run(program, &mut mem, &mut rec);
        let mut counts = Vec::new();
        for tile in &program.tiles {
            let at = format!("{} tile {}", program.name, tile.id);
            let of_tile = rec.0.iter().filter(|(_, s)| s.tile == tile.id);
            let (windows, observed): (Vec<_>, Vec<_>) = of_tile.partition(|(w, _)| w.is_some());
            let batches = tile
                .gather
                .map_or(0, |g| tile.index_count().div_ceil(g.batch));
            assert_eq!(windows.len(), batches + 2, "{at}");
            let progress: Vec<u64> = windows.iter().map(|(_, s)| s.elem_consumed).collect();
            assert!(progress.is_sorted(), "{at}: {progress:?}");
            assert_eq!(progress.last(), Some(&windows[0].1.elem_end), "{at}");
            counts.push((windows.len(), observed.len()));
        }
        counts
    }

    #[test]
    fn both_modes_grant_each_tile_the_same_windows() {
        for program in [
            gather_program(6, 40, 50),
            two_level_program(),
            unaligned_program(),
        ] {
            let in_order = tile_windows(&program, NpuConfig::default());
            let out_of_order = tile_windows(&program, NpuConfig::out_of_order());
            assert_eq!(in_order, out_of_order, "{}", program.name);
        }
    }

    #[test]
    fn compute_window_opens_after_index_alignment() {
        // Contiguous, line-aligned index slices, one per `(indices,
        // compute_cycles)` tile, with no gather, DMA or stores.
        let mut next = Addr::new(0x10_0000);
        let mut image = MemoryImage::new();
        image.add_u32_segment(next, vec![0; 1680]);
        let mut tiles = Vec::new();
        for (id, (indices, compute_cycles)) in [(64, 100), (1600, 1), (16, 1000), (0, 50)]
            .into_iter()
            .enumerate()
        {
            let index_region = Region::new(next, 4 * indices);
            next = index_region.end();
            tiles.push(TileOp {
                id,
                index_region,
                gather: None,
                dma_bytes: 0,
                compute_cycles,
                store_bytes: 0,
            });
        }
        let program = NpuProgram {
            name: "align".into(),
            width: DataWidth::Int8,
            tiles,
            image,
        };
        let mut rec = Recorder::default();
        let mut mem = MemorySystem::ideal(MemoryConfig::default());
        NpuEngine::new(NpuConfig::out_of_order()).run(&program, &mut mem, &mut rec);
        // Each tile's last window is its compute phase, which ends with
        // its compute: its (open, start, end).
        let compute = |tile: usize| {
            let mut windows = rec.0.iter().rev();
            let last = windows.find_map(|(w, s)| w.filter(|_| s.tile == tile));
            let (from, to) = last.expect("every tile has a compute window");
            (from, to - program.tiles[tile].compute_cycles, to)
        };
        let ((open0, start0, _), (open1, start1, end1), (open2, start2, _), (open3, start3, _)) =
            (compute(0), compute(1), compute(2), compute(3));
        // 16 lanes align tile 0's 64 indices in 4 cycles.
        assert_eq!(open0, start0 + 4);
        // Tile 1's 1,600 take 100 cycles, past its 1-cycle compute.
        assert_eq!(open1, end1);
        // Tile 2 starts compute while the unit still aligns tile 1, so its
        // one cycle of alignment queues behind tile 1's.
        assert!(start2 < start1 + 100, "{start2} vs {start1}");
        assert_eq!(open2, start1 + 100 + 1);
        // A tile with no indices to align finds the unit idle.
        assert_eq!(open3, start3);
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
