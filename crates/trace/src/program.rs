//! Tile-level NPU programs: the coarse instructions the engine executes.

use nvr_common::{Addr, DataWidth, Region};

use crate::image::MemoryImage;

/// How a gather target address derives from an index value — the
/// `sparse_func` of the paper's SpMM listing (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseFunc {
    /// One-level indirection: `target = ia_base + idx * row_bytes`.
    ///
    /// This is the CSR gather `IA[col_indices[j]]`; affine in the index
    /// value, so affine-pattern prefetchers (IMP) can learn it.
    Affine {
        /// Base address of the gathered table (IA / KV cache / features).
        ia_base: Addr,
        /// Bytes per gathered row.
        row_bytes: u64,
    },
    /// Two-level indirection through a lookup table:
    /// `slot = mem[table_base + idx * 4]; target = ia_base + slot * row_bytes`.
    ///
    /// Models the voxel-hash kernel maps of point-cloud networks (§II-A,
    /// §II-C): the final address depends on a memory read, so it is *not*
    /// affine in the observed index value — only runahead-style execution
    /// can predict it.
    TableLookup {
        /// Base address of the bucket/slot table.
        table_base: Addr,
        /// Base address of the gathered feature table.
        ia_base: Addr,
        /// Bytes per gathered row.
        row_bytes: u64,
    },
}

/// A gather target resolved from one index value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedGather {
    /// The gathered row's byte region.
    pub target: Region,
    /// For two-level functions, the intermediate table word that had to be
    /// read to resolve the target.
    pub probe: Option<Addr>,
}

impl SparseFunc {
    /// The table word that index value `idx` reads before its target is
    /// known: `table_base + 4 · idx` for a table lookup, `None` for an
    /// affine function.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvr_trace::SparseFunc;
    /// use nvr_common::Addr;
    ///
    /// let hash = SparseFunc::TableLookup {
    ///     table_base: Addr::new(0x2000),
    ///     ia_base: Addr::new(0x8000_0000),
    ///     row_bytes: 64,
    /// };
    /// assert_eq!(hash.probe(7), Some(Addr::new(0x2000 + 7 * 4)));
    /// ```
    #[must_use]
    pub fn probe(&self, idx: u32) -> Option<Addr> {
        match *self {
            SparseFunc::Affine { .. } => None,
            SparseFunc::TableLookup { table_base, .. } => {
                Some(table_base.offset(u64::from(idx) * 4))
            }
        }
    }

    /// The gathered row of `key`, `ia_base + key · row_bytes`: `key` is
    /// the index value of an affine function and the slot read at
    /// [`SparseFunc::probe`] of a table lookup.
    ///
    /// # Examples
    ///
    /// ```
    /// use nvr_trace::SparseFunc;
    /// use nvr_common::Addr;
    ///
    /// let csr = SparseFunc::Affine { ia_base: Addr::new(0x1000), row_bytes: 64 };
    /// let row = csr.row(3);
    /// assert_eq!((row.start(), row.bytes()), (Addr::new(0x1000 + 3 * 64), 64));
    /// ```
    #[must_use]
    pub fn row(&self, key: u32) -> Region {
        match *self {
            SparseFunc::Affine { ia_base, row_bytes }
            | SparseFunc::TableLookup {
                ia_base, row_bytes, ..
            } => Region::new(ia_base.offset(u64::from(key) * row_bytes), row_bytes),
        }
    }

    /// Resolves the gather region for index value `idx`: the row of the
    /// index value itself, or of the slot its probe reads from the image.
    #[must_use]
    pub fn element_region(&self, idx: u32, image: &MemoryImage) -> ResolvedGather {
        let probe = self.probe(idx);
        let key = probe.map_or(idx, |p| image.read_u32(p));
        ResolvedGather {
            target: self.row(key),
            probe,
        }
    }

    /// Resolves the gather region of each of `indices`, in order.
    #[must_use]
    pub fn element_regions(&self, indices: &[u32], image: &MemoryImage) -> Vec<ResolvedGather> {
        indices
            .iter()
            .map(|&idx| self.element_region(idx, image))
            .collect()
    }

    /// Bytes per gathered row.
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        match *self {
            SparseFunc::Affine { row_bytes, .. } | SparseFunc::TableLookup { row_bytes, .. } => {
                row_bytes
            }
        }
    }

    /// Whether resolving a target requires an extra memory read.
    #[must_use]
    pub fn is_two_level(&self) -> bool {
        matches!(self, SparseFunc::TableLookup { .. })
    }
}

/// The gather phase of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherDesc {
    /// Address computation from index values.
    pub func: SparseFunc,
    /// Vector width: elements gathered per vector load batch. A batch
    /// completes only when all its elements arrive (§II-B).
    pub batch: usize,
}

/// One tile-level coarse instruction: load indices, gather rows, compute,
/// store.
///
/// # Examples
///
/// ```
/// use nvr_trace::{MemoryImage, TileOp};
/// use nvr_common::{Addr, Region};
///
/// let mut image = MemoryImage::new();
/// image.add_u32_segment(Addr::new(0x1000), vec![5, 2, 8, 1]);
/// let tile = TileOp {
///     id: 0,
///     index_region: Region::new(Addr::new(0x1004), 8), // elements [2, 8]
///     gather: None,
///     dma_bytes: 0,
///     compute_cycles: 10,
///     store_bytes: 0,
/// };
/// assert_eq!(tile.index_values(&image), vec![2, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileOp {
    /// Position in the program.
    pub id: usize,
    /// Slice of the index array (u32 entries) consumed by this tile; loaded
    /// through the cache hierarchy before gathering.
    pub index_region: Region,
    /// Gather specification; `None` for dense tiles.
    pub gather: Option<GatherDesc>,
    /// Dense operand bytes DMA'd into the scratchpad (W values etc.).
    pub dma_bytes: u64,
    /// Systolic-array busy cycles once operands are ready.
    pub compute_cycles: u64,
    /// Output bytes streamed off-chip.
    pub store_bytes: u64,
}

impl TileOp {
    /// Number of index elements this tile consumes.
    #[must_use]
    pub fn index_count(&self) -> usize {
        (self.index_region.bytes() / 4) as usize
    }

    /// The actual index values, read from the image.
    #[must_use]
    pub fn index_values(&self, image: &MemoryImage) -> Vec<u32> {
        image.read_u32_slice(self.index_region.start(), self.index_count())
    }

    /// Resolves every gather target of this tile, in order.
    /// Empty if the tile has no gather phase.
    #[must_use]
    pub fn resolved_gathers(&self, image: &MemoryImage) -> Vec<ResolvedGather> {
        match &self.gather {
            None => Vec::new(),
            Some(g) => g.func.element_regions(&self.index_values(image), image),
        }
    }
}

/// Aggregate size statistics of a program, used for reporting and for
/// calibrating compute-to-memory ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Total tiles.
    pub tiles: usize,
    /// Total index elements.
    pub index_elems: u64,
    /// Total gather elements.
    pub gather_elems: u64,
    /// Total compute cycles (data-ready lower bound).
    pub compute_cycles: u64,
    /// Total DMA bytes.
    pub dma_bytes: u64,
    /// Total store bytes.
    pub store_bytes: u64,
}

/// A complete NPU program: tiles plus the memory image they index.
#[derive(Debug, Clone)]
pub struct NpuProgram {
    /// Workload name (for reports).
    pub name: String,
    /// Operand width.
    pub width: DataWidth,
    /// The tile sequence.
    pub tiles: Vec<TileOp>,
    /// Real index data.
    pub image: MemoryImage,
}

impl NpuProgram {
    /// Computes aggregate statistics over all tiles.
    #[must_use]
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats {
            tiles: self.tiles.len(),
            ..ProgramStats::default()
        };
        for t in &self.tiles {
            s.index_elems += t.index_count() as u64;
            if t.gather.is_some() {
                s.gather_elems += t.index_count() as u64;
            }
            s.compute_cycles += t.compute_cycles;
            s.dma_bytes += t.dma_bytes;
            s.store_bytes += t.store_bytes;
        }
        s
    }

    /// Checks structural invariants: tile ids are sequential and index
    /// regions are 4-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) on violation; generators call
    /// this in debug builds and tests.
    pub fn assert_valid(&self) {
        for (i, t) in self.tiles.iter().enumerate() {
            assert_eq!(t.id, i, "tile ids must be sequential");
            assert!(
                t.index_region.start().raw() % 4 == 0 && t.index_region.bytes() % 4 == 0,
                "tile {i} index region must be u32-aligned"
            );
            if let Some(g) = &t.gather {
                assert!(g.batch > 0, "tile {i} gather batch must be non-zero");
                assert!(
                    g.func.row_bytes() > 0,
                    "tile {i} row_bytes must be non-zero"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_with_indices() -> MemoryImage {
        let mut img = MemoryImage::new();
        img.add_u32_segment(Addr::new(0x1000), vec![5, 2, 8, 1, 9, 0]);
        img
    }

    #[test]
    fn affine_resolution() {
        let img = image_with_indices();
        let f = SparseFunc::Affine {
            ia_base: Addr::new(0x10_0000),
            row_bytes: 128,
        };
        let r = f.element_region(3, &img);
        assert_eq!(r.target, Region::new(Addr::new(0x10_0000 + 384), 128));
        assert_eq!(r.probe, None);
        assert!(!f.is_two_level());
    }

    #[test]
    fn table_lookup_resolution_reads_table() {
        let mut img = MemoryImage::new();
        // table[4] = 7
        img.add_u32_segment(Addr::new(0x2000), vec![0, 0, 0, 0, 7]);
        let f = SparseFunc::TableLookup {
            table_base: Addr::new(0x2000),
            ia_base: Addr::new(0x30_0000),
            row_bytes: 64,
        };
        let r = f.element_region(4, &img);
        assert_eq!(r.probe, Some(Addr::new(0x2010)));
        assert_eq!(r.target.start(), Addr::new(0x30_0000 + 7 * 64));
        assert!(f.is_two_level());
    }

    #[test]
    fn affine_chain_tracking() {
        let img = image_with_indices();
        let f = SparseFunc::Affine {
            ia_base: Addr::new(0x4000_0000),
            row_bytes: 128,
        };
        for idx in [0, 5, 4096] {
            assert_eq!(f.probe(idx), None);
            let row = f.row(idx);
            assert_eq!(row.start(), Addr::new(0x4000_0000 + u64::from(idx) * 128));
            assert_eq!(row.bytes(), 128);
            let r = f.element_region(idx, &img);
            assert_eq!((r.target, r.probe), (row, None));
        }
    }

    #[test]
    fn two_level_chain_probe() {
        let mut img = MemoryImage::new();
        // table[b] = 3 * b + 1
        img.add_u32_segment(Addr::new(0x2000), (0..16).map(|b| 3 * b + 1).collect());
        let f = SparseFunc::TableLookup {
            table_base: Addr::new(0x2000),
            ia_base: Addr::new(0x8000_0000),
            row_bytes: 64,
        };
        for idx in [0, 7, 15] {
            let probe = f.probe(idx).expect("a table lookup probes");
            assert_eq!(probe, Addr::new(0x2000 + u64::from(idx) * 4));
            let slot = img.read_u32(probe);
            assert_eq!(slot, 3 * idx + 1);
            assert_eq!(
                f.row(slot).start(),
                Addr::new(0x8000_0000 + u64::from(slot) * 64)
            );
            let r = f.element_region(idx, &img);
            assert_eq!((r.target, r.probe), (f.row(slot), Some(probe)));
        }
    }

    #[test]
    fn tile_index_values_window() {
        let img = image_with_indices();
        let tile = TileOp {
            id: 0,
            index_region: Region::new(Addr::new(0x1008), 12),
            gather: None,
            dma_bytes: 0,
            compute_cycles: 0,
            store_bytes: 0,
        };
        assert_eq!(tile.index_values(&img), vec![8, 1, 9]);
        assert_eq!(tile.index_count(), 3);
    }

    #[test]
    fn resolved_gathers_map_indices() {
        let img = image_with_indices();
        let tile = TileOp {
            id: 0,
            index_region: Region::new(Addr::new(0x1000), 8),
            gather: Some(GatherDesc {
                func: SparseFunc::Affine {
                    ia_base: Addr::new(0x10_0000),
                    row_bytes: 64,
                },
                batch: 16,
            }),
            dma_bytes: 0,
            compute_cycles: 0,
            store_bytes: 0,
        };
        let g = tile.resolved_gathers(&img);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].target.start(), Addr::new(0x10_0000 + 5 * 64));
        assert_eq!(g[1].target.start(), Addr::new(0x10_0000 + 2 * 64));
    }

    #[test]
    fn program_stats_aggregate() {
        let img = image_with_indices();
        let mk_tile = |id: usize| TileOp {
            id,
            index_region: Region::new(Addr::new(0x1000), 8),
            gather: Some(GatherDesc {
                func: SparseFunc::Affine {
                    ia_base: Addr::new(0x10_0000),
                    row_bytes: 64,
                },
                batch: 16,
            }),
            dma_bytes: 100,
            compute_cycles: 50,
            store_bytes: 30,
        };
        let prog = NpuProgram {
            name: "t".into(),
            width: DataWidth::Int8,
            tiles: vec![mk_tile(0), mk_tile(1)],
            image: img,
        };
        prog.assert_valid();
        let s = prog.stats();
        assert_eq!(s.tiles, 2);
        assert_eq!(s.index_elems, 4);
        assert_eq!(s.gather_elems, 4);
        assert_eq!(s.compute_cycles, 100);
        assert_eq!(s.dma_bytes, 200);
        assert_eq!(s.store_bytes, 60);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn non_sequential_ids_rejected() {
        let prog = NpuProgram {
            name: "t".into(),
            width: DataWidth::Int8,
            tiles: vec![TileOp {
                id: 5,
                index_region: Region::empty(),
                gather: None,
                dma_bytes: 0,
                compute_cycles: 0,
                store_bytes: 0,
            }],
            image: MemoryImage::new(),
        };
        prog.assert_valid();
    }
}
