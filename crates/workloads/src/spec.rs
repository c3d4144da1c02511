//! Workload specification and the shared program assembler.

use nvr_common::{Addr, DataWidth, Region};
use nvr_npu::SystolicArray;
use nvr_trace::{GatherDesc, MemoryImage, NpuProgram, SparseFunc, TileOp};

/// Base address of the flattened index array every workload walks.
pub const INDEX_BASE: Addr = Addr::new(0x1000_0000);
/// Base address of intermediate lookup tables (voxel-hash buckets).
pub const TABLE_BASE: Addr = Addr::new(0x2000_0000);
/// Base address of the gathered structure (IA / KV cache / features).
pub const IA_BASE: Addr = Addr::new(0x10_0000_0000);

/// Problem size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Unit-test size: seconds of simulation across all prefetchers.
    Tiny,
    /// Evaluation size used by the figure harnesses.
    #[default]
    Default,
    /// Stress size for the parallel sweep runner: long enough per cell
    /// that fan-out wins, too slow for the single-threaded harnesses.
    Large,
}

impl Scale {
    /// All scales, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Default, Scale::Large];

    /// Multiplier applied to tile counts.
    #[must_use]
    pub fn tile_factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Default => 4,
            Scale::Large => 16,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Tiny => "tiny",
            Scale::Default => "default",
            Scale::Large => "large",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Scale {
    type Err = nvr_common::NvrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "default" => Ok(Scale::Default),
            "large" => Ok(Scale::Large),
            other => Err(nvr_common::NvrError::Parse(format!(
                "unknown scale `{other}` (expected tiny|default|large)"
            ))),
        }
    }
}

/// Node-visit order of the graph workloads' tile builders (GCN/GAT) —
/// the reuse-aware tile *scheduling* axis. The aggregation itself is
/// order-insensitive (a sum over neighbours), so reordering the node walk
/// is a legal compiler-level schedule choice; what changes is *which*
/// neighbour rows land in the same lookahead window, and therefore how
/// much implicit line reuse the NSB can capture. Non-graph workloads
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileOrder {
    /// Natural node-id order — bit-identical to the pre-order-aware
    /// builders.
    #[default]
    Natural,
    /// Descending out-degree (stable, node id tie-break): the heaviest
    /// aggregations run first, so the hub rows their long adjacency lists
    /// keep re-touching are resolved — and NSB-scored — early and often.
    DegreeSorted,
    /// Community-clustered (stable sort by smallest neighbour id): nodes
    /// whose adjacency lists start in the same region of the feature
    /// table aggregate together, so windows share neighbour rows.
    Clustered,
}

impl TileOrder {
    /// All orders, natural first.
    pub const ALL: [TileOrder; 3] = [
        TileOrder::Natural,
        TileOrder::DegreeSorted,
        TileOrder::Clustered,
    ];
}

impl std::fmt::Display for TileOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TileOrder::Natural => "natural",
            TileOrder::DegreeSorted => "degree",
            TileOrder::Clustered => "clustered",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for TileOrder {
    type Err = nvr_common::NvrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "natural" => Ok(TileOrder::Natural),
            "degree" => Ok(TileOrder::DegreeSorted),
            "clustered" => Ok(TileOrder::Clustered),
            other => Err(nvr_common::NvrError::Parse(format!(
                "unknown tile order `{other}` (expected natural|degree|clustered)"
            ))),
        }
    }
}

/// Parameters shared by all workload generators.
///
/// # Examples
///
/// ```
/// use nvr_workloads::WorkloadSpec;
/// use nvr_common::DataWidth;
///
/// let spec = WorkloadSpec::new(DataWidth::Fp16, 42);
/// assert_eq!(spec.width, DataWidth::Fp16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Operand width (Fig. 5 evaluates INT8/FP16/INT32).
    pub width: DataWidth,
    /// RNG seed; identical seeds give identical programs.
    pub seed: u64,
    /// Problem size class.
    pub scale: Scale,
    /// Node-visit order of the graph workloads (ignored by the rest).
    pub order: TileOrder,
}

impl WorkloadSpec {
    /// Evaluation-scale spec.
    #[must_use]
    pub fn new(width: DataWidth, seed: u64) -> Self {
        WorkloadSpec {
            width,
            seed,
            scale: Scale::Default,
            order: TileOrder::Natural,
        }
    }

    /// Unit-test-scale spec.
    #[must_use]
    pub fn tiny(width: DataWidth, seed: u64) -> Self {
        WorkloadSpec {
            width,
            seed,
            scale: Scale::Tiny,
            order: TileOrder::Natural,
        }
    }

    /// This spec with a different tile order.
    #[must_use]
    pub fn with_order(mut self, order: TileOrder) -> Self {
        self.order = order;
        self
    }

    /// This spec at a different problem size.
    #[must_use]
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// The systolic array the compute budgets assume.
    #[must_use]
    pub fn systolic(&self) -> SystolicArray {
        SystolicArray::gemmini_default()
    }
}

/// A set of `u32` keys below a fixed bound, one bit per key, drained in
/// ascending order: the sorted top-k index list of the attention builders.
#[derive(Debug, Clone)]
pub(crate) struct KeySet {
    words: Vec<u64>,
    len: usize,
}

impl KeySet {
    /// An empty set over keys `0..bound`.
    pub(crate) fn new(bound: usize) -> Self {
        KeySet {
            words: vec![0; bound.div_ceil(64)],
            len: 0,
        }
    }

    /// Distinct keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Adds `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not below the bound rounded up to a multiple
    /// of 64.
    pub(crate) fn insert(&mut self, key: u32) {
        let (word, bit) = (key as usize / 64, key % 64);
        let w = &mut self.words[word];
        self.len += usize::from((*w >> bit) & 1 == 0);
        *w |= 1 << bit;
    }

    /// The keys in ascending order; leaves the set empty.
    pub(crate) fn drain_sorted(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        for (i, w) in self.words.iter_mut().enumerate() {
            while *w != 0 {
                out.push(i as u32 * 64 + w.trailing_zeros());
                *w &= *w - 1;
            }
        }
        self.len = 0;
        out
    }
}

/// Ingredients of one tile handed to [`assemble`].
#[derive(Debug, Clone)]
pub struct TileSketch {
    /// Gather indices this tile consumes (in execution order).
    pub indices: Vec<u32>,
    /// Systolic compute cycles once data is ready.
    pub compute_cycles: u64,
    /// Dense operand bytes DMA'd into the scratchpad.
    pub dma_bytes: u64,
    /// Output bytes streamed off chip.
    pub store_bytes: u64,
}

/// Assembles tile sketches into a validated [`NpuProgram`].
///
/// The per-tile index lists are flattened into one contiguous index array
/// at [`INDEX_BASE`] (the CSR `col_indices` layout the engine's snoopers
/// assume), allocated once at its final length; `extra_segments` installs
/// auxiliary structures such as hash bucket tables.
///
/// # Panics
///
/// Panics if `sketches` is empty or the resulting program fails
/// [`NpuProgram::assert_valid`].
#[must_use]
pub fn assemble(
    name: &str,
    spec: &WorkloadSpec,
    sketches: Vec<TileSketch>,
    func: SparseFunc,
    batch: usize,
    extra_segments: Vec<(Addr, Vec<u32>)>,
) -> NpuProgram {
    assert!(!sketches.is_empty(), "workload must produce tiles");
    let mut image = MemoryImage::new();
    let mut flat: Vec<u32> = Vec::with_capacity(sketches.iter().map(|s| s.indices.len()).sum());
    let mut tiles = Vec::with_capacity(sketches.len());
    for (id, sk) in sketches.into_iter().enumerate() {
        let start = INDEX_BASE.offset(flat.len() as u64 * 4);
        let bytes = sk.indices.len() as u64 * 4;
        flat.extend_from_slice(&sk.indices);
        tiles.push(TileOp {
            id,
            index_region: Region::new(start, bytes),
            gather: Some(GatherDesc { func, batch }),
            dma_bytes: sk.dma_bytes,
            compute_cycles: sk.compute_cycles,
            store_bytes: sk.store_bytes,
        });
    }
    image.add_u32_segment(INDEX_BASE, flat);
    for (base, data) in extra_segments {
        image.add_u32_segment(base, data);
    }
    let program = NpuProgram {
        name: name.to_owned(),
        width: spec.width,
        tiles,
        image,
    };
    program.assert_valid();
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_flattens_indices() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 0);
        let func = SparseFunc::Affine {
            ia_base: IA_BASE,
            row_bytes: 64,
        };
        let p = assemble(
            "t",
            &spec,
            vec![
                TileSketch {
                    indices: vec![1, 2, 3],
                    compute_cycles: 5,
                    dma_bytes: 0,
                    store_bytes: 0,
                },
                TileSketch {
                    indices: vec![4, 5],
                    compute_cycles: 5,
                    dma_bytes: 0,
                    store_bytes: 0,
                },
            ],
            func,
            16,
            vec![],
        );
        assert_eq!(p.tiles.len(), 2);
        assert_eq!(p.tiles[0].index_values(&p.image), vec![1, 2, 3]);
        assert_eq!(p.tiles[1].index_values(&p.image), vec![4, 5]);
        // Second tile's region follows the first contiguously.
        assert_eq!(
            p.tiles[1].index_region.start(),
            p.tiles[0].index_region.end()
        );
    }

    #[test]
    #[should_panic(expected = "must produce tiles")]
    fn empty_sketches_rejected() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 0);
        let func = SparseFunc::Affine {
            ia_base: IA_BASE,
            row_bytes: 64,
        };
        let _ = assemble("t", &spec, vec![], func, 16, vec![]);
    }

    #[test]
    fn key_set_drains_distinct_keys_in_order() {
        let mut set = KeySet::new(200);
        for k in [130, 5, 64, 5, 199, 0, 63, 130] {
            set.insert(k);
        }
        assert_eq!(set.len(), 6);
        assert_eq!(set.drain_sorted(), vec![0, 5, 63, 64, 130, 199]);
        assert_eq!(set.len(), 0);
        set.insert(7);
        assert_eq!(set.drain_sorted(), vec![7], "draining empties the set");
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Tiny.tile_factor(), 1);
        assert_eq!(Scale::Default.tile_factor(), 4);
        assert_eq!(Scale::Large.tile_factor(), 16);
    }

    #[test]
    fn scale_parse_roundtrip() {
        for s in Scale::ALL {
            let parsed: Scale = s.to_string().parse().expect("roundtrip");
            assert_eq!(parsed, s);
        }
        assert!("huge".parse::<Scale>().is_err());
    }
}
