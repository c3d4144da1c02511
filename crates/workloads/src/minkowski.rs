//! MK: MinkowskiNet — sparse 3-D convolution over voxelised point clouds.
//!
//! The kernel map resolves each output voxel's 3³ neighbourhood through a
//! voxel hash table (§II-A: "hash-table indexing and sampling operation in
//! point cloud networks"). The gather chain is therefore **two-level**:
//! bucket probe → feature row. Affine-pattern prefetchers cannot learn it;
//! runahead executes it.

use nvr_common::Pcg32;
use nvr_sparse::{VoxelHashTable, VoxelKey};
use nvr_trace::{NpuProgram, SparseFunc};

use crate::spec::{assemble, TileSketch, WorkloadSpec, IA_BASE, TABLE_BASE};

/// Occupied voxels (feature rows).
const POINTS: usize = 8192;
/// Voxel grid extent per axis.
const EXTENT: u32 = 64;
/// Hash-table buckets.
const BUCKETS: usize = 32_768;
/// Feature channels.
const FEAT_DIM: usize = 32;
/// Output voxels resolved per tile.
const VOXELS_PER_TILE: usize = 8;
/// Tiles per tile factor.
const TILES: usize = 32;

/// The 3x3x3 kernel offsets.
fn kernel_offsets() -> Vec<(i32, i32, i32)> {
    let mut out = Vec::with_capacity(27);
    for dx in -1..=1 {
        for dy in -1..=1 {
            for dz in -1..=1 {
                out.push((dx, dy, dz));
            }
        }
    }
    out
}

/// Exports the hash table's bucket array as the `u32` slot table the
/// hardware probes (empty buckets read as 0).
pub(crate) fn export_bucket_table(table: &VoxelHashTable, keys: &[VoxelKey]) -> Vec<u32> {
    let mut out = vec![0u32; table.bucket_count()];
    for &key in keys {
        let (bucket, slot) = table.find(key);
        out[bucket] = slot.expect("inserted key resolves");
    }
    out
}

/// How output voxels are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VoxelOrder {
    /// Random sampling across the scene (scattered LiDAR-style scenes).
    #[default]
    Random,
    /// Coordinate-sorted traversal (submanifold convolution order), which
    /// makes consecutive tiles share neighbourhoods.
    Sorted,
}

/// Tunable shape of a point-cloud kernel-map program — the density and
/// traversal-order knobs the Fig. 9 sensitivity sweeps vary, plus the
/// static geometry MK and SCN share.
///
/// # Examples
///
/// ```
/// use nvr_workloads::minkowski::PointcloudParams;
///
/// let p = PointcloudParams::mk_default();
/// assert!(p.occupancy() < 0.1, "MK scenes are sparse");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointcloudParams {
    /// Occupied voxels (feature rows) — with `extent`, the scene density.
    pub points: usize,
    /// Voxel grid extent per axis.
    pub extent: u32,
    /// Hash-table buckets.
    pub buckets: usize,
    /// Feature channels.
    pub feat_dim: usize,
    /// Tiles per tile factor.
    pub tiles: usize,
    /// Output-voxel enumeration order.
    pub order: VoxelOrder,
}

impl PointcloudParams {
    /// MK's evaluation shape (uniform scatter, ~3% occupancy).
    #[must_use]
    pub fn mk_default() -> Self {
        PointcloudParams {
            points: POINTS,
            extent: EXTENT,
            buckets: BUCKETS,
            feat_dim: FEAT_DIM,
            tiles: TILES,
            order: VoxelOrder::Random,
        }
    }

    /// Scene occupancy: occupied voxels over grid cells.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.points as f64 / (u64::from(self.extent).pow(3)) as f64
    }

    /// The same shape at a different density (`points` scaled, geometry
    /// fixed) — the Fig. 9 density axis.
    #[must_use]
    pub fn with_points(mut self, points: usize) -> Self {
        self.points = points;
        self
    }

    /// The same shape with a different traversal order — the Fig. 9
    /// locality axis.
    #[must_use]
    pub fn with_order(mut self, order: VoxelOrder) -> Self {
        self.order = order;
        self
    }
}

/// Builds an MK-style program with explicit density/order knobs: a
/// uniformly scattered cloud of `params.points` voxels.
#[must_use]
pub fn build_with_params(spec: &WorkloadSpec, params: &PointcloudParams) -> NpuProgram {
    let mut rng = Pcg32::seed_with_stream(spec.seed, 0x3141);
    let (table, keys) =
        VoxelHashTable::random(params.points, params.extent, params.buckets, &mut rng);
    build_pointcloud("MK", spec, &table, &keys, params, &mut rng)
}

/// Builds a point-cloud kernel-map program from pre-generated voxels.
pub(crate) fn build_pointcloud(
    name: &str,
    spec: &WorkloadSpec,
    table: &VoxelHashTable,
    keys: &[VoxelKey],
    params: &PointcloudParams,
    rng: &mut Pcg32,
) -> NpuProgram {
    let feat_dim = params.feat_dim;
    let order = params.order;
    let sa = spec.systolic();
    let row_bytes = feat_dim as u64 * spec.width.bytes();
    let offsets = kernel_offsets();
    let bucket_table = export_bucket_table(table, keys);
    let n_tiles = params.tiles * spec.scale.tile_factor();
    let sorted_keys = match order {
        VoxelOrder::Random => Vec::new(),
        VoxelOrder::Sorted => {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            sorted
        }
    };

    let sketches = (0..n_tiles)
        .enumerate()
        .map(|(t, _)| {
            let mut indices = Vec::new();
            for v in 0..VOXELS_PER_TILE {
                let centre = match order {
                    VoxelOrder::Random => keys[rng.gen_index(keys.len())],
                    VoxelOrder::Sorted => {
                        sorted_keys[(t * VOXELS_PER_TILE + v) % sorted_keys.len()]
                    }
                };
                for &(dx, dy, dz) in &offsets {
                    if let (bucket, Some(_)) = table.find(centre.offset(dx, dy, dz)) {
                        indices.push(bucket as u32);
                    }
                }
            }
            if indices.is_empty() {
                // Centre voxel always resolves to itself.
                let centre = keys[0];
                indices.push(table.find(centre).0 as u32);
            }
            let found = indices.len();
            TileSketch {
                indices,
                compute_cycles: sa.sparse_mac_cycles(found, feat_dim),
                dma_bytes: (VOXELS_PER_TILE * feat_dim) as u64 * spec.width.bytes(),
                store_bytes: (VOXELS_PER_TILE * feat_dim) as u64 * spec.width.bytes(),
            }
        })
        .collect();

    assemble(
        name,
        spec,
        sketches,
        SparseFunc::TableLookup {
            table_base: TABLE_BASE,
            ia_base: IA_BASE,
            row_bytes,
        },
        16,
        vec![(TABLE_BASE, bucket_table)],
    )
}

/// Builds the MK program (uniform voxel placement: sparse scenes).
#[must_use]
pub fn build(spec: &WorkloadSpec) -> NpuProgram {
    build_with_params(spec, &PointcloudParams::mk_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;
    use nvr_trace::SparseFunc as SF;

    #[test]
    fn chain_is_two_level() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 15));
        let func = p.tiles[0].gather.expect("gather").func;
        assert!(matches!(func, SF::TableLookup { .. }));
    }

    #[test]
    fn bucket_indices_resolve_to_feature_rows() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 16));
        for t in p.tiles.iter().take(4) {
            for rg in t.resolved_gathers(&p.image) {
                let probe = rg.probe.expect("two-level gathers probe");
                // Probe addresses live inside the bucket table segment.
                assert!(p.image.in_segment(probe), "probe {probe} outside table");
                // Targets land within the feature table's slot range.
                let off = rg.target.start().raw() - IA_BASE.raw();
                let slot = off / rg.target.bytes().max(1);
                assert!((slot as usize) < POINTS, "slot {slot} out of range");
            }
        }
    }

    #[test]
    fn density_knob_raises_neighbour_yield() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 23);
        let base = PointcloudParams::mk_default();
        let sparse = build_with_params(&spec, &base.with_points(POINTS / 4));
        let dense = build_with_params(&spec, &base.with_points(POINTS * 2));
        let yield_of = |p: &NpuProgram| {
            let s = p.stats();
            s.gather_elems as f64 / s.tiles as f64
        };
        assert!(
            yield_of(&dense) > yield_of(&sparse),
            "denser scene {} should out-yield sparser {}",
            yield_of(&dense),
            yield_of(&sparse)
        );
    }

    #[test]
    fn sorted_order_raises_reuse() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 24);
        let base = PointcloudParams::mk_default();
        let repeats_of = |p: &NpuProgram| {
            let mut seen = std::collections::BTreeSet::new();
            let mut repeats = 0usize;
            for t in &p.tiles {
                for v in t.index_values(&p.image) {
                    if !seen.insert(v) {
                        repeats += 1;
                    }
                }
            }
            repeats
        };
        let random = build_with_params(&spec, &base);
        let sorted = build_with_params(&spec, &base.with_order(VoxelOrder::Sorted));
        assert!(
            repeats_of(&sorted) >= repeats_of(&random),
            "sorted traversal should not lose reuse ({} vs {})",
            repeats_of(&sorted),
            repeats_of(&random)
        );
    }

    #[test]
    fn neighbourhood_yield_is_sparse() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 17));
        let s = p.stats();
        // With 8192 points in 64^3 = 262144 cells, occupancy is ~3%, so
        // far fewer than 27 neighbours resolve per voxel.
        let per_voxel = s.gather_elems as f64 / (s.tiles * VOXELS_PER_TILE) as f64;
        assert!(per_voxel < 8.0, "found {per_voxel} neighbours per voxel");
        assert!(per_voxel >= 1.0 / VOXELS_PER_TILE as f64);
    }
}
