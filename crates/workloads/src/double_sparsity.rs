//! DS: Double Sparsity (Yang et al.) — post-training sparse attention.
//!
//! Each decode step selects the top-k KV-cache rows via the label cache and
//! gathers them for attention (§I, Fig. 1b). The index space spans the full
//! sequence-length KV cache — far beyond the L2 — and selections mix a
//! slowly drifting hot set (attention sinks / recent tokens) with a long
//! random tail, giving mild temporal reuse.

use nvr_common::rng::Zipf;
use nvr_common::Pcg32;
use nvr_trace::{NpuProgram, SparseFunc};

use crate::spec::{assemble, KeySet, TileSketch, WorkloadSpec, IA_BASE};

/// Sequence length (KV-cache rows).
const SEQ_LEN: usize = 8192;
/// Head dimension (elements per KV row).
const HEAD_DIM: usize = 64;
/// Selected keys per decode step (16x sparsity of SEQ_LEN/8).
const TOP_K: usize = 128;
/// Size of the hot set (attention sinks + recency window).
const HOT_SET: usize = 512;
/// Fraction of selections drawn from the hot set.
const HOT_FRACTION: f64 = 0.7;
/// Decode steps per tile factor.
const STEPS: usize = 32;

/// Builds the DS program at the default 16x sparsity.
#[must_use]
pub fn build(spec: &WorkloadSpec) -> NpuProgram {
    build_with_ratio(spec, SEQ_LEN / (TOP_K * 4))
}

/// Builds a DS program keeping 1 in `keep_ratio` keys per step (Fig. 1b's
/// parameter-reduction sweep). `keep_ratio = 1` is the dense baseline that
/// attends to a full contiguous window.
///
/// # Panics
///
/// Panics if `keep_ratio == 0`.
#[must_use]
pub fn build_with_ratio(spec: &WorkloadSpec, keep_ratio: usize) -> NpuProgram {
    assert!(keep_ratio > 0, "keep ratio must be non-zero");
    let mut rng = Pcg32::seed_with_stream(spec.seed, 0xD5);
    let zipf = Zipf::new(HOT_SET, 1.1);
    let sa = spec.systolic();
    let row_bytes = HEAD_DIM as u64 * spec.width.bytes();
    let steps = STEPS * spec.scale.tile_factor();
    // The attended window is SEQ_LEN/4 keys; keep 1 in keep_ratio of them.
    let window = SEQ_LEN / 4;
    let k = (window / keep_ratio).max(1);
    let mut chosen = KeySet::new(SEQ_LEN);

    let sketches = (0..steps)
        .map(|step| {
            if keep_ratio == 1 {
                // Dense: the full contiguous window (sequential gathers).
                let base = (step * 64) % (SEQ_LEN - window);
                for key in (base as u32)..(base + window) as u32 {
                    chosen.insert(key);
                }
            }
            while chosen.len() < k {
                let key = if rng.gen_bool(HOT_FRACTION) {
                    zipf.sample(&mut rng) as u32
                } else {
                    rng.gen_range(SEQ_LEN as u64) as u32
                };
                chosen.insert(key);
            }
            // Top-k lists are stored sorted (CSR-like index list).
            let indices = chosen.drain_sorted();
            // Attention: QK^T scores pipeline with AV accumulation
            // through the array (one pass over the k gathered rows).
            let compute = sa.sparse_mac_cycles(indices.len(), HEAD_DIM);
            TileSketch {
                indices,
                compute_cycles: compute,
                dma_bytes: row_bytes,   // the query vector
                store_bytes: row_bytes, // the output vector
            }
        })
        .collect();

    assemble(
        "DS",
        spec,
        sketches,
        SparseFunc::Affine {
            ia_base: IA_BASE,
            row_bytes,
        },
        16,
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;

    #[test]
    fn topk_indices_sorted_in_range() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 1));
        for t in &p.tiles {
            let v = t.index_values(&p.image);
            assert_eq!(v.len(), TOP_K);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated");
            assert!(v.iter().all(|&k| (k as usize) < SEQ_LEN));
        }
    }

    #[test]
    fn hot_set_dominates_selections() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 2));
        let mut hot = 0usize;
        let mut total = 0usize;
        for t in &p.tiles {
            for v in t.index_values(&p.image) {
                total += 1;
                if (v as usize) < HOT_SET {
                    hot += 1;
                }
            }
        }
        assert!(hot * 2 > total, "hot set should dominate ({hot}/{total})");
    }

    #[test]
    fn span_exceeds_l2() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 3));
        let row = p.tiles[0].gather.expect("gather").func.row_bytes();
        assert!(SEQ_LEN as u64 * row > 256 * 1024, "KV span must exceed L2");
    }
}
