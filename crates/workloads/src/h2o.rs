//! H2O: Heavy-Hitter Oracle (Zhang et al.) — KV-cache eviction keeping
//! heavy hitters plus a recency window.
//!
//! Attention mass concentrates on a small set of "heavy hitter" tokens that
//! persist across decode steps, giving the *highest temporal reuse* of the
//! LLM workloads — most gathers re-touch recently used rows, with a drift
//! term as new tokens displace old hitters.

use nvr_common::rng::Zipf;
use nvr_common::Pcg32;
use nvr_trace::{NpuProgram, SparseFunc};

use crate::spec::{assemble, KeySet, TileSketch, WorkloadSpec, IA_BASE};

/// KV-cache rows.
const SEQ_LEN: usize = 4096;
/// Head dimension.
const HEAD_DIM: usize = 64;
/// Rows kept per step (heavy hitters + recency window).
const BUDGET: usize = 96;
/// Persistent heavy-hitter pool size.
const HITTERS: usize = 64;
/// Decode steps per tile factor.
const STEPS: usize = 32;

/// Builds the H2O program.
#[must_use]
pub fn build(spec: &WorkloadSpec) -> NpuProgram {
    let mut rng = Pcg32::seed_with_stream(spec.seed, 0x1120);
    let sa = spec.systolic();
    let row_bytes = HEAD_DIM as u64 * spec.width.bytes();
    let steps = STEPS * spec.scale.tile_factor();
    let zipf = Zipf::new(HITTERS, 1.2);

    // The hitter pool drifts slowly: one membership change per step, with
    // the replacement drawn Zipf-biased toward recent ranks.
    let mut pool: Vec<u32> = (0..HITTERS as u32).collect();
    let mut chosen = KeySet::new(SEQ_LEN);
    let sketches = (0..steps)
        .map(|step| {
            if step > 0 {
                let victim = zipf.sample(&mut rng).min(HITTERS - 1);
                pool[HITTERS - 1 - victim] = rng.gen_range(SEQ_LEN as u64) as u32;
            }
            // H2O keeps *all* heavy hitters plus a recency/random window.
            for &key in &pool {
                chosen.insert(key);
            }
            while chosen.len() < BUDGET {
                chosen.insert(rng.gen_range(SEQ_LEN as u64) as u32);
            }
            let indices = chosen.drain_sorted();
            TileSketch {
                indices,
                compute_cycles: sa.sparse_mac_cycles(BUDGET, HEAD_DIM),
                dma_bytes: row_bytes,
                store_bytes: row_bytes,
            }
        })
        .collect();

    assemble(
        "H2O",
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
    fn strong_reuse_across_steps() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 12));
        // Consecutive steps share most of their selections.
        let a: std::collections::BTreeSet<u32> =
            p.tiles[4].index_values(&p.image).into_iter().collect();
        let b: std::collections::BTreeSet<u32> =
            p.tiles[5].index_values(&p.image).into_iter().collect();
        let shared = a.intersection(&b).count();
        assert!(
            shared * 2 > BUDGET,
            "steps should share >50% of rows ({shared}/{BUDGET})"
        );
    }

    #[test]
    fn pool_drift_changes_selections_eventually() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 13));
        let first: std::collections::BTreeSet<u32> =
            p.tiles[0].index_values(&p.image).into_iter().collect();
        let last: std::collections::BTreeSet<u32> = p
            .tiles
            .last()
            .expect("tiles")
            .index_values(&p.image)
            .into_iter()
            .collect();
        assert!(first != last, "drift should change the working set");
    }

    #[test]
    fn budget_fixed_per_step() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Fp16, 14));
        for t in &p.tiles {
            assert_eq!(t.index_count(), BUDGET);
        }
    }
}
