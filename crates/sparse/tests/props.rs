//! Property-based tests of the voxel hash table and top-k selection.

use proptest::prelude::*;

use nvr_common::Pcg32;
use nvr_sparse::{top_k_indices, VoxelHashTable, VoxelKey};

proptest! {
    /// top_k agrees with a full sort for arbitrary inputs.
    #[test]
    fn topk_matches_sort(scores in prop::collection::vec(0.0f32..1.0, 1..200), frac in 0usize..=100) {
        let k = scores.len() * frac / 100;
        let got = top_k_indices(&scores, k);
        let mut want: Vec<u32> = (0..scores.len() as u32).collect();
        want.sort_by(|&a, &b| {
            scores[b as usize].partial_cmp(&scores[a as usize]).unwrap().then(a.cmp(&b))
        });
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    /// Voxel tables resolve every inserted key to its slot, and miss keys
    /// that were never inserted.
    #[test]
    fn voxel_table_resolves(seed in any::<u64>(), n in 1usize..150) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let (table, keys) = VoxelHashTable::random(n, 64, n * 4, &mut rng);
        for (i, &k) in keys.iter().enumerate() {
            prop_assert_eq!(table.lookup(k), Some(i as u32));
            let path = table.probe_path(k);
            prop_assert!(!path.is_empty());
            prop_assert!(path.iter().all(|&b| b < table.bucket_count()));
        }
        // A key far outside the extent was never inserted.
        prop_assert_eq!(table.lookup(VoxelKey::new(1 << 20, 0, 0)), None);
    }
}
