//! Voxel hash tables and top-k selection for the NVR workloads.
//!
//! MinkowskiNet and SparseConvNet (Table II) locate a voxel's neighbours
//! by probing a hash table keyed on quantised 3-D coordinates, so their
//! gather addresses depend on a memory lookup. This crate implements that
//! table from scratch, together with the deterministic random generator
//! the workloads synthesise scenes with, and the top-k index selection
//! sparse attention gathers by.
//!
//! # Examples
//!
//! ```
//! use nvr_common::Pcg32;
//! use nvr_sparse::VoxelHashTable;
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let (table, keys) = VoxelHashTable::random(100, 32, 256, &mut rng);
//! let (bucket, slot) = table.find(keys[5]);
//! assert_eq!(slot, Some(5));
//! assert_eq!(table.probe_path(keys[5]).last(), Some(&bucket));
//! ```

pub mod topk;
pub mod voxel_hash;

pub use topk::top_k_indices;
pub use voxel_hash::{VoxelHashTable, VoxelKey};
