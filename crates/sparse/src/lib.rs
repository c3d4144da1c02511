//! Voxel hash tables for the NVR point-cloud workloads.
//!
//! MinkowskiNet and SparseConvNet (Table II) locate a voxel's neighbours
//! by probing a hash table keyed on quantised 3-D coordinates, so their
//! gather addresses depend on a memory lookup. This crate implements that
//! table from scratch, together with the deterministic random generator
//! the workloads synthesise scenes with.
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

pub mod voxel_hash;

pub use voxel_hash::{VoxelHashTable, VoxelKey};
