//! Trace and instruction substrate for the NVR simulator.
//!
//! A workload is compiled into an [`NpuProgram`]: a sequence of tile-level
//! coarse instructions ([`TileOp`]) over a [`MemoryImage`] holding the real
//! index data (row pointers, column indices, hash buckets). The NPU engine
//! *executes* the program — computing gather addresses from actual index
//! values — while prefetchers *predict* it, observing only [`AccessEvent`]s
//! and the snoopable architectural state ([`SnoopState`]). Runahead
//! prefetchers may additionally read index values back out of the image,
//! but only for lines whose (speculative) fill has completed — the honest
//! runahead semantics of §III.
//!
//! # Examples
//!
//! ```
//! use nvr_trace::{MemoryImage, SparseFunc};
//! use nvr_common::Addr;
//!
//! let mut image = MemoryImage::new();
//! image.add_u32_segment(Addr::new(0x1000), vec![3, 1, 4]);
//! let func = SparseFunc::Affine { ia_base: Addr::new(0x10_0000), row_bytes: 64 };
//! let resolved = func.element_region(4, &image);
//! assert_eq!(resolved.target.start().raw(), 0x10_0000 + 4 * 64);
//! ```

pub mod event;
pub mod image;
pub mod program;
pub mod snoop;

pub use event::{AccessEvent, EventKind};
pub use image::MemoryImage;
pub use program::{GatherDesc, NpuProgram, ProgramStats, ResolvedGather, SparseFunc, TileOp};
pub use snoop::SnoopState;
