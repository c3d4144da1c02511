//! Baseline hardware prefetchers and the prefetcher interface.
//!
//! The paper compares NVR against three general-purpose-processor
//! prefetchers (§V-A), all re-implemented here against the same
//! [`Prefetcher`] interface the NPU engine drives:
//!
//! * [`StreamPrefetcher`] — adaptive stream/stride detection (Hur & Lin):
//!   catches sequential index/weight streams, blind to indirection.
//! * [`ImpPrefetcher`] — the Indirect Memory Prefetcher (Yu et al.): learns
//!   affine `base + (index << shift)` correlations between index values and
//!   miss addresses; cannot learn non-affine (table-lookup) chains.
//! * [`DvrPrefetcher`] — Decoupled Vector Runahead (Naithani et al.):
//!   triggered by stalls, speculatively executes the indirect chain for a
//!   fixed distance ahead, vectorising across inner-loop invocations. Has
//!   no access to NPU sparse-unit metadata, so it overruns loop boundaries.
//!
//! The NVR prefetcher itself lives in the `nvr-core` crate and implements
//! the same trait.

pub mod api;
pub mod dvr;
pub mod imp;
pub mod rpt;
pub mod stream;

pub use api::{NullPrefetcher, Prefetcher, TimelinessReport};
pub use dvr::DvrPrefetcher;
pub use imp::ImpPrefetcher;
pub use rpt::StrideEntry;
pub use stream::StreamPrefetcher;
