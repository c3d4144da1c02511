//! System-level LLM inference model (the paper's LLMCompass substitute).
//!
//! Fig. 8 evaluates NVR at the level of a whole transformer: per-layer miss
//! behaviour (QKV projection, QKᵀ scores, AV aggregation) and end-to-end
//! prefill/decode throughput as a function of off-chip bandwidth. This
//! crate provides:
//!
//! * [`LlmConfig`] — transformer shapes and per-token byte/compute
//!   accounting (the roofline inputs);
//! * [`layers`] — NPU-program builders for the three attention sub-layers
//!   of a sparse-attention decode step, run through the cache simulator by
//!   the `nvr-sim` harness;
//! * [`throughput`] — the roofline combinator that folds measured sparse
//!   gather cycles into tokens/second versus bandwidth curves.
//!
//! The split keeps this crate simulation-free: the harness measures, this
//! crate models.

pub mod layers;
pub mod model;
pub mod throughput;

pub use layers::{av_program, qkt_program, qkv_program};
pub use model::LlmConfig;
pub use throughput::{decode_throughput, prefill_throughput, ThroughputPoint};
