//! Fig. 8 — system-level LLM evaluation.
//!
//! (a) per-attention-layer batch vs element miss rates, InO vs NVR;
//! (b) prefill throughput vs bandwidth for three prompt lengths;
//! (c) decode throughput vs bandwidth for three output lengths.
//!
//! The sparse-gather cycles feeding the roofline model are *measured* by
//! running the `nvr-llm` layer programs through the cache simulator at each
//! bandwidth point.

use std::fmt;

use nvr_llm::{decode_throughput, prefill_throughput, LlmConfig};
use nvr_mem::{DramConfig, MemoryConfig};
use nvr_workloads::Scale;

use crate::lab::{Cell, Lab, LlmLayer, ProgramSpec};
use crate::report::{fmt3, Table};
use crate::runner::SystemKind;

/// Panel (a): one layer's miss rates under one system.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMiss {
    /// Layer name (QKV / QKT / AV).
    pub layer: &'static str,
    /// System label.
    pub system: &'static str,
    /// Fraction of vector batches with at least one missing element.
    pub batch_miss_rate: f64,
    /// Fraction of elements whose line missed.
    pub element_miss_rate: f64,
}

/// Panels (b)/(c): one throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Sequence length the curve was measured at.
    pub seq_len: usize,
    /// Whether NVR was enabled (dashed lines in the paper).
    pub nvr: bool,
    /// `(bytes_per_cycle, tokens_per_mcycle)` points.
    pub points: Vec<(u64, f64)>,
}

/// The Fig. 8 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig8 {
    /// Panel (a).
    pub layer_misses: Vec<LayerMiss>,
    /// Panel (b): prefill curves.
    pub prefill: Vec<Curve>,
    /// Panel (c): decode curves.
    pub decode: Vec<Curve>,
}

impl Fig8 {
    /// Average decode-throughput gain of NVR over baseline across a curve
    /// pair at `seq_len` (the paper's "average 50% throughput improvement").
    #[must_use]
    pub fn decode_gain(&self, seq_len: usize) -> f64 {
        let find = |nvr: bool| {
            self.decode
                .iter()
                .find(|c| c.seq_len == seq_len && c.nvr == nvr)
        };
        let (Some(base), Some(nvr)) = (find(false), find(true)) else {
            return 0.0;
        };
        let gains: Vec<f64> = base
            .points
            .iter()
            .zip(&nvr.points)
            .filter(|((_, b), _)| *b > 0.0)
            .map(|((_, b), (_, n))| n / b)
            .collect();
        if gains.is_empty() {
            0.0
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        }
    }
}

/// Bandwidth sweep points (bytes/cycle ~ GB/s at 1 GHz).
const BANDWIDTHS: [u64; 6] = [4, 8, 16, 32, 64, 128];

/// Curve family of one panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PanelKind {
    Prefill,
    Decode,
}

/// Runs all three panels through `lab`. The LLM programs do not scale
/// with `scale`; at [`Scale::Tiny`] the curves are trimmed to three
/// bandwidths and one length per panel.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64) -> Fig8 {
    let fast = scale == Scale::Tiny;
    let cfg = LlmConfig::default();
    let mut fig = Fig8::default();

    // Panel (a): layer miss rates at l = 2048.
    let layers = [
        (LlmLayer::Qkv, "QKV"),
        (LlmLayer::Qkt, "QKT"),
        (LlmLayer::Av, "AV"),
    ];
    let systems = [SystemKind::InOrder, SystemKind::Nvr];
    let mem = MemoryConfig::default();
    let cells: Vec<Cell> = layers
        .iter()
        .flat_map(|&(layer, _)| {
            systems.map(|s| Cell::new(ProgramSpec::Llm(layer, 2048, seed), s, &mem))
        })
        .collect();
    fig.layer_misses = layers
        .iter()
        .flat_map(|&(_, name)| systems.map(|_| name))
        .zip(lab.run(&cells))
        .map(|(layer, o)| LayerMiss {
            layer,
            system: o.system.label(),
            batch_miss_rate: o.result.batch_miss_rate(),
            element_miss_rate: o.result.element_miss_rate(),
        })
        .collect();

    let bandwidths: &[u64] = if fast { &BANDWIDTHS[..3] } else { &BANDWIDTHS };
    let prefill_lens: &[usize] = if fast { &[1024] } else { &[1024, 2048, 4096] };
    let decode_lens: &[usize] = if fast { &[512] } else { &[512, 1024, 2048] };

    // Panels (b)/(c): one decode step — its QKᵀ and AV gathers at one
    // bandwidth, baseline or NVR — per curve point, all in one batch so
    // the pool load-balances across the whole grid at once.
    let mut meta = Vec::new();
    for (kind, lens) in [
        (PanelKind::Prefill, prefill_lens),
        (PanelKind::Decode, decode_lens),
    ] {
        for &l in lens {
            for system in systems {
                for &b in bandwidths {
                    meta.push((kind, l, system, b));
                }
            }
        }
    }
    let cells: Vec<Cell> = meta
        .iter()
        .flat_map(|&(_, l, system, bytes_per_cycle)| {
            let dram = DramConfig {
                bytes_per_cycle,
                ..DramConfig::default()
            };
            let mem = MemoryConfig::default().with_dram(dram);
            [LlmLayer::Qkt, LlmLayer::Av]
                .map(|layer| Cell::new(ProgramSpec::Llm(layer, l, seed), system, &mem))
        })
        .collect();
    let outcomes = lab.run(&cells);

    for ((kind, l, system, b), step) in meta.into_iter().zip(outcomes.chunks(2)) {
        let nvr = system == SystemKind::Nvr;
        // The programs simulate 48 decode steps of one head; scale to the
        // whole stack (heads x layers serialise through the gather unit).
        let sim_steps = 48.0;
        let per_step =
            (step[0].result.total_cycles + step[1].result.total_cycles) as f64 / sim_steps;
        let sparse = per_step * cfg.heads as f64 * cfg.layers as f64;
        let (curves, tput) = match kind {
            // Prefill processes queries in blocks sharing gathers; the
            // sparse share is ~1/64 of a per-token decode pass.
            PanelKind::Prefill => (
                &mut fig.prefill,
                prefill_throughput(&cfg, l, b, sparse * l as f64 / 64.0).tokens_per_mcycle,
            ),
            PanelKind::Decode => (
                &mut fig.decode,
                decode_throughput(&cfg, l, b, sparse).tokens_per_mcycle,
            ),
        };
        match curves.iter_mut().find(|c| c.seq_len == l && c.nvr == nvr) {
            Some(curve) => curve.points.push((b, tput)),
            None => curves.push(Curve {
                seq_len: l,
                nvr,
                points: vec![(b, tput)],
            }),
        }
    }
    fig
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8a — per-layer miss rates (InO vs NVR)")?;
        let mut t = Table::new(vec![
            "layer".into(),
            "system".into(),
            "batch miss".into(),
            "element miss".into(),
        ]);
        for m in &self.layer_misses {
            t.row(vec![
                m.layer.into(),
                m.system.into(),
                fmt3(m.batch_miss_rate),
                fmt3(m.element_miss_rate),
            ]);
        }
        writeln!(f, "{t}")?;
        for (name, curves) in [
            ("Fig. 8b — prefill", &self.prefill),
            ("Fig. 8c — decode", &self.decode),
        ] {
            writeln!(f, "{name} throughput vs bandwidth (tokens/Mcycle)")?;
            let mut t = Table::new(vec![
                "l".into(),
                "system".into(),
                "points (B/cyc -> tput)".into(),
            ]);
            for c in curves {
                let pts = c
                    .points
                    .iter()
                    .map(|(b, v)| format!("{b}->{}", fmt3(*v)))
                    .collect::<Vec<_>>()
                    .join(", ");
                t.row(vec![
                    c.seq_len.to_string(),
                    if c.nvr { "NVR" } else { "base" }.into(),
                    pts,
                ]);
            }
            writeln!(f, "{t}")?;
        }
        if let Some(c) = self.decode.first() {
            writeln!(
                f,
                "decode NVR gain at l={}: {:.0}%",
                c.seq_len,
                100.0 * (self.decode_gain(c.seq_len) - 1.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvr_improves_decode_and_batch_misses() {
        let fig = run(&mut Lab::new(1), Scale::Tiny, 3);
        // Panel (a): NVR shrinks both miss metrics on the gather layers;
        // batch misses stay >= element misses.
        for layer in ["QKT", "AV"] {
            let get = |sys: &str| {
                fig.layer_misses
                    .iter()
                    .find(|m| m.layer == layer && m.system == sys)
                    .expect("cell")
            };
            let ino = get("InO");
            let nvr = get("NVR");
            assert!(ino.batch_miss_rate >= ino.element_miss_rate);
            assert!(
                nvr.element_miss_rate < ino.element_miss_rate,
                "{layer}: NVR {} vs InO {}",
                nvr.element_miss_rate,
                ino.element_miss_rate
            );
        }
        // Panel (c): NVR gains throughput on the IO-bound decode.
        let gain = fig.decode_gain(512);
        assert!(gain > 1.05, "decode gain {gain} should exceed 5%");
    }
}
