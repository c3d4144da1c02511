//! One driver per table/figure of the paper's evaluation (§V).
//!
//! Every driver exposes `run(lab, scale, seed[, workloads]) -> Data` (the
//! static tables `run() -> Data`): it runs its cells through the caller's
//! [`Lab`], so a cell several figures share is simulated once, and its
//! data's `Display` prints the paper-style rendition. `sweep --figure
//! <name>` is the one entry point that regenerates each.

pub mod ablations;
pub mod fig1b;
pub mod fig5;
pub mod fig6;
pub mod fig6b;
pub mod fig7;
pub mod fig7b;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod table1;
pub mod table2;

use nvr_workloads::{Scale, WorkloadId};

use crate::lab::Lab;

nvr_common::registry_enum! {
    /// Identifier of one regenerable evaluation artifact — the uniform handle
    /// the sweep binary and CI fan out over — declared in the paper's order of
    /// appearance, then the ablations.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FigureId {
        /// Fig. 1b — motivation sweep.
        Fig1b,
        /// Fig. 5 — normalised latency panels.
        Fig5,
        /// Fig. 6 — accuracy / coverage / pollution + data movement.
        Fig6,
        /// Fig. 6b′ — prefetch timeliness breakdown (issue→use slack).
        Fig6b,
        /// Fig. 7 — bandwidth allocation.
        Fig7,
        /// Fig. 7b′ — DRAM channel scaling (1/2/4 channels x workloads).
        Fig7b,
        /// Fig. 8 — LLM system evaluation.
        Fig8,
        /// Fig. 9 — NSB/L2 sizing + point-cloud density sensitivity.
        Fig9,
        /// The abstract's headline claims.
        Headline,
        /// Table I — hardware overhead.
        Table1,
        /// Table II — workload inventory.
        Table2,
        /// Ablations of NVR's design choices (not a paper figure).
        Ablations,
    }
}

impl FigureId {
    /// CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Fig1b => "fig1b",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig6b => "fig6b",
            FigureId::Fig7 => "fig7",
            FigureId::Fig7b => "fig7b",
            FigureId::Fig8 => "fig8",
            FigureId::Fig9 => "fig9",
            FigureId::Headline => "headline",
            FigureId::Table1 => "table1",
            FigureId::Table2 => "table2",
            FigureId::Ablations => "ablations",
        }
    }

    /// Looks an artifact up by name, case-insensitively.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FigureId> {
        FigureId::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(s))
    }

    /// Regenerates the artifact's data through `lab` and returns the
    /// paper-style text rendition. Deterministic in (scale, seed) — the
    /// lab's worker count and its earlier runs never change the bytes.
    #[must_use]
    pub fn regenerate(self, lab: &mut Lab, scale: Scale, seed: u64) -> String {
        let all = &WorkloadId::ALL;
        match self {
            FigureId::Fig1b => fig1b::run(lab, scale, seed).to_string(),
            FigureId::Fig5 => fig5::run(lab, scale, seed).to_string(),
            FigureId::Fig6 => fig6::run(lab, scale, seed, all).to_string(),
            FigureId::Fig6b => fig6b::run(lab, scale, seed, all).to_string(),
            FigureId::Fig7 => fig7::run(lab, scale, seed).to_string(),
            FigureId::Fig7b => fig7b::run(lab, scale, seed, all).to_string(),
            FigureId::Fig8 => fig8::run(lab, scale, seed).to_string(),
            FigureId::Fig9 => fig9::run(lab, scale, seed).to_string(),
            FigureId::Headline => headline::run(lab, scale, seed, all).to_string(),
            FigureId::Table1 => table1::run().to_string(),
            FigureId::Table2 => table2::run().to_string(),
            FigureId::Ablations => ablations::run(lab, scale, seed).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for f in FigureId::ALL {
            assert_eq!(FigureId::from_name(f.name()), Some(f));
            assert_eq!(FigureId::from_name(&f.name().to_uppercase()), Some(f));
        }
        assert_eq!(FigureId::from_name("fig2"), None);
    }

    #[test]
    fn static_tables_regenerate_instantly() {
        let t1 = FigureId::Table1.regenerate(&mut Lab::new(1), Scale::Tiny, 0);
        assert!(t1.contains("Table I"));
        let t2 = FigureId::Table2.regenerate(&mut Lab::new(4), Scale::Tiny, 0);
        assert!(t2.contains("Table II"));
    }
}
