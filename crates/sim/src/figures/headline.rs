//! Headline claims — the abstract's numbers, recomputed.
//!
//! * ~90% cache-miss reduction vs SOTA general-purpose prefetching;
//! * ~4x average speedup on sparse workloads vs no prefetching;
//! * ~75% off-chip memory access reduction during NPU execution.
//!
//! The primary row keeps the historical configuration (plain NVR, one
//! DRAM channel) for continuity; the driver additionally evaluates the
//! paper's own NSB-backed system (§IV-G) and a two-channel memory
//! system — each against the in-order baseline *on the same memory
//! system* — and reports the best (NSB, channel-count) configuration.

use std::fmt;

use nvr_common::{mean, DataWidth};
use nvr_mem::{DramConfig, MemoryConfig};
use nvr_workloads::{Scale, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab};
use crate::metrics::{geometric_mean, speedup};
use crate::runner::{RunOutcome, SystemKind};

/// One evaluated headline configuration.
#[derive(Debug, Clone, Default)]
pub struct HeadlineConfig {
    /// Configuration label ("NVR", "NVR+NSB", "NVR+NSB 2ch").
    pub label: &'static str,
    /// Geometric-mean speedup over InO on the same memory system.
    pub geomean: f64,
    /// Per-workload speedups, for inspection.
    pub speedups: Vec<(&'static str, f64)>,
}

/// Recomputed headline aggregates.
#[derive(Debug, Clone, Default)]
pub struct Headline {
    /// Geometric-mean speedup of plain NVR over InO (no prefetch), one
    /// channel — the historical primary row.
    pub speedup_vs_no_prefetch: f64,
    /// Mean reduction of L2 demand misses vs the best GPP prefetcher
    /// (stream/IMP), in `[0, 1]`.
    pub miss_reduction_vs_gpp: f64,
    /// Mean reduction of off-chip demand lines vs InO, in `[0, 1]`.
    pub offchip_reduction: f64,
    /// Per-workload speedups of the primary row, for inspection.
    pub speedups: Vec<(&'static str, f64)>,
    /// Every evaluated (NSB, channel-count) configuration.
    pub configs: Vec<HeadlineConfig>,
}

impl Headline {
    /// The best evaluated configuration by geometric-mean speedup.
    #[must_use]
    pub fn best_config(&self) -> Option<&HeadlineConfig> {
        self.configs
            .iter()
            .max_by(|a, b| a.geomean.total_cmp(&b.geomean))
    }
}

/// Recomputes the claims over `workloads` (the abstract's numbers use all
/// eight) through `lab`.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64, workloads: &[WorkloadId]) -> Headline {
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let systems = [
        SystemKind::InOrder,
        SystemKind::Stream,
        SystemKind::Imp,
        SystemKind::Nvr,
        SystemKind::NvrNsb,
    ];
    let one_ch = lab.run(&Cell::grid(
        workloads,
        &systems,
        spec,
        &MemoryConfig::default(),
    ));
    // The best-configuration search: NVR and NVR+NSB on one channel come
    // from the primary grid; the two-channel row pairs InO and NVR+NSB on
    // the same two-channel memory system (fair comparison).
    let two_ch_mem = MemoryConfig {
        dram: DramConfig::default().with_channels(2),
        ..MemoryConfig::default()
    };
    let pair = [SystemKind::InOrder, SystemKind::NvrNsb];
    let two_ch = lab.run(&Cell::grid(workloads, &pair, spec, &two_ch_mem));
    let cycles = |o: &RunOutcome| o.result.total_cycles;
    let misses = |o: &RunOutcome| o.result.mem.l2.demand_misses.get();

    let mut miss_reductions = Vec::new();
    let mut offchip_reductions = Vec::new();
    let mut rows: [Vec<(&'static str, f64)>; 3] = Default::default();
    let runs = one_ch.chunks(systems.len()).zip(two_ch.chunks(pair.len()));
    for (w, (one, two)) in workloads.iter().zip(runs) {
        let [ino, stream, imp, nvr, nsb] = one else {
            unreachable!("one outcome per system")
        };
        let best_gpp = misses(stream).min(misses(imp));
        if best_gpp > 0 {
            miss_reductions.push(1.0 - misses(nvr) as f64 / best_gpp as f64);
        }
        let ino_off = ino.result.mem.demand_offchip_lines();
        if ino_off > 0 {
            offchip_reductions
                .push(1.0 - nvr.result.mem.demand_offchip_lines() as f64 / ino_off as f64);
        }
        rows[0].push((w.short(), speedup(cycles(ino), cycles(nvr))));
        rows[1].push((w.short(), speedup(cycles(ino), cycles(nsb))));
        rows[2].push((w.short(), speedup(cycles(&two[0]), cycles(&two[1]))));
    }
    let configs: Vec<HeadlineConfig> = ["NVR", "NVR+NSB", "NVR+NSB 2ch"]
        .into_iter()
        .zip(rows)
        .map(|(label, speedups)| HeadlineConfig {
            label,
            geomean: geometric_mean(&speedups.iter().map(|(_, s)| *s).collect::<Vec<_>>()),
            speedups,
        })
        .collect();

    let speedups = configs[0].speedups.clone();
    Headline {
        speedup_vs_no_prefetch: configs[0].geomean,
        miss_reduction_vs_gpp: mean(&miss_reductions),
        offchip_reduction: mean(&offchip_reductions),
        speedups,
        configs,
    }
}

impl fmt::Display for Headline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline claims (paper -> measured)")?;
        writeln!(
            f,
            "  speedup vs no prefetching: paper ~4x -> {:.2}x (geomean, plain NVR)",
            self.speedup_vs_no_prefetch
        )?;
        writeln!(
            f,
            "  L2 miss reduction vs GPP prefetching: paper ~90% -> {:.0}%",
            100.0 * self.miss_reduction_vs_gpp
        )?;
        writeln!(
            f,
            "  off-chip access reduction vs InO: paper ~75% -> {:.0}%",
            100.0 * self.offchip_reduction
        )?;
        for (w, s) in &self.speedups {
            writeln!(f, "    {w}: {s:.2}x")?;
        }
        writeln!(
            f,
            "\nConfiguration search (geomean speedup vs InO, same memory system)"
        )?;
        for c in &self.configs {
            writeln!(f, "  {:<12} {:.2}x", c.label, c.geomean)?;
        }
        if let Some(best) = self.best_config() {
            writeln!(f, "best: {} at {:.2}x", best.label, best.geomean)?;
            for (w, s) in &best.speedups {
                writeln!(f, "    {w}: {s:.2}x")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold_in_shape_on_subset() {
        let h = run(
            &mut Lab::new(1),
            Scale::Tiny,
            9,
            &[WorkloadId::Ds, WorkloadId::Gcn],
        );
        assert!(
            h.speedup_vs_no_prefetch > 1.5,
            "speedup {}",
            h.speedup_vs_no_prefetch
        );
        assert!(
            h.miss_reduction_vs_gpp > 0.3,
            "miss reduction {}",
            h.miss_reduction_vs_gpp
        );
        assert!(
            h.offchip_reduction > 0.3,
            "off-chip reduction {}",
            h.offchip_reduction
        );
        // The configuration search covers the (NSB, channel-count) plane
        // and the best configuration never loses to the primary row.
        assert_eq!(h.configs.len(), 3);
        let best = h.best_config().expect("configs present");
        assert!(
            best.geomean >= h.speedup_vs_no_prefetch - 1e-9,
            "best {} vs primary {}",
            best.geomean,
            h.speedup_vs_no_prefetch
        );
    }
}
