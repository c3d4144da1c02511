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
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, TileOrder, WorkloadId};

use crate::metrics::geometric_mean;
use crate::runner::SystemKind;
use crate::sweep::{run_sweep, SweepSpec};

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

/// Recomputes the claims over a workload set, fanning the grids out over
/// `jobs` workers.
#[must_use]
pub fn run_jobs_with_workloads(
    scale: Scale,
    seed: u64,
    jobs: usize,
    workloads: &[WorkloadId],
) -> Headline {
    let spec = SweepSpec {
        workloads: workloads.to_vec(),
        systems: vec![
            SystemKind::InOrder,
            SystemKind::Stream,
            SystemKind::Imp,
            SystemKind::Nvr,
            SystemKind::NvrNsb,
        ],
        scales: vec![scale],
        widths: vec![DataWidth::Fp16],
        seeds: vec![seed],
        ..SweepSpec::default()
    };
    let results = run_sweep(&spec, jobs);
    let cell = |w, s| {
        &results
            .get(w, s, scale, TileOrder::Natural, DataWidth::Fp16, seed)
            .expect("sweep covers the full grid")
            .outcome
    };

    let mut miss_reductions = Vec::new();
    let mut offchip_reductions = Vec::new();
    for &w in workloads {
        let ino = cell(w, SystemKind::InOrder);
        let stream = cell(w, SystemKind::Stream);
        let imp = cell(w, SystemKind::Imp);
        let nvr = cell(w, SystemKind::Nvr);

        let best_gpp = stream
            .result
            .mem
            .l2
            .demand_misses
            .get()
            .min(imp.result.mem.l2.demand_misses.get());
        if best_gpp > 0 {
            miss_reductions
                .push(1.0 - nvr.result.mem.l2.demand_misses.get() as f64 / best_gpp as f64);
        }
        let ino_off = ino.result.mem.demand_offchip_lines();
        if ino_off > 0 {
            offchip_reductions
                .push(1.0 - nvr.result.mem.demand_offchip_lines() as f64 / ino_off as f64);
        }
    }
    // The best-configuration search: NVR and NVR+NSB on one channel come
    // from the primary grid; the two-channel row pairs InO and NVR+NSB on
    // the same two-channel memory system (fair comparison).
    let two_ch = run_sweep(
        &SweepSpec {
            systems: vec![SystemKind::InOrder, SystemKind::NvrNsb],
            mem_cfg: MemoryConfig {
                dram: nvr_mem::DramConfig::default().with_channels(2),
                ..MemoryConfig::default()
            },
            ..spec.clone()
        },
        jobs,
    );
    let mut configs = Vec::new();
    for (label, sweep, system) in [
        ("NVR", &results, SystemKind::Nvr),
        ("NVR+NSB", &results, SystemKind::NvrNsb),
        ("NVR+NSB 2ch", &two_ch, SystemKind::NvrNsb),
    ] {
        let speedups: Vec<(&'static str, f64)> = workloads
            .iter()
            .map(|&w| {
                let cell = sweep
                    .get(w, system, scale, TileOrder::Natural, DataWidth::Fp16, seed)
                    .expect("system cell in sweep");
                let speedup = sweep
                    .speedup_vs_inorder(cell)
                    .expect("InO baseline in sweep");
                (w.short(), speedup)
            })
            .collect();
        configs.push(HeadlineConfig {
            label,
            geomean: geometric_mean(&speedups.iter().map(|(_, s)| *s).collect::<Vec<_>>()),
            speedups,
        });
    }

    let speedups = configs[0].speedups.clone();
    Headline {
        speedup_vs_no_prefetch: configs[0].geomean,
        miss_reduction_vs_gpp: mean(&miss_reductions),
        offchip_reduction: mean(&offchip_reductions),
        speedups,
        configs,
    }
}

/// Recomputes the claims over all eight workloads on `jobs` workers.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Headline {
    run_jobs_with_workloads(scale, seed, jobs, &WorkloadId::ALL)
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
        let h = run_jobs_with_workloads(Scale::Tiny, 9, 1, &[WorkloadId::Ds, WorkloadId::Gcn]);
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
