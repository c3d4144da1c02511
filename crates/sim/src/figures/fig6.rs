//! Fig. 6 — prefetcher accuracy (a), coverage (b) and data-movement
//! optimisation (c).
//!
//! Accuracy and coverage per workload for the four prefetchers; panel (c)
//! reports off-chip demand traffic during actual load execution for InO,
//! NVR and NVR+NSB (the paper's 30x / further 5x reductions).

use std::fmt;

use nvr_common::DataWidth;
use nvr_workloads::{Scale, TileOrder, WorkloadId};

use crate::metrics::{coverage, pollution};
use crate::report::{fmt3, Table};
use crate::runner::SystemKind;
use crate::sweep::{run_sweep, SweepSpec};

/// Accuracy/coverage of one (workload, prefetcher) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AccCov {
    /// Workload short name.
    pub workload: &'static str,
    /// Prefetcher label.
    pub system: &'static str,
    /// Prefetch accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Miss coverage in `[0, 1]` (clamped — see [`coverage`]).
    pub coverage: f64,
    /// Signed miss delta vs no prefetching: positive means the prefetcher
    /// *added* misses (see [`pollution`]) — the case the clamped coverage
    /// column cannot distinguish from "did nothing".
    pub pollution: f64,
    /// Measured late fraction of used prefetches (issue→use slack ran past
    /// the fill), for systems that track prefetch lifetimes (NVR). The
    /// full slack distribution is the fig. 6b′ driver's subject.
    pub late_fraction: Option<f64>,
    /// Busiest DRAM channel's utilisation of the run — the saturation
    /// signal behind the residual-gap analysis (GCN runs near 0.9).
    pub channel_util: f64,
}

/// Panel (c): data-movement split of one system.
#[derive(Debug, Clone, PartialEq)]
pub struct Movement {
    /// System label ("InO", "NVR", "NVR+NSB").
    pub system: String,
    /// Off-chip demand lines during actual loads.
    pub offchip_lines: u64,
    /// On-chip (cache-hit) demand accesses.
    pub onchip_hits: u64,
}

/// The Fig. 6 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig6 {
    /// Accuracy/coverage cells (a, b).
    pub cells: Vec<AccCov>,
    /// Data movement panel (c).
    pub movement: Vec<Movement>,
}

impl Fig6 {
    /// Average accuracy of one prefetcher across workloads.
    #[must_use]
    pub fn avg_accuracy(&self, system: &str) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.accuracy)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Average coverage of one prefetcher across workloads.
    #[must_use]
    pub fn avg_coverage(&self, system: &str) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.coverage)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Average busiest-channel utilisation of one prefetcher across
    /// workloads.
    #[must_use]
    pub fn avg_channel_util(&self, system: &str) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.channel_util)
            .collect();
        nvr_common::mean(&vals)
    }

    /// Off-chip reduction factor of NVR vs InO (panel c).
    #[must_use]
    pub fn nvr_offchip_reduction(&self) -> f64 {
        let find = |name: &str| {
            self.movement
                .iter()
                .find(|m| m.system == name)
                .map_or(0, |m| m.offchip_lines)
        };
        let ino = find("InO");
        let nvr = find("NVR").max(1);
        ino as f64 / nvr as f64
    }

    /// Additional off-chip reduction of the NSB on top of NVR (panel c).
    #[must_use]
    pub fn nsb_extra_reduction(&self) -> f64 {
        let find = |name: &str| {
            self.movement
                .iter()
                .find(|m| m.system == name)
                .map_or(0, |m| m.offchip_lines)
        };
        let nvr = find("NVR");
        let nsb = find("NVR+NSB").max(1);
        nvr as f64 / nsb as f64
    }
}

/// Runs accuracy/coverage for every workload and prefetcher, plus the
/// movement panel on the DS workload, over `jobs` workers.
#[must_use]
pub fn run_jobs(scale: Scale, seed: u64, jobs: usize) -> Fig6 {
    run_jobs_with_workloads(scale, seed, jobs, &WorkloadId::ALL)
}

/// Runs with a workload subset (tests use fewer) on `jobs` workers.
#[must_use]
pub fn run_jobs_with_workloads(
    scale: Scale,
    seed: u64,
    jobs: usize,
    workloads: &[WorkloadId],
) -> Fig6 {
    let width = DataWidth::Fp16;
    // Panels (a)/(b): the workloads x (InO + prefetchers) grid.
    let grid = run_sweep(
        &SweepSpec {
            workloads: workloads.to_vec(),
            systems: std::iter::once(SystemKind::InOrder)
                .chain(SystemKind::PREFETCHERS)
                .collect(),
            scales: vec![scale],
            widths: vec![width],
            seeds: vec![seed],
            ..SweepSpec::default()
        },
        jobs,
    );
    let mut cells = Vec::new();
    for &w in workloads {
        let base_misses = grid
            .get(
                w,
                SystemKind::InOrder,
                scale,
                TileOrder::Natural,
                width,
                seed,
            )
            .expect("InO baseline in sweep")
            .outcome
            .result
            .mem
            .l2
            .demand_misses
            .get();
        for system in SystemKind::PREFETCHERS {
            let o = &grid
                .get(w, system, scale, TileOrder::Natural, width, seed)
                .expect("sweep covers the full grid")
                .outcome;
            let misses = o.result.mem.l2.demand_misses.get();
            cells.push(AccCov {
                workload: w.short(),
                system: system.label(),
                accuracy: o.result.mem.prefetch_accuracy(),
                coverage: coverage(base_misses, misses),
                pollution: pollution(base_misses, misses),
                late_fraction: o.timeliness.as_ref().map(|t| t.late_fraction()),
                channel_util: o.result.max_channel_utilisation(),
            });
        }
    }

    // Panel (c): DS-class data movement, InO vs NVR vs NVR+NSB. A full
    // run already has every DS cell in `grid` (NVR+NSB is a first-class
    // system); only subset runs (tests) need the mini-sweep.
    let mini;
    let plain = if workloads.contains(&WorkloadId::Ds) {
        &grid
    } else {
        mini = run_sweep(
            &SweepSpec {
                workloads: vec![WorkloadId::Ds],
                systems: vec![SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb],
                scales: vec![scale],
                widths: vec![width],
                seeds: vec![seed],
                ..SweepSpec::default()
            },
            jobs,
        );
        &mini
    };
    let mut movement = Vec::new();
    for system in [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb] {
        let o = &plain
            .get(
                WorkloadId::Ds,
                system,
                scale,
                TileOrder::Natural,
                width,
                seed,
            )
            .expect("cell present")
            .outcome;
        let nsb_hits = o.result.mem.nsb.as_ref().map_or(0, |s| s.demand_hits.get());
        movement.push(Movement {
            system: system.label().into(),
            offchip_lines: o.result.mem.demand_offchip_lines(),
            onchip_hits: o.result.mem.l2.demand_hits.get() + nsb_hits,
        });
    }

    Fig6 { cells, movement }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6a/b — prefetcher accuracy, coverage and signed pollution"
        )?;
        let mut t = Table::new(vec![
            "workload".into(),
            "system".into(),
            "accuracy".into(),
            "coverage".into(),
            "pollution".into(),
            "late frac".into(),
            "ch util".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.workload.into(),
                c.system.into(),
                fmt3(c.accuracy),
                fmt3(c.coverage),
                format!(
                    "{}{}",
                    if c.pollution > 0.0 { "+" } else { "" },
                    fmt3(c.pollution)
                ),
                c.late_fraction.map_or_else(|| "-".into(), fmt3),
                fmt3(c.channel_util),
            ]);
        }
        writeln!(f, "{t}")?;
        for s in ["Stream", "IMP", "DVR", "NVR", "NVR+NSB"] {
            writeln!(
                f,
                "  {s}: avg accuracy {:.2}, avg coverage {:.2}",
                self.avg_accuracy(s),
                self.avg_coverage(s)
            )?;
        }
        writeln!(
            f,
            "channel_util (busiest channel, mean across workloads): {}",
            ["Stream", "IMP", "DVR", "NVR", "NVR+NSB"]
                .map(|s| format!("{s} {:.2}", self.avg_channel_util(s)))
                .join(", ")
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "Fig. 6c — off-chip demand traffic during actual loads (DS)"
        )?;
        let mut t = Table::new(vec![
            "system".into(),
            "off-chip lines".into(),
            "on-chip hits".into(),
        ]);
        for m in &self.movement {
            t.row(vec![
                m.system.clone(),
                m.offchip_lines.to_string(),
                m.onchip_hits.to_string(),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "NVR off-chip reduction vs InO: {:.1}x; NSB further: {:.1}x",
            self.nvr_offchip_reduction(),
            self.nsb_extra_reduction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvr_leads_accuracy_and_coverage() {
        // Two contrasting workloads keep the test fast: affine DS and
        // two-level MK.
        let fig = run_jobs_with_workloads(Scale::Tiny, 5, 1, &[WorkloadId::Ds, WorkloadId::Mk]);
        let nvr_cov = fig.avg_coverage("NVR");
        for s in ["Stream", "IMP", "DVR"] {
            assert!(
                nvr_cov >= fig.avg_coverage(s),
                "NVR coverage {nvr_cov} vs {s} {}",
                fig.avg_coverage(s)
            );
        }
        assert!(nvr_cov > 0.6, "NVR coverage should be high ({nvr_cov})");
        assert!(
            fig.avg_accuracy("NVR") > 0.7,
            "NVR accuracy {}",
            fig.avg_accuracy("NVR")
        );
    }

    #[test]
    fn pollution_is_the_unclamped_coverage() {
        let fig = run_jobs_with_workloads(Scale::Tiny, 5, 1, &[WorkloadId::Ds, WorkloadId::Mk]);
        for c in &fig.cells {
            // coverage == clamp(-pollution, 0, 1) by construction; a
            // positive pollution must coincide with zero coverage.
            assert!(
                (c.coverage - (-c.pollution).clamp(0.0, 1.0)).abs() < 1e-9,
                "{}/{}: coverage {} vs pollution {}",
                c.workload,
                c.system,
                c.coverage,
                c.pollution
            );
            if c.pollution > 0.0 {
                assert_eq!(c.coverage, 0.0);
            }
        }
    }

    #[test]
    fn movement_panel_shows_offchip_collapse() {
        let fig = run_jobs_with_workloads(Scale::Tiny, 6, 1, &[WorkloadId::Ds]);
        assert_eq!(fig.movement.len(), 3);
        assert!(
            fig.nvr_offchip_reduction() > 3.0,
            "NVR should slash demand off-chip traffic ({}x)",
            fig.nvr_offchip_reduction()
        );
        // The NSB's job is NPU-side latency/traffic, not L2 miss count;
        // allow timing noise either way but no large regression.
        assert!(
            fig.nsb_extra_reduction() >= 0.8,
            "NSB should not regress off-chip traffic materially ({}x)",
            fig.nsb_extra_reduction()
        );
    }
}
