//! Fig. 5 — normalised wall-clock latency per workload and system.
//!
//! Four panels: INT8, FP16, INT32, and INT32 with the NSB enabled. NVR
//! fills that NSB, so over it NVR+NSB would repeat the NVR run and the
//! panel has no NVR+NSB row. Within a workload every bar is normalised to
//! the in-order no-prefetch (InO) run of the same width without NSB; each
//! bar splits into base execution time and cache-miss stall.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::nsb_config;
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab};
use crate::report::{fmt3, Table};
use crate::runner::SystemKind;

/// One bar of one panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Workload short name.
    pub workload: &'static str,
    /// System label.
    pub system: &'static str,
    /// Operand width.
    pub width: DataWidth,
    /// Whether the NSB panel produced this bar.
    pub nsb: bool,
    /// Normalised total latency (InO same width, no NSB = 1.0).
    pub norm_total: f64,
    /// Normalised base-execution segment.
    pub norm_base: f64,
    /// Normalised miss-stall segment.
    pub norm_stall: f64,
}

/// The full Fig. 5 data set.
#[derive(Debug, Clone, Default)]
pub struct Fig5 {
    /// All bars across panels.
    pub bars: Vec<Bar>,
}

impl Fig5 {
    /// Bars of one panel.
    #[must_use]
    pub fn panel(&self, width: DataWidth, nsb: bool) -> Vec<&Bar> {
        self.bars
            .iter()
            .filter(|b| b.width == width && b.nsb == nsb)
            .collect()
    }

    /// Average stall reduction of NVR relative to InO within a panel
    /// (the paper reports 98.3% / 99.2% / 97.3% for INT8/FP16/INT32).
    #[must_use]
    pub fn nvr_stall_reduction(&self, width: DataWidth, nsb: bool) -> f64 {
        let panel = self.panel(width, nsb);
        let mut reductions = Vec::new();
        for w in WorkloadId::ALL {
            let ino = panel
                .iter()
                .find(|b| b.workload == w.short() && b.system == "InO");
            let nvr = panel
                .iter()
                .find(|b| b.workload == w.short() && b.system == "NVR");
            if let (Some(i), Some(n)) = (ino, nvr) {
                if i.norm_stall > 0.0 {
                    reductions.push(1.0 - n.norm_stall / i.norm_stall);
                }
            }
        }
        if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        }
    }
}

/// One panel's bars through `lab`: every system at one width, or, over
/// the paper's 16 KB NSB when `nsb` is set, every system but NVR+NSB —
/// over an NSB-bearing memory it is the same system as NVR. Each bar is
/// normalised to its workload's InO cell at this width without NSB.
fn run_panel(lab: &mut Lab, scale: Scale, seed: u64, width: DataWidth, nsb: bool) -> Vec<Bar> {
    let mut systems = SystemKind::ALL.to_vec();
    let mut mem = MemoryConfig::default();
    if nsb {
        systems.retain(|&s| s != SystemKind::NvrNsb);
        mem = mem.with_nsb(nsb_config(16));
    }
    let spec = WorkloadSpec::new(width, seed).with_scale(scale);
    let outcomes = lab.run(&Cell::grid(&WorkloadId::ALL, &systems, spec, &mem));
    let plain = MemoryConfig::default();
    let ino = Cell::grid(&WorkloadId::ALL, &[SystemKind::InOrder], spec, &plain);
    let panels = outcomes.chunks(systems.len()).zip(lab.run(&ino));
    let mut bars = Vec::new();
    for (w, (runs, denom)) in WorkloadId::ALL.iter().zip(panels) {
        let denom = denom.result.total_cycles;
        for o in runs {
            bars.push(Bar {
                workload: w.short(),
                system: o.system.label(),
                width,
                nsb,
                norm_total: o.normalised_total(denom),
                norm_base: o.base_cycles as f64 / denom.max(1) as f64,
                norm_stall: o.normalised_stall(denom),
            });
        }
    }
    bars
}

/// Runs all four panels through `lab`.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64) -> Fig5 {
    let mut bars = Vec::new();
    for width in DataWidth::ALL {
        bars.extend(run_panel(lab, scale, seed, width, false));
        if width == DataWidth::Int32 {
            bars.extend(run_panel(lab, scale, seed, width, true));
        }
    }
    Fig5 { bars }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (width, nsb) in [
            (DataWidth::Int8, false),
            (DataWidth::Fp16, false),
            (DataWidth::Int32, false),
            (DataWidth::Int32, true),
        ] {
            let suffix = if nsb { "+NSB" } else { "" };
            writeln!(
                f,
                "Fig. 5 panel — {width}{suffix} (normalised to InO, lower is better)"
            )?;
            let mut t = Table::new(vec![
                "workload".into(),
                "system".into(),
                "total".into(),
                "base".into(),
                "stall".into(),
            ]);
            for b in self.panel(width, nsb) {
                t.row(vec![
                    b.workload.into(),
                    b.system.into(),
                    fmt3(b.norm_total),
                    fmt3(b.norm_base),
                    fmt3(b.norm_stall),
                ]);
            }
            writeln!(f, "{t}")?;
            writeln!(
                f,
                "NVR average stall reduction vs InO: {:.1}%",
                100.0 * self.nvr_stall_reduction(width, nsb)
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panel smoke test at tiny scale (the full figure is exercised by
    /// `sweep --figure fig5`).
    #[test]
    fn int8_panel_shape_holds() {
        let mut lab = Lab::new(2);
        let bars = run_panel(&mut lab, Scale::Tiny, 11, DataWidth::Int8, false);
        let fig = Fig5 { bars };
        let panel = fig.panel(DataWidth::Int8, false);
        assert_eq!(panel.len(), 8 * 7);
        for w in WorkloadId::ALL {
            let get = |sys: &str| {
                panel
                    .iter()
                    .find(|b| b.workload == w.short() && b.system == sys)
                    .copied()
                    .expect("bar present")
            };
            let ino = get("InO");
            let nvr = get("NVR");
            assert!((ino.norm_total - 1.0).abs() < 1e-9, "InO normalises to 1");
            assert!(
                nvr.norm_total <= ino.norm_total + 1e-9,
                "{}: NVR {} vs InO {}",
                w.short(),
                nvr.norm_total,
                ino.norm_total
            );
        }
        let red = fig.nvr_stall_reduction(DataWidth::Int8, false);
        assert!(red > 0.5, "NVR should remove most stall ({red})");
        // The NSB panel shows each distinct system once: NVR+NSB over an
        // NSB-bearing memory is the NVR row.
        let bars = run_panel(&mut lab, Scale::Tiny, 11, DataWidth::Int8, true);
        assert_eq!(bars.len(), 8 * 6);
        assert!(bars.iter().all(|b| b.system != "NVR+NSB"));
    }
}
