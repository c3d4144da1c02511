//! Fig. 1b — motivation: parameter reduction vs actual speedup.
//!
//! Sweeping the Double-Sparsity keep ratio from 1x (dense window) to 16x,
//! the paper observes that a 16x parameter reduction yields only ~5x actual
//! speedup on the in-order NPU: cache misses on the surviving irregular
//! gathers eat the algorithmic gain.

use std::fmt;

use nvr_common::DataWidth;
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, WorkloadSpec};

use crate::lab::{Cell, Lab, ProgramSpec};
use crate::metrics::speedup;
use crate::report::{fmt3, Table};
use crate::runner::SystemKind;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Parameter-reduction factor (keep 1 in `ratio`).
    pub ratio: usize,
    /// Total cycles on the in-order NPU.
    pub cycles: u64,
    /// Speedup relative to the dense (ratio = 1) run.
    pub speedup: f64,
    /// Off-chip demand lines fetched.
    pub offchip_lines: u64,
}

/// The Fig. 1b data set.
#[derive(Debug, Clone)]
pub struct Fig1b {
    /// Sweep points in increasing ratio order.
    pub points: Vec<Point>,
}

impl Fig1b {
    /// The paper's headline observation: speedup at 16x reduction.
    #[must_use]
    pub fn speedup_at_16x(&self) -> f64 {
        self.points
            .iter()
            .find(|p| p.ratio == 16)
            .map_or(0.0, |p| p.speedup)
    }
}

/// Runs the ratio sweep at the given scale and seed through `lab`: one
/// in-order cell per keep ratio.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64) -> Fig1b {
    let ratios = [1usize, 2, 4, 8, 16];
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let mem = MemoryConfig::default();
    let cells = ratios.map(|r| Cell::new(ProgramSpec::DsRatio(spec, r), SystemKind::InOrder, &mem));
    let outcomes = lab.run(&cells);
    let dense = outcomes[0].result.total_cycles;
    let points = ratios
        .iter()
        .zip(&outcomes)
        .map(|(&ratio, o)| {
            let cycles = o.result.total_cycles;
            Point {
                ratio,
                cycles,
                speedup: speedup(dense, cycles),
                offchip_lines: o.result.mem.demand_offchip_lines(),
            }
        })
        .collect();
    Fig1b { points }
}

impl fmt::Display for Fig1b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 1b — sparse KV-cache: parameter reduction vs actual speedup (InO NPU)"
        )?;
        let mut t = Table::new(vec![
            "reduction".into(),
            "cycles".into(),
            "speedup".into(),
            "off-chip lines".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{}x", p.ratio),
                p.cycles.to_string(),
                format!("{}x", fmt3(p.speedup)),
                p.offchip_lines.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_saturates_below_reduction() {
        let data = run(&mut Lab::new(1), Scale::Tiny, 3);
        assert_eq!(data.points.len(), 5);
        let p16 = data.speedup_at_16x();
        assert!(p16 > 1.5, "sparsity should speed things up ({p16})");
        assert!(
            p16 < 12.0,
            "misses should keep speedup well below 16x ({p16})"
        );
        // Beyond the latency-serialisation break-even (2x), rising sparsity
        // must keep paying off. (At 2x, scattered latency-bound gathers can
        // cost as much as the bandwidth-bound dense window — the break-even
        // the paper's Fig. 1b starts from.)
        for w in data.points.windows(2).skip(1) {
            assert!(
                w[1].cycles <= w[0].cycles,
                "{}x -> {}x should not slow down",
                w[0].ratio,
                w[1].ratio
            );
        }
    }
}
