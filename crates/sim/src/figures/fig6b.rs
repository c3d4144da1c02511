//! Fig. 6b′ — prefetch *timeliness* breakdown (companion to Fig. 6).
//!
//! Fig. 6's accuracy/coverage panels say how much of the miss stream NVR
//! covers; this driver says how much of that coverage arrived *on time*.
//! For every workload it runs three NVR variants — a `lookahead_tiles =
//! 1` configuration that degenerates to the old one-window-at-a-time
//! episode loop, the pipelined cross-tile lookahead at the default depth
//! ([`nvr_core::NvrConfig::lookahead_tiles`]), and the NVR+NSB system
//! (the pipelined engine filling the paper's NSB) — and reports the
//! measured per-prefetch outcomes the L2 records once per prefetch life:
//! timely / late / evicted-unused counts, the issue→first-use slack
//! distribution (cycles between a prefetch entering the L2 and its first
//! demand touch at any level), and the mean DRAM-channel queue delay (how
//! much of the lateness is arbitration rather than prediction distance).
//! "Late" prefetches are the paper's residual-stall culprit on
//! GCN/GSA-BT-class workloads: the line was predicted correctly but the
//! demand arrived mid-fill.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::NvrConfig;
use nvr_mem::MemoryConfig;
use nvr_prefetch::TimelinessReport;
use nvr_workloads::{Scale, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab, ProgramSpec};
use crate::metrics::speedup;
use crate::report::{fmt3, Table};
use crate::runner::{PrefetcherSpec, SystemKind, SystemSpec};

/// Timeliness of one (workload, lookahead-variant) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinessCell {
    /// Workload short name.
    pub workload: &'static str,
    /// Variant label ("single-window", "pipelined" or "NVR+NSB").
    pub variant: &'static str,
    /// Lookahead depth the variant ran with.
    pub depth: usize,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Speedup over the no-prefetch in-order baseline.
    pub speedup: f64,
    /// Measured per-prefetch outcomes.
    pub timeliness: TimelinessReport,
}

/// The Fig. 6b′ data set.
#[derive(Debug, Clone, Default)]
pub struct Fig6b {
    /// Three cells (single-window, pipelined, NVR+NSB) per workload.
    pub cells: Vec<TimelinessCell>,
}

impl Fig6b {
    /// The cell of one (workload, variant) pair.
    #[must_use]
    pub fn get(&self, workload: &str, variant: &str) -> Option<&TimelinessCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.variant == variant)
    }
}

/// The compared variants as (label, lookahead depth, system): the
/// pre-pipelining single-window episode loop, the pipelined cross-tile
/// default, and the NVR+NSB system (§IV-G) — its timeliness bar.
fn variants() -> [(&'static str, usize, SystemKind); 3] {
    let depth = NvrConfig::default().lookahead_tiles;
    [
        ("single-window", 1, SystemKind::Nvr),
        ("pipelined", depth, SystemKind::Nvr),
        ("NVR+NSB", depth, SystemKind::NvrNsb),
    ]
}

/// Runs the timeliness comparison over every workload of `workloads` (the
/// figure uses all eight) through `lab`.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64, workloads: &[WorkloadId]) -> Fig6b {
    let mem = MemoryConfig::default();
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let mut cells = Vec::new();
    for &w in workloads {
        let program = ProgramSpec::Workload(w, spec);
        cells.push(Cell::new(program, SystemKind::InOrder, &mem));
        cells.extend(variants().map(|(_, depth, system)| {
            let cfg = NvrConfig {
                lookahead_tiles: depth,
                ..NvrConfig::default()
            };
            let spec = SystemSpec {
                prefetcher: PrefetcherSpec::Nvr(cfg),
                ..system.spec(&mem)
            };
            Cell {
                program,
                system,
                spec,
            }
        }));
    }
    let outcomes = lab.run(&cells);
    let mut cells = Vec::new();
    for (&w, runs) in workloads.iter().zip(outcomes.chunks(1 + variants().len())) {
        let base = runs[0].result.total_cycles;
        for ((variant, depth, _), o) in variants().into_iter().zip(&runs[1..]) {
            let r = &o.result;
            cells.push(TimelinessCell {
                workload: w.short(),
                variant,
                depth,
                cycles: r.total_cycles,
                speedup: speedup(base, r.total_cycles),
                timeliness: o.timeliness.clone().unwrap_or_default(),
            });
        }
    }
    Fig6b { cells }
}

impl fmt::Display for Fig6b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6b' — prefetch timeliness: single-window episode loop vs \
             pipelined cross-tile lookahead"
        )?;
        let mut t = Table::new(vec![
            "workload".into(),
            "variant".into(),
            "depth".into(),
            "speedup".into(),
            "timely".into(),
            "late".into(),
            "evicted".into(),
            "late frac".into(),
            "slack mean".into(),
            "qd mean".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.workload.into(),
                c.variant.into(),
                c.depth.to_string(),
                format!("{}x", fmt3(c.speedup)),
                c.timeliness.timely.to_string(),
                c.timeliness.late.to_string(),
                c.timeliness.evicted_unused.to_string(),
                fmt3(c.timeliness.late_fraction()),
                format!("{:.0}", c.timeliness.slack.mean()),
                format!("{:.0}", c.timeliness.queue_delay.mean()),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "issue→use slack distribution (cycles, pipelined NVR):")?;
        for c in self.cells.iter().filter(|c| c.variant == "pipelined") {
            write!(f, "  {:>6}:", c.workload)?;
            for (lo, hi, n) in c.timeliness.slack.nonzero_buckets() {
                write!(f, " [{lo},{hi}):{n}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeliness_cells_have_measured_outcomes() {
        let fig = run(&mut Lab::new(1), Scale::Tiny, 3, &[WorkloadId::Ds]);
        assert_eq!(fig.cells.len(), 3);
        for c in &fig.cells {
            assert!(
                c.timeliness.used() > 0,
                "{}/{}: no used prefetches measured",
                c.workload,
                c.variant
            );
            assert!(c.timeliness.slack.count() == c.timeliness.used());
        }
    }

    #[test]
    fn rendition_includes_slack_histogram() {
        let fig = run(&mut Lab::new(2), Scale::Tiny, 3, &[WorkloadId::Ds]);
        let text = fig.to_string();
        assert!(text.contains("slack"));
        assert!(text.contains("pipelined"));
    }
}
