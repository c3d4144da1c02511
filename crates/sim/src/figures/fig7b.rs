//! Fig. 7b′ — DRAM channel scaling (companion to Fig. 7).
//!
//! Sweeps the multi-channel DRAM backend over 1/2/4 line-interleaved
//! channels for every workload, comparing InO, NVR and NVR+NSB *on the
//! same memory system* per channel count. The questions it answers:
//!
//! * how much of the residual headline gap is a saturated channel
//!   (GCN runs its single channel near 0.9 utilisation — does a second
//!   channel convert that into speedup?);
//! * whether NVR's speedup *grows* with channel count (prefetching is
//!   bandwidth-hungry: more channels mean more overlap to exploit) or
//!   the workload was latency-bound all along;
//! * what the demand/prefetch arbitration costs speculation per channel
//!   count — the queue-delay percentiles fall as channels are added.

use std::fmt;

use nvr_common::DataWidth;
use nvr_mem::{DramConfig, MemoryConfig};
use nvr_workloads::{Scale, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab};
use crate::metrics::{geometric_mean, speedup};
use crate::report::{fmt3, Table};
use crate::runner::SystemKind;

/// The swept channel counts.
pub const CHANNELS: [usize; 3] = [1, 2, 4];

/// One (channels, workload, system) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelCell {
    /// DRAM channel count of this cell's memory system.
    pub channels: usize,
    /// Workload short name.
    pub workload: &'static str,
    /// System label.
    pub system: &'static str,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Speedup over InO on the *same* channel count.
    pub speedup: f64,
    /// Busiest channel's utilisation.
    pub channel_util_max: f64,
    /// Mean per-channel utilisation.
    pub channel_util_mean: f64,
    /// Median speculative-fill queue delay (cycles), merged channels.
    pub qd_p50: u64,
    /// 95th-percentile speculative-fill queue delay (cycles).
    pub qd_p95: u64,
}

/// The channel-scaling data set.
#[derive(Debug, Clone, Default)]
pub struct Fig7b {
    /// All cells, channels-major then workload then system.
    pub cells: Vec<ChannelCell>,
}

impl Fig7b {
    /// The cell of one (channels, workload, system) coordinate.
    #[must_use]
    pub fn get(&self, channels: usize, workload: &str, system: &str) -> Option<&ChannelCell> {
        self.cells
            .iter()
            .find(|c| c.channels == channels && c.workload == workload && c.system == system)
    }

    /// Geometric-mean speedup of `system` across workloads at one channel
    /// count (0 when absent).
    #[must_use]
    pub fn geomean(&self, channels: usize, system: &str) -> f64 {
        let speedups: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.channels == channels && c.system == system)
            .map(|c| c.speedup)
            .collect();
        geometric_mean(&speedups)
    }
}

/// The compared systems, in bar order (InO, each cell's baseline, first).
const SYSTEMS: [SystemKind; 3] = [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb];

/// Runs the channel-scaling sweep over `workloads` (the figure uses all
/// eight) through `lab`.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64, workloads: &[WorkloadId]) -> Fig7b {
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let mut cells = Vec::new();
    for channels in CHANNELS {
        let mem = MemoryConfig {
            dram: DramConfig::default().with_channels(channels),
            ..MemoryConfig::default()
        };
        let outcomes = lab.run(&Cell::grid(workloads, &SYSTEMS, spec, &mem));
        for (w, runs) in workloads.iter().zip(outcomes.chunks(SYSTEMS.len())) {
            let ino = runs[0].result.total_cycles;
            for o in runs {
                let util = o.channel_utilisation();
                cells.push(ChannelCell {
                    channels,
                    workload: w.short(),
                    system: o.system.label(),
                    cycles: o.result.total_cycles,
                    speedup: speedup(ino, o.result.total_cycles),
                    channel_util_max: o.result.max_channel_utilisation(),
                    channel_util_mean: nvr_common::mean(util),
                    qd_p50: o.queue_delay_percentile(0.5),
                    qd_p95: o.queue_delay_percentile(0.95),
                });
            }
        }
    }
    Fig7b { cells }
}

impl fmt::Display for Fig7b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 7b' — DRAM channel scaling (speedup vs InO at the same \
             channel count; qd = prefetch queue delay)"
        )?;
        let mut t = Table::new(vec![
            "channels".into(),
            "workload".into(),
            "system".into(),
            "cycles".into(),
            "speedup".into(),
            "ch util max".into(),
            "ch util mean".into(),
            "qd p50".into(),
            "qd p95".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.channels.to_string(),
                c.workload.into(),
                c.system.into(),
                c.cycles.to_string(),
                format!("{}x", fmt3(c.speedup)),
                fmt3(c.channel_util_max),
                fmt3(c.channel_util_mean),
                c.qd_p50.to_string(),
                c.qd_p95.to_string(),
            ]);
        }
        writeln!(f, "{t}")?;
        for channels in CHANNELS {
            if self.cells.iter().any(|c| c.channels == channels) {
                writeln!(
                    f,
                    "  {channels}ch geomean: NVR {}x, NVR+NSB {}x",
                    fmt3(self.geomean(channels, "NVR")),
                    fmt3(self.geomean(channels, "NVR+NSB")),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_scaling_shape_holds() {
        let fig = run(&mut Lab::new(2), Scale::Tiny, 7, &[WorkloadId::Gcn]);
        assert_eq!(fig.cells.len(), CHANNELS.len() * SYSTEMS.len());
        for channels in CHANNELS {
            let ino = fig.get(channels, "GCN", "InO").expect("InO cell");
            assert!((ino.speedup - 1.0).abs() < 1e-9, "InO normalises to 1");
            let nvr = fig.get(channels, "GCN", "NVR").expect("NVR cell");
            assert!(
                nvr.speedup >= 1.0,
                "{channels}ch: NVR speedup {}",
                nvr.speedup
            );
            // The utilisation vector matches the configured channel count.
            assert!(nvr.channel_util_max <= 1.0 + 1e-9);
            assert!(nvr.channel_util_mean <= nvr.channel_util_max + 1e-9);
        }
        // More channels never slow the in-order baseline down.
        let one = fig.get(1, "GCN", "InO").expect("cell").cycles;
        let four = fig.get(4, "GCN", "InO").expect("cell").cycles;
        assert!(four <= one, "4ch InO {four} vs 1ch {one}");
        let text = fig.to_string();
        assert!(text.contains("geomean"));
    }
}
