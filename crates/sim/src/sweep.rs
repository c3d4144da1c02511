//! Cartesian sweeps over the evaluation grid.
//!
//! Most figure cells lie on one grid: workloads x systems x scales x
//! orders x widths x seeds over one memory system. This module names that
//! shape ([`SweepSpec`] / [`SweepJob`]), runs it as cells through a
//! [`Lab`] on a fixed std-only thread pool ([`pool`]), and collects the
//! outcomes into a keyed, timed [`SweepResults`] table. Every cell is a
//! pure function of its job, so a sweep at `jobs = N` is bit-identical to
//! `jobs = 1` — the precondition for trusting parallel regeneration.
//!
//! # Examples
//!
//! ```
//! use nvr_sim::sweep::{run_sweep, SweepSpec};
//! use nvr_sim::SystemKind;
//! use nvr_workloads::{Scale, WorkloadId};
//!
//! let spec = SweepSpec {
//!     workloads: vec![WorkloadId::Ds],
//!     systems: vec![SystemKind::InOrder, SystemKind::Nvr],
//!     scales: vec![Scale::Tiny],
//!     ..SweepSpec::default()
//! };
//! let results = run_sweep(&spec, 2);
//! assert_eq!(results.cells.len(), 2);
//! ```

pub mod pool;

use std::fmt;
use std::time::{Duration, Instant};

use nvr_common::DataWidth;
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, TileOrder, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab, ProgramSpec};
use crate::report::{fmt3, Table};
use crate::runner::{RunOutcome, SystemKind};

/// Seed the figure drivers and sweeps default to.
pub const DEFAULT_SEED: u64 = 2025;

/// The cartesian sweep specification: every combination of the five axes
/// becomes one [`SweepJob`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload axis.
    pub workloads: Vec<WorkloadId>,
    /// System axis.
    pub systems: Vec<SystemKind>,
    /// Problem-size axis.
    pub scales: Vec<Scale>,
    /// Tile-order axis: the graph workloads' node-visit schedule
    /// ([`TileOrder`]); non-graph workloads build identically under every
    /// order, so single-order sweeps should stick to the default.
    pub orders: Vec<TileOrder>,
    /// Operand-width axis.
    pub widths: Vec<DataWidth>,
    /// RNG-seed axis (scenario diversity).
    pub seeds: Vec<u64>,
    /// Memory system shared by every cell.
    pub mem_cfg: MemoryConfig,
}

impl Default for SweepSpec {
    /// The full evaluation grid at one width, one seed, default scale.
    fn default() -> Self {
        SweepSpec {
            workloads: WorkloadId::ALL.to_vec(),
            systems: SystemKind::ALL.to_vec(),
            scales: vec![Scale::Default],
            orders: vec![TileOrder::Natural],
            widths: vec![DataWidth::Fp16],
            seeds: vec![DEFAULT_SEED],
            mem_cfg: MemoryConfig::default(),
        }
    }
}

impl SweepSpec {
    /// Builds the cartesian product of the six axes, in deterministic
    /// row-major order (workload outermost, seed innermost).
    #[must_use]
    pub fn jobs(&self) -> Vec<SweepJob> {
        let mut out = Vec::with_capacity(
            self.workloads.len()
                * self.systems.len()
                * self.scales.len()
                * self.orders.len()
                * self.widths.len()
                * self.seeds.len(),
        );
        for &workload in &self.workloads {
            for &system in &self.systems {
                for &scale in &self.scales {
                    for &order in &self.orders {
                        for &width in &self.widths {
                            for &seed in &self.seeds {
                                out.push(SweepJob {
                                    workload,
                                    system,
                                    scale,
                                    order,
                                    width,
                                    seed,
                                    mem_cfg: self.mem_cfg.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One fully-specified cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Workload to build.
    pub workload: WorkloadId,
    /// System to run it under.
    pub system: SystemKind,
    /// Problem size.
    pub scale: Scale,
    /// Graph-workload node-visit order.
    pub order: TileOrder,
    /// Operand width.
    pub width: DataWidth,
    /// Program seed.
    pub seed: u64,
    /// Memory system configuration.
    pub mem_cfg: MemoryConfig,
}

impl SweepJob {
    /// Stable lookup/reporting key, e.g. `DS/NVR/default/natural/FP16/2025`.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.workload.short(),
            self.system.label(),
            self.scale,
            self.order,
            self.width,
            self.seed
        )
    }

    /// The job as a lab cell: its workload build under its system.
    fn cell(&self) -> Cell {
        let spec = WorkloadSpec::new(self.width, self.seed).with_scale(self.scale);
        let program = ProgramSpec::Workload(self.workload, spec.with_order(self.order));
        Cell::new(program, self.system, &self.mem_cfg)
    }
}

/// One finished cell: the job, its outcome, and how long it took on the
/// wall clock (host-dependent; excluded from the deterministic outputs).
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The job that ran.
    pub job: SweepJob,
    /// Its simulation outcome.
    pub outcome: RunOutcome,
    /// Host wall-clock time of the cell.
    pub wall: Duration,
}

/// The keyed result table of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    /// All cells, in the spec's deterministic job order.
    pub cells: Vec<SweepCell>,
    /// Worker count the sweep ran with (context for the timing CSV; never
    /// part of the deterministic outputs).
    pub jobs: usize,
    /// End-to-end wall clock of the whole sweep.
    pub wall: Duration,
}

impl SweepResults {
    /// Looks a cell up by its grid coordinates.
    #[must_use]
    pub fn get(
        &self,
        workload: WorkloadId,
        system: SystemKind,
        scale: Scale,
        order: TileOrder,
        width: DataWidth,
        seed: u64,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.job.workload == workload
                && c.job.system == system
                && c.job.scale == scale
                && c.job.order == order
                && c.job.width == width
                && c.job.seed == seed
        })
    }

    /// Speedup of `system` over the in-order baseline of the same
    /// (workload, scale, order, width, seed) cell, when both are in the
    /// table. The baseline shares the cell's tile order: an order is a
    /// compile-time schedule available to every system, so its intrinsic
    /// locality benefit accrues to the baseline too and the ratio isolates
    /// what the prefetcher adds on top.
    #[must_use]
    pub fn speedup_vs_inorder(&self, cell: &SweepCell) -> Option<f64> {
        let j = &cell.job;
        let base = self.get(
            j.workload,
            SystemKind::InOrder,
            j.scale,
            j.order,
            j.width,
            j.seed,
        )?;
        Some(
            base.outcome.result.total_cycles as f64
                / cell.outcome.result.total_cycles.max(1) as f64,
        )
    }

    /// Mean speedup and 95% CI half-width of `cell`'s seed group — every
    /// cell sharing its (workload, system, scale, order, width) across the
    /// sweep's seed axis. `None` when no cell of the group has an
    /// in-order baseline; the half-width is 0 for a single seed.
    #[must_use]
    pub fn speedup_stats(&self, cell: &SweepCell) -> Option<(f64, f64)> {
        let j = &cell.job;
        let speedups: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| {
                c.job.workload == j.workload
                    && c.job.system == j.system
                    && c.job.scale == j.scale
                    && c.job.order == j.order
                    && c.job.width == j.width
            })
            .filter_map(|c| self.speedup_vs_inorder(c))
            .collect();
        if speedups.is_empty() {
            None
        } else {
            Some(nvr_common::mean_ci95(&speedups))
        }
    }

    /// Deterministic CSV of the numeric results (no wall-clock columns, so
    /// `jobs = 1` and `jobs = N` emit identical bytes). The column groups:
    ///
    /// * `prefetch_issued..prefetch_late` — the L2's counters, which
    ///   record each prefetch's life once: a prefetch first used in the
    ///   NSB counts as useful here too, so NVR's accuracy is
    ///   `prefetch_useful / prefetch_issued`, with or without NSB;
    /// * `pf_timely..pf_qd_p95` — the timeliness report (zero for systems
    ///   that do not report one; for NVR, `pf_timely + pf_late` is
    ///   `prefetch_useful` and `pf_late` is `prefetch_late`) plus the DRAM
    ///   channel queue-delay p50/p95 of all accepted speculative fills;
    /// * `channels,ch_util_mean,ch_util_max` — DRAM channel count and
    ///   per-channel utilisation summary of the timed run;
    /// * `speedup,speedup_mean,speedup_ci95` — speedup vs the in-order
    ///   baseline cell (`-` when the sweep has none) and its mean ± 95%
    ///   CI across the seed axis (the half-width is 0 for one seed).
    #[must_use]
    pub fn to_csv(&self) -> String {
        const COLUMNS: [&str; 26] = [
            "workload",
            "system",
            "scale",
            "order",
            "width",
            "seed",
            "cycles",
            "base_cycles",
            "l2_demand_misses",
            "l2_demand_hits",
            "dram_demand_lines",
            "prefetch_issued",
            "prefetch_useful",
            "prefetch_late",
            "pf_timely",
            "pf_late",
            "pf_evicted_unused",
            "pf_slack_mean",
            "pf_qd_p50",
            "pf_qd_p95",
            "channels",
            "ch_util_mean",
            "ch_util_max",
            "speedup",
            "speedup_mean",
            "speedup_ci95",
        ];
        let mut out = COLUMNS.join(",") + "\n";
        for c in &self.cells {
            let m = &c.outcome.result.mem;
            let t = c.outcome.timeliness.clone().unwrap_or_default();
            let util = c.outcome.channel_utilisation();
            let util_mean = nvr_common::mean(util);
            let util_max = c.outcome.result.max_channel_utilisation();
            let qd = m.dram.queue_delay_merged();
            let speedup = self
                .speedup_vs_inorder(c)
                .map_or_else(|| "-".into(), |s| format!("{s:.3}"));
            let (sp_mean, sp_ci) = self.speedup_stats(c).map_or_else(
                || ("-".into(), "-".into()),
                |(m, ci)| (format!("{m:.3}"), format!("{ci:.3}")),
            );
            let row: [String; COLUMNS.len()] = [
                c.job.workload.short().into(),
                c.job.system.label().into(),
                c.job.scale.to_string(),
                c.job.order.to_string(),
                c.job.width.to_string(),
                c.job.seed.to_string(),
                c.outcome.result.total_cycles.to_string(),
                c.outcome.base_cycles.to_string(),
                m.l2.demand_misses.get().to_string(),
                m.l2.demand_hits.get().to_string(),
                m.dram.demand_lines.get().to_string(),
                m.l2.prefetch_issued.get().to_string(),
                m.l2.prefetch_useful.get().to_string(),
                m.l2.prefetch_late.get().to_string(),
                t.timely.to_string(),
                t.late.to_string(),
                t.evicted_unused.to_string(),
                format!("{:.3}", t.slack.mean()),
                qd.percentile(0.5).to_string(),
                qd.percentile(0.95).to_string(),
                util.len().to_string(),
                format!("{util_mean:.3}"),
                format!("{util_max:.3}"),
                speedup,
                sp_mean,
                sp_ci,
            ];
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Per-cell wall-clock CSV (host-dependent; keep out of diffs). The
    /// leading `#` comment line records the worker count, the scale axis,
    /// and the git revision (`NVR_GIT_REV`, falling back to CI's
    /// `GITHUB_SHA`), so archived timing CSVs from different runs are
    /// comparable.
    #[must_use]
    pub fn timing_csv(&self) -> String {
        let rev = std::env::var("NVR_GIT_REV")
            .or_else(|_| std::env::var("GITHUB_SHA"))
            .unwrap_or_else(|_| "unknown".into());
        let mut scales: Vec<String> = Vec::new();
        for c in &self.cells {
            let s = c.job.scale.to_string();
            if !scales.contains(&s) {
                scales.push(s);
            }
        }
        let mut out = format!(
            "# jobs={} scales={} git_rev={}\n",
            self.jobs,
            if scales.is_empty() {
                "-".into()
            } else {
                scales.join("+")
            },
            rev
        );
        const COLUMNS: [&str; 2] = ["key", "wall_us"];
        out.push_str(&(COLUMNS.join(",") + "\n"));
        for c in &self.cells {
            out.push_str(&format!("{},{}\n", c.job.key(), c.wall.as_micros()));
        }
        out.push_str(&format!("total,{}\n", self.wall.as_micros()));
        out
    }
}

impl fmt::Display for SweepResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Sweep — {} cells", self.cells.len())?;
        let mut t = Table::new(vec![
            "workload".into(),
            "system".into(),
            "scale".into(),
            "order".into(),
            "width".into(),
            "seed".into(),
            "cycles".into(),
            "stall".into(),
            "l2 misses".into(),
            "speedup".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.job.workload.short().into(),
                c.job.system.label().into(),
                c.job.scale.to_string(),
                c.job.order.to_string(),
                c.job.width.to_string(),
                c.job.seed.to_string(),
                c.outcome.result.total_cycles.to_string(),
                c.outcome.stall_cycles().to_string(),
                c.outcome.result.mem.l2.demand_misses.get().to_string(),
                self.speedup_vs_inorder(c)
                    .map_or_else(|| "-".into(), |s| format!("{}x", fmt3(s))),
            ]);
        }
        write!(f, "{t}")?;
        // Multi-seed sweeps get a per-group aggregate: mean ± 95% CI of
        // the speedup across the seed axis.
        let mut seen: Vec<(&SweepCell, usize)> = Vec::new();
        for c in &self.cells {
            let group = |a: &SweepJob, b: &SweepJob| {
                a.workload == b.workload
                    && a.system == b.system
                    && a.scale == b.scale
                    && a.order == b.order
                    && a.width == b.width
            };
            match seen.iter_mut().find(|(rep, _)| group(&rep.job, &c.job)) {
                Some((_, n)) => *n += 1,
                None => seen.push((c, 1)),
            }
        }
        if seen.iter().any(|(_, n)| *n > 1) {
            writeln!(f, "\nSeed aggregate — speedup mean ± 95% CI")?;
            let mut agg = Table::new(vec![
                "workload".into(),
                "system".into(),
                "scale".into(),
                "order".into(),
                "width".into(),
                "seeds".into(),
                "speedup".into(),
            ]);
            for (rep, n) in &seen {
                let cell = self.speedup_stats(rep).map_or_else(
                    || "-".into(),
                    |(m, ci)| format!("{}x ± {}", fmt3(m), fmt3(ci)),
                );
                agg.row(vec![
                    rep.job.workload.short().into(),
                    rep.job.system.label().into(),
                    rep.job.scale.to_string(),
                    rep.job.order.to_string(),
                    rep.job.width.to_string(),
                    n.to_string(),
                    cell,
                ]);
            }
            write!(f, "\n{agg}")?;
        }
        Ok(())
    }
}

/// Runs every cell of `spec` over `jobs` workers, through a fresh [`Lab`]:
/// each distinct program is built once and shared across the system axis.
#[must_use]
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> SweepResults {
    #[expect(
        clippy::disallowed_methods,
        reason = "sweep-level wall clock feeds only timing_csv, never a simulation result"
    )]
    let t0 = Instant::now();
    let grid = spec.jobs();
    let cells: Vec<Cell> = grid.iter().map(SweepJob::cell).collect();
    let cells = (grid.into_iter().zip(Lab::new(jobs).run_timed(&cells)))
        .map(|(job, (outcome, wall))| SweepCell { job, outcome, wall })
        .collect();
    SweepResults {
        cells,
        jobs,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            workloads: vec![WorkloadId::Ds, WorkloadId::St],
            systems: vec![SystemKind::InOrder, SystemKind::Nvr],
            scales: vec![Scale::Tiny],
            widths: vec![DataWidth::Int8],
            seeds: vec![7],
            ..SweepSpec::default()
        }
    }

    #[test]
    fn cartesian_product_order_and_keys() {
        let spec = tiny_spec();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        let keys: Vec<String> = jobs.iter().map(SweepJob::key).collect();
        assert_eq!(
            keys,
            [
                "DS/InO/tiny/natural/INT8/7",
                "DS/NVR/tiny/natural/INT8/7",
                "ST/InO/tiny/natural/INT8/7",
                "ST/NVR/tiny/natural/INT8/7",
            ]
        );
    }

    #[test]
    fn sweep_collects_every_cell_and_speedups() {
        let results = run_sweep(&tiny_spec(), 2);
        assert_eq!(results.cells.len(), 4);
        let nvr = results
            .get(
                WorkloadId::Ds,
                SystemKind::Nvr,
                Scale::Tiny,
                TileOrder::Natural,
                DataWidth::Int8,
                7,
            )
            .expect("cell present");
        let speedup = results.speedup_vs_inorder(nvr).expect("baseline present");
        assert!(speedup >= 1.0, "NVR should not lose to InO ({speedup})");
        // The InO cell's own speedup is exactly 1.
        let ino = results
            .get(
                WorkloadId::Ds,
                SystemKind::InOrder,
                Scale::Tiny,
                TileOrder::Natural,
                DataWidth::Int8,
                7,
            )
            .expect("cell present");
        assert_eq!(results.speedup_vs_inorder(ino), Some(1.0));
    }

    #[test]
    fn csv_is_numeric_only_and_stable() {
        let spec = SweepSpec {
            workloads: vec![WorkloadId::Ds],
            systems: vec![SystemKind::InOrder],
            ..tiny_spec()
        };
        let a = run_sweep(&spec, 1).to_csv();
        let b = run_sweep(&spec, 4).to_csv();
        assert_eq!(a, b, "jobs=1 and jobs=4 CSVs must be identical");
        assert!(a.starts_with("workload,system,scale,order,width,seed,cycles"));
        let header = a.lines().next().expect("header");
        for col in ["ch_util_mean", "pf_qd_p50", "speedup_ci95", "channels"] {
            assert!(header.contains(col), "missing CSV column {col}");
        }
    }

    #[test]
    fn multi_seed_aggregate_reports_mean_and_ci() {
        let spec = SweepSpec {
            workloads: vec![WorkloadId::Ds],
            systems: vec![SystemKind::InOrder, SystemKind::Nvr],
            scales: vec![Scale::Tiny],
            widths: vec![DataWidth::Int8],
            seeds: vec![1, 2, 3],
            ..SweepSpec::default()
        };
        let results = run_sweep(&spec, 2);
        let nvr = results
            .get(
                WorkloadId::Ds,
                SystemKind::Nvr,
                Scale::Tiny,
                TileOrder::Natural,
                DataWidth::Int8,
                2,
            )
            .expect("cell present");
        let (mean, ci) = results.speedup_stats(nvr).expect("stats present");
        assert!(mean > 1.0, "mean speedup {mean}");
        assert!(ci >= 0.0);
        // Every cell of the group reports the same aggregate.
        let other = results
            .get(
                WorkloadId::Ds,
                SystemKind::Nvr,
                Scale::Tiny,
                TileOrder::Natural,
                DataWidth::Int8,
                3,
            )
            .expect("cell present");
        assert_eq!(results.speedup_stats(other), Some((mean, ci)));
        // The rendition carries the aggregate section.
        let text = results.to_string();
        assert!(text.contains("Seed aggregate"), "{text}");
        // And the CSV repeats mean/ci per cell of the group.
        let csv = results.to_csv();
        let line = csv
            .lines()
            .find(|l| l.starts_with("DS,NVR") && l.contains(",2,"))
            .expect("NVR row");
        assert!(line.contains(&format!("{mean:.3}")));
    }
}
