//! Fig. 9 — NSB vs L2 sizing sensitivity, plus the NSB retention-policy
//! study.
//!
//! Sweeps NSB capacity {4..32 KB} against L2 capacity {64..1024 KB} under
//! NVR+NSB on the reuse-heavy H2O workload (whose heavy-hitter set is in
//! the NSB's capacity range), reporting a transparent performance metric:
//! the inverse of latency x area, with area the summed SRAM capacity. The
//! paper's own metric definition ("the product of NSB and L2 Cache
//! dimensions") is not numerically recoverable from its garbled Fig. 9
//! cells; EXPERIMENTS.md records the deviation.
//!
//! The retention-policy companion study sweeps the *policy* axis the
//! sizing grid holds fixed: NSB capacity x {pure-LRU, scored fill/shrink}
//! x admission threshold on GCN under the clustered tile order — the
//! workload and schedule whose hub reuse the scored policy exists to
//! capture. Exported as a CSV (`sweep --figure fig9 --csv`) so CI can
//! archive the full surface.

use std::fmt;

use nvr_common::{DataWidth, LINE_BYTES};
use nvr_core::{nsb_config, nsb_scored, NvrConfig};
use nvr_mem::{CacheConfig, MemoryConfig, RetentionPolicy};
use nvr_workloads::minkowski::{PointcloudParams, VoxelOrder};
use nvr_workloads::{Scale, TileOrder, WorkloadId, WorkloadSpec};

use crate::lab::{self, Lab, ProgramSpec};
use crate::report::{fmt3, Table};
use crate::runner::{PrefetcherSpec, RunOutcome, SystemKind, SystemSpec};

/// One cell of the sensitivity grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// NSB capacity in KB.
    pub nsb_kb: u64,
    /// L2 capacity in KB.
    pub l2_kb: u64,
    /// Total cycles of the NVR+NSB run.
    pub cycles: u64,
    /// The paper's metric: `1e9 / (latency x area_kb)`, higher is better.
    pub perf: f64,
}

/// One cell of the point-cloud density/order sensitivity sweep — the
/// workload-side axes [`PointcloudParams`] opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityCell {
    /// Occupied voxels in the scene.
    pub points: usize,
    /// Output-voxel traversal order.
    pub order: VoxelOrder,
    /// NVR total cycles.
    pub nvr_cycles: u64,
    /// NVR speedup over the in-order no-prefetch run of the same scene.
    pub speedup: f64,
}

/// One cell of the NSB retention-policy study: GCN (clustered tile
/// order) under NVR+NSB with one (capacity, policy, admission) point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCell {
    /// NSB capacity in KB.
    pub nsb_kb: u64,
    /// Retention policy label (`lru` or `scored`).
    pub policy: &'static str,
    /// Admission threshold ([`NvrConfig::nsb_admit_min_reuse`]); always 0
    /// for the `lru` rows.
    pub admit: u32,
    /// Total cycles of the NVR+NSB run.
    pub cycles: u64,
    /// Speedup over the in-order no-prefetch run of the same tile order.
    pub speedup: f64,
}

/// The Fig. 9 grid.
#[derive(Debug, Clone, Default)]
pub struct Fig9 {
    /// All grid cells, row-major by NSB size.
    pub cells: Vec<Cell>,
    /// The point-cloud density/order sensitivity companion sweep (empty
    /// for subset runs).
    pub density: Vec<DensityCell>,
    /// The NSB retention-policy study (empty for subset runs).
    pub policy: Vec<PolicyCell>,
}

/// NSB sweep points (KB).
pub const NSB_SIZES: [u64; 4] = [4, 8, 16, 32];
/// L2 sweep points (KB).
pub const L2_SIZES: [u64; 7] = [64, 128, 192, 256, 384, 512, 1024];

impl Fig9 {
    /// The cell at the given sizes.
    #[must_use]
    pub fn cell(&self, nsb_kb: u64, l2_kb: u64) -> Option<&Cell> {
        self.cells
            .iter()
            .find(|c| c.nsb_kb == nsb_kb && c.l2_kb == l2_kb)
    }

    /// The paper's comparison at (256 KB L2, 4 KB NSB): perf deltas from
    /// quadrupling the NSB vs growing the L2 to 1024 KB.
    /// Returns `(nsb_gain, l2_gain)`.
    #[must_use]
    pub fn nsb_vs_l2_benefit(&self) -> Option<(f64, f64)> {
        let base = self.cell(4, 256)?.perf;
        let nsb_up = self.cell(16, 256)?.perf;
        let l2_up = self.cell(4, 1024)?.perf;
        Some((nsb_up - base, l2_up - base))
    }
}

/// Runs the sizing grid (restricted to the given sizes in tests) through
/// `lab`: one H2O cell per (NSB, L2) point.
#[must_use]
pub fn run_subset(
    lab: &mut Lab,
    scale: Scale,
    seed: u64,
    nsb_sizes: &[u64],
    l2_sizes: &[u64],
) -> Fig9 {
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let program = ProgramSpec::Workload(WorkloadId::H2o, spec);
    let mut grid = Vec::with_capacity(nsb_sizes.len() * l2_sizes.len());
    let mut cells = Vec::with_capacity(grid.capacity());
    for &nsb_kb in nsb_sizes {
        for &l2_kb in l2_sizes {
            let mem_cfg = MemoryConfig::default()
                .with_l2(CacheConfig::l2_default().with_size(l2_kb * 1024))
                .with_nsb(nsb_config(nsb_kb));
            // Co-design: the NSB is the speculative buffer, so it bounds
            // how much speculative state NVR may keep in flight (§IV-G) —
            // half its lines, leaving the rest for resident reuse. The
            // grid runs the plain-LRU NSB with admission scoring off.
            let lookahead = ((nsb_kb * 1024 / LINE_BYTES) / 2).max(16) as usize;
            let spec = SystemSpec {
                prefetcher: PrefetcherSpec::Nvr(NvrConfig {
                    lookahead_lines: lookahead,
                    nsb_admit_min_reuse: 0,
                    ..NvrConfig::default()
                }),
                ..SystemKind::NvrNsb.spec(&mem_cfg)
            };
            grid.push((nsb_kb, l2_kb));
            cells.push(lab::Cell {
                program,
                system: SystemKind::NvrNsb,
                spec,
            });
        }
    }
    let cells = grid
        .into_iter()
        .zip(lab.run(&cells))
        .map(|((nsb_kb, l2_kb), o)| {
            let area_kb = (nsb_kb + l2_kb) as f64;
            Cell {
                nsb_kb,
                l2_kb,
                cycles: o.result.total_cycles,
                perf: 1.0e9 / (o.result.total_cycles as f64 * area_kb),
            }
        })
        .collect();
    Fig9 {
        cells,
        density: Vec::new(),
        policy: Vec::new(),
    }
}

/// Speedups of every second outcome over the one before it: the
/// (InO, system) pairs of a batch.
fn pair_speedups(outcomes: &[RunOutcome]) -> impl Iterator<Item = (u64, f64)> + '_ {
    outcomes.chunks(2).map(|pair| {
        let (ino, sys) = (pair[0].result.total_cycles, pair[1].result.total_cycles);
        (sys, ino as f64 / sys.max(1) as f64)
    })
}

/// Density sweep points (occupied voxels of the MK-shaped scene).
pub const DENSITY_POINTS: [usize; 3] = [2048, 8192, 16384];

/// Runs the point-cloud density/order companion sweep through `lab`: the
/// workload-side sensitivity the [`PointcloudParams`] knobs open. Each
/// (density, order) scene runs InO and NVR; the cell reports NVR's
/// speedup.
#[must_use]
pub fn density_sweep(lab: &mut Lab, scale: Scale, seed: u64) -> Vec<DensityCell> {
    let mut axes = Vec::new();
    let mut cells = Vec::new();
    let mem = MemoryConfig::default();
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    for &points in &DENSITY_POINTS {
        for order in [VoxelOrder::Random, VoxelOrder::Sorted] {
            let params = PointcloudParams::mk_default()
                .with_points(points)
                .with_order(order);
            let program = ProgramSpec::Pointcloud(spec, params);
            axes.push((points, order));
            cells.extend(
                [SystemKind::InOrder, SystemKind::Nvr].map(|s| lab::Cell::new(program, s, &mem)),
            );
        }
    }
    axes.into_iter()
        .zip(pair_speedups(&lab.run(&cells)))
        .map(|((points, order), (nvr_cycles, speedup))| DensityCell {
            points,
            order,
            nvr_cycles,
            speedup,
        })
        .collect()
}

/// `program` under NVR+NSB over `mem_cfg` with NSB admission threshold
/// `admit`.
fn admit_cell(program: ProgramSpec, mem_cfg: &MemoryConfig, admit: u32) -> lab::Cell {
    let spec = SystemSpec {
        prefetcher: PrefetcherSpec::Nvr(NvrConfig {
            nsb_admit_min_reuse: admit,
            ..NvrConfig::default()
        }),
        ..SystemKind::NvrNsb.spec(mem_cfg)
    };
    lab::Cell {
        program,
        system: SystemKind::NvrNsb,
        spec,
    }
}

/// NSB capacities of the retention-policy study (KB).
pub const POLICY_NSB_SIZES: [u64; 3] = [8, 16, 32];
/// Admission thresholds swept for the scored rows of the policy study.
pub const POLICY_ADMITS: [u32; 3] = [2, 4, 8];

/// Runs the NSB retention-policy study through `lab`: GCN under the
/// clustered tile order, NVR+NSB, over NSB capacity x {pure-LRU, scored
/// fill/shrink} x admission threshold. The `lru` rows run the plain-LRU
/// buffer exactly as the pre-policy seed did; the `scored` rows run the
/// shipped configuration — scored NSB plus score-weighted-eviction L2
/// ([`RetentionPolicy::ScoredEvict`]) — at each threshold, so the study
/// reads as "what did the policy buy at this capacity, and how sharp is
/// the admission knob".
#[must_use]
pub fn policy_sweep(lab: &mut Lab, scale: Scale, seed: u64) -> Vec<PolicyCell> {
    let program = ProgramSpec::Workload(
        WorkloadId::Gcn,
        WorkloadSpec::new(DataWidth::Fp16, seed)
            .with_scale(scale)
            .with_order(TileOrder::Clustered),
    );
    let mut axes: Vec<(u64, &'static str, u32)> = Vec::new();
    let mut cells = Vec::new();
    for &nsb_kb in &POLICY_NSB_SIZES {
        let lru = MemoryConfig::default().with_nsb(nsb_config(nsb_kb));
        let mut scored = MemoryConfig::default().with_nsb(nsb_scored(nsb_kb));
        scored.l2.policy = RetentionPolicy::ScoredEvict;
        let points = std::iter::once(("lru", 0, &lru)).chain(
            POLICY_ADMITS
                .iter()
                .map(|&admit| ("scored", admit, &scored)),
        );
        for (policy, admit, mem_cfg) in points {
            axes.push((nsb_kb, policy, admit));
            cells.push(lab::Cell::new(program, SystemKind::InOrder, mem_cfg));
            cells.push(admit_cell(program, mem_cfg, admit));
        }
    }
    axes.into_iter()
        .zip(pair_speedups(&lab.run(&cells)))
        .map(|((nsb_kb, policy, admit), (cycles, speedup))| PolicyCell {
            nsb_kb,
            policy,
            admit,
            cycles,
            speedup,
        })
        .collect()
}

/// Renders the policy study as a deterministic CSV (the CI artifact).
#[must_use]
pub fn policy_csv(cells: &[PolicyCell]) -> String {
    const COLUMNS: [&str; 7] = [
        "workload", "order", "nsb_kb", "policy", "admit", "cycles", "speedup",
    ];
    let mut out = COLUMNS.join(",") + "\n";
    for c in cells {
        let row: [String; COLUMNS.len()] = [
            "GCN".into(),
            "clustered".into(),
            c.nsb_kb.to_string(),
            c.policy.into(),
            c.admit.to_string(),
            c.cycles.to_string(),
            fmt3(c.speedup),
        ];
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Runs the full paper grid plus the density/order and retention-policy
/// companion sweeps through `lab`.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64) -> Fig9 {
    let mut fig = run_subset(lab, scale, seed, &NSB_SIZES, &L2_SIZES);
    fig.density = density_sweep(lab, scale, seed);
    fig.policy = policy_sweep(lab, scale, seed);
    fig
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 9 — perf = 1e9 / (latency x area); higher is better"
        )?;
        let l2s: Vec<u64> = {
            let mut v: Vec<u64> = self.cells.iter().map(|c| c.l2_kb).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let nsbs: Vec<u64> = {
            let mut v: Vec<u64> = self.cells.iter().map(|c| c.nsb_kb).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut headers = vec!["NSB\\L2 (KB)".to_owned()];
        headers.extend(l2s.iter().map(u64::to_string));
        let mut t = Table::new(headers);
        for &n in &nsbs {
            let mut row = vec![n.to_string()];
            for &l in &l2s {
                row.push(self.cell(n, l).map_or("-".into(), |c| fmt3(c.perf)));
            }
            t.row(row);
        }
        writeln!(f, "{t}")?;
        if let Some((nsb_gain, l2_gain)) = self.nsb_vs_l2_benefit() {
            writeln!(
                f,
                "4x NSB (4->16 KB @ 256 KB L2): perf {}{}; 4x L2 (256->1024 KB @ 4 KB NSB): perf {}{}",
                if nsb_gain >= 0.0 { "+" } else { "" },
                fmt3(nsb_gain),
                if l2_gain >= 0.0 { "+" } else { "" },
                fmt3(l2_gain),
            )?;
            if l2_gain > 0.0 {
                writeln!(
                    f,
                    "NSB scaling delivers {}x the benefit",
                    fmt3(nsb_gain / l2_gain)
                )?;
            } else {
                writeln!(
                    f,
                    "NSB scaling wins outright: the same silicon spent on L2 loses perf/area"
                )?;
            }
        }
        if !self.density.is_empty() {
            writeln!(f)?;
            writeln!(
                f,
                "Fig. 9 companion — point-cloud density/order sensitivity (MK-shaped scene)"
            )?;
            let mut t = Table::new(vec![
                "points".into(),
                "order".into(),
                "NVR cycles".into(),
                "speedup vs InO".into(),
            ]);
            for c in &self.density {
                t.row(vec![
                    c.points.to_string(),
                    format!("{:?}", c.order),
                    c.nvr_cycles.to_string(),
                    format!("{}x", fmt3(c.speedup)),
                ]);
            }
            writeln!(f, "{t}")?;
        }
        if !self.policy.is_empty() {
            writeln!(f)?;
            writeln!(
                f,
                "Fig. 9 companion — NSB retention-policy study (GCN, clustered order, NVR+NSB)"
            )?;
            let mut t = Table::new(vec![
                "NSB KB".into(),
                "policy".into(),
                "admit".into(),
                "cycles".into(),
                "speedup vs InO".into(),
            ]);
            for c in &self.policy {
                t.row(vec![
                    c.nsb_kb.to_string(),
                    c.policy.to_owned(),
                    c.admit.to_string(),
                    c.cycles.to_string(),
                    format!("{}x", fmt3(c.speedup)),
                ]);
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_caches_do_not_hurt_latency() {
        let fig = run_subset(&mut Lab::new(1), Scale::Tiny, 4, &[4, 16], &[64, 256]);
        assert_eq!(fig.cells.len(), 4);
        let small = fig.cell(4, 64).expect("cell").cycles;
        let big = fig.cell(16, 256).expect("cell").cycles;
        assert!(big <= small, "bigger caches {big} vs {small}");
    }

    #[test]
    fn nsb_growth_beats_area_penalty_at_large_l2() {
        // The paper's Fig. 9 claim in shape: at a 256 KB L2, quadrupling
        // the (tiny) NSB raises perf/area.
        let fig = run_subset(&mut Lab::new(1), Scale::Tiny, 4, &[4, 16], &[256]);
        let small = fig.cell(4, 256).expect("cell").perf;
        let big = fig.cell(16, 256).expect("cell").perf;
        assert!(big > small, "NSB 16 KB {big} should beat 4 KB {small}");
    }

    #[test]
    fn density_sweep_speedups_positive() {
        let cells = density_sweep(&mut Lab::new(2), Scale::Tiny, 4);
        assert_eq!(cells.len(), DENSITY_POINTS.len() * 2);
        for c in &cells {
            assert!(
                c.speedup >= 1.0,
                "{} pts {:?}: NVR should not lose ({}x)",
                c.points,
                c.order,
                c.speedup
            );
        }
    }

    #[test]
    fn policy_study_covers_axes_and_exports_csv() {
        let cells = policy_sweep(&mut Lab::new(2), Scale::Tiny, 4);
        assert_eq!(
            cells.len(),
            POLICY_NSB_SIZES.len() * (1 + POLICY_ADMITS.len())
        );
        for c in &cells {
            assert!(c.speedup > 1.0, "{c:?}: NVR+NSB should beat InO");
            assert_eq!(c.policy == "lru", c.admit == 0);
        }
        let csv = policy_csv(&cells);
        assert!(csv.starts_with("workload,order,nsb_kb,policy,admit,cycles,speedup\n"));
        assert_eq!(csv.lines().count(), cells.len() + 1);
    }

    #[test]
    fn scored_nsb_at_admit_zero_degenerates_to_lru() {
        // System-level LRU-equivalence invariant: a scored NSB with the
        // admission knob at 0 must reproduce the plain-LRU buffer's run
        // end to end, every counter included, on every workload (the
        // policy only diverges once scores flow).
        let spec = WorkloadSpec::tiny(DataWidth::Fp16, 4);
        let lru_cfg = MemoryConfig::default().with_nsb(nsb_config(16));
        let scored_cfg = MemoryConfig::default().with_nsb(nsb_scored(16));
        let mut lab = Lab::new(2);
        for w in WorkloadId::ALL {
            let program = ProgramSpec::Workload(w, spec);
            let cells = [&lru_cfg, &scored_cfg].map(|cfg| admit_cell(program, cfg, 0));
            let out = lab.run(&cells);
            assert_eq!(out[0].result, out[1].result, "{}", w.short());
        }
    }

    #[test]
    fn perf_metric_penalises_area() {
        let fig = run_subset(&mut Lab::new(1), Scale::Tiny, 4, &[4], &[64, 1024]);
        let small = fig.cell(4, 64).expect("cell");
        let big = fig.cell(4, 1024).expect("cell");
        // Unless the big L2 is dramatically faster, its perf/area is lower.
        if big.cycles * 4 > small.cycles {
            assert!(small.perf > big.perf);
        }
    }
}
