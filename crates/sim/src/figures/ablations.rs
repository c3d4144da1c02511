//! Ablations of NVR's design choices, each against the in-order
//! no-prefetch baseline: NSB associativity (§IV-G argues for high-way
//! mapping), LBD on/off, trigger policy, VMIG width, fuzzy factor and
//! lookahead budget.

use std::fmt;

use nvr_common::DataWidth;
use nvr_core::{nsb_scored, NvrConfig, NvrPrefetcher, TriggerPolicy};
use nvr_mem::MemoryConfig;
use nvr_workloads::{Scale, WorkloadId, WorkloadSpec};

use crate::lab::{Cell, Lab, ProgramSpec};
use crate::runner::SystemKind;
use crate::sweep::pool;

/// One NSB associativity point: a 16 KB scored NSB under NVR+NSB on H2O.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssocCell {
    /// NSB ways.
    pub ways: u64,
    /// Total cycles of the run.
    pub cycles: u64,
    /// NSB demand hit rate in `[0, 1]`.
    pub nsb_hit_rate: f64,
    /// NSB evictions.
    pub nsb_evictions: u64,
}

/// One NVR configuration variant on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantCell {
    /// Variant label.
    pub label: &'static str,
    /// Workload short name.
    pub workload: &'static str,
    /// Total cycles of the run.
    pub cycles: u64,
    /// Speedup over the no-prefetch in-order baseline.
    pub speedup: f64,
    /// Prefetch accuracy of the run.
    pub accuracy: f64,
    /// Mean lines packed per VMIG vector.
    pub pack: f64,
}

/// The ablation data set.
#[derive(Debug, Clone, Default)]
pub struct Ablations {
    /// The NSB associativity sweep, in [`NSB_WAYS`] order.
    pub assoc: Vec<AssocCell>,
    /// Every variant on every workload of [`WORKLOADS`], workload-major.
    pub variants: Vec<VariantCell>,
}

/// NSB associativity sweep points (same 16 KB capacity).
pub const NSB_WAYS: [u64; 5] = [1, 2, 4, 8, 16];

/// Workloads the configuration variants run on.
pub const WORKLOADS: [WorkloadId; 3] = [WorkloadId::Ds, WorkloadId::Gat, WorkloadId::Mk];

/// The compared NVR configurations, default first.
fn variants() -> [(&'static str, NvrConfig); 9] {
    let default = NvrConfig::default;
    let width = |vector_width| NvrConfig {
        vector_width,
        ..default()
    };
    let lookahead = |lookahead_lines| NvrConfig {
        lookahead_lines,
        ..default()
    };
    [
        ("default", default()),
        (
            "no LBD (fixed windows)",
            NvrConfig {
                use_lbd: false,
                ..default()
            },
        ),
        (
            "stall-triggered (DVR-style)",
            NvrConfig {
                trigger: TriggerPolicy::OnStall,
                ..default()
            },
        ),
        ("VMIG width 4", width(4)),
        ("VMIG width 8", width(8)),
        ("VMIG width 32", width(32)),
        (
            "no fuzzy range (factor 1.0)",
            NvrConfig {
                fuzzy_factor: 1.0,
                ..default()
            },
        ),
        ("shallow lookahead (128 ln)", lookahead(128)),
        ("deep lookahead (2048 ln)", lookahead(2048)),
    ]
}

/// Runs both ablation studies: the NSB associativity cells and each
/// workload's in-order baseline through `lab`, and the NVR variants on
/// the lab's workers, one task per workload, over the programs the lab
/// built for the baselines. A variant reads its own prefetcher's VMIG
/// after the run, so it is not a lab cell.
#[must_use]
pub fn run(lab: &mut Lab, scale: Scale, seed: u64) -> Ablations {
    let spec = WorkloadSpec::new(DataWidth::Fp16, seed).with_scale(scale);
    let h2o = ProgramSpec::Workload(WorkloadId::H2o, spec);
    let assoc_cells = NSB_WAYS.map(|ways| {
        let mem = MemoryConfig::default().with_nsb(nsb_scored(16).with_ways(ways));
        Cell::new(h2o, SystemKind::NvrNsb, &mem)
    });
    let assoc = NSB_WAYS
        .into_iter()
        .zip(lab.run(&assoc_cells))
        .map(|(ways, o)| {
            let nsb_stats = o.result.mem.nsb.as_ref().expect("NSB configured");
            AssocCell {
                ways,
                cycles: o.result.total_cycles,
                nsb_hit_rate: 1.0 - nsb_stats.miss_rate(),
                nsb_evictions: nsb_stats.evictions.get(),
            }
        })
        .collect();
    let mem_cfg = MemoryConfig::default();
    let base_cells = Cell::grid(&WORKLOADS, &[SystemKind::InOrder], spec, &mem_cfg);
    let variant_tasks: Vec<_> = WORKLOADS
        .into_iter()
        .zip(lab.run(&base_cells))
        .map(|(w, base)| {
            let nvr_spec = SystemKind::Nvr.spec(&mem_cfg);
            let program = lab.program(&ProgramSpec::Workload(w, spec));
            move || {
                variants()
                    .into_iter()
                    .map(|(label, cfg)| {
                        // Our own prefetcher, so its VMIG can be read after.
                        let mut nvr = NvrPrefetcher::new(cfg);
                        let r = nvr_spec.run_with(program, &mut nvr);
                        VariantCell {
                            label,
                            workload: w.short(),
                            cycles: r.total_cycles,
                            speedup: base.result.total_cycles as f64 / r.total_cycles as f64,
                            accuracy: r.mem.prefetch_accuracy(),
                            pack: nvr.vmig().mean_pack_width(),
                        }
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    Ablations {
        assoc,
        variants: pool::run_ordered(variant_tasks, lab.workers())
            .into_iter()
            .flatten()
            .collect(),
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NVR design ablations (vs in-order no-prefetch baseline)\n"
        )?;
        writeln!(f, "NSB associativity ablation (16 KB NSB, H2O, NVR+NSB)\n")?;
        for c in &self.assoc {
            writeln!(
                f,
                "  {:>2}-way: {:>9} cycles, NSB hit rate {:>5.1}%, NSB evictions {}",
                c.ways,
                c.cycles,
                100.0 * c.nsb_hit_rate,
                c.nsb_evictions,
            )?;
        }
        let mut previous = None;
        for c in &self.variants {
            if previous != Some(c.workload) {
                writeln!(f)?;
                previous = Some(c.workload);
            }
            writeln!(
                f,
                "{:>28} on {:>5}: {:>10} cycles, speedup {:>5.2}x, accuracy {:.2}, pack {:.1}",
                c.label, c.workload, c.cycles, c.speedup, c.accuracy, c.pack,
            )?;
        }
        Ok(())
    }
}
