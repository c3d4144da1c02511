//! The benchmark's workloads: which grid of (program, system) cells each
//! one runs, and the programs those cells share.

use nvr_common::DataWidth;
use nvr_sim::{SweepJob, SweepSpec, SystemKind};
use nvr_trace::NpuProgram;
use nvr_workloads::{Scale, TileOrder, WorkloadId, WorkloadSpec};

/// One named benchmark workload. README.md records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GCN and GAT under InO, NVR and NVR+NSB at large scale: the
    /// runahead controller, VMIG and scored-retention hot path.
    GnnRunahead,
    /// The six non-graph workloads under InO and the general-purpose
    /// prefetchers at large scale: engine plus demand/LRU path, no NVR
    /// code and no graph generation.
    GppBaselines,
    /// `SweepSpec::default()` through the sweep pool: what regenerating
    /// Fig. 5 and the headline costs.
    PaperGrid,
}

impl Workload {
    /// Every workload, in the order README.md documents them.
    pub const ALL: [Workload; 3] = [
        Workload::GnnRunahead,
        Workload::GppBaselines,
        Workload::PaperGrid,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GnnRunahead => "gnn_runahead",
            Workload::GppBaselines => "gpp_baselines",
            Workload::PaperGrid => "paper_grid",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's grid; `seed` is every program's generator seed.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let large = |workloads: Vec<WorkloadId>, systems: Vec<SystemKind>| SweepSpec {
            workloads,
            systems,
            scales: vec![Scale::Large],
            orders: vec![TileOrder::Natural],
            widths: vec![DataWidth::Fp16],
            seeds: vec![seed],
            ..SweepSpec::default()
        };
        match self {
            Workload::GnnRunahead => large(
                vec![WorkloadId::Gcn, WorkloadId::Gat],
                vec![SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb],
            ),
            Workload::GppBaselines => large(
                vec![
                    WorkloadId::Ds,
                    WorkloadId::Gsabt,
                    WorkloadId::H2o,
                    WorkloadId::Mk,
                    WorkloadId::Scn,
                    WorkloadId::St,
                ],
                vec![
                    SystemKind::InOrder,
                    SystemKind::OutOfOrder,
                    SystemKind::Stream,
                    SystemKind::Imp,
                    SystemKind::Dvr,
                ],
            ),
            Workload::PaperGrid => SweepSpec {
                seeds: vec![seed],
                ..SweepSpec::default()
            },
        }
    }

    /// Sweep workers. The grid runs through the pool as a user's
    /// regeneration would; the other two run their cells back to back on
    /// one thread so their host times carry no scheduling noise.
    pub fn jobs(self, nproc: usize) -> usize {
        match self {
            Workload::PaperGrid => nproc.clamp(1, 2),
            Workload::GnnRunahead | Workload::GppBaselines => 1,
        }
    }
}

/// A workload's cells plus the distinct programs they run, deduplicated
/// the same way `run_sweep` shares one build across the system axis.
pub struct Grid {
    /// Every cell, in the spec's job order.
    pub cells: Vec<SweepJob>,
    /// `points[program_of[i]]` is the program cell `i` runs.
    pub program_of: Vec<usize>,
    /// The distinct (workload, spec) program points, first-encounter order.
    pub points: Vec<(WorkloadId, WorkloadSpec)>,
}

impl Grid {
    /// Lays out `spec`'s cells and program points.
    pub fn new(spec: &SweepSpec) -> Grid {
        let cells = spec.jobs();
        let mut points: Vec<(WorkloadId, WorkloadSpec)> = Vec::new();
        let program_of = cells
            .iter()
            .map(|job| {
                let point = (
                    job.workload,
                    WorkloadSpec {
                        width: job.width,
                        seed: job.seed,
                        scale: job.scale,
                        order: job.order,
                    },
                );
                points.iter().position(|p| *p == point).unwrap_or_else(|| {
                    points.push(point);
                    points.len() - 1
                })
            })
            .collect();
        Grid {
            cells,
            program_of,
            points,
        }
    }

    /// Builds one program point: the `setup` layer's unit of work.
    pub fn build(&self, point: usize) -> NpuProgram {
        let (workload, spec) = &self.points[point];
        workload.build(spec)
    }

    /// Builds every program point, in order.
    pub fn build_all(&self) -> Vec<NpuProgram> {
        (0..self.points.len()).map(|p| self.build(p)).collect()
    }

    /// Display key of program point `point`, e.g. `GCN/large/natural/FP16/7`.
    pub fn point_key(&self, point: usize) -> String {
        let (workload, spec) = &self.points[point];
        format!(
            "{}/{}/{}/{}/{}",
            workload.short(),
            spec.scale,
            spec.order,
            spec.width,
            spec.seed
        )
    }
}
