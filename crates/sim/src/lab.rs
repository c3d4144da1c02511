//! The one cell runner behind every figure and sweep.
//!
//! A figure is data: the [`Cell`]s it needs — a program named by a
//! [`ProgramSpec`], run on one [`SystemSpec`] — and a projection of their
//! outcomes into rows. A [`Lab`] builds each distinct program once and
//! simulates each distinct (program, spec) pair once, keeping both the
//! program and the outcome, so a cell that several figures share (Fig. 5's
//! FP16 panel holds every cell of Figs. 6 and 7) costs one run per lab.
//! An outcome is a pure function of that pair, so a repeat served from the
//! lab is bit for bit the run it replaces, and the worker count never
//! changes a byte. The [`crate::runner`] example runs two cells.

use std::time::{Duration, Instant};

use nvr_llm::{av_program, qkt_program, qkv_program, LlmConfig};
use nvr_mem::MemoryConfig;
use nvr_trace::NpuProgram;
use nvr_workloads::{double_sparsity, minkowski, PointcloudParams, WorkloadId, WorkloadSpec};

use crate::runner::{RunOutcome, SystemKind, SystemSpec};
use crate::sweep::pool;

/// One layer program of the default [`LlmConfig`]'s attention stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlmLayer {
    /// The dense QKV projection ([`qkv_program`]; it takes no seed).
    Qkv,
    /// The sparse QKᵀ gather ([`qkt_program`]).
    Qkt,
    /// The sparse AV gather ([`av_program`]).
    Av,
}

/// How to build one program: the builders the figures read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProgramSpec {
    /// A Table II workload ([`WorkloadId::build`]).
    Workload(WorkloadId, WorkloadSpec),
    /// Double Sparsity keeping 1 in `ratio` (Fig. 1b).
    DsRatio(WorkloadSpec, usize),
    /// An MK-shaped point-cloud scene (Fig. 9's density sweep).
    Pointcloud(WorkloadSpec, PointcloudParams),
    /// One layer at context length `l` and seed (Fig. 8).
    Llm(LlmLayer, usize, u64),
}

impl ProgramSpec {
    /// Builds the program; equal specs build equal programs.
    #[must_use]
    pub fn build(&self) -> NpuProgram {
        match *self {
            ProgramSpec::Workload(id, spec) => id.build(&spec),
            ProgramSpec::DsRatio(spec, ratio) => double_sparsity::build_with_ratio(&spec, ratio),
            ProgramSpec::Pointcloud(spec, params) => minkowski::build_with_params(&spec, &params),
            ProgramSpec::Llm(layer, l, seed) => {
                let cfg = LlmConfig::default();
                match layer {
                    LlmLayer::Qkv => qkv_program(&cfg, l),
                    LlmLayer::Qkt => qkt_program(&cfg, l, seed),
                    LlmLayer::Av => av_program(&cfg, l, seed),
                }
            }
        }
    }
}

/// One cell: a program and the system it runs on.
#[derive(Debug, Clone)]
pub struct Cell {
    /// How to build the program.
    pub program: ProgramSpec,
    /// The label the outcome carries ([`RunOutcome::system`]); the
    /// simulation reads only `spec`.
    pub system: SystemKind,
    /// The simulated system.
    pub spec: SystemSpec,
}

impl Cell {
    /// `program` on `system`'s own spec over `mem`.
    #[must_use]
    pub fn new(program: ProgramSpec, system: SystemKind, mem: &MemoryConfig) -> Cell {
        Cell {
            program,
            system,
            spec: system.spec(mem),
        }
    }

    /// Every workload of `workloads` built from `spec`, under every system
    /// of `systems` over `mem`: workload-major, so a figure reads its
    /// outcomes in chunks of `systems.len()`.
    #[must_use]
    pub fn grid(
        workloads: &[WorkloadId],
        systems: &[SystemKind],
        spec: WorkloadSpec,
        mem: &MemoryConfig,
    ) -> Vec<Cell> {
        let program = |w| ProgramSpec::Workload(w, spec);
        workloads
            .iter()
            .flat_map(|&w| systems.iter().map(move |&s| Cell::new(program(w), s, mem)))
            .collect()
    }

    /// Whether `other` names the same simulation: the label aside.
    fn same(&self, other: &Cell) -> bool {
        self.program == other.program && self.spec == other.spec
    }
}

/// One simulated cell, its outcome and the host time of its simulation.
#[derive(Debug)]
struct Run {
    cell: Cell,
    outcome: RunOutcome,
    wall: Duration,
}

/// Runs batches of cells on a fixed worker pool, building each distinct
/// program once and simulating each distinct (program, spec) pair once,
/// and keeping every program and outcome for the lab's lifetime.
#[derive(Debug)]
pub struct Lab {
    workers: usize,
    programs: Vec<(ProgramSpec, NpuProgram)>,
    runs: Vec<Run>,
}

impl Lab {
    /// An empty lab whose batches run on `workers` threads.
    #[must_use]
    pub fn new(workers: usize) -> Lab {
        Lab {
            workers,
            programs: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// The worker count every batch runs on.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Distinct (program, spec) pairs simulated so far.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.runs.len()
    }

    /// The program `spec` names, as an earlier batch of this lab built it;
    /// panics if none did.
    pub(crate) fn program(&self, spec: &ProgramSpec) -> &NpuProgram {
        let built = self.programs.iter().find(|(p, _)| p == spec);
        &built.expect("an earlier batch built the program").1
    }

    /// Each cell's outcome, in order, labelled with the cell's `system`.
    /// Builds, on the pool, only the programs this lab has not built
    /// before, and simulates only the pairs it has not run before.
    pub fn run(&mut self, cells: &[Cell]) -> Vec<RunOutcome> {
        self.run_timed(cells).into_iter().map(|(o, _)| o).collect()
    }

    /// [`Lab::run`] plus the host time of the simulation behind each
    /// outcome, in whichever batch it ran.
    pub(crate) fn run_timed(&mut self, cells: &[Cell]) -> Vec<(RunOutcome, Duration)> {
        // The batch's new pairs, each once, and the new programs they need.
        let mut fresh: Vec<&Cell> = Vec::new();
        let mut points: Vec<ProgramSpec> = Vec::new();
        for cell in cells {
            if !self.runs.iter().any(|r| r.cell.same(cell)) && !fresh.iter().any(|c| c.same(cell)) {
                fresh.push(cell);
                if !self.programs.iter().any(|(p, _)| *p == cell.program)
                    && !points.contains(&cell.program)
                {
                    points.push(cell.program);
                }
            }
        }
        let builds = points.into_iter().map(|p| move || (p, p.build())).collect();
        self.programs
            .extend(pool::run_ordered(builds, self.workers));
        let tasks: Vec<_> = fresh
            .iter()
            .map(|cell| {
                let program = self.program(&cell.program);
                move || {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "per-cell wall clock lands in SweepCell::wall, excluded from deterministic CSVs"
                    )]
                    let t0 = Instant::now();
                    let outcome = cell.spec.outcome(program, cell.system);
                    (outcome, t0.elapsed())
                }
            })
            .collect();
        let done = pool::run_ordered(tasks, self.workers);
        for (cell, (outcome, wall)) in fresh.into_iter().zip(done) {
            self.runs.push(Run {
                cell: cell.clone(),
                outcome,
                wall,
            });
        }
        cells
            .iter()
            .map(|cell| {
                let run = self.runs.iter().find(|r| r.cell.same(cell));
                let run = run.expect("simulated above");
                let outcome = RunOutcome {
                    system: cell.system,
                    ..run.outcome.clone()
                };
                (outcome, run.wall)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_system;
    use nvr_common::DataWidth;
    use nvr_core::nsb_config;
    use nvr_mem::DramConfig;

    fn ds() -> ProgramSpec {
        ProgramSpec::Workload(WorkloadId::Ds, WorkloadSpec::tiny(DataWidth::Int8, 2))
    }

    #[test]
    fn a_repeated_cell_is_simulated_once() {
        let mem = MemoryConfig::default();
        let nvr = Cell::new(ds(), SystemKind::Nvr, &mem);
        let ino = Cell::new(ds(), SystemKind::InOrder, &mem);
        // The same system over another memory is another cell.
        let two_ch = mem
            .clone()
            .with_dram(DramConfig::default().with_channels(2));
        let ino_2ch = Cell::new(ds(), SystemKind::InOrder, &two_ch);
        let mut lab = Lab::new(2);
        let first = lab.run(&[nvr.clone(), ino.clone(), nvr.clone(), ino_2ch]);
        assert_eq!(lab.simulated(), 3);
        assert_ne!(first[1].result, first[3].result);
        let later = lab.run(&[ino, nvr]);
        assert_eq!(lab.simulated(), 3, "a later batch reuses the earlier runs");
        let dbg = |o: &RunOutcome| format!("{o:?}");
        assert_eq!(dbg(&first[0]), dbg(&first[2]), "a repeat within a batch");
        assert_eq!(dbg(&first[0]), dbg(&later[1]), "a repeat in a later batch");
        assert_eq!(dbg(&first[1]), dbg(&later[0]));
    }

    #[test]
    fn two_batches_that_share_a_program_build_it_once() {
        let mem = MemoryConfig::default();
        let mut lab = Lab::new(2);
        lab.run(&[Cell::new(ds(), SystemKind::InOrder, &mem)]);
        assert_eq!(lab.programs.len(), 1);
        let gcn = ProgramSpec::Workload(WorkloadId::Gcn, WorkloadSpec::tiny(DataWidth::Int8, 2));
        let later = lab.run(&[
            Cell::new(ds(), SystemKind::Nvr, &mem),
            Cell::new(gcn, SystemKind::Nvr, &mem),
        ]);
        assert_eq!(lab.simulated(), 3);
        assert_eq!(lab.programs.len(), 2, "DS is built by the first batch only");
        let want = run_system(&ds().build(), &mem, SystemKind::Nvr);
        assert_eq!(format!("{:?}", later[0]), format!("{want:?}"));
    }

    #[test]
    fn one_spec_under_two_labels_is_one_simulation() {
        let mem = MemoryConfig::default().with_nsb(nsb_config(16));
        let mut lab = Lab::new(1);
        let out = lab.run(&[
            Cell::new(ds(), SystemKind::Nvr, &mem),
            Cell::new(ds(), SystemKind::NvrNsb, &mem),
        ]);
        assert_eq!(lab.simulated(), 1);
        assert_eq!(out[0].system, SystemKind::Nvr);
        assert_eq!(out[1].system, SystemKind::NvrNsb);
        assert_eq!(out[0].result, out[1].result);
        assert_eq!(out[0].timeliness, out[1].timeliness);
    }

    #[test]
    fn a_fresh_lab_matches_run_system() {
        let mem = MemoryConfig::default();
        let program = ds().build();
        for system in SystemKind::ALL {
            let got = Lab::new(1).run(&[Cell::new(ds(), system, &mem)]);
            let want = run_system(&program, &mem, system);
            assert_eq!(format!("{:?}", got[0]), format!("{want:?}"), "{system:?}");
        }
    }
}
