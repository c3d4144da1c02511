//! `nvr_perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gnn_runahead --seed 2025 --seconds 10 --trace 0
//! ```
//!
//! Every run first checks correctness: each cell of the workload's grid
//! runs once through `run_system` and once through the layer-by-layer
//! decomposition in `cell.rs`, which must agree bit for bit, and each
//! outcome must keep its conservation properties. Then, for `--seconds`,
//! it alternates a program build (the set-up sample) with one full
//! workload pass and reports medians. With `--trace 1` the passes
//! alternate between a traced decomposition and the untraced sweep
//! instead, the per-layer metrics are printed, and the spans are written
//! as Chrome trace-event JSON under `perfbench/out/`. Host times are
//! scaled by a calibration kernel timed before every pass (`calib.rs`).
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! README.md in this directory defines every metric.

mod calib;
mod cell;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nvr_sim::{geometric_mean, run_sweep, run_system, RunOutcome, SweepSpec, SystemKind};
use nvr_trace::NpuProgram;

use crate::calib::Calibration;
use crate::cell::{invariant_violation, mismatch, run_decomposed, PrefetchTimes};
use crate::trace::{quote, Span, Trace};
use crate::workload::{Grid, Workload};

const USAGE: &str = "\
nvr_perfbench — the repository benchmark

USAGE:
  nvr_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

OPTIONS:
  --workload NAME  gnn_runahead | gpp_baselines | paper_grid
  --seed N         program generator seed (default 2025)
  --seconds S      measuring time after the correctness check (default 10)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics from a
                   traced run, spans written to perfbench/out/ (default 0)";

/// Fewest measured passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = nvr_sim::sweep::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Median of `samples` (0 when empty).
fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One untraced pass: the sweep a user runs plus its report.
#[derive(Clone, Copy)]
struct SweepPass {
    /// Sweep plus report rendering.
    wall: f64,
    /// The sweep's own wall clock.
    sweep_wall: f64,
    /// Summed per-cell wall clock: timed plus base runs, build excluded.
    sim: f64,
    /// Summed simulated cycles of the timed runs.
    cycles: u64,
}

/// Host time of one traced pass, split by layer.
#[derive(Default)]
struct TracedPass {
    wall: f64,
    build: f64,
    timed_run: f64,
    observe: f64,
    advance: f64,
    finalize: f64,
    base_run: f64,
    /// Summed cell spans (timed run + finalize + base run).
    cells: f64,
}

impl TracedPass {
    /// Time inside the named layers: build, timed run (NPU self time plus
    /// prefetcher calls), finalize and base run.
    fn attributed(&self) -> f64 {
        self.build + self.timed_run + self.finalize + self.base_run
    }

    /// Every time multiplied by `k` (see `calib.rs`).
    fn scaled(self, k: f64) -> TracedPass {
        TracedPass {
            wall: self.wall * k,
            build: self.build * k,
            timed_run: self.timed_run * k,
            observe: self.observe * k,
            advance: self.advance * k,
            finalize: self.finalize * k,
            base_run: self.base_run * k,
            cells: self.cells * k,
        }
    }
}

/// The benchmark state of one run: the workload's grid, the reference
/// outcomes every later pass must reproduce, and the failure tally.
struct Bench {
    spec: SweepSpec,
    jobs: usize,
    grid: Grid,
    /// `run_system`'s outcome per cell; `None` where it panicked.
    reference: Vec<Option<RunOutcome>>,
    /// Prefetcher call counts per cell from the checked decomposition.
    calls: Vec<PrefetchTimes>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64, nproc: usize) -> Bench {
        let spec = workload.spec(seed);
        let grid = Grid::new(&spec);
        Bench {
            jobs: workload.jobs(nproc),
            reference: Vec::new(),
            calls: Vec::new(),
            spec,
            grid,
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, cell: usize, what: &str) {
        self.failed += 1;
        eprintln!("FAIL {}: {what}", self.grid.cells[cell].key());
    }

    /// Checks `got` for cell `cell` against the reference outcome.
    fn check(&mut self, cell: usize, path: &str, got: &RunOutcome) {
        self.attempted += 1;
        let verdict = match &self.reference[cell] {
            None => Some("no reference outcome".to_owned()),
            Some(want) => {
                mismatch(got, want).map(|f| format!("{path} differs from run_system in {f}"))
            }
        };
        if let Some(v) = verdict {
            self.fail(cell, &v);
        }
    }

    /// Runs every cell through `run_system` (the reference) and through
    /// the decomposition, and checks they agree and keep their
    /// invariants, then checks a one-worker sweep against them (measured
    /// passes check the workload's own worker count). Returns the
    /// programs' (tiles, gather elements).
    fn verify(&mut self, programs: &[NpuProgram]) -> (u64, u64) {
        let n = self.grid.cells.len();
        self.reference = Vec::with_capacity(n);
        self.calls = vec![PrefetchTimes::default(); n];
        for i in 0..n {
            let job = &self.grid.cells[i];
            let program = &programs[self.grid.program_of[i]];
            let (mem_cfg, system) = (job.mem_cfg.clone(), job.system);
            self.attempted += 1;
            let reference = catch_unwind(|| run_system(program, &mem_cfg, system)).ok();
            match &reference {
                None => self.fail(i, "run_system panicked"),
                Some(o) => {
                    if let Some(v) = invariant_violation(o) {
                        self.fail(i, &v);
                    }
                }
            }
            self.reference.push(reference);
            match catch_unwind(|| run_decomposed(program, &mem_cfg, system)) {
                Ok(run) => {
                    self.calls[i] = run.prefetch;
                    self.check(i, "decomposition", &run.outcome);
                }
                Err(_) => {
                    self.attempted += 1;
                    self.fail(i, "decomposition panicked");
                }
            }
        }
        let _ = self.sweep_pass(1);
        programs.iter().fold((0, 0), |(t, g), p| {
            let s = p.stats();
            (t + s.tiles as u64, g + s.gather_elems)
        })
    }

    /// One untraced pass at `jobs` workers, checked cell by cell against
    /// the reference after its clock stops.
    fn sweep_pass(&mut self, jobs: usize) -> Option<SweepPass> {
        let t0 = Instant::now();
        let results = catch_unwind(AssertUnwindSafe(|| run_sweep(&self.spec, jobs)));
        let results = match results {
            Ok(r) => {
                std::hint::black_box(r.to_csv());
                r
            }
            Err(_) => {
                for i in 0..self.grid.cells.len() {
                    self.attempted += 1;
                    self.fail(i, "run_sweep panicked");
                }
                return None;
            }
        };
        let wall = secs(t0.elapsed());
        let path = format!("run_sweep(jobs = {jobs})");
        for i in 0..self.grid.cells.len() {
            match results.cells.get(i) {
                Some(c) => self.check(i, &path, &c.outcome),
                None => {
                    self.attempted += 1;
                    self.fail(i, &format!("missing from {path}"));
                }
            }
        }
        Some(SweepPass {
            wall,
            sweep_wall: secs(results.wall),
            sim: results.cells.iter().map(|c| secs(c.wall)).sum(),
            cycles: results
                .cells
                .iter()
                .map(|c| c.outcome.result.total_cycles)
                .sum(),
        })
    }

    /// One traced pass: every program built and every cell decomposed,
    /// sequentially, with a span around each layer call.
    fn traced_pass(&mut self, trace: &mut Trace) -> TracedPass {
        let mut s = TracedPass::default();
        let pass_start = Instant::now();
        let pass = trace.push(Span {
            name: "pass".into(),
            cat: "sim",
            start: pass_start,
            end: pass_start,
            parent: None,
            cell: None,
            args: Vec::new(),
        });
        let mut programs = Vec::with_capacity(self.grid.points.len());
        for p in 0..self.grid.points.len() {
            let start = Instant::now();
            programs.push(self.grid.build(p));
            let end = Instant::now();
            s.build += secs(end - start);
            trace.push(Span {
                name: format!("build {}", self.grid.point_key(p)),
                cat: "workloads",
                start,
                end,
                parent: Some(pass),
                cell: None,
                args: Vec::new(),
            });
        }
        for i in 0..self.grid.cells.len() {
            let job = &self.grid.cells[i];
            let program = &programs[self.grid.program_of[i]];
            let (mem_cfg, system) = (job.mem_cfg.clone(), job.system);
            let run = match catch_unwind(|| run_decomposed(program, &mem_cfg, system)) {
                Ok(run) => run,
                Err(_) => {
                    self.attempted += 1;
                    self.fail(i, "decomposition panicked");
                    continue;
                }
            };
            let pf = run.prefetch;
            let (observe, advance) = (secs(pf.observe), secs(pf.advance));
            let timed = secs(run.timed_end - run.start);
            s.timed_run += timed;
            s.observe += observe;
            s.advance += advance;
            s.finalize += secs(run.finalize_end - run.timed_end);
            s.base_run += secs(run.end - run.finalize_end);
            s.cells += secs(run.end - run.start);
            let cell = trace.push(Span {
                name: format!("cell {}", job.key()),
                cat: "sim",
                start: run.start,
                end: run.end,
                parent: Some(pass),
                cell: Some(i),
                args: vec![("total_cycles", run.outcome.result.total_cycles as f64)],
            });
            let phases = [
                ("timed_run", "npu", run.start, run.timed_end),
                ("finalize", "prefetch", run.timed_end, run.finalize_end),
                ("base_run", "npu", run.finalize_end, run.end),
            ];
            for (name, cat, start, end) in phases {
                let args = if name == "timed_run" {
                    vec![
                        ("npu_self_s", timed - observe - advance),
                        ("observe_s", observe),
                        ("observe_calls", pf.observe_calls as f64),
                        ("advance_s", advance),
                        ("advance_calls", pf.advance_calls as f64),
                    ]
                } else {
                    Vec::new()
                };
                trace.push(Span {
                    name: name.into(),
                    cat,
                    start,
                    end,
                    parent: Some(cell),
                    cell: Some(i),
                    args,
                });
            }
            if (pf.observe_calls, pf.advance_calls)
                != (self.calls[i].observe_calls, self.calls[i].advance_calls)
            {
                self.attempted += 1;
                self.fail(i, "prefetcher call counts changed between runs");
            }
            self.check(i, "traced decomposition", &run.outcome);
        }
        let end = Instant::now();
        trace.close(pass, end);
        s.wall = secs(end - pass_start);
        s
    }

    /// Pairs of (non-InO cell, InO cell of the same program) with both
    /// reference outcomes present.
    fn against_inorder(&self) -> Vec<(&RunOutcome, &RunOutcome)> {
        let cells = &self.grid.cells;
        let mut pairs = Vec::new();
        for (i, job) in cells.iter().enumerate() {
            if job.system == SystemKind::InOrder {
                continue;
            }
            let base = (0..cells.len()).find(|&j| {
                cells[j].system == SystemKind::InOrder
                    && self.grid.program_of[j] == self.grid.program_of[i]
            });
            if let (Some(o), Some(Some(b))) = (&self.reference[i], base.map(|j| &self.reference[j]))
            {
                pairs.push((o, b));
            }
        }
        pairs
    }

    /// Geomean over non-InO cells of InO cycles / cell cycles.
    fn speedup_geomean(&self) -> f64 {
        let speedups: Vec<f64> = self
            .against_inorder()
            .iter()
            .map(|(o, b)| b.result.total_cycles as f64 / o.result.total_cycles.max(1) as f64)
            .collect();
        geometric_mean(&speedups)
    }

    /// 1 − mean over non-InO cells of L2 demand misses / InO's. L2, not
    /// the NPU-visible level: with an NSB in front, the NPU-visible
    /// misses are the 16 KB NSB's, which outnumber InO's L2 misses even
    /// when far fewer lines leave the chip.
    fn miss_reduction(&self) -> f64 {
        let misses = |o: &RunOutcome| o.result.mem.l2.demand_misses.get();
        let ratios: Vec<f64> = self
            .against_inorder()
            .iter()
            .map(|(o, b)| misses(o) as f64 / misses(b).max(1) as f64)
            .collect();
        1.0 - nvr_common::mean(&ratios)
    }

    /// FNV-1a digest of every reference outcome's `Debug` rendering: equal
    /// digests mean bit-identical simulated results.
    fn fingerprint(&self) -> u64 {
        format!("{:?}", self.reference)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    fn outcomes(&self) -> impl Iterator<Item = &RunOutcome> {
        self.reference.iter().flatten()
    }

    /// Sum of `f` over every reference outcome.
    fn sum(&self, f: impl Fn(&RunOutcome) -> u64) -> f64 {
        self.outcomes().map(f).sum::<u64>() as f64
    }
}

/// Peak resident set of this process so far in MiB (`VmHWM`), 0 if
/// unreadable.
fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out revision: `NVR_GIT_REV` / `GITHUB_SHA` when set, else
/// read from the repository's `.git`, else `unknown`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("NVR_GIT_REV").or_else(|_| std::env::var("GITHUB_SHA")) {
        return rev;
    }
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map_or_else(|_| r.to_owned(), |s| s.trim().to_owned()),
        None => head.to_owned(),
    }
}

/// End-to-end metrics: untraced passes, each preceded by one set-up
/// sample and one calibration. `rss_mb` is the peak resident set of the
/// single-threaded correctness check, which holds every program and
/// outcome at once.
fn measure_end_to_end(
    bench: &mut Bench,
    seconds: f64,
    cal: &mut Calibration,
    rss_mb: f64,
) -> Vec<Metric> {
    let (mut setup, mut wall, mut sim, mut rate) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while setup.len() < MIN_PASSES || secs(start.elapsed()) < seconds {
        let k = cal.scale();
        let t = Instant::now();
        let programs = std::hint::black_box(bench.grid.build_all());
        setup.push(secs(t.elapsed()) * k);
        drop(programs);
        if let Some(p) = bench.sweep_pass(bench.jobs) {
            wall.push(p.wall * k);
            sim.push(p.sim * k);
            rate.push(p.cycles as f64 / (p.sim * k));
        }
    }
    eprintln!("{} measured passes", wall.len());
    vec![
        ("wall_s", median(&wall), "s"),
        ("setup_s", median(&setup), "s"),
        ("sim_s", median(&sim), "s"),
        ("sim_cycles_per_s", median(&rate), "cycles/s"),
        ("max_rss_mb", rss_mb, "MiB"),
        ("speedup_geomean", bench.speedup_geomean(), "x"),
        ("miss_reduction", bench.miss_reduction(), "fraction"),
    ]
}

/// Per-layer metrics: traced passes alternating with untraced ones, one
/// calibration per round.
fn measure_layers(
    bench: &mut Bench,
    seconds: f64,
    cal: &mut Calibration,
    trace: &mut Trace,
    (tiles, gathers): (u64, u64),
) -> Vec<Metric> {
    let mut traced: Vec<TracedPass> = Vec::new();
    let (mut run_system_s, mut sweep_wall, mut efficiency, mut overhead) =
        (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while traced.len() < MIN_PASSES || secs(start.elapsed()) < seconds {
        let k = cal.scale();
        let t = bench.traced_pass(trace).scaled(k);
        // The overhead compares like with like: one worker on both sides.
        let serial = bench.sweep_pass(1);
        if let Some(p) = serial {
            run_system_s.push(p.sim * k);
            overhead.push(t.cells / p.sim - 1.0);
        }
        let pooled = if bench.jobs > 1 {
            bench.sweep_pass(bench.jobs)
        } else {
            serial
        };
        if let Some(p) = pooled {
            sweep_wall.push(p.sweep_wall * k);
            efficiency.push(p.sim / (bench.jobs as f64 * p.sweep_wall));
        }
        traced.push(t);
    }
    eprintln!(
        "{} traced passes, {} spans, clock bias {} ns",
        traced.len(),
        trace.len(),
        cell::clock_bias().as_nanos()
    );
    let m = |f: fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let npu_self = m(|t| t.timed_run - t.observe - t.advance);

    let b = &*bench;
    let l2 = |f: fn(&nvr_mem::CacheStats) -> u64| b.sum(|o| f(&o.result.mem.l2));
    let nsb =
        |f: fn(&nvr_mem::CacheStats) -> u64| b.sum(|o| o.result.mem.nsb.as_ref().map_or(0, f));
    let dram = |f: fn(&nvr_mem::DramStats) -> u64| b.sum(|o| f(&o.result.mem.dram));
    let tl = |f: fn(&nvr_prefetch::TimelinessReport) -> u64| {
        b.sum(|o| o.timeliness.as_ref().map_or(0, f))
    };
    let calls = |f: fn(&PrefetchTimes) -> u64| b.calls.iter().map(f).sum::<u64>() as f64;
    let (useful, unused) = b.outcomes().fold((0u64, 0u64), |(u, n), o| {
        let m = &o.result.mem;
        let levels = std::iter::once(&m.l2).chain(m.nsb.as_ref());
        levels.fold((u, n), |(u, n), c| {
            let unused = c.prefetch_evicted_unused.get() + c.prefetch_resident_unused.get();
            (u + c.prefetch_useful.get(), n + unused)
        })
    });
    let mut queue_delay = nvr_common::Histogram::new();
    for o in b.outcomes() {
        queue_delay.merge(&o.result.mem.dram.queue_delay_merged());
    }
    let util_max = b
        .outcomes()
        .map(|o| o.result.max_channel_utilisation())
        .fold(0.0, f64::max);
    let gather_elements = b.sum(|o| o.result.gather_elements);

    #[rustfmt::skip]
    let metrics = vec![
        ("workloads.build_s", m(|t| t.build), "s"),
        ("workloads.tiles", tiles as f64, "count"),
        ("workloads.gather_elems", gathers as f64, "count"),
        ("npu.timed_run_s", m(|t| t.timed_run), "s"),
        ("npu.self_s", npu_self, "s"),
        ("npu.base_run_s", m(|t| t.base_run), "s"),
        ("npu.timed_cycles", b.sum(|o| o.result.total_cycles), "cycles"),
        ("npu.stall_cycles", b.sum(RunOutcome::stall_cycles), "cycles"),
        ("npu.gather_elements", gather_elements, "count"),
        ("npu.gather_element_misses", b.sum(|o| o.result.gather_element_misses), "count"),
        ("npu.index_line_misses", b.sum(|o| o.result.index_line_misses), "count"),
        ("npu.host_ns_per_gather", npu_self * 1e9 / gather_elements.max(1.0), "ns"),
        ("prefetch.observe_s", m(|t| t.observe), "s"),
        ("prefetch.observe_calls", calls(|c| c.observe_calls), "count"),
        ("prefetch.advance_s", m(|t| t.advance), "s"),
        ("prefetch.advance_calls", calls(|c| c.advance_calls), "count"),
        ("prefetch.finalize_s", m(|t| t.finalize), "s"),
        ("prefetch.accuracy", useful as f64 / (useful + unused).max(1) as f64, "fraction"),
        ("prefetch.timely", tl(|t| t.timely), "count"),
        ("prefetch.late", tl(|t| t.late), "count"),
        ("prefetch.evicted_unused", tl(|t| t.evicted_unused), "count"),
        ("prefetch.unresolved", tl(|t| t.unresolved), "count"),
        ("mem.l2.demand_accesses", l2(nvr_mem::CacheStats::demand_accesses), "count"),
        ("mem.l2.demand_misses", l2(|c| c.demand_misses.get()), "count"),
        ("mem.l2.mshr_merges", l2(|c| c.mshr_merges.get()), "count"),
        ("mem.l2.prefetch_issued", l2(|c| c.prefetch_issued.get()), "count"),
        ("mem.l2.prefetch_redundant", l2(|c| c.prefetch_redundant.get()), "count"),
        ("mem.l2.prefetch_dropped", l2(|c| c.prefetch_dropped.get()), "count"),
        ("mem.l2.evictions", l2(|c| c.evictions.get()), "count"),
        ("mem.nsb.demand_misses", nsb(|c| c.demand_misses.get()), "count"),
        ("mem.nsb.prefetch_useful", nsb(|c| c.prefetch_useful.get()), "count"),
        ("mem.nsb.retention_rejected", nsb(|c| c.retention_rejected.get()), "count"),
        ("mem.dram.demand_lines", dram(|d| d.demand_lines.get()), "count"),
        ("mem.dram.prefetch_lines", dram(|d| d.prefetch_lines.get()), "count"),
        ("mem.dram.busy_cycles", dram(|d| d.busy_cycles.get()), "cycles"),
        ("mem.dram.pf_queue_rejected", dram(|d| d.pf_queue_rejected.get()), "count"),
        ("mem.dram.queue_delay_p95", queue_delay.percentile(0.95) as f64, "cycles"),
        ("mem.dram.util_max", util_max, "fraction"),
        ("sim.run_system_s", median(&run_system_s), "s"),
        ("sim.cells", b.grid.cells.len() as f64, "count"),
        ("sim.sweep_wall_s", median(&sweep_wall), "s"),
        ("sim.pool_efficiency", median(&efficiency), "fraction"),
        ("sim.trace_overhead", median(&overhead), "fraction"),
        ("trace.wall_s", m(|t| t.wall), "s"),
        ("trace.coverage", m(|t| t.attributed() / t.wall), "fraction"),
        ("trace.unattributed_s", m(|t| t.wall - t.attributed()), "s"),
    ];
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut bench = Bench::new(args.workload, args.seed, nproc);
    let context: Vec<(&str, String)> = vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        (
            "mode",
            if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            }
            .into(),
        ),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("jobs", bench.jobs.to_string()),
        ("cells", bench.grid.cells.len().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").into()),
        ("git_rev", git_rev()),
    ];
    let line: Vec<String> = context.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# context {}", line.join(" "));
    println!(
        "# model: unvalidated against hardware; modelled caches start empty in every cell; \
         paper reference values (not an error figure): ~4x speedup over InO, ~90% fewer \
         misses than GPP prefetching"
    );

    let programs = bench.grid.build_all();
    let program_stats = bench.verify(&programs);
    drop(programs);
    let rss_mb = max_rss_mb();
    eprintln!(
        "verified {} cells in {:.2} s ({} failed)",
        bench.grid.cells.len(),
        secs(origin.elapsed()),
        bench.failed
    );
    println!("# results fingerprint {:016x}", bench.fingerprint());

    let mut cal = Calibration::new();
    let metrics = if args.trace {
        let mut trace = Trace::new(origin);
        let metrics = measure_layers(
            &mut bench,
            args.seconds,
            &mut cal,
            &mut trace,
            program_stats,
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.to_chrome_json(&context)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
        metrics
    } else {
        measure_end_to_end(&mut bench, args.seconds, &mut cal, rss_mb)
    };
    println!(
        "# host times scaled to a {:.0} ms calibration kernel; it took a median {:.3} ms here",
        calib::NOMINAL_S * 1e3,
        median(&cal.samples) * 1e3
    );

    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    let correct = bench.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        bench.attempted,
        bench.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
