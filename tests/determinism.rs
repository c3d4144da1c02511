//! Bit-level determinism: identical seeds must produce identical programs
//! and identical simulation results — the precondition for comparing
//! prefetchers on the same access stream.
//!
//! Every exact pin lives in `tests/golden/`, one plain-text file per pin
//! set, holding exactly the text its test renders. On a mismatch the test
//! writes the computed file to `target/tmp/golden/` and panics naming the
//! first differing line and the `cp` that re-pins it.

use std::path::Path;

use nvr::prelude::*;
use nvr::sim::figures::fig9;
use nvr::sim::{PrefetcherSpec, SystemSpec};
use nvr::trace::GatherDesc;
use nvr::workloads::spec::{INDEX_BASE, TABLE_BASE};

/// Checks the text a test rendered against its pinned file
/// `tests/golden/<file>`.
macro_rules! assert_golden {
    ($file:literal, $got:expr) => {
        check_golden($file, include_str!(concat!("golden/", $file)), $got)
    };
}

/// Returns if `got` equals `pinned`; otherwise writes `got` to
/// `target/tmp/golden/<file>` and panics with the first differing line and
/// the command that re-pins the file. A match removes a computed file an
/// earlier run left, so the directory holds only files that can be copied.
fn check_golden(file: &str, pinned: &str, got: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let computed = dir.join(file);
    if got == pinned {
        // Usually there is nothing to remove.
        let _ = std::fs::remove_file(&computed);
        return;
    }
    std::fs::create_dir_all(&dir).expect("create the computed golden directory");
    std::fs::write(&computed, got).expect("write the computed golden file");
    let line = pinned
        .lines()
        .zip(got.lines())
        .take_while(|(p, g)| p == g)
        .count();
    let [want, have] = [pinned, got].map(|text| text.lines().nth(line).unwrap_or("<end of file>"));
    panic!(
        "tests/golden/{file} line {}: pinned `{want}`, computed `{have}`.\n\
         If the change means to alter results, re-pin with\n    cp {} tests/golden/{file}",
        line + 1,
        computed.display()
    );
}

#[test]
fn identical_seeds_identical_results() {
    for workload in [WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat] {
        let run = || {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, 777);
            let program = workload.build(&spec);
            let o = run_system(&program, &MemoryConfig::default(), SystemKind::Nvr);
            (
                o.result.total_cycles,
                o.result.gather_element_misses,
                o.result.mem.l2.prefetch_issued.get(),
                o.result.mem.dram.demand_lines.get(),
            )
        };
        assert_eq!(run(), run(), "{} not deterministic", workload.short());
    }
}

#[test]
fn different_seeds_differ() {
    let totals: Vec<u64> = (0..3)
        .map(|seed| {
            let spec = WorkloadSpec::tiny(DataWidth::Fp16, seed);
            let program = WorkloadId::Ds.build(&spec);
            run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
                .result
                .total_cycles
        })
        .collect();
    assert!(
        totals.windows(2).any(|w| w[0] != w[1]),
        "seeds should change the trace: {totals:?}"
    );
}

#[test]
fn width_changes_timing_not_structure() {
    let structure = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        (program.tiles.len(), program.stats().gather_elems)
    };
    // Same tile structure across widths (only row bytes change)...
    assert_eq!(structure(DataWidth::Int8), structure(DataWidth::Int32));
    // ...but wider data takes longer on the same memory system.
    let cycles = |width| {
        let spec = WorkloadSpec::tiny(width, 5);
        let program = WorkloadId::H2o.build(&spec);
        run_system(&program, &MemoryConfig::default(), SystemKind::InOrder)
            .result
            .total_cycles
    };
    assert!(cycles(DataWidth::Int32) > cycles(DataWidth::Int8));
}

#[test]
fn parallel_sweep_matches_serial_bit_for_bit() {
    // The sweep runner must be a pure parallelisation: fanning the grid
    // out over 4 workers may not change a single counter relative to the
    // single-threaded run of the same spec. The spec deliberately covers
    // the NSB-backed system (whose scored retention and VMIG admission
    // threshold are active), every tile order (so the order-permuted GAT
    // builds are part of the contract), and a two-channel DRAM backend,
    // so the demand/prefetch arbitration and channel interleave are part
    // of the bit-equality contract.
    let spec = SweepSpec {
        workloads: vec![WorkloadId::Ds, WorkloadId::Mk, WorkloadId::Gat],
        systems: vec![SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb],
        scales: vec![Scale::Tiny],
        orders: TileOrder::ALL.to_vec(),
        widths: vec![DataWidth::Fp16],
        seeds: vec![777, 778],
        mem_cfg: MemoryConfig {
            dram: DramConfig::default().with_channels(2),
            ..MemoryConfig::default()
        },
    };
    let serial = run_sweep(&spec, 1);
    let parallel = run_sweep(&spec, 4);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.job.key(), b.job.key(), "job order must be stable");
        assert_eq!(
            a.outcome.result.total_cycles,
            b.outcome.result.total_cycles,
            "{}: cycles differ across worker counts",
            a.job.key()
        );
        assert_eq!(
            a.outcome.base_cycles,
            b.outcome.base_cycles,
            "{}: base cycles differ",
            a.job.key()
        );
        assert_eq!(
            (
                a.outcome.result.gather_element_misses,
                a.outcome.result.mem.l2.demand_misses.get(),
                a.outcome.result.mem.l2.prefetch_issued.get(),
                a.outcome.result.mem.dram.demand_lines.get(),
            ),
            (
                b.outcome.result.gather_element_misses,
                b.outcome.result.mem.l2.demand_misses.get(),
                b.outcome.result.mem.l2.prefetch_issued.get(),
                b.outcome.result.mem.dram.demand_lines.get(),
            ),
            "{}: memory counters differ across worker counts",
            a.job.key()
        );
        // The measured timeliness — including the full issue→use slack
        // histogram, bucket by bucket — must be bit-identical too.
        assert_eq!(
            a.outcome.timeliness,
            b.outcome.timeliness,
            "{}: timeliness histogram differs across worker counts",
            a.job.key()
        );
        // Per-channel counters (utilisation inputs, queue-delay
        // histograms) are part of the bit-equality contract too.
        assert_eq!(
            a.outcome.result.mem.dram.channels,
            b.outcome.result.mem.dram.channels,
            "{}: per-channel stats differ across worker counts",
            a.job.key()
        );
        assert_eq!(a.outcome.result.mem.dram.channels.len(), 2);
        if a.job.system == SystemKind::Nvr || a.job.system == SystemKind::NvrNsb {
            let t = a
                .outcome
                .timeliness
                .as_ref()
                .expect("NVR cells carry a timeliness report");
            assert!(
                t.slack.count() > 0,
                "{}: NVR should measure a nonzero slack distribution",
                a.job.key()
            );
            assert!(
                t.queue_delay.count() > 0,
                "{}: issued prefetches record channel queue delay",
                a.job.key()
            );
        }
    }
    // And the canonical CSV renditions are byte-identical.
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

/// Pinned result fingerprints for every system on one graph workload and
/// one attention workload (`tests/golden/hot_paths.txt`).
///
/// The simulator's hot paths are data-layout- and scheduling-optimised
/// (SoA cache metadata, sorted MSHR files, event-driven issue skipping,
/// open-addressed bookkeeping maps); none of that may move a single
/// counter. The pinned rows are the seed behaviour, captured before those
/// rewrites: cycles, hit/miss splits, DRAM traffic, prefetch usefulness
/// and the full timeliness outcome, per system. A mismatch means a
/// "performance" change altered simulation semantics — exactly the
/// regression this suite exists to catch. (`tiny_grid_cycle_total_is_pinned`
/// covers the whole tiny grid's cycle sum; this test pins the per-system,
/// per-counter decomposition.)
#[test]
fn optimised_hot_paths_match_seed_fingerprints() {
    let mut got = String::from(
        "# workload system total_cycles base_cycles l2_demand_misses l2_demand_hits \
         dram_demand_lines l2_prefetch_issued l2_prefetch_useful timely late \
         evicted_unused slack_sum\n",
    );
    for workload in [WorkloadId::Gcn, WorkloadId::H2o] {
        let spec = WorkloadSpec {
            width: DataWidth::Fp16,
            seed: 777,
            scale: Scale::Tiny,
            order: TileOrder::Natural,
        };
        let program = workload.build(&spec);
        for system in SystemKind::ALL {
            let o = run_system(&program, &MemoryConfig::default(), system);
            let m = &o.result.mem;
            let t = o.timeliness.clone().unwrap_or_default();
            let values = [
                o.result.total_cycles,
                o.base_cycles,
                m.l2.demand_misses.get(),
                m.l2.demand_hits.get(),
                m.dram.demand_lines.get(),
                m.l2.prefetch_issued.get(),
                m.l2.prefetch_useful.get(),
                t.timely,
                t.late,
                t.evicted_unused,
                t.slack.sum(),
            ]
            .map(|v| v.to_string());
            got += &format!(
                "{} {} {}\n",
                workload.short(),
                system.label(),
                values.join(" ")
            );
        }
    }
    assert_golden!("hot_paths.txt", &got);
}

/// The tiny grid — every workload under every system, natural order,
/// FP16, seed 2025 — and its summed `total_cycles`
/// (`tests/golden/tiny_grid.txt`). The total is bit-exact on any host, so
/// a change that moves any cell's timing fails here even when it leaves
/// the fingerprinted workloads above untouched.
#[test]
fn tiny_grid_cycle_total_is_pinned() {
    let spec = SweepSpec {
        workloads: WorkloadId::ALL.to_vec(),
        systems: SystemKind::ALL.to_vec(),
        scales: vec![Scale::Tiny],
        orders: vec![TileOrder::Natural],
        widths: vec![DataWidth::Fp16],
        seeds: vec![2025],
        mem_cfg: MemoryConfig::default(),
    };
    let results = run_sweep(&spec, 2);
    let total: u64 = results
        .cells
        .iter()
        .map(|c| c.outcome.result.total_cycles)
        .sum();
    let got = format!("cells {}\ntotal_cycles {total}\n", results.cells.len());
    assert_golden!("tiny_grid.txt", &got);
}

/// NVR's work counters on every tiny FP16 NVR and NVR+NSB cell at seed
/// 2025 (`tests/golden/work_counters.txt`): the advance loop's turns and
/// the VMIG's vectors, lines, filtered and deferred counts. They are exact
/// on any host, so a lost skip path or a new per-cycle pass fails here,
/// where a host timing would drown it in noise.
#[test]
fn nvr_work_counters_are_pinned() {
    let mem = MemoryConfig::default();
    let mut got = String::from("# workload system turns vectors lines filtered deferred\n");
    for workload in WorkloadId::ALL {
        let program = workload.build(&WorkloadSpec::tiny(DataWidth::Fp16, 2025));
        for system in [SystemKind::Nvr, SystemKind::NvrNsb] {
            let spec = system.spec(&mem);
            let PrefetcherSpec::Nvr(cfg) = &spec.prefetcher else {
                panic!("{} runs no NVR", system.label());
            };
            // Our own prefetcher, so its counters can be read after.
            let mut nvr = NvrPrefetcher::new(cfg.clone());
            let _ = spec.run_with(&program, &mut nvr);
            let v = nvr.vmig();
            let counts = [
                nvr.turns(),
                v.vectors_issued(),
                v.lines_issued(),
                v.lines_filtered(),
                v.lines_deferred(),
            ]
            .map(|c| c.to_string());
            got += &format!(
                "{} {} {}\n",
                workload.short(),
                system.label(),
                counts.join(" ")
            );
        }
    }
    assert_golden!("work_counters.txt", &got);
}

/// `SystemSpec::base_cycles` computes the ideal-memory base in closed form
/// (`NpuEngine::base_cycles`); the engine run over `MemorySystem::ideal`
/// is its reference model. They must agree on every workload under both
/// NPU modes, with and without an NSB (whose hit latency is the all-hit
/// latency), over every order and width at tiny scale and at default
/// scale.
#[test]
fn closed_form_base_matches_ideal_memory_engine() {
    let mut specs: Vec<WorkloadSpec> = TileOrder::ALL
        .into_iter()
        .flat_map(|order| {
            DataWidth::ALL
                .into_iter()
                .map(move |width| WorkloadSpec::tiny(width, 2025).with_order(order))
        })
        .collect();
    specs.push(WorkloadSpec::new(DataWidth::Fp16, 2025));
    let mems = [
        MemoryConfig::default(),
        MemoryConfig::default().with_nsb(nsb_config(16)),
    ];
    let mut cells = 0;
    for spec in &specs {
        for workload in WorkloadId::ALL {
            let program = workload.build(spec);
            for npu in [NpuConfig::default(), NpuConfig::out_of_order()] {
                let engine = NpuEngine::new(npu.clone());
                for mem in &mems {
                    let system = SystemSpec {
                        npu: npu.clone(),
                        mem: mem.clone(),
                        prefetcher: PrefetcherSpec::None,
                    };
                    let reference = engine
                        .run(
                            &program,
                            &mut MemorySystem::ideal(mem.clone()),
                            &mut NullPrefetcher::new(),
                        )
                        .total_cycles;
                    assert_eq!(
                        system.base_cycles(&program),
                        reference,
                        "{} {:?} {:?} {:?}, {:?}, NSB {}",
                        workload.short(),
                        spec.scale,
                        spec.order,
                        spec.width,
                        npu.exec,
                        mem.nsb.is_some()
                    );
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 10 * 8 * 2 * 2);
}

/// FNV-1a over 64-bit words: the program fingerprint's digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest of `text`, one word per byte.
    fn of_text(text: &str) -> u64 {
        let mut d = Digest::new();
        for b in text.bytes() {
            d.word(u64::from(b));
        }
        d.0
    }
}

/// Content hash of a built program: its name and width, every tile's
/// fields and index values, and every word of every image segment.
fn program_fingerprint(p: &NpuProgram) -> u64 {
    let mut d = Digest::new();
    for b in p.name.bytes() {
        d.word(u64::from(b));
    }
    d.word(p.width.bytes());
    d.word(p.tiles.len() as u64);
    for t in &p.tiles {
        d.word(t.id as u64);
        d.word(t.index_region.start().raw());
        d.word(t.index_region.bytes());
        match t.gather {
            None => d.word(0),
            Some(GatherDesc { func, batch }) => {
                match func {
                    SparseFunc::Affine { ia_base, row_bytes } => {
                        d.word(1);
                        d.word(ia_base.raw());
                        d.word(row_bytes);
                    }
                    SparseFunc::TableLookup {
                        table_base,
                        ia_base,
                        row_bytes,
                    } => {
                        d.word(2);
                        d.word(table_base.raw());
                        d.word(ia_base.raw());
                        d.word(row_bytes);
                    }
                }
                d.word(batch as u64);
            }
        }
        d.word(t.dma_bytes);
        d.word(t.compute_cycles);
        d.word(t.store_bytes);
        for v in t.index_values(&p.image) {
            d.word(u64::from(v));
        }
    }
    // The builders install segments only at the index and table bases;
    // walking both until the first uncovered word must account for every
    // installed byte.
    let mut covered = 0;
    for base in [INDEX_BASE, TABLE_BASE] {
        d.word(base.raw());
        let mut words = 0u64;
        while let Some(w) = p.image.try_read_u32(base.offset(words * 4)) {
            d.word(u64::from(w));
            words += 1;
        }
        d.word(words);
        covered += words * 4;
    }
    assert_eq!(
        covered,
        p.image.segment_bytes(),
        "{}: image has a segment outside the index and table bases",
        p.name
    );
    d.0
}

/// Pinned content hashes of every workload's program at every scale, in
/// natural and clustered order (FP16, seed 2025;
/// `tests/golden/programs.txt`).
///
/// This is the byte-identity contract of the program builders: a faster
/// generator (R-MAT, voxel probing, top-k sampling) must reproduce every
/// tile, index and table word exactly, because those words are the
/// simulated addresses.
#[test]
fn builders_match_pinned_program_fingerprints() {
    let mut got = String::from("# workload scale order fingerprint\n");
    for workload in WorkloadId::ALL {
        for scale in Scale::ALL {
            for order in [TileOrder::Natural, TileOrder::Clustered] {
                let spec = WorkloadSpec {
                    width: DataWidth::Fp16,
                    seed: 2025,
                    scale,
                    order,
                };
                let fp = program_fingerprint(&workload.build(&spec));
                got += &format!("{} {scale} {order} 0x{fp:016x}\n", workload.short());
            }
        }
    }
    assert_golden!("programs.txt", &got);
}

/// Pinned result digests for the configurations the default grid never
/// reaches (`tests/golden/fallbacks.txt`): a 192 KB L2 (384 sets, so set
/// indexing takes the division path), scored NSBs of 1, 2, 4 and 8 ways in
/// front of a score-evicting L2, 2 and 3 DRAM channels (the masked and the
/// modulo channel maps), and NVR+NSB with admission scoring off. Tiny GCN
/// and H2O, FP16, seed 777. Each digest is FNV-1a over the cell's full
/// `RunOutcome` `Debug` rendering, so every counter, histogram bucket and
/// timeliness field is covered.
#[test]
fn fallback_configurations_match_pinned_digests() {
    use nvr::core::nsb_scored;
    use nvr::mem::RetentionPolicy;

    let base = MemoryConfig::default();
    let mut cases: Vec<(String, SystemKind, SystemSpec)> = Vec::new();
    let l2_192k = base
        .clone()
        .with_l2(CacheConfig::l2_default().with_size(192 * 1024));
    for system in [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb] {
        cases.push(("l2-192k".into(), system, system.spec(&l2_192k)));
    }
    for ways in [1, 2, 4, 8] {
        let mut cfg = base.clone().with_nsb(nsb_scored(16).with_ways(ways));
        cfg.l2.policy = RetentionPolicy::ScoredEvict;
        let system = SystemKind::NvrNsb;
        cases.push((format!("nsb-{ways}way"), system, system.spec(&cfg)));
    }
    for channels in [2, 3] {
        let cfg = base
            .clone()
            .with_dram(DramConfig::default().with_channels(channels));
        for system in [SystemKind::InOrder, SystemKind::Nvr, SystemKind::NvrNsb] {
            cases.push((format!("dram-{channels}ch"), system, system.spec(&cfg)));
        }
    }
    let admit_0 = SystemSpec {
        prefetcher: PrefetcherSpec::Nvr(NvrConfig {
            nsb_admit_min_reuse: 0,
            ..NvrConfig::default()
        }),
        ..SystemKind::NvrNsb.spec(&base)
    };
    cases.push(("admit-0".into(), SystemKind::NvrNsb, admit_0));

    let mut got = String::from("# workload config system digest\n");
    for workload in [WorkloadId::Gcn, WorkloadId::H2o] {
        let program = workload.build(&WorkloadSpec::tiny(DataWidth::Fp16, 777));
        for (label, system, spec) in &cases {
            let outcome = spec.outcome(&program, *system);
            let digest = Digest::of_text(&format!("{outcome:?}"));
            got += &format!(
                "{} {label} {} 0x{digest:016x}\n",
                workload.short(),
                system.label()
            );
        }
    }
    assert_golden!("fallbacks.txt", &got);
}

/// Every figure's tiny-scale, seed-2025 rendition regenerated through one
/// two-worker `Lab`, `first` before the others (which follow in registry
/// order), rendered as `tests/golden/figures.txt`: the FNV-1a digest of
/// each rendition's bytes, of fig9's policy-study CSV, and the lab's count
/// of distinct simulated cells.
fn render_figures(first: &[FigureId]) -> String {
    let mut lab = Lab::new(2);
    let order = first
        .iter()
        .chain(FigureId::ALL.iter().filter(|fig| !first.contains(fig)));
    let mut texts: Vec<(FigureId, String)> = order
        .map(|&fig| (fig, fig.regenerate(&mut lab, Scale::Tiny, 2025)))
        .collect();
    texts.sort_by_key(|(fig, _)| FigureId::ALL.iter().position(|f| f == fig));
    let policy = fig9::policy_csv(&fig9::policy_sweep(&mut lab, Scale::Tiny, 2025));
    let mut got = String::from("# rendition digest\n");
    for (fig, text) in &texts {
        got += &format!("{} 0x{:016x}\n", fig.name(), Digest::of_text(text));
    }
    got += &format!("fig9-policy-csv 0x{:016x}\n", Digest::of_text(&policy));
    got += &format!("distinct-cells {}\n", lab.simulated());
    got
}

/// The figure renditions whose drivers build their own systems — fig6b,
/// fig7, fig9, headline and the ablations — regenerated first through a
/// fresh lab, so fig7 and the headline simulate the cells that fig5 and
/// fig7b run for them in registry order; then every other figure. A
/// driver refactor that moves any printed digit fails here.
#[test]
fn figure_renditions_match_pinned_digests() {
    let got = render_figures(&[
        FigureId::Fig6b,
        FigureId::Fig7,
        FigureId::Fig9,
        FigureId::Headline,
        FigureId::Ablations,
    ]);
    assert_golden!("figures.txt", &got);
}

/// All twelve figures regenerated through one `Lab` in registry order, as
/// `sweep` does: a cell that several figures share is simulated once,
/// under the first figure that needs it, and served to the others. Every
/// rendition keeps the digest it has when fig6b, fig7, fig9, headline and
/// the ablations run first, and the lab's count of distinct simulated
/// cells is pinned, so a driver that stops sharing its cells, or a cell
/// key that merges two different cells, fails here.
#[test]
fn one_lab_regenerates_every_figure_bit_for_bit() {
    assert_golden!("figures.txt", &render_figures(&[]));
}
