//! Every config knob steers the model: changing any public field of
//! `NvrConfig`, `CacheConfig`, `DramConfig`, `MemoryConfig` or `NpuConfig`
//! from its value on a named witness cell must change that cell's
//! `RunOutcome`. These fields are every value a `SystemSpec` holds (the
//! stream, IMP and DVR specs carry none), so every one is witnessed. A
//! knob that moves no cell is dead and should be deleted, not listed. The
//! test asserts a difference, never a value, so a change that means to
//! move results needs no re-pinning here.

use nvr::core::{nsb_config, TriggerPolicy};
use nvr::mem::RetentionPolicy;
use nvr::prelude::*;
use nvr::sim::{PrefetcherSpec, SystemSpec};

/// One knob: the field it names, the system of the cell that witnesses
/// it, and the change away from the cell's value. Every witness cell runs
/// GCN at tiny scale, which is enough to move every knob.
struct Knob {
    field: &'static str,
    system: SystemKind,
    change: fn(&mut SystemSpec),
}

/// The NVR configuration of a witness cell's prefetcher.
fn nvr(spec: &mut SystemSpec) -> &mut NvrConfig {
    match &mut spec.prefetcher {
        PrefetcherSpec::Nvr(cfg) => cfg,
        other => panic!("witness cell runs {other:?}, not NVR"),
    }
}

const KNOBS: &[Knob] = &[
    Knob {
        field: "NvrConfig::vector_width",
        system: SystemKind::Nvr,
        change: |s| nvr(s).vector_width = 4,
    },
    Knob {
        field: "NvrConfig::lookahead_lines",
        system: SystemKind::Nvr,
        change: |s| nvr(s).lookahead_lines = 32,
    },
    Knob {
        field: "NvrConfig::lookahead_tiles",
        system: SystemKind::Nvr,
        change: |s| nvr(s).lookahead_tiles = 1,
    },
    Knob {
        field: "NvrConfig::fuzzy_factor",
        system: SystemKind::Nvr,
        change: |s| nvr(s).fuzzy_factor = 1.5,
    },
    Knob {
        field: "NvrConfig::use_lbd",
        system: SystemKind::Nvr,
        change: |s| nvr(s).use_lbd = false,
    },
    Knob {
        field: "NvrConfig::nsb_admit_min_reuse",
        system: SystemKind::NvrNsb,
        change: |s| nvr(s).nsb_admit_min_reuse = 0,
    },
    Knob {
        field: "NvrConfig::trigger",
        system: SystemKind::Nvr,
        change: |s| nvr(s).trigger = TriggerPolicy::OnStall,
    },
    Knob {
        field: "CacheConfig::size_bytes",
        system: SystemKind::InOrder,
        change: |s| s.mem.l2.size_bytes /= 4,
    },
    Knob {
        field: "CacheConfig::ways",
        system: SystemKind::InOrder,
        change: |s| s.mem.l2.ways = 2,
    },
    Knob {
        field: "CacheConfig::hit_latency",
        system: SystemKind::InOrder,
        change: |s| s.mem.l2.hit_latency *= 2,
    },
    Knob {
        field: "CacheConfig::mshr_entries",
        system: SystemKind::OutOfOrder,
        change: |s| s.mem.l2.mshr_entries = 2,
    },
    Knob {
        field: "CacheConfig::policy",
        system: SystemKind::NvrNsb,
        change: |s| s.mem.l2.policy = RetentionPolicy::Lru,
    },
    Knob {
        field: "DramConfig::latency",
        system: SystemKind::InOrder,
        change: |s| s.mem.dram.latency /= 2,
    },
    Knob {
        field: "DramConfig::bytes_per_cycle",
        system: SystemKind::InOrder,
        change: |s| s.mem.dram.bytes_per_cycle *= 2,
    },
    Knob {
        field: "DramConfig::channels",
        system: SystemKind::Nvr,
        change: |s| s.mem.dram.channels = 2,
    },
    Knob {
        field: "DramConfig::queue_depth",
        system: SystemKind::Nvr,
        change: |s| s.mem.dram.queue_depth = 2,
    },
    Knob {
        field: "MemoryConfig::nsb",
        system: SystemKind::Nvr,
        change: |s| s.mem.nsb = Some(nsb_config(16)),
    },
    Knob {
        field: "MemoryConfig::l2",
        system: SystemKind::InOrder,
        change: |s| s.mem.l2 = CacheConfig::l2_default().with_size(64 * 1024),
    },
    Knob {
        field: "MemoryConfig::dram",
        system: SystemKind::InOrder,
        change: |s| s.mem.dram = DramConfig::default().with_channels(2),
    },
    Knob {
        field: "MemoryConfig::prefetch_mshrs",
        system: SystemKind::Nvr,
        change: |s| s.mem.prefetch_mshrs = 2,
    },
    Knob {
        field: "NpuConfig::exec",
        system: SystemKind::InOrder,
        change: |s| s.npu.exec = ExecMode::OutOfOrder,
    },
];

/// The whole outcome of `spec` on `program`, as comparable text.
fn outcome(system: SystemKind, spec: &SystemSpec, program: &NpuProgram) -> String {
    format!("{:?}", spec.outcome(program, system))
}

#[test]
fn every_knob_moves_its_witness_cell() {
    // Exhaustive patterns: a new field stops this test compiling until it
    // has a row in KNOBS. `CacheConfig::name` is a stats label, not a
    // knob.
    let NvrConfig {
        vector_width: _,
        lookahead_lines: _,
        lookahead_tiles: _,
        fuzzy_factor: _,
        use_lbd: _,
        nsb_admit_min_reuse: _,
        trigger: _,
    } = NvrConfig::default();
    let CacheConfig {
        name: _,
        size_bytes: _,
        ways: _,
        hit_latency: _,
        mshr_entries: _,
        policy: _,
    } = CacheConfig::l2_default();
    let DramConfig {
        latency: _,
        bytes_per_cycle: _,
        channels: _,
        queue_depth: _,
    } = DramConfig::default();
    let MemoryConfig {
        nsb: _,
        l2: _,
        dram: _,
        prefetch_mshrs: _,
    } = MemoryConfig::default();
    let NpuConfig { exec: _ } = NpuConfig::default();
    assert_eq!(KNOBS.len(), 7 + 5 + 4 + 4 + 1);

    let program = WorkloadId::Gcn.build(&WorkloadSpec::tiny(DataWidth::Fp16, 2025));
    // Unchanged cells, each simulated once.
    let mut cells: Vec<(SystemKind, String)> = Vec::new();
    let mut dead = Vec::new();
    for knob in KNOBS {
        let spec = knob.system.spec(&MemoryConfig::default());
        let mut changed = spec.clone();
        (knob.change)(&mut changed);
        assert_ne!(changed, spec, "{}: the change is a no-op", knob.field);
        let base = match cells.iter().find(|(s, _)| *s == knob.system) {
            Some((_, base)) => base.clone(),
            None => {
                let base = outcome(knob.system, &spec, &program);
                cells.push((knob.system, base.clone()));
                base
            }
        };
        if outcome(knob.system, &changed, &program) == base {
            dead.push(knob.field);
        }
    }
    assert!(dead.is_empty(), "knobs that move no witness cell: {dead:?}");
}
