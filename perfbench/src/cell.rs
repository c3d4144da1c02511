//! One grid cell run layer by layer from public constructors, with the
//! prefetcher boundary timed from outside.
//!
//! `run_system` builds its prefetcher through a private method, so the
//! traced path rebuilds each system from the same public pieces
//! (`effective_mem_cfg`, `NpuConfig`, the prefetcher constructors) and
//! must reproduce `run_system` bit for bit; [`mismatch`] is that check.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use nvr_common::Cycle;
use nvr_core::{NvrConfig, NvrPrefetcher};
use nvr_mem::{MemoryConfig, MemorySystem};
use nvr_npu::{NpuConfig, NpuEngine};
use nvr_prefetch::{
    DvrPrefetcher, ImpPrefetcher, NullPrefetcher, Prefetcher, StreamPrefetcher, TimelinessReport,
};
use nvr_sim::{RunOutcome, SystemKind};
use nvr_trace::{AccessEvent, MemoryImage, NpuProgram, SnoopState};

/// Host time and call counts spent inside one run's prefetcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchTimes {
    /// Time inside `Prefetcher::observe`, estimated from sampled calls.
    pub observe: Duration,
    /// Calls to `Prefetcher::observe`.
    pub observe_calls: u64,
    /// Time inside `Prefetcher::advance`.
    pub advance: Duration,
    /// Calls to `Prefetcher::advance`.
    pub advance_calls: u64,
}

/// One in `2^OBSERVE_SAMPLE_BITS` `observe` calls is timed. A clock pair
/// costs ~100 ns on a 2-core KVM host, and `observe` runs millions of
/// times per pass for well under that each, so timing every call would
/// double the traced run and swamp what it measures.
const OBSERVE_SAMPLE_BITS: u32 = 4;

/// Mean host time an empty `Instant::now()` … `elapsed()` region reads,
/// subtracted from every timed call so the clock's own cost is not
/// charged to the prefetcher.
pub fn clock_bias() -> Duration {
    static BIAS: OnceLock<Duration> = OnceLock::new();
    *BIAS.get_or_init(|| {
        const N: u32 = 100_000;
        let mut total = Duration::ZERO;
        for _ in 0..N {
            let t = Instant::now();
            total += std::hint::black_box(t).elapsed();
        }
        total / N
    })
}

/// Forwards every call to the wrapped prefetcher unchanged, counting
/// `observe` and `advance` calls and timing every `advance` and a sample
/// of `observe`s.
struct Timed {
    inner: Box<dyn Prefetcher>,
    /// Fixed-seed xorshift state choosing the sampled `observe` calls, so
    /// the sample cannot alias with the engine's periodic call pattern.
    rng: u32,
    observe_calls: u64,
    observe_sampled: u64,
    observe_sampled_time: Duration,
    advance_calls: u64,
    advance_time: Duration,
}

impl Timed {
    fn new(inner: Box<dyn Prefetcher>) -> Timed {
        Timed {
            inner,
            rng: 0x9e37_79b9,
            observe_calls: 0,
            observe_sampled: 0,
            observe_sampled_time: Duration::ZERO,
            advance_calls: 0,
            advance_time: Duration::ZERO,
        }
    }

    /// The run's prefetcher time, net of the clock's own cost.
    fn times(&self) -> PrefetchTimes {
        let bias = clock_bias();
        let net = |time: Duration, n: u64| {
            time.saturating_sub(bias.saturating_mul(u32::try_from(n).unwrap_or(u32::MAX)))
        };
        let observe = if self.observe_sampled == 0 {
            Duration::ZERO
        } else {
            net(self.observe_sampled_time, self.observe_sampled)
                .mul_f64(self.observe_calls as f64 / self.observe_sampled as f64)
        };
        PrefetchTimes {
            observe,
            observe_calls: self.observe_calls,
            advance: net(self.advance_time, self.advance_calls),
            advance_calls: self.advance_calls,
        }
    }
}

impl Prefetcher for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(
        &mut self,
        event: &AccessEvent,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        self.observe_calls += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 17;
        self.rng ^= self.rng << 5;
        if self.rng >> (32 - OBSERVE_SAMPLE_BITS) == 0 {
            let t = Instant::now();
            self.inner.observe(event, snoop, image, mem);
            self.observe_sampled_time += t.elapsed();
            self.observe_sampled += 1;
        } else {
            self.inner.observe(event, snoop, image, mem);
        }
    }

    fn advance(
        &mut self,
        from: Cycle,
        to: Cycle,
        snoop: &SnoopState,
        image: &MemoryImage,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner.advance(from, to, snoop, image, mem);
        self.advance_time += t.elapsed();
        self.advance_calls += 1;
    }

    fn fills_nsb(&self) -> bool {
        self.inner.fills_nsb()
    }

    fn finalize_run(&mut self, mem: &mut MemorySystem) {
        self.inner.finalize_run(mem);
    }

    fn timeliness(&self) -> Option<TimelinessReport> {
        self.inner.timeliness()
    }
}

/// The NPU configuration `run_system` gives `system`.
fn npu_config(system: SystemKind) -> NpuConfig {
    match system {
        SystemKind::OutOfOrder => NpuConfig::out_of_order(),
        SystemKind::InOrder
        | SystemKind::Stream
        | SystemKind::Imp
        | SystemKind::Dvr
        | SystemKind::Nvr
        | SystemKind::NvrNsb => NpuConfig::default(),
    }
}

/// The prefetcher `run_system` gives `system` against the effective
/// memory configuration `mem_cfg`.
fn prefetcher(system: SystemKind, mem_cfg: &MemoryConfig) -> Box<dyn Prefetcher> {
    match system {
        SystemKind::InOrder | SystemKind::OutOfOrder => Box::new(NullPrefetcher::new()),
        SystemKind::Stream => Box::new(StreamPrefetcher::default()),
        SystemKind::Imp => Box::new(ImpPrefetcher::default()),
        SystemKind::Dvr => Box::new(DvrPrefetcher::default()),
        SystemKind::NvrNsb => Box::new(NvrPrefetcher::new(NvrConfig::with_nsb())),
        SystemKind::Nvr if mem_cfg.nsb.is_some() => {
            Box::new(NvrPrefetcher::new(NvrConfig::with_nsb()))
        }
        SystemKind::Nvr => Box::new(NvrPrefetcher::new(NvrConfig::default())),
    }
}

/// One decomposed cell: its outcome, the host instants between its
/// phases, and the prefetcher's share of the timed run.
pub struct CellRun {
    /// Equal to `run_system`'s outcome for the same cell.
    pub outcome: RunOutcome,
    /// Start of the timed run (memory construction included).
    pub start: Instant,
    /// End of the timed run, start of `finalize_run`.
    pub timed_end: Instant,
    /// End of `finalize_run`, start of the ideal-memory base run.
    pub finalize_end: Instant,
    /// End of the base run.
    pub end: Instant,
    /// Host time and calls inside the prefetcher during the timed run.
    pub prefetch: PrefetchTimes,
}

/// Runs one cell as `run_system` does — timed run on `MemorySystem::new`,
/// `finalize_run`, then a base run on `MemorySystem::ideal` — recording
/// the phase boundaries.
pub fn run_decomposed(program: &NpuProgram, mem_cfg: &MemoryConfig, system: SystemKind) -> CellRun {
    let engine = NpuEngine::new(npu_config(system));
    let mem_cfg = system.effective_mem_cfg(mem_cfg);
    let mut timed = Timed::new(prefetcher(system, &mem_cfg));

    let start = Instant::now();
    let mut mem = MemorySystem::new(mem_cfg.clone());
    let result = engine.run(program, &mut mem, &mut timed);
    let timed_end = Instant::now();
    timed.finalize_run(&mut mem);
    let finalize_end = Instant::now();
    let timeliness = timed.timeliness();
    let mut ideal = MemorySystem::ideal(mem_cfg);
    let base = engine.run(program, &mut ideal, &mut NullPrefetcher::new());
    let end = Instant::now();

    CellRun {
        outcome: RunOutcome {
            system,
            result,
            base_cycles: base.total_cycles,
            timeliness,
        },
        start,
        timed_end,
        finalize_end,
        end,
        prefetch: timed.times(),
    }
}

/// The first field in which `got` differs from `want`, if any.
pub fn mismatch(got: &RunOutcome, want: &RunOutcome) -> Option<&'static str> {
    if got.system != want.system {
        Some("system")
    } else if got.result != want.result {
        Some("RunResult")
    } else if got.base_cycles != want.base_cycles {
        Some("base_cycles")
    } else if got.timeliness != want.timeliness {
        Some("TimelinessReport")
    } else {
        None
    }
}

/// The first conservation property `o` breaks, if any: the ideal-memory
/// base never exceeds the timed run, and no level counts more useful
/// prefetches than it issued.
pub fn invariant_violation(o: &RunOutcome) -> Option<String> {
    let total = o.result.total_cycles;
    if o.base_cycles > total {
        return Some(format!(
            "base_cycles {} > total_cycles {total}",
            o.base_cycles
        ));
    }
    let levels = std::iter::once(&o.result.mem.l2).chain(o.result.mem.nsb.as_ref());
    for level in levels {
        let (useful, issued) = (level.prefetch_useful.get(), level.prefetch_issued.get());
        if useful > issued {
            return Some(format!(
                "{}: prefetch_useful {useful} > prefetch_issued {issued}",
                level.name
            ));
        }
    }
    None
}
