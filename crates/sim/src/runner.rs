//! Comparable single runs of one program under one system configuration.
//!
//! Every simulated system is one [`SystemSpec`] value — NPU, memory
//! hierarchy and prefetcher as plain data. [`SystemKind::spec`] is the one
//! table from a paper label to its spec, and [`SystemSpec`] owns what
//! every run needs: the timed run and the ideal-memory base, which
//! [`NpuEngine::base_cycles`] computes in closed form. A knob study is a
//! struct update over a label's spec, run as a [`crate::lab::Cell`]:
//!
//! ```
//! use nvr_common::DataWidth;
//! use nvr_core::NvrConfig;
//! use nvr_mem::MemoryConfig;
//! use nvr_sim::lab::{Cell, Lab, ProgramSpec};
//! use nvr_sim::runner::{PrefetcherSpec, SystemKind, SystemSpec};
//! use nvr_workloads::{WorkloadId, WorkloadSpec};
//!
//! let program = ProgramSpec::Workload(WorkloadId::Ds, WorkloadSpec::tiny(DataWidth::Int8, 1));
//! let mem = MemoryConfig::default();
//! let cfg = NvrConfig { lookahead_tiles: 1, ..NvrConfig::default() };
//! let single_window = SystemSpec {
//!     prefetcher: PrefetcherSpec::Nvr(cfg),
//!     ..SystemKind::Nvr.spec(&mem)
//! };
//! let [ino, nvr] = [
//!     Cell::new(program, SystemKind::InOrder, &mem),
//!     Cell { program, system: SystemKind::Nvr, spec: single_window },
//! ];
//! let out = Lab::new(1).run(&[ino, nvr]);
//! assert!(out[1].result.total_cycles < out[0].result.total_cycles);
//! ```

use nvr_common::Cycle;
use nvr_core::{nsb_scored, NvrConfig, NvrPrefetcher};
use nvr_mem::{MemoryConfig, MemorySystem, RetentionPolicy};
use nvr_npu::{NpuConfig, NpuEngine, RunResult};
use nvr_prefetch::{
    DvrPrefetcher, ImpPrefetcher, NullPrefetcher, Prefetcher, StreamPrefetcher, TimelinessReport,
};
use nvr_trace::NpuProgram;

nvr_common::registry_enum! {
    /// The compared systems: the six of Fig. 5 (§V-A "Comparison") plus the
    /// paper's own NSB-backed configuration (§IV-G) as a first-class seventh
    /// system, declared in the paper's bar order (NVR+NSB appended).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SystemKind {
        /// In-order Gemmini, no prefetching.
        InOrder,
        /// Ideal out-of-order Gemmini, no prefetching.
        OutOfOrder,
        /// In-order + adaptive stream prefetcher.
        Stream,
        /// In-order + Indirect Memory Prefetcher.
        Imp,
        /// In-order + Decoupled Vector Runahead.
        Dvr,
        /// In-order + NPU Vector Runahead (the paper's contribution). NVR
        /// fills the NSB whenever the memory configuration has one.
        Nvr,
        /// In-order + NVR filling a 16 KB NSB in front of the L2 (§IV-G).
        /// Self-contained: when the sweep's memory configuration has no NSB,
        /// this system adds the paper's default one itself, so it rides every
        /// grid axis unchanged.
        NvrNsb,
    }
}

impl SystemKind {
    /// The prefetcher-bearing systems of Fig. 6.
    pub const PREFETCHERS: [SystemKind; 5] = [
        SystemKind::Stream,
        SystemKind::Imp,
        SystemKind::Dvr,
        SystemKind::Nvr,
        SystemKind::NvrNsb,
    ];

    /// Looks a system up by its paper label, case-insensitively.
    #[must_use]
    pub fn from_label(s: &str) -> Option<SystemKind> {
        SystemKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::InOrder => "InO",
            SystemKind::OutOfOrder => "OoO",
            SystemKind::Stream => "Stream",
            SystemKind::Imp => "IMP",
            SystemKind::Dvr => "DVR",
            SystemKind::Nvr => "NVR",
            SystemKind::NvrNsb => "NVR+NSB",
        }
    }

    /// The system this label names, run against `mem`: the one table from
    /// label to spec. Every system but OoO runs the in-order NPU, and
    /// every system uses `mem` as-is except [`SystemKind::NvrNsb`]: when
    /// `mem` has no NSB it adds the paper's default one — under the scored
    /// retention policy, which degenerates to LRU bit-for-bit when
    /// admission scoring is off — and runs the L2 under score-weighted
    /// eviction ([`RetentionPolicy::ScoredEvict`], always-admit) so
    /// predicted-reuse scores pin hub lines at both levels. Over a memory
    /// that already has an NSB, NVR and NVR+NSB are the same system.
    #[must_use]
    pub fn spec(self, mem: &MemoryConfig) -> SystemSpec {
        let in_order = |prefetcher| SystemSpec {
            npu: NpuConfig::default(),
            mem: mem.clone(),
            prefetcher,
        };
        match self {
            SystemKind::InOrder => in_order(PrefetcherSpec::None),
            SystemKind::OutOfOrder => SystemSpec {
                npu: NpuConfig::out_of_order(),
                ..in_order(PrefetcherSpec::None)
            },
            SystemKind::Stream => in_order(PrefetcherSpec::Stream),
            SystemKind::Imp => in_order(PrefetcherSpec::Imp),
            SystemKind::Dvr => in_order(PrefetcherSpec::Dvr),
            SystemKind::Nvr => in_order(PrefetcherSpec::Nvr(NvrConfig::default())),
            SystemKind::NvrNsb => {
                let mut spec = in_order(PrefetcherSpec::Nvr(NvrConfig::default()));
                if spec.mem.nsb.is_none() {
                    spec.mem.nsb = Some(nsb_scored(16));
                    spec.mem.l2.policy = RetentionPolicy::ScoredEvict;
                }
                spec
            }
        }
    }

    /// The memory configuration this system actually runs against: its
    /// [`SystemKind::spec`]'s memory.
    #[must_use]
    pub fn effective_mem_cfg(self, mem_cfg: &MemoryConfig) -> MemoryConfig {
        self.spec(mem_cfg).mem
    }
}

/// The prefetcher of a [`SystemSpec`], as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum PrefetcherSpec {
    /// No prefetching.
    None,
    /// The adaptive stream prefetcher, default configuration.
    Stream,
    /// The Indirect Memory Prefetcher, default configuration.
    Imp,
    /// Decoupled Vector Runahead, default configuration.
    Dvr,
    /// NPU Vector Runahead under the given configuration.
    Nvr(NvrConfig),
}

impl PrefetcherSpec {
    /// A fresh prefetcher of this kind, with no state from earlier runs.
    ///
    /// # Panics
    ///
    /// Panics if an NVR configuration fails [`NvrConfig::validate`].
    #[must_use]
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherSpec::None => Box::new(NullPrefetcher::new()),
            PrefetcherSpec::Stream => Box::new(StreamPrefetcher::default()),
            PrefetcherSpec::Imp => Box::new(ImpPrefetcher::default()),
            PrefetcherSpec::Dvr => Box::new(DvrPrefetcher::default()),
            PrefetcherSpec::Nvr(cfg) => Box::new(NvrPrefetcher::new(cfg.clone())),
        }
    }
}

/// One simulated system as plain data: the NPU, the memory hierarchy it
/// runs against, and its prefetcher. [`SystemKind::spec`] builds the
/// paper's named systems; any other point is a struct update over one.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The NPU's configuration (in-order or out-of-order execution).
    pub npu: NpuConfig,
    /// The memory hierarchy the timed run simulates.
    pub mem: MemoryConfig,
    /// The prefetcher driving the timed run.
    pub prefetcher: PrefetcherSpec,
}

impl SystemSpec {
    /// The timed run driven by the caller's `prefetcher` instead of
    /// [`SystemSpec::prefetcher`], so the caller can read it afterwards
    /// (timeliness, VMIG statistics): `program` on this NPU against a fresh
    /// memory system, then [`Prefetcher::finalize_run`].
    #[must_use]
    pub fn run_with(&self, program: &NpuProgram, prefetcher: &mut dyn Prefetcher) -> RunResult {
        let mut mem = MemorySystem::new(self.mem.clone());
        let result = NpuEngine::new(self.npu.clone()).run(program, &mut mem, prefetcher);
        prefetcher.finalize_run(&mut mem);
        result
    }

    /// Total cycles of the ideal-memory base run: `program` on this NPU
    /// with every demand hitting at this memory's minimum latency, without
    /// prefetching (Fig. 5's lower bar segment). Computed in closed form by
    /// [`NpuEngine::base_cycles`]; no memory system is simulated.
    #[must_use]
    pub fn base_cycles(&self, program: &NpuProgram) -> Cycle {
        NpuEngine::new(self.npu.clone()).base_cycles(program, self.mem.min_demand_latency())
    }

    /// The outcome of `program` on this system, labelled `system`: the
    /// timed run with a fresh prefetcher, its ideal-memory base and the
    /// prefetcher's measured timeliness.
    pub(crate) fn outcome(&self, program: &NpuProgram, system: SystemKind) -> RunOutcome {
        let mut prefetcher = self.prefetcher.build();
        let result = self.run_with(program, prefetcher.as_mut());
        RunOutcome {
            system,
            result,
            base_cycles: self.base_cycles(program),
            timeliness: prefetcher.timeliness(),
        }
    }
}

/// Result of one comparable run: the timed result plus the same program's
/// ideal-memory base time (Fig. 5's lower bar segment).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which system ran.
    pub system: SystemKind,
    /// Timed result against the real memory system.
    pub result: RunResult,
    /// Wall clock with every demand hitting at the memory's minimum
    /// latency ([`SystemSpec::base_cycles`]).
    pub base_cycles: Cycle,
    /// Measured per-prefetch timeliness, for systems that report it
    /// (NVR); `None` for the rest.
    pub timeliness: Option<TimelinessReport>,
}

impl RunOutcome {
    /// Cycles attributable to cache-miss stalls.
    #[must_use]
    pub fn stall_cycles(&self) -> Cycle {
        self.result.total_cycles.saturating_sub(self.base_cycles)
    }

    /// Per-channel DRAM utilisation of the timed run, in channel order.
    #[must_use]
    pub fn channel_utilisation(&self) -> &[f64] {
        &self.result.channel_utilisation
    }

    /// Approximate `q`-quantile of the speculative-fill queue delay
    /// (cycles a prefetch waited for a bus slot), merged across channels.
    #[must_use]
    pub fn queue_delay_percentile(&self, q: f64) -> u64 {
        self.result.mem.dram.queue_delay_merged().percentile(q)
    }

    /// Total latency normalised to `denom` cycles.
    #[must_use]
    pub fn normalised_total(&self, denom: Cycle) -> f64 {
        self.result.total_cycles as f64 / denom.max(1) as f64
    }

    /// Stall latency normalised to `denom` cycles.
    #[must_use]
    pub fn normalised_stall(&self, denom: Cycle) -> f64 {
        self.stall_cycles() as f64 / denom.max(1) as f64
    }
}

/// Runs `program` under `system` against `mem_cfg` (as adjusted by
/// [`SystemKind::spec`]): the timed run plus the paired ideal-memory run
/// for the base/stall split.
#[must_use]
pub fn run_system(program: &NpuProgram, mem_cfg: &MemoryConfig, system: SystemKind) -> RunOutcome {
    system.spec(mem_cfg).outcome(program, system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;
    use nvr_workloads::{WorkloadId, WorkloadSpec};

    fn program() -> NpuProgram {
        WorkloadId::Ds.build(&WorkloadSpec::tiny(DataWidth::Int8, 2))
    }

    #[test]
    fn base_never_exceeds_total() {
        let p = program();
        for system in SystemKind::ALL {
            let o = run_system(&p, &MemoryConfig::default(), system);
            assert!(
                o.base_cycles <= o.result.total_cycles,
                "{}: base {} > total {}",
                system.label(),
                o.base_cycles,
                o.result.total_cycles
            );
        }
    }

    #[test]
    fn runahead_systems_lead_on_ds() {
        let p = program();
        let cfg = MemoryConfig::default();
        let totals: Vec<(SystemKind, u64)> = SystemKind::ALL
            .iter()
            .map(|&s| (s, run_system(&p, &cfg, s).result.total_cycles))
            .collect();
        let of = |k: SystemKind| totals.iter().find(|(s, _)| *s == k).expect("present").1;
        let nvr = of(SystemKind::Nvr);
        for (s, t) in totals.iter().filter(|(s, _)| *s != SystemKind::NvrNsb) {
            assert!(nvr <= *t, "NVR {nvr} should not lose to {} {t}", s.label());
        }
        // The NSB configuration must stay competitive with plain NVR (its
        // win shows on reuse-heavy workloads; DS is coverage-bound).
        let nsb = of(SystemKind::NvrNsb);
        assert!(
            nsb as f64 <= nvr as f64 * 1.02,
            "NVR+NSB {nsb} regressed past NVR {nvr}"
        );
    }

    #[test]
    fn nvr_nsb_configures_its_own_buffer() {
        let p = program();
        let o = run_system(&p, &MemoryConfig::default(), SystemKind::NvrNsb);
        let nsb = o.result.mem.nsb.as_ref().expect("NSB stats present");
        assert!(nsb.demand_accesses() > 0, "demands go through the NSB");
        // An explicitly NSB-bearing config is used unchanged.
        let cfg = MemoryConfig::default().with_nsb(nvr_core::nsb_config(8));
        assert_eq!(
            SystemKind::NvrNsb.effective_mem_cfg(&cfg).nsb,
            Some(nvr_core::nsb_config(8))
        );
    }

    #[test]
    fn one_label_one_spec() {
        // Over the default memory every label names a distinct system.
        let plain = MemoryConfig::default();
        let specs: Vec<SystemSpec> = SystemKind::ALL.iter().map(|s| s.spec(&plain)).collect();
        for (i, a) in specs.iter().enumerate() {
            for (j, b) in specs.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    a,
                    b,
                    "{} and {} share a spec",
                    SystemKind::ALL[i].label(),
                    SystemKind::ALL[j].label()
                );
            }
        }
        // Over an NSB-bearing memory exactly NVR and NVR+NSB coincide: NVR
        // fills whatever NSB the NPU has.
        let with_nsb = MemoryConfig::default().with_nsb(nvr_core::nsb_config(16));
        let mut same = Vec::new();
        for (i, a) in SystemKind::ALL.iter().enumerate() {
            for b in &SystemKind::ALL[i + 1..] {
                if a.spec(&with_nsb) == b.spec(&with_nsb) {
                    same.push((a.label(), b.label()));
                }
            }
        }
        assert_eq!(same, [("NVR", "NVR+NSB")]);
    }

    #[test]
    fn timeliness_present_only_for_nvr() {
        let p = program();
        let cfg = MemoryConfig::default();
        let nvr = run_system(&p, &cfg, SystemKind::Nvr);
        let t = nvr.timeliness.expect("NVR reports timeliness");
        assert!(t.used() > 0, "NVR prefetches should be used");
        assert_eq!(t.slack.count(), t.used(), "one slack sample per use");
        assert!(
            t.queue_delay.count() > 0,
            "issued prefetches record their channel queue delay"
        );
        let ino = run_system(&p, &cfg, SystemKind::InOrder);
        assert!(ino.timeliness.is_none());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = SystemKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["InO", "OoO", "Stream", "IMP", "DVR", "NVR", "NVR+NSB"]
        );
        assert_eq!(
            SystemKind::from_label("nvr+nsb"),
            Some(SystemKind::NvrNsb),
            "grid filters accept the NSB label"
        );
    }
}
