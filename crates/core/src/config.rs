//! NVR configuration.

use nvr_common::NvrError;

/// When NVR enters runahead (§III Q&A1 vs the DVR-style alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriggerPolicy {
    /// Proactive: runahead whenever an NPU load instruction is in execution
    /// (the paper's design — prefetching for the *next* loads while the
    /// current one runs).
    #[default]
    OnLoad,
    /// Reactive: runahead only once a demand gather has actually missed
    /// (ablation: DVR-style triggering inside the NVR datapath).
    OnStall,
}

/// Tuning knobs of the NVR prefetcher.
///
/// Every knob names its paper counterpart and the rationale for its
/// default; the defaults reproduce the paper's Table I configuration as
/// calibrated by this repo's headline run (`cargo run -p nvr_sim --bin
/// sweep -- --figure headline`).
///
/// # Examples
///
/// ```
/// use nvr_core::NvrConfig;
///
/// let cfg = NvrConfig::default();
/// assert_eq!(cfg.vector_width, 16);
/// cfg.validate()?;
/// # Ok::<(), nvr_common::NvrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NvrConfig {
    /// Parallel entries N — the vector processing width (Table I, N=16).
    ///
    /// One PIE group resolves `vector_width` index elements per cycle, and
    /// the depth bound falls back to this granularity, so it is the quantum
    /// of all speculative progress. Default 16 = the paper's N.
    pub vector_width: usize,
    /// Line capacity of one VIGU vector operation (§IV-F). Each of the N
    /// PIE lanes resolves one gather target per cycle, and a target row may
    /// straddle a line boundary, so the issued vector carries up to
    /// `2 * vector_width` line addresses. Collapsing this to N lines (the
    /// pre-calibration value) throttles VMIG drain on multi-line rows and
    /// under-reports the paper's miss coverage. Default 32 = `2 * 16`.
    pub vmig_batch_lines: usize,
    /// Cache-line budget of outstanding *target* coverage: a speculative
    /// window may start resolving (and so issuing target prefetches) only
    /// while its start is within this many lines of the NPU's consumption
    /// pointer. Expressed in lines (not elements) so the reach adapts to
    /// row width — fat rows get shallow lookahead (less L2 thrash), thin
    /// rows get deep lookahead (more latency hiding). Maps to the paper's
    /// fixed speculative-MSHR/NSB capacity budget (§IV-F/G). Default 256
    /// lines = 16 KiB of 64 B lines, the NSB capacity of Table I.
    pub lookahead_lines: usize,
    /// Maximum speculative windows the controller keeps in flight at once
    /// — the cross-tile lookahead depth of the pipelined front-end (§III's
    /// decoupled runahead thread, which keeps speculating across tile
    /// boundaries instead of parking at each window edge). Only the
    /// *index-fetch* side runs this deep (opening a window costs a
    /// handful of sequential line fetches); target resolution stays
    /// paced by [`NvrConfig::lookahead_lines`]. Depth 1 degenerates to
    /// the pre-pipelining one-window-at-a-time episode loop (the `fig6b`
    /// driver uses exactly that as its baseline). Default 4: deep enough
    /// to cover a DRAM round trip of index-fetch latency on every
    /// measured workload; 8 and 16 measure no better, and the usefulness
    /// throttle below handles the workloads that cannot absorb even 4.
    pub lookahead_tiles: usize,
    /// DARE-style usefulness throttle: when the rolling ratio of
    /// evicted-unused prefetches (measured by [`crate::LifetimeTracker`]
    /// over the last [`NvrConfig::throttle_window`] resolved prefetches)
    /// crosses this threshold, the effective lookahead depth collapses
    /// back to 1, recovering as the ratio drops. Filters lookahead by
    /// *observed* usefulness rather than window extent — deep lookahead
    /// where it pays, shallow where it pollutes. Must lie in `(0, 1]`;
    /// 1.0 never throttles. Default 0.1: a rolling window where more
    /// than one prefetch in ten is evicted untouched means the pipeline
    /// is churning the L2 (GCN-class turnover) and pipelined opens stop
    /// paying for themselves.
    pub throttle_evicted_ratio: f64,
    /// Resolved-prefetch capacity of the throttle's rolling window.
    /// Smaller reacts faster but jitters; larger smooths phase changes
    /// away. Default 128 = half the default line budget, so a fully
    /// wasted window is noticed within one lookahead depth's worth of
    /// outcomes.
    pub throttle_window: usize,
    /// Fuzzy-range factor applied to predicted windows (§III,
    /// coverage-oriented philosophy): >1 over-fetches slightly to secure
    /// whole batches at the cost of some redundancy. Valid in
    /// `[1.0, 2.0]`; default 1.1 = the paper's 10% over-fetch posture.
    pub fuzzy_factor: f64,
    /// Whether the Loop Bound Detector clips predicted windows (§IV-E;
    /// ablation: without it, NVR overruns like a fixed-distance runahead).
    /// Default true — the SST is core to the paper's design.
    pub use_lbd: bool,
    /// DARE-style retention-priority threshold: a resolved target line's
    /// predicted-reuse score (how many *more* times the current runahead
    /// windows will touch the line, counted by the controller's
    /// [`crate::ReusePredictor`] over the window machinery's resolved
    /// targets) earns eviction protection in scored levels only once it
    /// reaches this value. Every prefetch still fills the NSB — streaming
    /// workloads keep their near-NPU hits — but below-threshold lines
    /// compete at score 1 (their single imminent use), so demonstrated
    /// hubs outrank the stream for residency. 0 disables scoring entirely
    /// — every fill carries score 0 and scored levels behave exactly as
    /// pure LRU, bit for bit. Inert when the memory system has no NSB;
    /// with one (which NVR always fills, §IV-G), a non-zero threshold
    /// also keeps unscored single-use traffic (index lines, two-level
    /// probes) out of the NSB, and the scores steer residency in a
    /// [`nvr_mem::RetentionPolicy::ScoredReuse`] NSB
    /// ([`crate::nsb_scored`]) and a
    /// [`nvr_mem::RetentionPolicy::ScoredEvict`] L2. Default 4, the
    /// calibrated value (a line must be touched by at least four distinct
    /// gather targets in the lookahead horizon to outrank NSB residents —
    /// the sweet spot of the fig9 policy study: lower thresholds pin
    /// GSABT's briefly-hot attention blocks past their window, higher ones
    /// forfeit GCN's and DS's hub reuse).
    pub nsb_admit_min_reuse: u32,
    /// Runahead entry policy (§III Q&A1). Default
    /// [`TriggerPolicy::OnLoad`], the paper's proactive design.
    pub trigger: TriggerPolicy,
}

impl NvrConfig {
    /// The configuration used when an NSB is present (§IV-G): equal to
    /// [`NvrConfig::default`], since NVR fills the NSB whenever the memory
    /// system has one. Kept for callers written against the older API
    /// (the `perfbench/` package calls it).
    #[must_use]
    pub fn with_nsb() -> Self {
        NvrConfig::default()
    }

    /// Checks the configuration is realisable.
    ///
    /// # Errors
    ///
    /// Returns [`NvrError::Config`] if a knob is zero, the fuzzy factor is
    /// not in `[1.0, 2.0]`, or the throttle threshold is not in `(0, 1]`.
    pub fn validate(&self) -> Result<(), NvrError> {
        if self.vector_width == 0 || self.lookahead_lines == 0 || self.vmig_batch_lines == 0 {
            return Err(NvrError::Config(
                "NVR vector width, VMIG batch and lookahead budget must be non-zero".into(),
            ));
        }
        if self.lookahead_tiles == 0 || self.throttle_window == 0 {
            return Err(NvrError::Config(
                "NVR lookahead depth and throttle window must be non-zero".into(),
            ));
        }
        if !(1.0..=2.0).contains(&self.fuzzy_factor) {
            return Err(NvrError::Config(format!(
                "fuzzy factor {} outside [1.0, 2.0]",
                self.fuzzy_factor
            )));
        }
        if !(self.throttle_evicted_ratio > 0.0 && self.throttle_evicted_ratio <= 1.0) {
            return Err(NvrError::Config(format!(
                "throttle ratio {} outside (0, 1]",
                self.throttle_evicted_ratio
            )));
        }
        Ok(())
    }
}

impl Default for NvrConfig {
    fn default() -> Self {
        NvrConfig {
            vector_width: 16,
            vmig_batch_lines: 32,
            lookahead_lines: 256,
            lookahead_tiles: 4,
            throttle_evicted_ratio: 0.1,
            throttle_window: 128,
            fuzzy_factor: 1.1,
            use_lbd: true,
            nsb_admit_min_reuse: 4,
            trigger: TriggerPolicy::OnLoad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NvrConfig::default().validate().expect("valid");
        assert_eq!(NvrConfig::with_nsb(), NvrConfig::default());
    }

    #[test]
    fn invalid_knobs_rejected() {
        let bad = NvrConfig {
            vector_width: 0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            lookahead_lines: 0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            vmig_batch_lines: 0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            fuzzy_factor: 3.0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            fuzzy_factor: 0.5,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            lookahead_tiles: 0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            throttle_window: 0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            throttle_evicted_ratio: 0.0,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = NvrConfig {
            throttle_evicted_ratio: 1.5,
            ..NvrConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
