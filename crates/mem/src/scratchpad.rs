//! NPU scratchpad and DMA timing.
//!
//! Gemmini-style NPUs keep dense, regular operands (weight values, dense
//! activations) in an explicitly managed scratchpad filled by a DMA engine
//! (§II-B). Regular streams through the scratchpad are cheap and
//! predictable; the cache hierarchy only sees the *irregular* traffic. The
//! scratchpad model therefore only needs capacity checking and DMA transfer
//! timing — there is no tag array to simulate.

use nvr_common::{Cycle, NvrError};

/// Explicitly managed on-chip buffer with a DMA engine.
///
/// # Examples
///
/// ```
/// use nvr_mem::Scratchpad;
///
/// let mut spad = Scratchpad::new(256 * 1024, 32);
/// let done = spad.dma_in(0, 4096)?;
/// assert_eq!(done, 4096 / 32);
/// # Ok::<(), nvr_common::NvrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity_bytes: u64,
    dma_bytes_per_cycle: u64,
    resident_bytes: u64,
    dma_free: Cycle,
    total_in_bytes: u64,
}

impl Scratchpad {
    /// Creates a scratchpad of `capacity_bytes` with a DMA engine moving
    /// `dma_bytes_per_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn new(capacity_bytes: u64, dma_bytes_per_cycle: u64) -> Self {
        assert!(capacity_bytes > 0, "scratchpad capacity must be non-zero");
        assert!(dma_bytes_per_cycle > 0, "DMA bandwidth must be non-zero");
        Scratchpad {
            capacity_bytes,
            dma_bytes_per_cycle,
            resident_bytes: 0,
            dma_free: 0,
            total_in_bytes: 0,
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Total bytes DMA'd in over the run.
    #[must_use]
    pub fn total_in_bytes(&self) -> u64 {
        self.total_in_bytes
    }

    /// Starts a DMA transfer of `bytes` into the scratchpad at `now`;
    /// returns its completion cycle.
    ///
    /// The transfer implicitly reuses the buffer in tile-double-buffer
    /// fashion: capacity is checked per transfer, not cumulatively, because
    /// the NPU engine frees a tile's operands when the tile retires.
    ///
    /// # Errors
    ///
    /// Returns [`NvrError::Config`] if `bytes` exceeds the capacity.
    pub fn dma_in(&mut self, now: Cycle, bytes: u64) -> Result<Cycle, NvrError> {
        if bytes > self.capacity_bytes {
            return Err(NvrError::Config(format!(
                "DMA transfer of {bytes} B exceeds scratchpad capacity {} B",
                self.capacity_bytes
            )));
        }
        self.resident_bytes = bytes;
        let start = now.max(self.dma_free);
        let cycles = nvr_common::div_ceil(bytes, self.dma_bytes_per_cycle);
        self.dma_free = start + cycles;
        self.total_in_bytes += bytes;
        Ok(start + cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_in_timing() {
        let mut s = Scratchpad::new(1024, 16);
        let done = s.dma_in(100, 64).expect("fits");
        assert_eq!(done, 104);
        assert_eq!(s.resident_bytes(), 64);
        assert_eq!(s.total_in_bytes(), 64);
    }

    #[test]
    fn dma_serialises_transfers() {
        let mut s = Scratchpad::new(1024, 16);
        let a = s.dma_in(0, 160).expect("fits");
        let b = s.dma_in(0, 160).expect("fits");
        assert_eq!(a, 10);
        assert_eq!(b, 20);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut s = Scratchpad::new(128, 16);
        assert!(s.dma_in(0, 256).is_err());
    }
}
