//! Systolic-array compute timing.

/// An output-stationary systolic array (Gemmini's default organisation).
///
/// Workload generators use [`SystolicArray::gemm_cycles`] to convert layer
/// shapes into per-tile compute budgets, so the compute/memory balance of
/// each workload reflects its real arithmetic intensity.
///
/// # Examples
///
/// ```
/// use nvr_npu::SystolicArray;
///
/// let sa = SystolicArray::new(16, 16);
/// // A 16x16x16 GEMM fits the array exactly: k + fill/drain.
/// assert_eq!(sa.gemm_cycles(16, 16, 16), 16 + 16 + 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

impl SystolicArray {
    /// Creates an array of `rows × cols` MAC units.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        SystolicArray { rows, cols }
    }

    /// The default 16×16 Gemmini configuration.
    #[must_use]
    pub fn gemmini_default() -> Self {
        SystolicArray::new(16, 16)
    }

    /// Cycles for an `m × k × n` dense GEMM (output-stationary schedule):
    /// each `rows × cols` output tile streams `k` partial sums plus array
    /// fill/drain.
    #[must_use]
    pub fn gemm_cycles(&self, m: usize, k: usize, n: usize) -> u64 {
        if m == 0 || k == 0 || n == 0 {
            return 0;
        }
        let row_tiles = m.div_ceil(self.rows) as u64;
        let col_tiles = n.div_ceil(self.cols) as u64;
        row_tiles * col_tiles * (k as u64 + self.rows as u64 + self.cols as u64)
    }

    /// Cycles for a sparse row-gather MAC phase: `nnz` gathered rows each
    /// contributing a `1 × k` vector against the array's columns.
    #[must_use]
    pub fn sparse_mac_cycles(&self, nnz: usize, k: usize) -> u64 {
        if nnz == 0 || k == 0 {
            return 0;
        }
        let col_tiles = k.div_ceil(self.cols) as u64;
        // Each non-zero streams through the array once per column tile.
        nnz as u64 * col_tiles
    }
}

impl Default for SystolicArray {
    fn default() -> Self {
        SystolicArray::gemmini_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_scales_with_tiles() {
        let sa = SystolicArray::new(16, 16);
        let one_tile = sa.gemm_cycles(16, 64, 16);
        let four_tiles = sa.gemm_cycles(32, 64, 32);
        assert_eq!(four_tiles, 4 * one_tile);
    }

    #[test]
    fn gemm_empty_is_zero() {
        let sa = SystolicArray::default();
        assert_eq!(sa.gemm_cycles(0, 16, 16), 0);
        assert_eq!(sa.gemm_cycles(16, 0, 16), 0);
    }

    #[test]
    fn partial_tiles_round_up() {
        let sa = SystolicArray::new(16, 16);
        assert_eq!(sa.gemm_cycles(17, 8, 1), 2 * (8 + 32));
    }

    #[test]
    fn sparse_mac_counts_col_tiles() {
        let sa = SystolicArray::new(16, 16);
        assert_eq!(sa.sparse_mac_cycles(10, 16), 10);
        assert_eq!(sa.sparse_mac_cycles(10, 17), 20);
        assert_eq!(sa.sparse_mac_cycles(0, 64), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = SystolicArray::new(0, 16);
    }
}
