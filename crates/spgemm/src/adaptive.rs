//! Row-adaptive SpGEMM: a per-row kernel zoo.
//!
//! One accumulator does not fit all rows. The upper-bound FLOP count of a
//! row (its intermediate-product count, [`crate::flops::flops_per_row`])
//! is known before any arithmetic happens, and it predicts which
//! accumulator wins:
//!
//! | upper bound                  | kernel         | why                              |
//! |------------------------------|----------------|----------------------------------|
//! | 0                            | skip           | row is empty by construction     |
//! | ≤ `small_flops`              | sorted array   | binary-search insert beats hashing at tiny sizes |
//! | ≥ `dense_fraction · ncols`   | dense SPA      | row saturates; direct indexing, no probing |
//! | otherwise                    | hash table     | the general-purpose middle       |
//!
//! This mirrors the `kernel_flag` 1/2/3 dispatch of per-row adaptive
//! SpGEMM implementations on KNL/GPU (Nagasaka et al.); the thresholds
//! here are CPU-tuned defaults. [`crate::spgemm_with`] runs this kernel
//! with the defaults for [`crate::AccumulatorKind::Adaptive`];
//! [`spgemm_row_adaptive`] takes explicit thresholds.
//!
//! The dense SPA is allocated only once a row selects it, and a row
//! selects it only when its upper bound reaches `dense_fraction · ncols`:
//! its `O(ncols)` slots never exceed `1 / dense_fraction` times that
//! row's intermediate products, so a very wide but sparse output never
//! pays for its width.
//!
//! Selection depends only on the *structure* of `A` and `B`, and every
//! accumulator in the zoo merges duplicate columns in arrival order and
//! extracts in ascending column order — so the adaptive kernel is
//! **bit-identical** to the serial reference no matter where the
//! thresholds fall. The parallel path is single-pass: FLOP-balanced row
//! chunks each build their own output segment (no symbolic re-run), and
//! the segments are stitched in row order afterwards.

use crate::accumulator::{Accumulator, DenseAccumulator, HashAccumulator, SortedArrayAccumulator};
use crate::flops::flops_per_row;
use crate::rowwise::{accumulate_row, balanced_row_chunks};
use cw_sparse::{ColIdx, CsrMatrix, Value};
use rayon::prelude::*;

/// Per-row kernel selection thresholds (see the module table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThresholds {
    /// Rows with at most this many intermediate products use the
    /// sorted-array accumulator.
    pub small_flops: u64,
    /// Rows whose upper bound reaches this fraction of `ncols` use the
    /// dense SPA.
    pub dense_fraction: f64,
}

impl Default for AdaptiveThresholds {
    fn default() -> Self {
        AdaptiveThresholds { small_flops: 32, dense_fraction: 0.25 }
    }
}

/// The kernel chosen for one output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKernel {
    /// No intermediate products: the output row is empty.
    Empty,
    /// Tiny row: sorted-array accumulator.
    SortedArray,
    /// Near-dense row: SPA with generation stamps.
    Dense,
    /// Everything else: open-addressing hash table.
    Hash,
}

/// Selects the kernel for a row with the given upper-bound product count
/// in a `ncols`-wide output.
#[inline]
pub fn select_row_kernel(upper_bound: u64, ncols: usize, t: &AdaptiveThresholds) -> RowKernel {
    if upper_bound == 0 {
        RowKernel::Empty
    } else if upper_bound <= t.small_flops {
        RowKernel::SortedArray
    } else if upper_bound as f64 >= t.dense_fraction * ncols as f64 {
        RowKernel::Dense
    } else {
        RowKernel::Hash
    }
}

/// One worker's set of reusable accumulators. The dense SPA costs
/// `O(ncols)` memory, so it is allocated only once a row actually
/// selects it.
struct Workset {
    ncols: usize,
    hash: HashAccumulator,
    sorted: SortedArrayAccumulator,
    dense: Option<DenseAccumulator>,
}

impl Workset {
    fn new(ncols: usize) -> Self {
        Workset {
            ncols,
            hash: HashAccumulator::new(),
            sorted: SortedArrayAccumulator::new(),
            dense: None,
        }
    }

    fn acc_for(&mut self, kernel: RowKernel) -> &mut dyn Accumulator {
        match kernel {
            RowKernel::SortedArray => &mut self.sorted,
            RowKernel::Dense => self.dense.get_or_insert_with(|| DenseAccumulator::new(self.ncols)),
            _ => &mut self.hash,
        }
    }
}

/// Builds rows `rows` into `(per-row nnz, cols, vals)` using per-row
/// kernel selection on `ub`.
fn build_rows(
    a: &CsrMatrix,
    b: &CsrMatrix,
    rows: (usize, usize),
    ub: &[u64],
    t: &AdaptiveThresholds,
    ws: &mut Workset,
) -> (Vec<usize>, Vec<ColIdx>, Vec<Value>) {
    let (s, e) = rows;
    let mut nnz = Vec::with_capacity(e - s);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (i, &row_ub) in ub.iter().enumerate().take(e).skip(s) {
        let kernel = select_row_kernel(row_ub, b.ncols, t);
        if kernel == RowKernel::Empty {
            nnz.push(0);
            continue;
        }
        let before = cols.len();
        let acc = ws.acc_for(kernel);
        accumulate_row(a, b, i, acc);
        acc.extract_into(&mut cols, &mut vals);
        nnz.push(cols.len() - before);
    }
    (nnz, cols, vals)
}

/// `C = A · B` with per-row kernel selection under thresholds `t`, on
/// the pool when `parallel` (single-threaded runs fall through to the
/// serial path). Bit-identical to [`crate::rowwise::spgemm_serial`] for
/// any thresholds.
pub fn spgemm_row_adaptive(
    a: &CsrMatrix,
    b: &CsrMatrix,
    t: &AdaptiveThresholds,
    parallel: bool,
) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    let ub = flops_per_row(a, b);
    let width = rayon::current_num_threads();
    let parts: Vec<(Vec<usize>, Vec<ColIdx>, Vec<Value>)> = if parallel && width > 1 {
        // Single-pass parallel: each FLOP-balanced chunk builds its own
        // segment; no symbolic re-run.
        let ranges = balanced_row_chunks(&ub, width * 8);
        (0..ranges.len())
            .into_par_iter()
            .map_init(|| Workset::new(b.ncols), |ws, ci| build_rows(a, b, ranges[ci], &ub, t, ws))
            .collect()
    } else {
        let mut ws = Workset::new(b.ncols);
        vec![build_rows(a, b, (0, a.nrows), &ub, t, &mut ws)]
    };

    let total: usize = parts.iter().map(|(_, c, _)| c.len()).sum();
    let mut row_ptr = Vec::with_capacity(a.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for (nnz, mut c, mut v) in parts {
        for n in nnz {
            row_ptr.push(row_ptr.last().unwrap() + n);
        }
        col_idx.append(&mut c);
        vals.append(&mut v);
    }
    CsrMatrix { nrows: a.nrows, ncols: b.ncols, row_ptr, col_idx, vals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::{spgemm_serial, spgemm_with, SpGemmOptions};
    use crate::AccumulatorKind;
    use cw_sparse::gen::{er::erdos_renyi, grid::poisson2d, rmat::rmat, rmat::RmatParams};

    fn bits_eq(x: &CsrMatrix, y: &CsrMatrix) -> bool {
        x.row_ptr == y.row_ptr
            && x.col_idx == y.col_idx
            && x.vals.len() == y.vals.len()
            && x.vals.iter().zip(&y.vals).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn selection_covers_all_regimes() {
        let t = AdaptiveThresholds::default();
        assert_eq!(select_row_kernel(0, 1000, &t), RowKernel::Empty);
        assert_eq!(select_row_kernel(1, 1000, &t), RowKernel::SortedArray);
        assert_eq!(select_row_kernel(32, 1000, &t), RowKernel::SortedArray);
        assert_eq!(select_row_kernel(33, 1000, &t), RowKernel::Hash);
        assert_eq!(select_row_kernel(250, 1000, &t), RowKernel::Dense);
        // Small matrices: the dense branch can dominate the small branch
        // boundary; dense wins only above the flop floor.
        assert_eq!(select_row_kernel(33, 40, &t), RowKernel::Dense);
    }

    #[test]
    fn adaptive_is_bit_identical_to_serial() {
        for a in [poisson2d(14, 11), erdos_renyi(120, 7, 3), rmat(8, 8, RmatParams::default(), 9)] {
            let expect = spgemm_serial(&a, &a);
            for parallel in [false, true] {
                let got = spgemm_row_adaptive(&a, &a, &AdaptiveThresholds::default(), parallel);
                assert!(bits_eq(&got, &expect), "parallel={parallel}");
            }
        }
    }

    #[test]
    fn threshold_extremes_stay_bit_identical() {
        // Force everything through each single kernel in turn: the zoo
        // must be bit-transparent wherever the boundaries sit.
        let a = erdos_renyi(90, 6, 11);
        let expect = spgemm_serial(&a, &a);
        let force = [
            AdaptiveThresholds { small_flops: u64::MAX, dense_fraction: f64::INFINITY },
            AdaptiveThresholds { small_flops: 0, dense_fraction: 0.0 },
            AdaptiveThresholds { small_flops: 0, dense_fraction: f64::INFINITY },
        ];
        for t in force {
            let got = spgemm_row_adaptive(&a, &a, &t, false);
            assert!(bits_eq(&got, &expect), "thresholds {t:?}");
        }
    }

    /// `C = A · B` through the accumulator knob, as the engine runs it.
    fn via_knob(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        spgemm_with(a, b, &SpGemmOptions { acc: AccumulatorKind::Adaptive, ..Default::default() })
    }

    #[test]
    fn empty_and_rectangular() {
        let z = CsrMatrix::zeros(5, 5);
        assert_eq!(via_knob(&z, &z).nnz(), 0);
        let a = erdos_renyi(30, 4, 1);
        let b = cw_sparse::gen::er::erdos_renyi_rect(30, 8, 3, 2);
        let got = via_knob(&a, &b);
        assert!(bits_eq(&got, &spgemm_serial(&a, &b)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(3, 4);
        let _ = spgemm_row_adaptive(&a, &b, &AdaptiveThresholds::default(), true);
    }
}
