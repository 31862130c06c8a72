//! Row-wise Gustavson SpGEMM over CSR (paper Fig. 1 / §2.2).
//!
//! The kernel follows the classical two-phase structure:
//!
//! 1. **symbolic** — count `nnz` of every output row (exactly) so the output
//!    arrays are allocated once;
//! 2. **numeric** — re-run the row products, accumulating into a sparse
//!    accumulator and copying each finished row into its pre-sized slot.
//!
//! The parallel path partitions rows into contiguous chunks balanced by
//! FLOP count, splits the output arrays into the matching disjoint slices
//! (`split_at_mut`, no unsafe), and runs chunks under rayon with one
//! accumulator per chunk.

use crate::accumulator::{make_accumulator, Accumulator, AccumulatorKind};
use crate::adaptive::{spgemm_row_adaptive, AdaptiveThresholds};
use crate::flops::flops_per_row;
use cw_sparse::{ColIdx, CsrMatrix, Value};
use rayon::prelude::*;

/// Tuning knobs for [`spgemm_with`].
#[derive(Debug, Clone, Copy)]
pub struct SpGemmOptions {
    /// Accumulator implementation for both phases.
    pub acc: AccumulatorKind,
    /// Use the rayon-parallel path.
    pub parallel: bool,
    /// Target number of row chunks per rayon thread (higher = better load
    /// balance, more scheduling overhead).
    pub chunks_per_thread: usize,
}

impl Default for SpGemmOptions {
    fn default() -> Self {
        SpGemmOptions { acc: AccumulatorKind::Hash, parallel: true, chunks_per_thread: 8 }
    }
}

/// `C = A · B` with default options (hash accumulator, parallel).
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    spgemm_with(a, b, &SpGemmOptions::default())
}

/// `C = A · B` on a single thread (hash accumulator).
pub fn spgemm_serial(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    spgemm_with(a, b, &SpGemmOptions { parallel: false, ..Default::default() })
}

/// `C = A · B` with explicit options. [`AccumulatorKind::Adaptive`] runs
/// the single-pass per-row kernel of [`crate::adaptive`] with its default
/// thresholds (`chunks_per_thread` does not apply to it).
pub fn spgemm_with(a: &CsrMatrix, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    if opts.acc == AccumulatorKind::Adaptive {
        return spgemm_row_adaptive(a, b, &AdaptiveThresholds::default(), opts.parallel);
    }
    // At an effective width of 1 the two-phase parallel path would do the
    // symbolic accumulation twice on one thread for nothing — fall through
    // to the single-pass serial kernel (bit-identical output either way).
    if opts.parallel && rayon::current_num_threads() > 1 {
        spgemm_parallel_impl(a, b, opts)
    } else {
        spgemm_serial_impl(a, b, opts)
    }
}

/// Accumulates `A[i,:] · B` into `acc`.
///
/// Every kernel in the crate funnels through this loop, so partial
/// products for one output entry always arrive in the same (ascending-k)
/// order — the invariant that makes accumulator choice bit-transparent.
#[inline]
pub(crate) fn accumulate_row(a: &CsrMatrix, b: &CsrMatrix, i: usize, acc: &mut dyn Accumulator) {
    let (a_cols, a_vals) = a.row(i);
    for (&k, &av) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k as usize);
        for (&j, &bv) in b_cols.iter().zip(b_vals) {
            acc.add(j, av * bv);
        }
    }
}

fn spgemm_serial_impl(a: &CsrMatrix, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    let mut acc = make_accumulator(opts.acc, b.ncols);
    let mut row_ptr = Vec::with_capacity(a.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    for i in 0..a.nrows {
        accumulate_row(a, b, i, acc.as_mut());
        acc.extract_into(&mut col_idx, &mut vals);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: a.nrows, ncols: b.ncols, row_ptr, col_idx, vals }
}

/// Exact symbolic phase: `nnz(C[i,:])` for every row, in parallel.
pub fn symbolic_row_nnz(a: &CsrMatrix, b: &CsrMatrix, kind: AccumulatorKind) -> Vec<usize> {
    (0..a.nrows)
        .into_par_iter()
        .map_init(
            || make_accumulator(kind, b.ncols),
            |acc, i| {
                accumulate_row(a, b, i, acc.as_mut());
                let n = acc.len();
                acc.clear();
                n
            },
        )
        .collect()
}

/// Contiguous row chunks whose FLOP totals are roughly balanced.
///
/// Returns half-open row ranges covering `0..nrows`. `target_chunks` is a
/// hint; fewer chunks are returned for tiny matrices.
pub fn balanced_row_chunks(flops: &[u64], target_chunks: usize) -> Vec<(usize, usize)> {
    let nrows = flops.len();
    if nrows == 0 {
        return Vec::new();
    }
    let total: u64 = flops.iter().sum();
    let target = (total / target_chunks.max(1) as u64).max(1);
    let mut chunks = Vec::with_capacity(target_chunks + 1);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &f) in flops.iter().enumerate() {
        // +1 per row so empty rows still advance chunks eventually.
        acc += f + 1;
        if acc >= target && i + 1 < nrows {
            chunks.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    chunks.push((start, nrows));
    chunks
}

fn spgemm_parallel_impl(a: &CsrMatrix, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    // --- symbolic ---
    let row_nnz = symbolic_row_nnz(a, b, opts.acc);
    let mut row_ptr = Vec::with_capacity(a.nrows + 1);
    row_ptr.push(0usize);
    let mut total = 0usize;
    for &n in &row_nnz {
        total += n;
        row_ptr.push(total);
    }
    let mut col_idx = vec![0 as ColIdx; total];
    let mut vals = vec![0.0 as Value; total];

    // --- chunking by flops ---
    let flops = flops_per_row(a, b);
    let n_chunks = rayon::current_num_threads() * opts.chunks_per_thread;
    let ranges = balanced_row_chunks(&flops, n_chunks);

    // Split the output arrays into per-chunk disjoint slices.
    struct Job<'s> {
        rows: (usize, usize),
        cols: &'s mut [ColIdx],
        vals: &'s mut [Value],
    }
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(ranges.len());
    {
        let mut rest_c: &mut [ColIdx] = &mut col_idx;
        let mut rest_v: &mut [Value] = &mut vals;
        let mut consumed = 0usize;
        for &(s, e) in &ranges {
            let len = row_ptr[e] - consumed;
            let (c_here, c_rest) = rest_c.split_at_mut(len);
            let (v_here, v_rest) = rest_v.split_at_mut(len);
            rest_c = c_rest;
            rest_v = v_rest;
            consumed = row_ptr[e];
            jobs.push(Job { rows: (s, e), cols: c_here, vals: v_here });
        }
    }

    // --- numeric ---
    jobs.par_iter_mut().for_each_init(
        || (make_accumulator(opts.acc, b.ncols), Vec::<ColIdx>::new(), Vec::<Value>::new()),
        |(acc, buf_c, buf_v), job| {
            let (s, e) = job.rows;
            buf_c.clear();
            buf_v.clear();
            for i in s..e {
                accumulate_row(a, b, i, acc.as_mut());
                acc.extract_into(buf_c, buf_v);
            }
            job.cols.copy_from_slice(buf_c);
            job.vals.copy_from_slice(buf_v);
        },
    );

    CsrMatrix { nrows: a.nrows, ncols: b.ncols, row_ptr, col_idx, vals }
}

/// Dense reference multiply for testing (`O(n³)`, small inputs only).
pub fn dense_reference(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols, b.nrows);
    let da = a.to_dense();
    let db = b.to_dense();
    let mut dc = vec![0.0; a.nrows * b.ncols];
    for i in 0..a.nrows {
        for k in 0..a.ncols {
            let av = da[i * a.ncols + k];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.ncols {
                dc[i * b.ncols + j] += av * db[k * b.ncols + j];
            }
        }
    }
    CsrMatrix::from_dense(a.nrows, b.ncols, &dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::{er::erdos_renyi, grid::poisson2d, rmat::rmat, rmat::RmatParams};

    fn all_kinds() -> [AccumulatorKind; 4] {
        [
            AccumulatorKind::Hash,
            AccumulatorKind::Dense,
            AccumulatorKind::Sort,
            AccumulatorKind::Adaptive,
        ]
    }

    #[test]
    fn identity_times_identity() {
        let i = CsrMatrix::identity(5);
        let c = spgemm(&i, &i);
        assert!(c.approx_eq(&i, 1e-15));
    }

    #[test]
    fn matches_dense_reference_small() {
        let a = CsrMatrix::from_dense(3, 4, &[1., 0., 2., 0., 0., 3., 0., 1., 4., 0., 0., 5.]);
        let b = CsrMatrix::from_dense(4, 2, &[1., 2., 0., 1., 3., 0., 1., 1.]);
        let expect = dense_reference(&a, &b);
        for kind in all_kinds() {
            for parallel in [false, true] {
                let c = spgemm_with(
                    &a,
                    &b,
                    &SpGemmOptions { acc: kind, parallel, chunks_per_thread: 2 },
                );
                assert!(c.numerically_eq(&expect, 1e-12), "kind {kind:?} parallel {parallel}");
            }
        }
    }

    #[test]
    fn a_squared_poisson_all_accumulators_agree() {
        let a = poisson2d(12, 9);
        let reference = spgemm_serial(&a, &a);
        for kind in all_kinds() {
            for parallel in [false, true] {
                let c = spgemm_with(
                    &a,
                    &a,
                    &SpGemmOptions { acc: kind, parallel, chunks_per_thread: 4 },
                );
                assert!(c.approx_eq(&reference, 1e-10), "kind {kind:?} parallel {parallel}");
            }
        }
    }

    #[test]
    fn a_squared_matches_dense_on_random() {
        let a = erdos_renyi(40, 5, 77);
        let expect = dense_reference(&a, &a);
        let c = spgemm(&a, &a);
        assert!(c.numerically_eq(&expect, 1e-9));
    }

    #[test]
    fn rmat_squared_parallel_equals_serial() {
        let a = rmat(8, 6, RmatParams::default(), 5);
        let s = spgemm_serial(&a, &a);
        let p = spgemm(&a, &a);
        assert!(s.approx_eq(&p, 1e-10));
        s.validate().unwrap();
    }

    #[test]
    fn rectangular_product() {
        let a = erdos_renyi(30, 4, 1);
        let b = cw_sparse::gen::er::erdos_renyi_rect(30, 8, 3, 2);
        let c = spgemm(&a, &b);
        assert_eq!(c.nrows, 30);
        assert_eq!(c.ncols, 8);
        assert!(c.numerically_eq(&dense_reference(&a, &b), 1e-9));
    }

    #[test]
    fn empty_rows_and_matrices() {
        let z = CsrMatrix::zeros(4, 4);
        let c = spgemm(&z, &z);
        assert_eq!(c.nnz(), 0);
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm(&z, &i).nnz(), 0);
        assert_eq!(spgemm(&i, &z).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(3, 4);
        let _ = spgemm(&a, &b);
    }

    #[test]
    fn symbolic_matches_numeric() {
        let a = poisson2d(7, 7);
        let nnz = symbolic_row_nnz(&a, &a, AccumulatorKind::Hash);
        let c = spgemm_serial(&a, &a);
        let actual: Vec<usize> = (0..c.nrows).map(|i| c.row_nnz(i)).collect();
        assert_eq!(nnz, actual);
    }

    #[test]
    fn balanced_chunks_cover_all_rows() {
        let flops = vec![5u64, 0, 100, 3, 3, 3, 50, 0, 0, 1];
        let chunks = balanced_row_chunks(&flops, 4);
        assert_eq!(chunks.first().unwrap().0, 0);
        assert_eq!(chunks.last().unwrap().1, flops.len());
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
        }
        assert!(chunks.len() <= 5);
    }

    #[test]
    fn balanced_chunks_empty_input() {
        assert!(balanced_row_chunks(&[], 4).is_empty());
    }

    #[test]
    fn numeric_cancellation_keeps_explicit_zero() {
        // a row that produces +1 and -1 in the same output column: value 0,
        // but the entry stays (symbolic counts it) — matching C++ SpGEMM
        // behaviour where numeric zeros are not pruned.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)]]);
        let b = CsrMatrix::from_row_lists(1, vec![vec![(0, 1.0)], vec![(0, -1.0)]]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(0.0));
    }
}
