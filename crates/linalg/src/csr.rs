//! Compressed sparse row matrices with parallel matvec.
//!
//! The solver's outer loop, every multigrid level and the CG/PCG
//! baselines apply a classic CSR matvec: `O(nnz)` work, `O(log n)`
//! depth (each row reduces its entries, rows in parallel). A matrix
//! comes from a triplet list ([`CsrMatrix::from_triplets`]) or from
//! arrays a linear-time assembler has already laid out row by row
//! ([`CsrMatrix::from_parts`]).
//!
//! Determinism: the parallel split is across *rows*, and each row's
//! accumulator is folded sequentially in column order on whichever
//! worker owns the row. Every output element is therefore a pure
//! function of its own row — bit-identical for any thread count,
//! the same policy as `parlap_primitives::reduce`.

use crate::op::LinOp;
use parlap_primitives::scan::exclusive_scan;
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// A square sparse matrix in CSR form.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets; duplicate coordinates are
    /// summed.
    ///
    /// **Sum order.** Each merged entry is the sum of its triplets'
    /// values in input order, starting from the first: a counting sort
    /// groups the triplets by row and a stable sort orders each row by
    /// column, so neither reorders the repeats of one coordinate. The
    /// linear-time assemblers (`parlap_graph::laplacian::to_csr`, the
    /// multigrid's Galerkin product) follow the same rule, and their
    /// tests compare against this constructor bit for bit.
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < n && (c as usize) < n,
                "triplet ({r},{c}) out of bounds for n={n}"
            );
        }
        // Count entries per row, scan for offsets, scatter.
        let mut counts = vec![0usize; n];
        for &(r, _, _) in triplets {
            counts[r as usize] += 1;
        }
        let mut row_ptr = exclusive_scan(&counts);
        let mut cursor = row_ptr.clone();
        let mut entries = vec![(0u32, 0.0f64); triplets.len()];
        for &(r, c, v) in triplets {
            entries[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }
        // Sort each row by column and merge duplicates, compacting in
        // place: the merged row starts at `len`, never past its input.
        let mut len = 0usize;
        for r in 0..n {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            entries[lo..hi].sort_by_key(|&(c, _)| c);
            row_ptr[r] = len;
            for i in lo..hi {
                let (c, v) = entries[i];
                if len > row_ptr[r] && entries[len - 1].0 == c {
                    entries[len - 1].1 += v;
                } else {
                    entries[len] = (c, v);
                    len += 1;
                }
            }
        }
        row_ptr[n] = len;
        entries.truncate(len);
        let (col_idx, values) = entries.into_iter().unzip();
        CsrMatrix { n, row_ptr, col_idx, values }
    }

    /// Wrap CSR arrays assembled elsewhere: `row_ptr` holds `n + 1`
    /// offsets into `col_idx` and `values`, and each row lists distinct
    /// columns below `n` in increasing order.
    ///
    /// # Panics
    /// Panics if the arrays break that layout.
    pub fn from_parts(n: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>, values: Vec<f64>) -> Self {
        assert!(
            row_ptr.len() == n + 1
                && row_ptr[0] == 0
                && row_ptr[n] == col_idx.len()
                && col_idx.len() == values.len(),
            "CSR arrays do not describe an {n}-row matrix"
        );
        for r in 0..n {
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            assert!(
                cols.windows(2).all(|p| p[0] < p[1])
                    && cols.last().is_none_or(|&c| (c as usize) < n),
                "CSR row {r} is not strictly increasing below {n}"
            );
        }
        CsrMatrix { n, row_ptr, col_idx, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over the stored entries of row `r` as `(col, value)`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Convert to a dense matrix (tests / small oracles only).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.n);
        for r in 0..self.n {
            for (c, v) in self.row(r) {
                d.add(r, c as usize, v);
            }
        }
        d
    }
}

impl LinOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Each row product is the 8-lane fold of its row, a pure
        // function of the row.
        let kernel = |(i, yi): (usize, &mut f64)| {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *yi = parlap_primitives::kernels::dot_gather(
                &self.values[lo..hi],
                &self.col_idx[lo..hi],
                x,
            );
        };
        if self.n < PAR_CUTOFF {
            y.iter_mut().enumerate().for_each(kernel);
        } else {
            y.par_iter_mut().enumerate().for_each(kernel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_build_and_apply() {
        // [[2, -1], [-1, 2]]
        let m =
            CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.apply_vec(&[1.0, 0.0]), vec![2.0, -1.0]);
        assert_eq!(m.apply_vec(&[1.0, 1.0]), vec![1.0, 1.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.apply_vec(&[0.0, 1.0]), vec![3.0, 1.0]);
    }

    /// Repeats of one coordinate are summed in input order, even in a
    /// row of 64 triplets, long enough for an unstable sort to reorder
    /// equal columns.
    #[test]
    fn repeats_are_summed_in_input_order() {
        let triplets: Vec<(u32, u32, f64)> =
            (0..64u32).map(|i| (0, (i * 3) % 8, 1.0 / f64::from(i + 3))).collect();
        let mut want = [None::<f64>; 8];
        for &(_, c, v) in &triplets {
            let sum = &mut want[c as usize];
            *sum = Some(sum.map_or(v, |s| s + v));
        }
        let m = CsrMatrix::from_triplets(8, &triplets);
        let got: Vec<(u32, f64)> = m.row(0).collect();
        assert_eq!(got.len(), 8);
        for (c, v) in got {
            assert_eq!(v.to_bits(), want[c as usize].expect("column").to_bits(), "column {c}");
        }
    }

    #[test]
    fn from_parts_keeps_the_arrays() {
        let m = CsrMatrix::from_parts(2, vec![0, 2, 3], vec![0, 1, 1], vec![2.0, -1.0, 1.0]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 2.0), (1, -1.0)]);
        assert_eq!(m.apply_vec(&[1.0, 1.0]), vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn from_parts_rejects_an_unsorted_row() {
        CsrMatrix::from_parts(2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_rows_ok() {
        let m = CsrMatrix::from_triplets(3, &[(2, 0, 5.0)]);
        assert_eq!(m.apply_vec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn rows_sorted_by_column() {
        let m = CsrMatrix::from_triplets(1, &[(0, 0, 1.0)]);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0u32, 1.0)]);
        let m = CsrMatrix::from_triplets(3, &[(0, 2, 3.0), (0, 0, 1.0), (0, 1, 2.0)]);
        let cols: Vec<u32> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn to_dense_matches() {
        let m = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (1, 0, -1.0)]);
        let d = m.to_dense();
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 0), -1.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        CsrMatrix::from_triplets(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn large_parallel_matvec_matches_sequential() {
        // Tridiagonal matrix larger than the parallel cutoff.
        let n = PAR_CUTOFF + 100;
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 2.0));
            if i + 1 < n as u32 {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let m = CsrMatrix::from_triplets(n, &t);
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y = m.apply_vec(&x);
        for i in 1..n - 1 {
            let expect = 2.0 * x[i] - x[i - 1] - x[i + 1];
            assert!((y[i] - expect).abs() < 1e-12, "row {i}");
        }
    }
}
