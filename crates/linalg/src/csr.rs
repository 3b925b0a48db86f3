//! Compressed sparse row matrices with parallel matvec.
//!
//! The solver's hot loops apply Laplacians straight from edge lists,
//! but the CG/PCG baselines and the experiment harness want a classic
//! CSR matvec: `O(nnz)` work, `O(log n)` depth (each row reduces its
//! entries, rows in parallel).
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
    /// summed. `O(nnz)` work using a counting sort on rows.
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
        let row_ptr = exclusive_scan(&counts);
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let slot = cursor[r as usize];
            col_idx[slot] = c;
            values[slot] = v;
            cursor[r as usize] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut merged_cols: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut merged_vals: Vec<Vec<f64>> = Vec::with_capacity(n);
        for r in 0..n {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            let mut row: Vec<(u32, f64)> =
                col_idx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()).collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut cols = Vec::with_capacity(row.len());
            let mut vals: Vec<f64> = Vec::with_capacity(row.len());
            for (c, v) in row {
                if cols.last() == Some(&c) {
                    *vals.last_mut().expect("nonempty") += v;
                } else {
                    cols.push(c);
                    vals.push(v);
                }
            }
            merged_cols.push(cols);
            merged_vals.push(vals);
        }
        let counts: Vec<usize> = merged_cols.iter().map(Vec::len).collect();
        let row_ptr = exclusive_scan(&counts);
        CsrMatrix { n, row_ptr, col_idx: merged_cols.concat(), values: merged_vals.concat() }
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
