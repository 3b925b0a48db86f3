//! Galerkin coarsening `A_c = Pᵀ A P` for piecewise-constant `P`.
//!
//! With unsmoothed aggregation, `P` is the 0/1 matrix `P[i, agg(i)] =
//! 1`, so the triple product collapses to relabeling every stored
//! entry by its aggregate pair and summing duplicates:
//! `(A_c)_{jk} = Σ_{agg(r)=j, agg(c)=k} A_{rc}`. [`galerkin_coarse`]
//! forms each coarse row from its children's fine rows in one `O(nnz)`
//! pass, with no triplet array.
//!
//! `A_c` stays a Laplacian: row sums are preserved under relabeling
//! (each fine row contributes its whole, zero-sum row to one coarse
//! row), symmetry is preserved (`r↔c` relabels symmetrically), and the
//! coarse kernel is again the constant vector since `P·1_c = 1_f`.

use parlap_linalg::csr::CsrMatrix;
use parlap_primitives::scan::exclusive_scan;

/// Children lists per coarse vertex as a CSR `(ptr, children)`: a
/// counting sort over the fine→coarse map `agg_of`, so each coarse
/// vertex lists its fine children in increasing fine order.
pub fn children_csr(agg_of: &[u32], nc: usize) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; nc];
    for &a in agg_of {
        counts[a as usize] += 1;
    }
    let ptr = exclusive_scan(&counts);
    let mut cursor = ptr.clone();
    let mut children = vec![0u32; agg_of.len()];
    for (i, &a) in agg_of.iter().enumerate() {
        children[cursor[a as usize]] = i as u32;
        cursor[a as usize] += 1;
    }
    (ptr, children)
}

/// Form the coarse Laplacian from a fine one, the fine→coarse map
/// `agg_of` and its [`children_csr`] `(ptr, children)`.
///
/// Coarse row `j` folds its children's rows, in increasing fine order
/// and each row in column order, into a slot-indexed row buffer, then
/// orders the row's distinct coarse columns. Each entry is thus the sum
/// of its fine entries in the order `r = 0..n`, columns ascending —
/// the order in which [`CsrMatrix::from_triplets`] would sum the
/// relabeled triplets `(agg(r), agg(c), A_rc)`.
pub fn galerkin_coarse(
    a: &CsrMatrix,
    agg_of: &[u32],
    ptr: &[usize],
    children: &[u32],
) -> CsrMatrix {
    let nc = ptr.len() - 1;
    let mut row_ptr = Vec::with_capacity(nc + 1);
    row_ptr.push(0);
    let mut col_idx: Vec<u32> = Vec::with_capacity(a.nnz());
    let mut values: Vec<f64> = Vec::with_capacity(a.nnz());
    // The coarse row being formed, distinct columns in order of first
    // occurrence; `slot[k]` is column k's index in it when k is there.
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut slot = vec![0usize; nc];
    for j in 0..nc {
        row.clear();
        for &i in &children[ptr[j]..ptr[j + 1]] {
            for (c, v) in a.row(i as usize) {
                let k = agg_of[c as usize];
                match row.get_mut(slot[k as usize]) {
                    Some(entry) if entry.0 == k => entry.1 += v,
                    _ => {
                        slot[k as usize] = row.len();
                        row.push((k, v));
                    }
                }
            }
        }
        row.sort_unstable_by_key(|&(k, _)| k);
        col_idx.extend(row.iter().map(|&(k, _)| k));
        values.extend(row.iter().map(|&(_, v)| v));
        row_ptr.push(col_idx.len());
    }
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
    CsrMatrix::from_parts(nc, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::super::aggregate::{aggregate, Aggregation};
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_csr;
    use parlap_linalg::op::LinOp;

    fn coarse(a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
        let (ptr, children) = children_csr(&agg.agg_of, agg.num_aggregates);
        galerkin_coarse(a, &agg.agg_of, &ptr, &children)
    }

    /// The reference product: every fine entry relabeled to a coarse
    /// triplet, rows in fine order, merged by `from_triplets`.
    fn triplet_reference(a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(a.nnz());
        for r in 0..a.dim() {
            let cr = agg.agg_of[r];
            for (c, v) in a.row(r) {
                triplets.push((cr, agg.agg_of[c as usize], v));
            }
        }
        CsrMatrix::from_triplets(agg.num_aggregates, &triplets)
    }

    /// Every stored entry as `(row, col, bits)`.
    fn entries(m: &CsrMatrix) -> Vec<(usize, u32, u64)> {
        (0..m.dim()).flat_map(|r| m.row(r).map(move |(c, v)| (r, c, v.to_bits()))).collect()
    }

    /// The row-wise product equals the triplet reference bit for bit at
    /// every level of the aggregation, on unit and weighted graphs,
    /// and on a star whose hub row is far longer than an insertion sort.
    #[test]
    fn matches_triplet_reference_at_every_level() {
        let grid = generators::grid2d(24, 24);
        let graphs = [
            ("grid", grid.clone()),
            ("weighted grid", generators::exponential_weights(&grid, 1e4, 3)),
            (
                "gnp",
                generators::randomize_weights(
                    &generators::gnp_connected(300, 0.03, 5),
                    0.1,
                    10.0,
                    6,
                ),
            ),
            ("star", generators::randomize_weights(&generators::star(300), 0.1, 10.0, 7)),
        ];
        for (name, g) in &graphs {
            let mut a = to_csr(g);
            let mut level = 0;
            while a.dim() > 1 {
                let agg = aggregate(&a);
                let ac = coarse(&a, &agg);
                assert_eq!(
                    entries(&ac),
                    entries(&triplet_reference(&a, &agg)),
                    "{name} level {level}"
                );
                if ac.dim() == a.dim() {
                    break;
                }
                a = ac;
                level += 1;
            }
            assert!(level >= 2, "{name}: only {level} levels checked");
        }
    }

    #[test]
    fn coarse_matrix_is_a_laplacian() {
        let a = to_csr(&generators::gnp_connected(200, 0.03, 3));
        let agg = aggregate(&a);
        let ac = coarse(&a, &agg);
        assert_eq!(ac.dim(), agg.num_aggregates);
        let d = ac.to_dense();
        let n = ac.dim();
        for i in 0..n {
            // Zero row sums (Laplacian kernel = constants).
            let sum: f64 = (0..n).map(|j| d.get(i, j)).sum();
            assert!(sum.abs() < 1e-9, "row {i} sum {sum}");
            for j in 0..n {
                assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12, "symmetry at ({i},{j})");
                if i != j {
                    assert!(d.get(i, j) <= 1e-12, "offdiag must be ≤ 0");
                }
            }
        }
    }

    #[test]
    fn matches_dense_triple_product() {
        let a = to_csr(&generators::grid2d(6, 6));
        let agg = aggregate(&a);
        let ac = coarse(&a, &agg);
        // Dense P^T A P oracle.
        let ad = a.to_dense();
        let (n, nc) = (a.dim(), agg.num_aggregates);
        let mut oracle = parlap_linalg::dense::DenseMatrix::zeros(nc);
        for r in 0..n {
            for c in 0..n {
                let v = ad.get(r, c);
                if v != 0.0 {
                    let (j, k) = (agg.agg_of[r] as usize, agg.agg_of[c] as usize);
                    oracle.set(j, k, oracle.get(j, k) + v);
                }
            }
        }
        let got = ac.to_dense();
        for j in 0..nc {
            for k in 0..nc {
                assert!((got.get(j, k) - oracle.get(j, k)).abs() < 1e-12, "({j},{k})");
            }
        }
    }

    #[test]
    fn coarse_diagonal_positive_when_connected() {
        let a = to_csr(&generators::torus2d(10, 10));
        let agg = aggregate(&a);
        let ac = coarse(&a, &agg);
        for j in 0..ac.dim() {
            let diag = ac.row(j).find(|&(c, _)| c as usize == j).map_or(0.0, |(_, v)| v);
            assert!(diag > 0.0, "coarse vertex {j} has no cut weight");
        }
    }
}
