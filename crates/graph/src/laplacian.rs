//! Laplacian operators of multigraphs.
//!
//! `L = D - A` applied three ways:
//!
//! * [`to_csr`] — CSR materialization: the solver's system matrix
//!   (the outer loop's matvec, and the finest level of a multigrid
//!   built on the input), also used by the CG/PCG baselines. It is
//!   assembled once per build, in `O(n + m)` straight from the
//!   incidence lists;
//! * [`LaplacianOp`] — matrix-free matvec straight off the edge list
//!   (`O(m)` work, `O(log m)` depth via the gather formulation), used
//!   by the Fiedler iteration in `parlap_core::spectral`, the
//!   experiments, examples and tests;
//! * [`to_dense`] — dense materialization for the small base case and
//!   test oracles.

use crate::multigraph::MultiGraph;
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::dense::DenseMatrix;
use parlap_linalg::op::LinOp;
use parlap_primitives::scan::exclusive_scan;
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// Matrix-free Laplacian matvec for a multigraph.
///
/// Holds the incidence CSR so each application is a per-vertex gather:
/// `y_u = Σ_{e=(u,v)} w(e)·(x_u − x_v)`, vertices in parallel — the
/// "O(m) work, O(log m) depth" application the paper relies on
/// (Theorem 3.10 proof).
pub struct LaplacianOp<'g> {
    graph: &'g MultiGraph,
    inc: crate::multigraph::Incidence,
}

impl<'g> LaplacianOp<'g> {
    /// Build the operator (constructs the incidence structure).
    pub fn new(graph: &'g MultiGraph) -> Self {
        LaplacianOp { graph, inc: graph.incidence() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &MultiGraph {
        self.graph
    }
}

impl LinOp for LaplacianOp<'_> {
    fn dim(&self) -> usize {
        self.graph.num_vertices()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let edges = self.graph.edges();
        let kernel = |(u, yu): (usize, &mut f64)| {
            let mut acc = 0.0;
            for &ei in self.inc.edges_at(u) {
                let e = &edges[ei as usize];
                let v = e.other(u as u32) as usize;
                acc += e.w * (x[u] - x[v]);
            }
            *yu = acc;
        };
        if y.len() < PAR_CUTOFF {
            y.iter_mut().enumerate().for_each(kernel);
        } else {
            y.par_iter_mut().enumerate().for_each(kernel);
        }
    }
}

/// CSR Laplacian of a multigraph, parallel edges merged: the solver's
/// system matrix, assembled once per build.
///
/// Linear time, with no triplet array and no sort. The assembly walks
/// the incidence lists with `v = 0..n` ascending and appends each edge
/// at `v` to the row of its other endpoint `u` as `(v, −w)`, so every
/// row comes out in column order. Parallel `u`–`v` edges arrive next to
/// each other and are summed in edge order. Row `v`'s diagonal is
/// placed at `v`'s own turn: its weighted degree, summed over
/// [`Incidence::edges_at`](crate::multigraph::Incidence::edges_at)`(v)`
/// in edge order. A vertex with no edges keeps an empty row. Every
/// entry is therefore the in-order sum that
/// [`CsrMatrix::from_triplets`] makes of the four triplets
/// `(u,u,w), (v,v,w), (u,v,−w), (v,u,−w)` per edge. One count pass
/// sizes the rows exactly and one fill pass writes them: `O(n + m)`.
pub fn to_csr(g: &MultiGraph) -> CsrMatrix {
    let n = g.num_vertices();
    let edges = g.edges();
    let inc = g.incidence();
    // Count pass: distinct columns per row. `last[u]` is the column
    // most recently appended to row u.
    let mut counts = vec![0usize; n];
    let mut last = vec![u32::MAX; n];
    for v in 0..n {
        let at = inc.edges_at(v);
        counts[v] += usize::from(!at.is_empty());
        for &ei in at {
            let u = edges[ei as usize].other(v as u32) as usize;
            if last[u] != v as u32 {
                last[u] = v as u32;
                counts[u] += 1;
            }
        }
    }
    let row_ptr = exclusive_scan(&counts);
    // Fill pass: `cursor[u]` is the next free slot of row u; a repeat
    // of column v in row u is the entry just before it.
    let mut cursor = counts;
    cursor.copy_from_slice(&row_ptr[..n]);
    let mut col_idx = vec![0u32; row_ptr[n]];
    let mut values = vec![0.0f64; row_ptr[n]];
    for v in 0..n {
        let at = inc.edges_at(v);
        if !at.is_empty() {
            col_idx[cursor[v]] = v as u32;
            values[cursor[v]] = at.iter().fold(0.0, |deg, &ei| deg + edges[ei as usize].w);
            cursor[v] += 1;
        }
        for &ei in at {
            let e = &edges[ei as usize];
            let u = e.other(v as u32) as usize;
            let k = cursor[u];
            if k > row_ptr[u] && col_idx[k - 1] == v as u32 {
                values[k - 1] -= e.w;
            } else {
                col_idx[k] = v as u32;
                values[k] = -e.w;
                cursor[u] = k + 1;
            }
        }
    }
    CsrMatrix::from_parts(n, row_ptr, col_idx, values)
}

/// Dense Laplacian (tests and the ≤100-vertex base case only).
pub fn to_dense(g: &MultiGraph) -> DenseMatrix {
    let n = g.num_vertices();
    let mut l = DenseMatrix::zeros(n);
    for e in g.edges() {
        let (u, v) = (e.u as usize, e.v as usize);
        l.add(u, u, e.w);
        l.add(v, v, e.w);
        l.add(u, v, -e.w);
        l.add(v, u, -e.w);
    }
    l
}

/// Exact effective resistance between `u` and `v` via the dense
/// pseudoinverse: `R(u,v) = b_uvᵀ L⁺ b_uv`. Test oracle for the
/// α-boundedness (leverage score) claims; `O(n³)`.
pub fn effective_resistance_dense(g: &MultiGraph, u: usize, v: usize) -> f64 {
    let l = to_dense(g);
    let pinv = l.pseudoinverse(1e-12);
    pinv.get(u, u) + pinv.get(v, v) - pinv.get(u, v) - pinv.get(v, u)
}

/// All leverage scores `τ(e) = w(e)·R(e.u, e.v)` via the dense
/// pseudoinverse. Test oracle; `O(n³ + m)`.
pub fn leverage_scores_dense(g: &MultiGraph) -> Vec<f64> {
    let l = to_dense(g);
    let pinv = l.pseudoinverse(1e-12);
    g.edges()
        .iter()
        .map(|e| {
            let (u, v) = (e.u as usize, e.v as usize);
            let r = pinv.get(u, u) + pinv.get(v, v) - 2.0 * pinv.get(u, v);
            e.w * r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::Edge;

    fn triangle() -> MultiGraph {
        MultiGraph::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(0, 2, 3.0)],
        )
    }

    #[test]
    fn operator_matches_dense() {
        let g = triangle();
        let op = LaplacianOp::new(&g);
        let dense = to_dense(&g);
        for x in [[1.0, 0.0, 0.0], [0.5, -1.0, 2.0], [1.0, 1.0, 1.0]] {
            let y1 = op.apply_vec(&x);
            let y2 = dense.apply_vec(&x);
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn csr_matches_dense() {
        let g = triangle();
        let csr = to_csr(&g);
        let dense = to_dense(&g);
        let x = [2.0, -3.0, 1.0];
        let y1 = csr.apply_vec(&x);
        let y2 = dense.apply_vec(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_is_ones() {
        let g = triangle();
        let op = LaplacianOp::new(&g);
        let y = op.apply_vec(&[5.0, 5.0, 5.0]);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn row_sums_zero_dense() {
        let g = triangle();
        let l = to_dense(&g);
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| l.get(i, j)).sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn multi_edges_merge_in_matrices() {
        let g = MultiGraph::from_edges(2, vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0)]);
        let l = to_dense(&g);
        assert_eq!(l.get(0, 0), 3.0);
        assert_eq!(l.get(0, 1), -3.0);
        let c = to_csr(&g);
        assert_eq!(c.apply_vec(&[1.0, 0.0]), vec![3.0, -3.0]);
    }

    #[test]
    fn effective_resistance_series_parallel() {
        // Two unit resistors in series: R(0,2) = 2.
        let path = MultiGraph::from_edges(3, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)]);
        assert!((effective_resistance_dense(&path, 0, 2) - 2.0).abs() < 1e-9);
        // Two unit resistors in parallel: R(0,1) = 1/2.
        let par = MultiGraph::from_edges(2, vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 1.0)]);
        assert!((effective_resistance_dense(&par, 0, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn leverage_scores_tree_are_one() {
        // Every edge of a tree has leverage score exactly 1.
        let path = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 0.5), Edge::new(2, 3, 7.0)],
        );
        for tau in leverage_scores_dense(&path) {
            assert!((tau - 1.0).abs() < 1e-9, "tau={tau}");
        }
    }

    #[test]
    fn leverage_scores_sum_to_n_minus_one() {
        // Σ τ(e) = n - 1 for connected graphs (trace identity).
        let g = triangle();
        let sum: f64 = leverage_scores_dense(&g).iter().sum();
        assert!((sum - 2.0).abs() < 1e-9, "sum={sum}");
    }
}
