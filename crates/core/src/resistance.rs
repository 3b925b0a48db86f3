//! Effective-resistance oracle: `O(log n)` solver calls at build time,
//! `O(log n)` per query.
//!
//! The Spielman–Srivastava sketch that powers the paper's Section 6
//! leverage estimation, exposed as a user-facing API (the same object
//! that \[DGGP19\] maintains dynamically): after preprocessing,
//! `R_eff(u, v) ≈ ‖Q(e_u − e_v)‖²` for a `O(log n) × n` matrix `Q`
//! whose rows are Laplacian solves against random signed edge sums.
//! Johnson–Lindenstrauss gives `(1±ε)` accuracy w.h.p. with
//! `O(ε⁻² log n)` rows.

use crate::error::SolverError;
use crate::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_graph::multigraph::MultiGraph;
use parlap_primitives::prng::StreamRng;

/// Options for [`ResistanceOracle::build`].
#[derive(Clone, Debug)]
pub struct ResistanceOptions {
    /// Sketch rows = `rows_per_log · ⌈log₂ n⌉`; more rows tighten the
    /// JL distortion (`ε ≈ c/√rows`).
    pub rows_per_log: usize,
    /// Accuracy of the inner Laplacian solves.
    pub inner_eps: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for ResistanceOptions {
    fn default() -> Self {
        ResistanceOptions { rows_per_log: 6, inner_eps: 1e-6, seed: 0x4eff }
    }
}

/// A built sketch answering effective-resistance queries.
#[derive(Debug)]
pub struct ResistanceOracle {
    /// Row vectors `y_r = L⁺ Bᵀ W^{1/2} ξ_r`, each of length `n`.
    rows: Vec<Vec<f64>>,
    n: usize,
}

impl ResistanceOracle {
    /// Preprocess `g` with `O(log n)` Laplacian solves on one solver
    /// build, run one after another (each solve is parallel inside).
    pub fn build(g: &MultiGraph, opts: &ResistanceOptions) -> Result<Self, SolverError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(SolverError::EmptyGraph);
        }
        if opts.rows_per_log == 0 {
            return Err(SolverError::InvalidOption("rows_per_log must be ≥ 1".into()));
        }
        let rows_count = opts.rows_per_log * ((n.max(2) as f64).log2().ceil() as usize);
        // The sketch needs only loose solves, so they stop on the cheap
        // relative residual rather than the certified `‖·‖_L` bound.
        let solver = LaplacianSolver::build(
            g,
            SolverOptions {
                seed: opts.seed,
                outer: OuterMethod::PcgResidual,
                ..SolverOptions::default()
            },
        )?;
        let mut rows = Vec::with_capacity(rows_count);
        for r in 0..rows_count {
            let mut rng = StreamRng::new(opts.seed, 0x726f_7773 + r as u64);
            // z = Bᵀ W^{1/2} ξ over the edges of g.
            let mut z = vec![0.0; n];
            for e in g.edges() {
                let xi = rng.next_sign() * e.w.sqrt();
                z[e.u as usize] += xi;
                z[e.v as usize] -= xi;
            }
            let y = solver.solve(&z, opts.inner_eps)?.solution;
            rows.push(y);
        }
        Ok(ResistanceOracle { rows, n })
    }

    /// Number of sketch rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Estimated effective resistance between `u` and `v`.
    ///
    /// # Panics
    /// Panics if `u` or `v` are out of range.
    pub fn query(&self, u: usize, v: usize) -> f64 {
        assert!(u < self.n && v < self.n, "query ({u},{v}) out of range");
        if u == v {
            return 0.0;
        }
        let k = self.rows.len() as f64;
        self.rows
            .iter()
            .map(|y| {
                let d = y[u] - y[v];
                d * d
            })
            .sum::<f64>()
            / k
    }

    /// Estimated leverage score of an edge `(u, v, w)`.
    pub fn leverage(&self, u: usize, v: usize, w: f64) -> f64 {
        w * self.query(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::effective_resistance_dense;

    #[test]
    fn matches_dense_oracle_on_random_graph() {
        let g = generators::gnp_connected(60, 0.15, 3);
        let oracle = ResistanceOracle::build(
            &g,
            &ResistanceOptions { rows_per_log: 16, ..Default::default() },
        )
        .expect("build");
        // Spot-check a handful of pairs.
        for &(u, v) in &[(0usize, 1usize), (5, 40), (10, 59), (20, 21)] {
            let exact = effective_resistance_dense(&g, u, v);
            let est = oracle.query(u, v);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.35, "({u},{v}): est {est} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn tree_edges_have_inverse_weight_resistance() {
        use parlap_graph::multigraph::Edge;
        let g = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 4.0), Edge::new(2, 3, 0.5)],
        );
        let oracle = ResistanceOracle::build(
            &g,
            &ResistanceOptions { rows_per_log: 24, ..Default::default() },
        )
        .expect("build");
        assert!((oracle.query(0, 1) - 0.5).abs() < 0.15);
        assert!((oracle.query(1, 2) - 0.25).abs() < 0.1);
        assert!((oracle.query(2, 3) - 2.0).abs() < 0.5);
        // Series composition along the path.
        let r03 = oracle.query(0, 3);
        assert!((r03 - 2.75).abs() < 0.7, "R(0,3) = {r03}");
    }

    #[test]
    fn query_is_symmetric_and_zero_on_diagonal() {
        let g = generators::grid2d(6, 6);
        let oracle = ResistanceOracle::build(&g, &ResistanceOptions::default()).expect("build");
        assert_eq!(oracle.query(3, 3), 0.0);
        assert_eq!(oracle.query(2, 7), oracle.query(7, 2));
    }

    #[test]
    fn triangle_inequality_statistically() {
        // Effective resistance is a metric (Lemma 5.3); JL noise is
        // multiplicative so the inequality survives with slack.
        let g = generators::gnp_connected(40, 0.2, 9);
        let oracle = ResistanceOracle::build(
            &g,
            &ResistanceOptions { rows_per_log: 16, ..Default::default() },
        )
        .expect("build");
        let mut violations = 0;
        let mut total = 0;
        for u in (0..40).step_by(5) {
            for v in (1..40).step_by(7) {
                for z in (2..40).step_by(11) {
                    if u != v && v != z && u != z {
                        total += 1;
                        if oracle.query(u, z) > 1.3 * (oracle.query(u, v) + oracle.query(v, z)) {
                            violations += 1;
                        }
                    }
                }
            }
        }
        assert!(violations * 20 < total, "{violations}/{total} triangle violations");
    }

    #[test]
    fn more_rows_reduce_error() {
        let g = generators::grid2d(7, 7);
        let exact = effective_resistance_dense(&g, 0, 48);
        let mut errs = Vec::new();
        for rpl in [2usize, 32] {
            let oracle = ResistanceOracle::build(
                &g,
                &ResistanceOptions { rows_per_log: rpl, seed: 11, ..Default::default() },
            )
            .expect("build");
            errs.push((oracle.query(0, 48) - exact).abs() / exact);
        }
        assert!(errs[1] < errs[0] + 0.02, "errors {errs:?}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(
            ResistanceOracle::build(&MultiGraph::new(0), &ResistanceOptions::default()).is_err()
        );
        let g = generators::path(4);
        let bad = ResistanceOptions { rows_per_log: 0, ..Default::default() };
        assert!(ResistanceOracle::build(&g, &bad).is_err());
    }
}
