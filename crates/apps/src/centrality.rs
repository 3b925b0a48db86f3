//! Current-flow (electrical) centrality measures.
//!
//! Two solver-powered centralities:
//!
//! * **Current-flow closeness** (information centrality): for vertex
//!   `v`, `c(v) = (n−1) / Σ_u R_eff(v, u)`. Using
//!   `R(u,v) = L⁺_uu + L⁺_vv − 2L⁺_uv` and `L⁺𝟙 = 0`,
//!   `Σ_u R(v, u) = n·L⁺_vv + tr(L⁺)`, so the whole vector needs only
//!   `diag(L⁺)` — estimated with a Hutchinson sketch of `O(log n)`
//!   Laplacian solves, the same trick behind the paper's Section 6
//!   leverage estimation.
//! * **Spanning-edge centrality**: the probability an edge appears in
//!   a uniform random spanning tree, `w(e)·R_eff(e)` — leverage
//!   scores again, served by [`ResistanceOracle`].

use parlap_core::error::SolverError;
use parlap_core::resistance::{ResistanceOptions, ResistanceOracle};
use parlap_core::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_graph::multigraph::MultiGraph;
use parlap_primitives::prng::StreamRng;

/// Options for [`current_flow_closeness`].
#[derive(Clone, Debug)]
pub struct ClosenessOptions {
    /// Hutchinson probes (each is one Laplacian solve); the diagonal
    /// estimate has relative error `≈ c/√probes`.
    pub probes: usize,
    /// Accuracy of each inner solve.
    pub inner_eps: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for ClosenessOptions {
    fn default() -> Self {
        ClosenessOptions { probes: 96, inner_eps: 1e-8, seed: 0xcf }
    }
}

/// Per-vertex current-flow closeness scores.
#[derive(Clone, Debug)]
pub struct Closeness {
    /// `c(v) = (n−1)/(n·diag(L⁺)_v + tr(L⁺))`, higher = more central.
    pub scores: Vec<f64>,
    /// The estimated `diag(L⁺)` (useful on its own: `L⁺_vv` is the
    /// mean commute-time contribution of `v`).
    pub pinv_diag: Vec<f64>,
}

/// Estimate `diag(L⁺)` by Hutchinson probing: for mean-zero random
/// signs `z`, `E[z ⊙ L⁺z] = diag(L⁺)` (after projecting `z ⊥ 𝟙`).
pub fn pseudoinverse_diagonal(
    g: &MultiGraph,
    opts: &ClosenessOptions,
) -> Result<Vec<f64>, SolverError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(SolverError::EmptyGraph);
    }
    if opts.probes == 0 {
        return Err(SolverError::InvalidOption("need ≥ 1 probe".into()));
    }
    // Loose probe solves: stop on the cheap relative residual rather
    // than the certified `‖·‖_L` bound.
    let solver = LaplacianSolver::build(
        g,
        SolverOptions {
            seed: opts.seed,
            outer: OuterMethod::PcgResidual,
            ..SolverOptions::default()
        },
    )?;
    let mut acc = vec![0.0f64; n];
    for p in 0..opts.probes {
        let mut rng = StreamRng::new(opts.seed, 0xd1a6 + p as u64);
        let mut z: Vec<f64> = (0..n).map(|_| rng.next_sign()).collect();
        parlap_linalg::vector::project_out_ones(&mut z);
        let y = solver.solve(&z, opts.inner_eps)?.solution;
        for ((a, zi), yi) in acc.iter_mut().zip(&z).zip(&y) {
            *a += zi * yi;
        }
    }
    // Projection bias: E[z zᵀ] = I − 𝟙𝟙ᵀ/n after projection, so
    // E[z ⊙ L⁺z] = diag(L⁺(I − 𝟙𝟙ᵀ/n)) = diag(L⁺) exactly (L⁺𝟙 = 0).
    Ok(acc.into_iter().map(|a| a / opts.probes as f64).collect())
}

/// Current-flow closeness of every vertex.
pub fn current_flow_closeness(
    g: &MultiGraph,
    opts: &ClosenessOptions,
) -> Result<Closeness, SolverError> {
    let n = g.num_vertices();
    let pinv_diag = pseudoinverse_diagonal(g, opts)?;
    let trace: f64 = pinv_diag.iter().sum();
    let scores = pinv_diag
        .iter()
        .map(|&d| (n as f64 - 1.0) / (n as f64 * d + trace).max(f64::MIN_POSITIVE))
        .collect();
    Ok(Closeness { scores, pinv_diag })
}

/// Spanning-edge centrality (= leverage scores `w_e R_eff(e)`) for
/// every edge, via the JL resistance sketch.
pub fn spanning_edge_centrality(
    g: &MultiGraph,
    opts: &ResistanceOptions,
) -> Result<Vec<f64>, SolverError> {
    let oracle = ResistanceOracle::build(g, opts)?;
    Ok(g.edges()
        .iter()
        .map(|e| oracle.leverage(e.u as usize, e.v as usize, e.w).clamp(0.0, 1.0))
        .collect())
}

/// Exact dense reference for the closeness scores (cubic; tests).
pub fn current_flow_closeness_dense(g: &MultiGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let l = parlap_graph::laplacian::to_dense(g);
    let pinv = l.pseudoinverse(1e-12);
    let trace: f64 = (0..n).map(|i| pinv.get(i, i)).sum();
    (0..n).map(|v| (n as f64 - 1.0) / (n as f64 * pinv.get(v, v) + trace)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;

    #[test]
    fn diag_estimate_matches_dense() {
        let g = generators::gnp_connected(30, 0.2, 7);
        let opts = ClosenessOptions { probes: 600, inner_eps: 1e-10, ..Default::default() };
        let est = pseudoinverse_diagonal(&g, &opts).unwrap();
        let pinv = parlap_graph::laplacian::to_dense(&g).pseudoinverse(1e-12);
        for (v, &d) in est.iter().enumerate() {
            let want = pinv.get(v, v);
            assert!((d - want).abs() < 0.15 * want.max(0.02), "diag[{v}] = {d} vs {want}");
        }
    }

    #[test]
    fn closeness_ranks_star_center_first() {
        let g = generators::star(15);
        let opts = ClosenessOptions { probes: 500, inner_eps: 1e-9, ..Default::default() };
        let c = current_flow_closeness(&g, &opts).unwrap();
        for v in 1..15 {
            assert!(c.scores[0] > c.scores[v], "center must be most central");
        }
        // Leaves are symmetric: scores equal up to Hutchinson noise
        // (~1/√probes per entry).
        for v in 2..15 {
            assert!(
                (c.scores[v] - c.scores[1]).abs() < 0.12 * c.scores[1],
                "leaf {v}: {} vs {}",
                c.scores[v],
                c.scores[1]
            );
        }
    }

    #[test]
    fn closeness_matches_dense_ranking() {
        let g = generators::randomize_weights(&generators::grid2d(5, 6), 0.5, 2.0, 3);
        let fast = current_flow_closeness(
            &g,
            &ClosenessOptions { probes: 800, inner_eps: 1e-10, ..Default::default() },
        )
        .unwrap();
        let exact = current_flow_closeness_dense(&g);
        for (v, (&a, &b)) in fast.scores.iter().zip(&exact).enumerate() {
            assert!((a - b).abs() < 0.1 * b, "closeness[{v}] = {a} vs {b}");
        }
    }

    #[test]
    fn path_midpoint_most_central() {
        let g = generators::path(11);
        let exact = current_flow_closeness_dense(&g);
        let best = exact.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(best, 5, "path midpoint is the most central vertex");
    }

    #[test]
    fn spanning_edge_centrality_sums_to_n_minus_one() {
        // Foster's theorem: Σ_e w_e R_e = n − 1.
        let g = generators::gnp_connected(40, 0.15, 5);
        let sec = spanning_edge_centrality(
            &g,
            &ResistanceOptions { rows_per_log: 24, inner_eps: 1e-8, seed: 3 },
        )
        .unwrap();
        let total: f64 = sec.iter().sum();
        assert!((total - 39.0).abs() < 0.15 * 39.0, "Foster total {total} vs n−1 = 39");
    }

    #[test]
    fn bridge_edge_has_full_centrality() {
        // A bridge is in every spanning tree: centrality 1.
        let g = generators::barbell(6);
        let sec = spanning_edge_centrality(
            &g,
            &ResistanceOptions { rows_per_log: 40, inner_eps: 1e-9, seed: 9 },
        )
        .unwrap();
        // barbell(6): two K6 joined by one bridge; find it as the max.
        let max = sec.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.9, "bridge centrality {max} must be ≈ 1");
    }

    #[test]
    fn input_validation() {
        let empty = MultiGraph::new(0);
        assert!(pseudoinverse_diagonal(&empty, &ClosenessOptions::default()).is_err());
        let g = generators::path(4);
        let opts = ClosenessOptions { probes: 0, ..Default::default() };
        assert!(pseudoinverse_diagonal(&g, &opts).is_err());
    }
}
