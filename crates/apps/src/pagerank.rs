//! Personalized PageRank as an SDDM linear system.
//!
//! The personalized PageRank vector with teleport probability `β` and
//! seed distribution `s` solves
//!
//! ```text
//!   (D − (1−β)·A) x = β·s,    π = D·x
//! ```
//!
//! (from the fixed point `π = β·s + (1−β)·AD⁻¹π` with `π = D·x`).
//!
//! The matrix `D − (1−β)A` is SDDM — diagonal `D`, off-diagonals
//! `−(1−β)w_e`, slack `β·d(v) > 0` — so the Gremban front-end
//! ([`parlap_core::sdd`]) solves it through a single grounded
//! Laplacian; the ground vertex *is* the teleport state. This turns
//! the local-clustering workhorse into one parlap solve, and the
//! power-iteration oracle in the tests certifies the answer.

use parlap_core::error::SolverError;
use parlap_core::sdd::{SddMatrix, SddSolver};
use parlap_core::solver::SolverOptions;
use parlap_graph::multigraph::MultiGraph;

/// Result of a personalized PageRank computation.
#[derive(Clone, Debug)]
pub struct PageRank {
    /// The PageRank distribution (nonnegative, sums to 1).
    pub scores: Vec<f64>,
    /// Outer iterations of the inner Laplacian solve.
    pub iterations: usize,
    /// Relative residual of the SDDM solve.
    pub relative_residual: f64,
}

/// A built personalized-PageRank engine (one factorization, many seed
/// vectors).
#[derive(Debug)]
pub struct PageRankSolver {
    solver: SddSolver,
    degrees: Vec<f64>,
    beta: f64,
    n: usize,
}

impl PageRankSolver {
    /// Factor `D − (1−β)A` for teleport probability `β ∈ (0, 1)`.
    pub fn build(g: &MultiGraph, beta: f64, options: SolverOptions) -> Result<Self, SolverError> {
        if !(0.0..1.0).contains(&beta) || beta == 0.0 {
            return Err(SolverError::InvalidOption(format!(
                "teleport probability must be in (0,1), got {beta}"
            )));
        }
        let n = g.num_vertices();
        if n == 0 {
            return Err(SolverError::EmptyGraph);
        }
        let degrees = g.weighted_degrees();
        if degrees.iter().any(|&d| d <= 0.0) {
            return Err(SolverError::InvalidOption(
                "PageRank needs every vertex to have positive degree".into(),
            ));
        }
        // Assemble M = D − (1−β)A as an SddMatrix: merge parallel
        // multi-edges into single off-diagonal entries.
        let mut merged: std::collections::HashMap<(u32, u32), f64> = Default::default();
        for e in g.edges() {
            let key = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
            *merged.entry(key).or_insert(0.0) += e.w;
        }
        let off: Vec<(u32, u32, f64)> =
            merged.into_iter().map(|((u, v), w)| (u, v, -(1.0 - beta) * w)).collect();
        let m = SddMatrix::from_triplets(n, degrees.clone(), &off)?;
        let solver = SddSolver::build(&m, options)?;
        Ok(PageRankSolver { solver, degrees, beta, n })
    }

    /// The teleport probability.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Personalized PageRank for a seed distribution given as
    /// `(vertex, mass)` pairs (masses must be positive; they are
    /// normalized internally).
    pub fn rank(&self, seeds: &[(u32, f64)], eps: f64) -> Result<PageRank, SolverError> {
        if seeds.is_empty() {
            return Err(SolverError::InvalidOption("need at least one seed".into()));
        }
        let mut s = vec![0.0f64; self.n];
        let mut total = 0.0;
        for &(v, mass) in seeds {
            if v as usize >= self.n {
                return Err(SolverError::InvalidOption(format!("seed {v} out of range")));
            }
            if !(mass > 0.0) {
                return Err(SolverError::InvalidOption(format!(
                    "seed mass must be positive, got {mass}"
                )));
            }
            s[v as usize] += mass;
            total += mass;
        }
        // RHS: β·s (the standard PPR linear system in the
        // degree-normalized variable x = D⁻¹π).
        let b: Vec<f64> = s.iter().map(|v| self.beta * v / total).collect();
        let out = self.solver.solve(&b, eps)?;
        // π ∝ D·x, renormalized to a distribution (and clamped: tiny
        // negative entries can appear at solver accuracy).
        let mut scores: Vec<f64> =
            out.solution.iter().zip(&self.degrees).map(|(x, d)| (x * d).max(0.0)).collect();
        let z: f64 = scores.iter().sum();
        if z > 0.0 {
            for v in scores.iter_mut() {
                *v /= z;
            }
        }
        Ok(PageRank {
            scores,
            iterations: out.iterations,
            relative_residual: out.relative_residual,
        })
    }

    /// Uniform-seed (global) PageRank.
    pub fn global(&self, eps: f64) -> Result<PageRank, SolverError> {
        let seeds: Vec<(u32, f64)> = (0..self.n as u32).map(|v| (v, 1.0)).collect();
        self.rank(&seeds, eps)
    }
}

/// Reference power iteration for the same walk: `π ← β·s + (1−β)·π P`
/// with `P = D⁻¹A` (row-stochastic), run to fixed-point tolerance.
/// Exponential-time-free oracle for tests and experiments.
pub fn pagerank_power_iteration(
    g: &MultiGraph,
    seeds: &[(u32, f64)],
    beta: f64,
    tol: f64,
    max_iter: usize,
) -> Vec<f64> {
    let n = g.num_vertices();
    let deg = g.weighted_degrees();
    let mut s = vec![0.0f64; n];
    let mut total = 0.0;
    for &(v, mass) in seeds {
        s[v as usize] += mass;
        total += mass;
    }
    for v in s.iter_mut() {
        *v /= total;
    }
    let mut pi = s.clone();
    for _ in 0..max_iter {
        // next = β s + (1−β) π P; (π P)_v = Σ_{e∋v} w_e π_u / d_u.
        let mut next = vec![0.0f64; n];
        for e in g.edges() {
            let (u, v) = (e.u as usize, e.v as usize);
            next[v] += (1.0 - beta) * e.w * pi[u] / deg[u];
            next[u] += (1.0 - beta) * e.w * pi[v] / deg[v];
        }
        for (nv, sv) in next.iter_mut().zip(&s) {
            *nv += beta * sv;
        }
        let delta: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
        pi = next;
        if delta < tol {
            break;
        }
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::multigraph::Edge;

    fn opts() -> SolverOptions {
        SolverOptions { seed: 13, ..SolverOptions::default() }
    }

    fn l1_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn matches_power_iteration_on_grid() {
        let g = generators::grid2d(8, 8);
        let pr = PageRankSolver::build(&g, 0.15, opts()).unwrap();
        let seeds = [(0u32, 1.0)];
        let fast = pr.rank(&seeds, 1e-10).unwrap();
        let slow = pagerank_power_iteration(&g, &seeds, 0.15, 1e-12, 100_000);
        assert!(
            l1_diff(&fast.scores, &slow) < 1e-6,
            "solver vs power iteration: {}",
            l1_diff(&fast.scores, &slow)
        );
    }

    #[test]
    fn matches_power_iteration_weighted() {
        let g = generators::randomize_weights(&generators::gnp_connected(50, 0.12, 7), 0.5, 3.0, 9);
        let pr = PageRankSolver::build(&g, 0.2, opts()).unwrap();
        let seeds = [(3u32, 2.0), (17u32, 1.0)];
        let fast = pr.rank(&seeds, 1e-10).unwrap();
        let slow = pagerank_power_iteration(&g, &seeds, 0.2, 1e-12, 100_000);
        assert!(l1_diff(&fast.scores, &slow) < 1e-6);
    }

    #[test]
    fn is_a_distribution() {
        let g = generators::preferential_attachment(200, 3, 5);
        let pr = PageRankSolver::build(&g, 0.15, opts()).unwrap();
        let out = pr.rank(&[(0, 1.0)], 1e-8).unwrap();
        let sum: f64 = out.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(out.scores.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn locality_of_personalized_scores() {
        // On a long path, PPR from one end decays with distance.
        let g = generators::path(40);
        let pr = PageRankSolver::build(&g, 0.3, opts()).unwrap();
        let out = pr.rank(&[(0, 1.0)], 1e-10).unwrap();
        for v in 1..40 {
            assert!(
                out.scores[v] < out.scores[v - 1] * 1.0001,
                "PPR must decay along the path at {v}"
            );
        }
        assert!(out.scores[0] > 10.0 * out.scores[39]);
    }

    #[test]
    fn global_pagerank_on_regular_graph_is_uniform() {
        // On a vertex-transitive graph, global PageRank is uniform.
        let g = generators::cycle(24);
        let pr = PageRankSolver::build(&g, 0.15, opts()).unwrap();
        let out = pr.global(1e-10).unwrap();
        for &v in &out.scores {
            assert!((v - 1.0 / 24.0).abs() < 1e-8, "uniform expected, got {v}");
        }
    }

    #[test]
    fn star_center_dominates() {
        let g = generators::star(21);
        let pr = PageRankSolver::build(&g, 0.15, opts()).unwrap();
        let out = pr.global(1e-10).unwrap();
        for v in 1..21 {
            assert!(out.scores[0] > out.scores[v], "center must rank highest");
        }
    }

    #[test]
    fn multi_edges_accumulate() {
        // Two parallel edges behave exactly like one of double weight.
        let g1 = MultiGraph::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)],
        );
        let g2 = MultiGraph::from_edges(3, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 1.0)]);
        let p1 = PageRankSolver::build(&g1, 0.2, opts()).unwrap().rank(&[(0, 1.0)], 1e-10).unwrap();
        let p2 = PageRankSolver::build(&g2, 0.2, opts()).unwrap().rank(&[(0, 1.0)], 1e-10).unwrap();
        assert!(l1_diff(&p1.scores, &p2.scores) < 1e-8);
    }

    #[test]
    fn input_validation() {
        let g = generators::path(4);
        assert!(PageRankSolver::build(&g, 0.0, opts()).is_err());
        assert!(PageRankSolver::build(&g, 1.0, opts()).is_err());
        let pr = PageRankSolver::build(&g, 0.5, opts()).unwrap();
        assert!(pr.rank(&[], 1e-8).is_err());
        assert!(pr.rank(&[(9, 1.0)], 1e-8).is_err());
        assert!(pr.rank(&[(0, -1.0)], 1e-8).is_err());
        let empty = MultiGraph::new(0);
        assert!(PageRankSolver::build(&empty, 0.5, opts()).is_err());
    }
}
