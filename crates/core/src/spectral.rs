//! Spectral graph utilities built on the solver: Fiedler vectors,
//! algebraic connectivity, and spectral bisection.
//!
//! Inverse power iteration with the parallel Laplacian solver as the
//! inner engine: each step multiplies by `L⁺` (one ε-solve), which
//! amplifies the eigencomponent of the smallest nonzero eigenvalue.
//! This is the textbook route from a fast solver to spectral
//! partitioning — the application pipeline the paper's introduction
//! gestures at via graph partitioning and learning.

use crate::error::SolverError;
use crate::solver::LaplacianSolver;
use parlap_graph::laplacian::LaplacianOp;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::{dot, norm2, project_out_ones, random_demand, scale};

/// Result of a Fiedler computation.
#[derive(Clone, Debug)]
pub struct FiedlerResult {
    /// Unit-norm Fiedler vector (second eigenvector of `L`).
    pub vector: Vec<f64>,
    /// Rayleigh-quotient estimate of `λ₂` (algebraic connectivity).
    pub lambda2: f64,
    /// Inverse-power iterations performed.
    pub iterations: usize,
}

/// Options for [`fiedler_vector`].
#[derive(Clone, Debug)]
pub struct FiedlerOptions {
    /// Accuracy of each inner solve.
    pub inner_eps: f64,
    /// Relative λ₂ change at which to stop.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Seed for the start vector.
    pub seed: u64,
}

impl Default for FiedlerOptions {
    fn default() -> Self {
        FiedlerOptions { inner_eps: 1e-8, tol: 1e-10, max_iter: 100, seed: 0xf1ed }
    }
}

/// Compute the Fiedler vector and algebraic connectivity of the
/// (connected) graph behind `solver`.
pub fn fiedler_vector(
    g: &MultiGraph,
    solver: &LaplacianSolver,
    opts: &FiedlerOptions,
) -> Result<FiedlerResult, SolverError> {
    let n = g.num_vertices();
    if n != solver.dim() {
        return Err(SolverError::DimensionMismatch { expected: solver.dim(), got: n });
    }
    if n < 2 {
        return Err(SolverError::InvalidOption("need at least 2 vertices".into()));
    }
    let lop = LaplacianOp::new(g);
    let mut x = random_demand(n, opts.seed);
    let nrm = norm2(&x);
    scale(1.0 / nrm, &mut x);
    let mut lambda2 = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..opts.max_iter {
        let out = solver.solve(&x, opts.inner_eps)?;
        x = out.solution;
        project_out_ones(&mut x);
        let nrm = norm2(&x);
        if nrm == 0.0 {
            return Err(SolverError::InvariantViolation("inverse power iterate vanished".into()));
        }
        scale(1.0 / nrm, &mut x);
        iterations += 1;
        let lx = lop.apply_vec(&x);
        let next = dot(&x, &lx);
        if (lambda2 - next).abs() <= opts.tol * next.abs() {
            lambda2 = next;
            break;
        }
        lambda2 = next;
    }
    Ok(FiedlerResult { vector: x, lambda2, iterations })
}

/// Spectral bisection: the sweep cut of the Fiedler vector at its
/// median. Returns the side-membership mask and the number of edges
/// crossing the cut.
pub fn spectral_bisection(
    g: &MultiGraph,
    solver: &LaplacianSolver,
    opts: &FiedlerOptions,
) -> Result<(Vec<bool>, usize), SolverError> {
    let fiedler = fiedler_vector(g, solver, opts)?;
    let n = g.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    // Stable sort (a unique, thread-count-independent permutation);
    // the comparator is NaN-intolerant.
    order.sort_by(|&a, &b| fiedler.vector[a].partial_cmp(&fiedler.vector[b]).expect("finite"));
    let mut side = vec![false; n];
    for &v in &order[..n / 2] {
        side[v] = true;
    }
    let crossing = g.edges().iter().filter(|e| side[e.u as usize] != side[e.v as usize]).count();
    Ok((side, crossing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverOptions;
    use parlap_graph::generators;

    fn build(g: &MultiGraph) -> LaplacianSolver {
        LaplacianSolver::build(g, SolverOptions::default()).expect("build")
    }

    #[test]
    fn cycle_lambda2_analytic() {
        // λ₂(C_n) = 2(1 − cos 2π/n).
        let n = 24;
        let g = generators::cycle(n);
        let solver = build(&g);
        let r = fiedler_vector(&g, &solver, &FiedlerOptions::default()).expect("fiedler");
        let expect = 2.0 * (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos());
        assert!((r.lambda2 - expect).abs() < 1e-6, "λ₂ = {} vs {expect}", r.lambda2);
    }

    #[test]
    fn complete_graph_lambda2_is_n() {
        let n = 20;
        let g = generators::complete(n);
        let solver = build(&g);
        let r = fiedler_vector(&g, &solver, &FiedlerOptions::default()).expect("fiedler");
        assert!((r.lambda2 - n as f64).abs() < 1e-5, "λ₂ = {}", r.lambda2);
    }

    #[test]
    fn barbell_bisection_finds_bridge() {
        let g = generators::barbell(25);
        let solver = build(&g);
        let (side, crossing) =
            spectral_bisection(&g, &solver, &FiedlerOptions::default()).expect("bisect");
        assert_eq!(crossing, 1, "must cut exactly the bridge");
        // Sides are the two cliques.
        let first: Vec<bool> = side[..25].to_vec();
        assert!(first.iter().all(|&s| s == first[0]));
        assert!(side[25..].iter().all(|&s| s != first[0]));
    }

    #[test]
    fn fiedler_vector_orthogonal_to_ones() {
        let g = generators::gnp_connected(150, 0.05, 3);
        let solver = build(&g);
        let r = fiedler_vector(&g, &solver, &FiedlerOptions::default()).expect("fiedler");
        let mean: f64 = r.vector.iter().sum::<f64>() / 150.0;
        assert!(mean.abs() < 1e-9);
        assert!((norm2(&r.vector) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_mismatched_solver() {
        let g = generators::path(5);
        let other = generators::path(7);
        let solver = build(&other);
        assert!(matches!(
            fiedler_vector(&g, &solver, &FiedlerOptions::default()).unwrap_err(),
            SolverError::DimensionMismatch { .. }
        ));
    }
}
