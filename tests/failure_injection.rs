//! Failure-injection suite: every public entry point must reject
//! malformed input with a structured [`SolverError`] (never a panic,
//! never a wrong answer) and recover cleanly from degenerate but
//! legal inputs.

use parlap::prelude::*;
use parlap_apps::centrality::{pseudoinverse_diagonal, ClosenessOptions};
use parlap_apps::diffusion::{HeatSolver, Scheme};
use parlap_apps::electrical::ElectricalSolver;
use parlap_apps::pagerank::PageRankSolver;
use parlap_core::sdd::SddMatrix;
use parlap_core::solver::{OuterMethod, SparsifyMode};
use parlap_graph::multigraph::{Edge, MultiGraph};

fn connected_pair() -> MultiGraph {
    MultiGraph::from_edges(2, vec![Edge::new(0, 1, 1.0)])
}

#[test]
fn solver_rejects_empty_and_disconnected() {
    assert!(matches!(
        LaplacianSolver::build(&MultiGraph::new(0), SolverOptions::default()),
        Err(SolverError::EmptyGraph)
    ));
    let two = MultiGraph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
    assert!(matches!(
        LaplacianSolver::build(&two, SolverOptions::default()),
        Err(SolverError::Disconnected { components: 2 })
    ));
    // An isolated vertex is also a component.
    let iso = MultiGraph::from_edges(3, vec![Edge::new(0, 1, 1.0)]);
    assert!(matches!(
        LaplacianSolver::build(&iso, SolverOptions::default()),
        Err(SolverError::Disconnected { components: 2 })
    ));
}

#[test]
fn solver_rejects_bad_rhs() {
    let solver = LaplacianSolver::build(&connected_pair(), SolverOptions::default()).unwrap();
    assert!(matches!(
        solver.solve(&[1.0], 1e-6),
        Err(SolverError::DimensionMismatch { expected: 2, got: 1 })
    ));
    assert!(solver.solve(&[f64::NAN, 0.0], 1e-6).is_err());
    assert!(solver.solve(&[f64::INFINITY, 0.0], 1e-6).is_err());
}

#[test]
fn solver_rejects_bad_options() {
    use parlap_core::alpha::SplitStrategy;
    let g = connected_pair();
    // A split with a parameter out of range fails the build the same
    // way on either backend (multigrid ignores the split), before a
    // non-finite value reaches a copy count or an assert.
    let bad_splits = [
        SplitStrategy::Fixed(0),
        SplitStrategy::LogSquared { c: 0.0 },
        SplitStrategy::LogSquared { c: -1.0 },
        SplitStrategy::LogSquared { c: f64::NAN },
        SplitStrategy::LogSquared { c: f64::INFINITY },
        SplitStrategy::LeverageScore { k: 0, alpha_inv: 4.0 },
        SplitStrategy::LeverageScore { k: 8, alpha_inv: 0.5 },
        SplitStrategy::LeverageScore { k: 8, alpha_inv: f64::NAN },
        SplitStrategy::LeverageScore { k: 8, alpha_inv: f64::INFINITY },
    ];
    for backend in [BackendKind::Chain, BackendKind::Multigrid] {
        for split in &bad_splits {
            let opts = SolverOptions { split: split.clone(), backend, ..SolverOptions::default() };
            assert!(
                matches!(LaplacianSolver::build(&g, opts), Err(SolverError::InvalidOption(_))),
                "{backend:?}: {split:?} must be rejected"
            );
        }
    }
    // δ sets the certified stop's margin ½e^{−δ} and Richardson's step:
    // one that is not finite and positive is rejected at build, on
    // either backend, before it can loosen a stop or spin a solve.
    for backend in [BackendKind::Chain, BackendKind::Multigrid] {
        for delta in [-3.0, 0.0, f64::NAN, f64::INFINITY] {
            let opts = SolverOptions { delta, backend, ..SolverOptions::default() };
            assert!(
                matches!(LaplacianSolver::build(&g, opts), Err(SolverError::InvalidOption(_))),
                "{backend:?}: delta = {delta} must be rejected"
            );
        }
    }
    // The 5DDSubset candidate fraction must lie in (0, 1]. Only the
    // chain reads it, but a bad one fails either backend's build.
    for backend in [BackendKind::Chain, BackendKind::Multigrid] {
        for sample_fraction in [0.0, -0.5, 1.5, f64::NAN] {
            let opts = SolverOptions { sample_fraction, backend, ..SolverOptions::default() };
            assert!(
                matches!(LaplacianSolver::build(&g, opts), Err(SolverError::InvalidOption(_))),
                "{backend:?}: sample_fraction = {sample_fraction} must be rejected"
            );
        }
    }
}

#[test]
fn degenerate_graphs_still_solve() {
    // Single edge, two vertices.
    let solver = LaplacianSolver::build(&connected_pair(), SolverOptions::default()).unwrap();
    let out = solver.solve(&[1.0, -1.0], 1e-10).unwrap();
    // x = L⁺b with L = [[1,-1],[-1,1]]: potential drop of 1.
    assert!((out.solution[0] - out.solution[1] - 1.0).abs() < 1e-8);

    // Heavy parallel multi-edges.
    let multi = MultiGraph::from_edges(2, (0..50).map(|_| Edge::new(0, 1, 0.02)).collect());
    let solver = LaplacianSolver::build(&multi, SolverOptions::default()).unwrap();
    let out = solver.solve(&[1.0, -1.0], 1e-10).unwrap();
    assert!((out.solution[0] - out.solution[1] - 1.0).abs() < 1e-8);

    // The same multi-edges through the sparsify stage: its sample
    // budget (16 at n = 2) is below m = 50, so the backend is built on
    // a one-edge sparsifier while the outer loop runs on all 50 edges.
    let opts = SolverOptions { sparsify: SparsifyMode::On, ..SolverOptions::default() };
    let solver = LaplacianSolver::build(&multi, opts).unwrap();
    assert!(solver.sparsify_stage().is_some(), "the stage must engage at m = 50 > q");
    let out = solver.solve(&[1.0, -1.0], 1e-10).unwrap();
    assert!((out.solution[0] - out.solution[1] - 1.0).abs() < 1e-8);

    // Star (every walk hits the hub immediately).
    let star = generators::star(50);
    let solver = LaplacianSolver::build(&star, SolverOptions::default()).unwrap();
    let b = parlap_linalg::vector::random_demand(50, 3);
    let out = solver.solve(&b, 1e-8).unwrap();
    assert!(solver.relative_error(&b, &out.solution) < 1e-7);
}

#[test]
fn extreme_weight_ratios_survive() {
    // 8 orders of magnitude within one graph. (The base is an exact
    // grounded-Cholesky pseudoinverse with no eigenvalue cut-off, so
    // only f64 rounding, about κ·1e-16, limits it; 1e8 leaves ample
    // room and must work.) The 2-norm residual is the right metric
    // only under PCG, which converges on it directly.
    let mut edges = Vec::new();
    for i in 0..30u32 {
        let w = 10f64.powi((i as i32 % 9) - 4);
        edges.push(Edge::new(i, i + 1, w));
    }
    let g = MultiGraph::from_edges(31, edges);
    let opts = SolverOptions { outer: OuterMethod::Pcg, ..SolverOptions::default() };
    let solver = LaplacianSolver::build(&g, opts).unwrap();
    let b = parlap_linalg::vector::pair_demand(31, 0, 30);
    let out = solver.solve(&b, 1e-8).unwrap();
    assert!(out.relative_residual < 1e-7, "residual {}", out.relative_residual);
    // Exact check on the path: the 0→30 potential drop is the series
    // resistance Σ 1/w.
    let r: f64 = g.edges().iter().map(|e| 1.0 / e.w).sum();
    let drop = out.solution[0] - out.solution[30];
    assert!((drop - r).abs() < 1e-5 * r, "drop {drop} vs R {r}");
}

#[test]
fn overflowing_weights_fail_at_build() {
    // Each weight is finite, but the two parallel edges sum past
    // f64::MAX, so the dense base Laplacian holds ±∞. The grounded
    // Cholesky base rejects it: both backends refuse to build rather
    // than serve a base that can meet no ε.
    let g = MultiGraph::from_edges(
        3,
        vec![Edge::new(0, 1, 1e308), Edge::new(0, 1, 1e308), Edge::new(1, 2, 1.0)],
    );
    for backend in [BackendKind::Chain, BackendKind::Multigrid] {
        let opts = SolverOptions { backend, ..SolverOptions::default() };
        let err = LaplacianSolver::build(&g, opts).expect_err("overflowed base must not build");
        assert!(matches!(err, SolverError::InvariantViolation(_)), "{backend:?}: {err}");
        assert!(err.to_string().contains("grounded Cholesky"), "{err}");
    }
}

#[test]
fn multigraph_construction_panics_are_clean() {
    use std::panic::catch_unwind;
    assert!(catch_unwind(|| MultiGraph::from_edges(2, vec![Edge::new(0, 0, 1.0)])).is_err());
    assert!(catch_unwind(|| MultiGraph::from_edges(2, vec![Edge::new(0, 5, 1.0)])).is_err());
    assert!(catch_unwind(|| MultiGraph::from_edges(2, vec![Edge::new(0, 1, -1.0)])).is_err());
    assert!(catch_unwind(|| MultiGraph::from_edges(2, vec![Edge::new(0, 1, 0.0)])).is_err());
    assert!(catch_unwind(|| MultiGraph::from_edges(2, vec![Edge::new(0, 1, f64::NAN)])).is_err());
}

#[test]
fn sdd_front_end_rejections() {
    // Non-symmetric-intent duplicates, range violations, non-SDD rows.
    assert!(SddMatrix::from_triplets(2, vec![1.0], &[]).is_err()); // diag len
    assert!(SddMatrix::from_triplets(2, vec![f64::NAN, 1.0], &[]).is_err());
    assert!(SddMatrix::from_triplets(2, vec![1.0, 1.0], &[(0, 1, f64::INFINITY)]).is_err());
    assert!(SddMatrix::from_triplets(3, vec![1.0; 3], &[(0, 1, -0.9), (1, 2, -0.9)]).is_err());
}

#[test]
fn apps_reject_malformed_setups() {
    let g = generators::path(5);

    // Electrical: unbalanced demand, bad terminals.
    let es = ElectricalSolver::build(&g, SolverOptions::default()).unwrap();
    assert!(es.flow(&[1.0, 0.0, 0.0, 0.0, 0.0], 1e-8).is_err());
    assert!(es.st_flow(2, 2, 1e-8).is_err());

    // PageRank: β out of range, empty seeds.
    assert!(PageRankSolver::build(&g, 2.0, SolverOptions::default()).is_err());
    let pr = PageRankSolver::build(&g, 0.3, SolverOptions::default()).unwrap();
    assert!(pr.rank(&[], 1e-8).is_err());

    // Diffusion: non-positive dt, wrong state size.
    assert!(HeatSolver::build(&g, -0.5, Scheme::CrankNicolson, SolverOptions::default()).is_err());
    let hs = HeatSolver::build(&g, 0.1, Scheme::BackwardEuler, SolverOptions::default()).unwrap();
    assert!(hs.evolve(&[0.0; 3], 1, 1e-8).is_err());

    // Centrality: zero probes.
    assert!(
        pseudoinverse_diagonal(&g, &ClosenessOptions { probes: 0, ..Default::default() }).is_err()
    );

    // Labels: class without a seed.
    assert!(propagate_labels(&g, &[(0, 0)], 3, 1e-8, 100).is_err());

    // Spanning trees on disconnected input.
    let two = MultiGraph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
    assert!(wilson_ust(&two, 1).is_err());

    // Sparsify: zero samples.
    assert!(sparsify(&g, 0, &SparsifyOptions::default()).is_err());

    // Max-flow: eps ≥ 1/2 rejected.
    let opts = MaxFlowOptions { eps: 0.5, ..MaxFlowOptions::default() };
    assert!(ElectricalMaxFlow::new(&g, 0, 4, opts).is_err());
}

#[test]
fn errors_format_usefully() {
    // Every error Display must be non-empty and name the problem.
    let errs: Vec<SolverError> = vec![
        SolverError::EmptyGraph,
        SolverError::Disconnected { components: 3 },
        SolverError::DimensionMismatch { expected: 5, got: 2 },
        SolverError::Diverged { at_iteration: 7, growth: 2.5 },
        SolverError::InvalidOption("x".into()),
        SolverError::InvariantViolation("y".into()),
    ];
    for e in errs {
        let msg = e.to_string();
        assert!(!msg.is_empty());
    }
    // And they are std errors usable with `?` into Box<dyn Error>.
    fn takes_std_error(_: &dyn std::error::Error) {}
    takes_std_error(&SolverError::EmptyGraph);
}

#[test]
fn approx_schur_and_resistance_reject_bad_terminals() {
    let g = generators::grid2d(4, 4);
    // ApproxSchur: empty C rejected; C = V is legal and must return
    // the graph unchanged (SC(L, V) = L).
    let opts = ApproxSchurOptions::default();
    assert!(approx_schur(&g, &[], &opts).is_err());
    let all: Vec<u32> = (0..16).collect();
    let full = approx_schur(&g, &all, &opts).expect("C = V is the identity reduction");
    assert_eq!(full.graph.num_vertices(), 16);

    // Resistance oracle: zero rows rejected.
    let r = ResistanceOptions { rows_per_log: 0, ..Default::default() };
    assert!(ResistanceOracle::build(&g, &r).is_err());
}
