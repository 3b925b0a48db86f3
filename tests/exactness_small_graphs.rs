//! Small-graph exactness: the randomized solver against the dense
//! pseudoinverse oracle on graphs whose `L⁺` we can also verify by
//! closed form (path and star effective resistances), plus the exact
//! Schur-complement routine as an independent cross-check.
//!
//! Tolerance note. `LaplacianSolver::solve(b, eps)` guarantees the
//! paper's Theorem 1.1 bound in the energy norm:
//! `‖x̃ − L⁺b‖_L ≤ eps · ‖L⁺b‖_L`. Converting to the ℓ2 norm costs a
//! factor `sqrt(λ_max / λ_2)`: for a path P_n, `λ_2 = 2(1 − cos(π/n))`
//! (≈ 0.057 at n = 13) and `λ_max < 4`, so the conversion factor is
//! under 9; for a star it is O(1). Solving at `eps = 1e-10` therefore
//! bounds the ℓ2 error of the mean-centered solutions well below the
//! `1e-7` asserted here; `1e-7` rather than `1e-9` leaves slack for
//! the oracle's own Jacobi-eigensolver error in `pseudoinverse`.

use parlap::prelude::*;
use parlap_graph::laplacian::to_dense;
use parlap_graph::schur::schur_complement_dense;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector;

/// Solve `Lx = b` both ways and return the ℓ2 distance between the
/// mean-centered solutions (both representatives of the same coset of
/// span{1}).
fn solver_vs_pinv_gap(g: &parlap_graph::MultiGraph, b: &[f64], seed: u64) -> f64 {
    solver_vs_pinv_gap_with(g, b, SolverOptions { seed, ..SolverOptions::default() })
}

fn solver_vs_pinv_gap_with(g: &parlap_graph::MultiGraph, b: &[f64], options: SolverOptions) -> f64 {
    let solver = LaplacianSolver::build(g, options).expect("build");
    let mut ours = solver.solve(b, 1e-10).expect("solve").solution;
    let mut exact = to_dense(g).pseudoinverse(1e-13).apply_vec(b);
    vector::project_out_ones(&mut ours);
    vector::project_out_ones(&mut exact);
    ours.iter().zip(&exact).map(|(a, e)| (a - e) * (a - e)).sum::<f64>().sqrt()
}

/// Effective resistance read off the dense pseudoinverse.
fn eff_res(pinv: &parlap_linalg::DenseMatrix, u: usize, v: usize) -> f64 {
    pinv.get(u, u) + pinv.get(v, v) - 2.0 * pinv.get(u, v)
}

#[test]
fn path_solver_matches_dense_pseudoinverse() {
    let n = 13;
    let g = generators::path(n);
    // A zero-sum demand: inject at one end, extract at the other.
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    b[n - 1] = -1.0;
    let gap = solver_vs_pinv_gap(&g, &b, 0xa11ce);
    assert!(gap < 1e-7, "path P_{n}: ‖x̃ − L⁺b‖₂ = {gap:e}");

    // And a rougher demand exercising interior vertices.
    let b2: Vec<f64> = (0..n).map(|i| (i as f64) - (n as f64 - 1.0) / 2.0).collect();
    let gap2 = solver_vs_pinv_gap(&g, &b2, 0xa11cf);
    assert!(gap2 < 1e-7, "path P_{n} ramp demand: gap = {gap2:e}");
}

#[test]
fn star_solver_matches_dense_pseudoinverse() {
    let n = 12;
    let g = generators::star(n);
    // Leaf-to-leaf unit flow.
    let mut b = vec![0.0; n];
    b[1] = 1.0;
    b[n - 1] = -1.0;
    let gap = solver_vs_pinv_gap(&g, &b, 0x57a2);
    assert!(gap < 1e-7, "star S_{n}: ‖x̃ − L⁺b‖₂ = {gap:e}");
}

#[test]
fn pinv_oracle_matches_closed_forms() {
    // The oracle itself must agree with textbook effective
    // resistances: R(u,v) = |u − v| on a unit path, R(leaf, leaf) = 2
    // and R(center, leaf) = 1 on a unit star.
    let n = 9;
    let path_pinv = to_dense(&generators::path(n)).pseudoinverse(1e-13);
    for u in 0..n {
        for v in 0..n {
            let want = (u as f64 - v as f64).abs();
            let got = eff_res(&path_pinv, u, v);
            assert!((got - want).abs() < 1e-9, "path R({u},{v}) = {got} want {want}");
        }
    }
    let star_pinv = to_dense(&generators::star(n)).pseudoinverse(1e-13);
    for leaf in 1..n {
        let center = eff_res(&star_pinv, 0, leaf);
        assert!((center - 1.0).abs() < 1e-9, "star R(0,{leaf}) = {center} want 1");
        for other in (leaf + 1)..n {
            let ll = eff_res(&star_pinv, leaf, other);
            assert!((ll - 2.0).abs() < 1e-9, "star R({leaf},{other}) = {ll} want 2");
        }
    }
}

#[test]
fn schur_oracle_agrees_with_pinv_resistance() {
    // Independent route to the same number: the exact Schur complement
    // onto a vertex pair {u, v} is c·[[1,-1],[-1,1]] where
    // c = 1 / R(u,v). Check it against the pseudoinverse on the path.
    let n = 10;
    let g = generators::path(n);
    let pinv = to_dense(&g).pseudoinverse(1e-13);
    for (u, v) in [(0u32, 9u32), (2, 7), (4, 5)] {
        let sc = schur_complement_dense(&g, &[u, v]);
        let c = sc.get(0, 0);
        assert!((sc.get(0, 1) + c).abs() < 1e-9, "Schur block must be a Laplacian");
        assert!((sc.get(1, 1) - c).abs() < 1e-9, "Schur block must be symmetric");
        let r = eff_res(&pinv, u as usize, v as usize);
        assert!(
            (c - 1.0 / r).abs() < 1e-9 * (1.0 / r),
            "Schur conductance {c} vs 1/R({u},{v}) = {}",
            1.0 / r
        );
    }
}

/// The multigrid backend drives the same certified f64 outer loop, so
/// its solutions must meet the identical `1e-7` oracle bar — both in
/// the dense-pinv regime (n ≤ base_size, one exact coarse solve) and
/// above it, where real V-cycles do the work.
#[test]
fn multigrid_backend_meets_oracle_gaps() {
    for g in [generators::path(13), generators::grid2d(6, 6), generators::grid2d(14, 14)] {
        let n = g.num_vertices();
        let b = parlap_linalg::vector::random_demand(n, 0x316);
        let options = SolverOptions {
            seed: 0x316,
            backend: BackendKind::Multigrid,
            ..SolverOptions::default()
        };
        let gap = solver_vs_pinv_gap_with(&g, &b, options);
        assert!(gap < 1e-7, "multigrid on n={n}: ‖x̃ − L⁺b‖₂ = {gap:e}");
    }
}

/// The sparsify stage only replaces the *preconditioner's* input: the
/// outer loop still iterates on the original Laplacian, so a solve
/// with the stage engaged must meet the same `1e-7` dense-pinv bar as
/// every other configuration — the ε-guarantee is against `L_G`, not
/// against the sparsifier. K_200 is dense enough to engage the stage
/// (m = 19 900 exceeds the ε = 0.6 sample budget) while its
/// pseudoinverse is still cheap to take densely.
#[test]
fn sparsified_solve_matches_dense_pseudoinverse() {
    use parlap_core::solver::SparsifyMode;
    let g = generators::complete(200);
    let options =
        SolverOptions { seed: 0x51, sparsify: SparsifyMode::On, ..SolverOptions::default() };
    let solver = LaplacianSolver::build(&g, options.clone()).expect("build");
    let stage = solver.sparsify_stage().expect("stage must engage on K_200");
    assert!(stage.edges_after() < stage.edges_before, "backend input must shrink");
    let b = parlap_linalg::vector::random_demand(200, 0x51);
    let gap = solver_vs_pinv_gap_with(&g, &b, options);
    assert!(gap < 1e-7, "sparsified solve on K_200: ‖x̃ − L⁺b‖₂ = {gap:e}");
}
