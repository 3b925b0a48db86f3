//! End-to-end integration tests: the full pipeline (split → chain →
//! apply → Richardson/PCG) against the paper's Theorem 1.1 guarantee,
//! across graph families, seeds, accuracies, and thread counts.

use parlap::prelude::*;
use parlap_primitives::util::with_threads;

fn families(scale: usize) -> Vec<(&'static str, MultiGraph)> {
    vec![
        ("grid2d", generators::grid2d(scale, scale)),
        ("grid3d", generators::grid3d(scale / 3, scale / 3, scale / 3)),
        ("torus", generators::torus2d(scale, scale)),
        ("gnp", generators::gnp_connected(scale * scale, 4.0 / (scale * scale) as f64, 7)),
        ("pref_attach", generators::preferential_attachment(scale * scale, 3, 9)),
        ("random_regular", generators::random_regular(scale * scale, 4, 11)),
        (
            "weighted_grid",
            generators::exponential_weights(&generators::grid2d(scale, scale), 1e3, 13),
        ),
    ]
}

#[test]
fn theorem_1_1_error_guarantee_across_families() {
    for (name, g) in families(18) {
        let solver = LaplacianSolver::build(&g, SolverOptions { seed: 5, ..Default::default() })
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let b = vector::random_demand(g.num_vertices(), 17);
        for eps in [1e-2, 1e-5] {
            let out = solver.solve(&b, eps).unwrap_or_else(|e| panic!("{name}: {e}"));
            let err = solver.relative_error(&b, &out.solution);
            assert!(
                err <= eps,
                "{name} eps={eps}: measured L-norm error {err} (fallback={})",
                out.used_fallback
            );
        }
    }
}

#[test]
fn multiple_rhs_reuse_one_chain() {
    let g = generators::grid2d(25, 25);
    let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
    for seed in 0..6 {
        let b = vector::random_demand(625, 100 + seed);
        let out = solver.solve(&b, 1e-7).expect("solve");
        assert!(solver.relative_error(&b, &out.solution) <= 1e-7);
    }
}

#[test]
fn identical_results_across_thread_counts() {
    // The counter-based RNG must make build + solve bit-identical
    // regardless of rayon parallelism.
    let run = |threads: usize| {
        with_threads(threads, || {
            let g = generators::gnp_connected(800, 0.008, 3);
            let solver =
                LaplacianSolver::build(&g, SolverOptions { seed: 99, ..Default::default() })
                    .expect("build");
            let b = vector::random_demand(800, 5);
            solver.solve(&b, 1e-8).expect("solve").solution
        })
    };
    let x1 = run(1);
    let x4 = run(4);
    assert_eq!(x1, x4, "solutions must be bit-identical across thread counts");
}

#[test]
fn agrees_with_cg_and_ks16() {
    use parlap_graph::laplacian::to_csr;
    let g = generators::gnp_connected(700, 0.01, 21);
    let b = vector::random_demand(700, 23);
    let ours = {
        let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
        solver.solve(&b, 1e-10).expect("solve").solution
    };
    let cg = cg_solve(&to_csr(&g), &b, 1e-12, 100_000).solution;
    let ks = Ks16Solver::build(&g, Ks16Options::default())
        .expect("ks16")
        .solve(&b, 1e-12, 10_000)
        .solution;
    let rel = |a: &[f64], b: &[f64]| {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
        num / den
    };
    assert!(rel(&ours, &cg) < 1e-6, "parlap vs CG: {}", rel(&ours, &cg));
    assert!(rel(&ks, &cg) < 1e-6, "ks16 vs CG: {}", rel(&ks, &cg));
}

#[test]
fn pcg_and_richardson_agree() {
    let g = generators::torus2d(18, 18);
    let b = vector::random_demand(324, 2);
    let rich = LaplacianSolver::build(
        &g,
        SolverOptions { seed: 4, outer: OuterMethod::Richardson, ..Default::default() },
    )
    .expect("build")
    .solve(&b, 1e-10)
    .expect("solve");
    let pcg = LaplacianSolver::build(
        &g,
        SolverOptions { seed: 4, outer: OuterMethod::Pcg, ..Default::default() },
    )
    .expect("build")
    .solve(&b, 1e-10)
    .expect("solve");
    let diff: f64 =
        rich.solution.iter().zip(&pcg.solution).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let nrm: f64 = rich.solution.iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!(diff / nrm < 1e-7, "methods disagree: {}", diff / nrm);
}

#[test]
fn divergence_fallback_still_meets_tolerance() {
    // Deliberately under-split so the chain quality is outside the
    // Richardson δ=1 envelope on a nasty weighted instance; the PCG
    // fallback must still deliver.
    let g = generators::exponential_weights(&generators::grid2d(22, 22), 1e4, 31);
    let o = SolverOptions {
        split: SplitStrategy::None,
        seed: 1,
        outer: OuterMethod::Richardson,
        ..Default::default()
    };
    let solver = LaplacianSolver::build(&g, o).expect("build");
    let b = vector::random_demand(484, 3);
    let out = solver.solve(&b, 1e-8).expect("solve (with fallback if needed)");
    assert!(out.relative_residual <= 1e-7);
}

#[test]
fn tiny_graphs_all_sizes() {
    for n in 2..=12 {
        let g = generators::path(n);
        let solver = LaplacianSolver::build(&g, SolverOptions::default())
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        let b = vector::pair_demand(n, 0, n - 1);
        let out = solver.solve(&b, 1e-10).expect("solve");
        // Path of unit resistors: potential drop n−1 end to end.
        let drop = out.solution[0] - out.solution[n - 1];
        assert!((drop - (n as f64 - 1.0)).abs() < 1e-7, "n={n}: end-to-end drop {drop}");
    }
}

#[test]
fn inconsistent_rhs_is_projected() {
    // b with a kernel component: the solver answers the projected
    // system (the standard convention for singular consistent systems).
    let g = generators::cycle(30);
    let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
    let mut b = vector::random_demand(30, 9);
    for x in b.iter_mut() {
        *x += 5.0; // add a constant (kernel) component
    }
    let out = solver.solve(&b, 1e-8).expect("solve");
    let mut b_proj = b.clone();
    vector::project_out_ones(&mut b_proj);
    let out2 = solver.solve(&b_proj, 1e-8).expect("solve");
    for (a, b) in out.solution.iter().zip(&out2.solution) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn default_chain_is_shallow_on_dense_input() {
    // The solver's default candidate fraction is larger than the
    // paper's 1/20, so on a dense graph its chain needs at most half
    // the rounds of Algorithm 1 as stated, and both still meet ε.
    use parlap_core::five_dd::SAMPLE_FRACTION;
    let g = generators::gnp_connected(500, 0.5, 3);
    let b = vector::random_demand(g.num_vertices(), 8);
    let eps = 1e-6;
    let chain_opts = SolverOptions { backend: BackendKind::Chain, ..SolverOptions::default() };
    let paper = SolverOptions { sample_fraction: SAMPLE_FRACTION, ..chain_opts.clone() };
    let mut depths = Vec::new();
    for (name, opts) in [("default", chain_opts), ("paper 1/20", paper)] {
        let solver = LaplacianSolver::build(&g, opts).expect("build");
        let out = solver.solve(&b, eps).expect("solve");
        let err = solver.relative_error(&b, &out.solution);
        assert!(err <= eps, "{name}: L-norm error {err:.2e}");
        depths.push(solver.chain().depth());
    }
    assert!(2 * depths[0] <= depths[1], "default depth {} vs paper depth {}", depths[0], depths[1]);
}
