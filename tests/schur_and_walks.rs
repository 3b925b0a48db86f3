//! Integration tests for the Schur-complement machinery: Lemma 5.1
//! unbiasedness aggregated across rounds, Theorem 7.1 end to end, and
//! the Lemma 3.7 walk identity via the dense oracle.

use parlap::prelude::*;
use parlap_core::walks::terminal_walks;
use parlap_graph::laplacian::to_dense;
use parlap_graph::schur::{is_laplacian_matrix, schur_complement_dense};
use parlap_linalg::approx::loewner_eps;
use parlap_linalg::dense::DenseMatrix;
use parlap_linalg::op::LinOp;

#[test]
fn terminal_walks_unbiased_on_weighted_random_graph() {
    // E[L_H] = SC(L, C) on a graph with interior structure (walks of
    // length > 1 matter).
    let g = generators::randomize_weights(&generators::gnp_connected(12, 0.4, 3), 0.5, 2.0, 4);
    let c_list: Vec<u32> = vec![0, 1, 2, 3];
    let mut in_c = vec![false; 12];
    for &c in &c_list {
        in_c[c as usize] = true;
    }
    let exact = schur_complement_dense(&g, &c_list);
    let trials = 20_000u64;
    let k = c_list.len();
    let mut mean = DenseMatrix::zeros(k);
    let inc = g.incidence();
    for t in 0..trials {
        let out = terminal_walks(&g, &inc, &in_c, 50_000 + t);
        let lh = to_dense(&out.graph);
        for i in 0..k {
            for j in 0..k {
                mean.add(i, j, lh.get(i, j) / trials as f64);
            }
        }
    }
    let scale = exact.max_abs();
    for i in 0..k {
        for j in 0..k {
            let diff = (mean.get(i, j) - exact.get(i, j)).abs();
            assert!(
                diff < 0.05 * scale,
                "entry ({i},{j}): mean {} vs exact {}",
                mean.get(i, j),
                exact.get(i, j)
            );
        }
    }
}

#[test]
fn approx_schur_quality_and_budget_on_mesh() {
    // Theorem 7.1 end-to-end on a mesh with a boundary terminal set.
    let g = generators::grid2d(12, 12);
    let terminals: Vec<u32> =
        (0..144u32).filter(|&v| v % 12 == 0 || v % 12 == 11 || !(12..132).contains(&v)).collect();
    let opts = ApproxSchurOptions { split: 12, seed: 3, ..Default::default() };
    let r = approx_schur(&g, &terminals, &opts).expect("schur");
    assert!(r.graph.num_edges() <= g.num_edges() * opts.split, "edge budget");
    let approx = to_dense(&r.graph);
    assert!(is_laplacian_matrix(&approx, 1e-9));
    let exact = schur_complement_dense(&g, &r.c_ids);
    let eps = loewner_eps(&approx, &exact, 1e-8);
    assert!(eps < 0.6, "eps = {eps} too large for a 12-way split");
}

#[test]
fn approx_schur_is_connected_laplacian() {
    // Fact 2.4 carried through the sampler: the approximate Schur
    // complement of a connected graph is (whp, with retries) a
    // connected Laplacian.
    let g = generators::gnp_connected(400, 0.015, 9);
    let terminals: Vec<u32> = (0..80u32).collect();
    let r = approx_schur(&g, &terminals, &ApproxSchurOptions::default()).expect("schur");
    assert!(parlap_graph::connectivity::is_connected(&r.graph));
}

#[test]
fn schur_solver_consistency() {
    // Solving on the compressed network should reproduce terminal
    // potentials of the full network: SC is exactly the Dirichlet
    // reduction. Moderate tolerance — the compression is approximate.
    let g = generators::grid2d(14, 14);
    let n = g.num_vertices();
    let terminals: Vec<u32> = vec![0, 13, (14 * 14 - 14) as u32, (14 * 14 - 1) as u32];
    let opts = ApproxSchurOptions { split: 24, seed: 5, ..Default::default() };
    let r = approx_schur(&g, &terminals, &opts).expect("schur");
    // Full solve: unit current corner to corner.
    let full = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
    let b_full = vector::pair_demand(n, 0, n - 1);
    let x_full = full.solve(&b_full, 1e-10).expect("solve").solution;
    let full_drop = x_full[0] - x_full[n - 1];
    // Compressed solve on 4 terminals (tiny dense system).
    let lc = to_dense(&r.graph);
    let pinv = lc.pseudoinverse(1e-12);
    let pos = |v: u32| r.c_ids.iter().position(|&c| c == v).expect("terminal present");
    let mut b_small = vec![0.0; r.c_ids.len()];
    b_small[pos(0)] = 1.0;
    b_small[pos((14 * 14 - 1) as u32)] = -1.0;
    let x_small = pinv.apply_vec(&b_small);
    let small_drop = x_small[pos(0)] - x_small[pos((14 * 14 - 1) as u32)];
    let rel = (full_drop - small_drop).abs() / full_drop;
    assert!(
        rel < 0.25,
        "effective resistance via compressed network off by {rel:.3} \
         (full {full_drop:.4} vs compressed {small_drop:.4})"
    );
}

#[test]
fn walk_identity_lemma_3_7_small() {
    // Lemma 3.7 on a graph small enough to enumerate: SC entries equal
    // the weighted sum over C-terminal walks. We verify through the
    // dense oracle by eliminating one interior vertex of a star-plus-
    // triangle gadget and comparing against the hand-computed series.
    let g = MultiGraph::from_edges(
        4,
        vec![
            parlap_graph::multigraph::Edge::new(3, 0, 2.0),
            parlap_graph::multigraph::Edge::new(3, 1, 3.0),
            parlap_graph::multigraph::Edge::new(3, 2, 5.0),
        ],
    );
    // Eliminating the star center 3: SC edge (i,j) = w_i w_j / 10.
    let sc = schur_complement_dense(&g, &[0, 1, 2]);
    assert!((sc.get(0, 1) + 2.0 * 3.0 / 10.0).abs() < 1e-12);
    assert!((sc.get(0, 2) + 2.0 * 5.0 / 10.0).abs() < 1e-12);
    assert!((sc.get(1, 2) + 3.0 * 5.0 / 10.0).abs() < 1e-12);
    // And the walk sum: walks 0-3-1 have weight (w1·w2)/(w(3)) — the
    // general formula (4) of the paper with the middle vertex weight
    // w(3) = 10 in the denominator. Identical by construction.
}
