//! Integration tests for the Theorem 3.9 invariants of the
//! `BlockCholesky` chain at medium scale, plus Lemma 5.4's walk-length
//! bounds observed through a whole factorization.

use parlap::prelude::*;
use parlap_core::alpha::split_uniform;
use parlap_core::chain::{block_cholesky, ChainOptions};

fn build(g: &MultiGraph, seed: u64) -> parlap_core::chain::CholeskyChain {
    block_cholesky(g, &ChainOptions { seed, ..Default::default() }).expect("build")
}

#[test]
fn edge_budget_holds_through_entire_chain() {
    // Theorem 3.9-(1): |E(G(k))| ≤ m for every k, on several families.
    for (name, g) in [
        ("grid", split_uniform(&generators::grid2d(35, 35), 2)),
        ("gnp", split_uniform(&generators::gnp_connected(1000, 0.006, 3), 2)),
        ("pa", generators::preferential_attachment(1200, 4, 5)),
    ] {
        let chain = build(&g, 1);
        let m0 = chain.stats.level_edges[0];
        for (k, &m) in chain.stats.level_edges.iter().enumerate() {
            assert!(m <= m0, "{name} level {k}: {m} > {m0}");
        }
    }
}

#[test]
fn rounds_scale_logarithmically() {
    // Theorem 3.9-(4): d = O(log n). Measure d for doubling n and
    // check the growth is additive (logarithmic), not multiplicative.
    let mut ds = Vec::new();
    for side in [16usize, 32, 64] {
        let g = generators::grid2d(side, side);
        let chain = build(&g, 2);
        ds.push(chain.depth() as f64);
    }
    // n quadruples each step: d should grow by ~constant increments.
    let inc1 = ds[1] - ds[0];
    let inc2 = ds[2] - ds[1];
    assert!(inc1 > 0.0 && inc2 > 0.0);
    assert!(
        inc2 < 1.8 * inc1 + 8.0,
        "depth increments {inc1} then {inc2}: super-logarithmic growth"
    );
}

#[test]
fn base_case_is_constant_size() {
    // Theorem 3.9-(3).
    for side in [12usize, 24, 48] {
        let g = generators::grid2d(side, side);
        let chain = build(&g, 3);
        assert!(chain.base_n <= 100, "side={side}: base {}", chain.base_n);
    }
}

#[test]
fn five_dd_rounds_constant_in_expectation() {
    // Lemma 3.4: each 5DDSubset call takes O(1) sampling rounds in
    // expectation — check the mean across an entire factorization.
    let g = generators::gnp_connected(2000, 0.004, 7);
    let chain = build(&g, 4);
    let total: usize = chain.stats.five_dd_rounds.iter().sum();
    let mean = total as f64 / chain.stats.five_dd_rounds.len() as f64;
    assert!(mean < 3.0, "mean 5DD rounds {mean}");
}

#[test]
fn walk_lengths_bounded_through_chain() {
    // Lemma 5.4: expected O(1), max O(log m), at *every* level.
    let g = split_uniform(&generators::grid2d(30, 30), 2);
    let chain = build(&g, 5);
    for (k, (&steps, &len)) in
        chain.stats.walk_total_steps.iter().zip(&chain.stats.walk_max_len).enumerate()
    {
        let m_k = chain.stats.level_edges[k] as f64;
        let mean = steps as f64 / m_k.max(1.0);
        assert!(mean < 2.0, "level {k}: mean walk steps {mean}");
        assert!(
            (len as f64) < 10.0 * m_k.ln() + 12.0,
            "level {k}: max walk {len} vs ln m {}",
            m_k.ln()
        );
    }
}

#[test]
fn work_model_tracks_m_log_n() {
    // Theorem 3.9: the chain build is O(m log n) work. Compare the
    // measured cost-model work per edge for doubling sizes; the ratio
    // should grow like log n, not like n.
    let mut per_edge = Vec::new();
    for side in [16usize, 32] {
        let g = generators::grid2d(side, side);
        let chain = build(&g, 6);
        let work = chain.stats.meter.total().work as f64;
        per_edge.push(work / g.num_edges() as f64);
    }
    // n quadrupled ⇒ log n doubled at most; allow slack but forbid
    // anything close to linear growth (ratio 4).
    let ratio = per_edge[1] / per_edge[0];
    assert!(ratio < 3.0, "work per edge grew {ratio}x for 4x vertices");
}

#[test]
fn depth_model_polylogarithmic() {
    // Theorem 3.10 depth: O(log m · log n · log log n) per apply. The
    // measured depth for 4x the vertices should grow far slower than
    // the work. (Depth tracks d = Θ(log(n/base)), so compare sizes
    // well above the base case where the log ratio is modest:
    // ln(4096/100)/ln(1024/100) ≈ 1.6.)
    let chain32 = build(&generators::grid2d(32, 32), 7);
    let chain64 = build(&generators::grid2d(64, 64), 7);
    let d32 = chain32.apply_cost().depth as f64;
    let d64 = chain64.apply_cost().depth as f64;
    let w32 = chain32.apply_cost().work as f64;
    let w64 = chain64.apply_cost().work as f64;
    assert!(w64 / w32 > 2.5, "work should scale ~linearly with m (+log factor)");
    assert!(d64 / d32 < 2.0, "depth must stay polylog: {d32} -> {d64}");
}

#[test]
fn alpha_bounded_inputs_give_better_chains() {
    // Theorem 3.9-(5) in measurable form: the preconditioned spectrum
    // tightens as α⁻¹ grows (here via the chain + power iteration).
    use parlap_core::apply::ChainApply;
    use parlap_graph::laplacian::LaplacianOp;
    use parlap_linalg::approx::precond_spectrum;
    let base = generators::gnp_connected(600, 0.01, 11);
    let lop = LaplacianOp::new(&base);
    let mut epss = Vec::new();
    for split in [1usize, 8] {
        let chain = build(&split_uniform(&base, split), 8);
        let w = ChainApply::new(&chain);
        let (lo, hi) = precond_spectrum(&lop, &w, 50, 13);
        epss.push(hi.ln().max(-(lo.ln())));
    }
    assert!(epss[1] < epss[0], "8-way split should tighten the spectrum: {epss:?}");
}

#[test]
fn large_sample_fractions_keep_lemma_3_4_per_level() {
    // Lemma 3.4: every round eliminates at least ⌈n_k/40⌉ vertices. On a
    // dense graph a candidate's weight inside a candidate set of half
    // or all of the vertices is far above the 5-DD filter's 1/5 of its
    // degree, so a starved round must halve the fraction toward the
    // paper's 1/20 rather than settle for a handful of vertices.
    let g = generators::gnp_connected(200, 0.5, 3);
    let b = vector::random_demand(g.num_vertices(), 4);
    for frac in [0.5, 1.0] {
        let opts = SolverOptions {
            sample_fraction: frac,
            backend: BackendKind::Chain,
            ..SolverOptions::default()
        };
        let solver = LaplacianSolver::build(&g, opts).expect("build");
        let chain = solver.chain();
        assert!(chain.depth() >= 1, "fraction {frac}: no level");
        for (k, w) in chain.stats.level_vertices.windows(2).enumerate() {
            let (n_k, kept) = (w[0], w[0] - w[1]);
            assert!(
                kept >= n_k.div_ceil(40),
                "fraction {frac}, level {k}: kept {kept} of {n_k} < ⌈n/40⌉"
            );
        }
        let out = solver.solve(&b, 1e-6).expect("solve");
        let err = solver.relative_error(&b, &out.solution);
        assert!(err <= 1e-6, "fraction {frac}: L-norm error {err:.2e}");
    }
}
