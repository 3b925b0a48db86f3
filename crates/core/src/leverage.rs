//! Leverage-score overestimation (Section 6, supporting Lemma 3.3 and
//! Theorem 1.2).
//!
//! The paper's recipe for dense graphs:
//!
//! 1. uniformly sample a sparser graph `G'` with `~m/K` edges (weights
//!    scaled by `K`);
//! 2. estimate effective resistances in `G'` with the standard
//!    Spielman–Srivastava Johnson–Lindenstrauss sketch, solving
//!    `O(log n)` Laplacian systems *with this crate's own solver*
//!    (Theorem 1.1) to constant accuracy;
//! 3. `τ̂(e) = min(1, safety · w(e) · R̂_{G'}(e))` overestimates the
//!    true leverage score w.h.p., with `Σ τ̂ = O(nK)`;
//! 4. split edge `e` into `⌈τ̂(e)/α⌉` copies (Lemma 3.3), giving
//!    `O(m + nKα⁻¹)` multi-edges instead of `O(mα⁻¹)`.
//!
//! Deviation from the paper: `G'` is augmented with a BFS spanning
//! tree of `G` so it is always connected (the paper leaves the
//! disconnected-sample case to the `τ̂ ≤ 1` clamp); a configurable
//! `safety` factor absorbs the JL distortion.

use crate::error::SolverError;
use crate::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_graph::connectivity::num_components;
use parlap_graph::multigraph::{Edge, MultiGraph};
use parlap_primitives::prng::StreamRng;
use rayon::prelude::*;

/// Options for the overestimation pipeline.
#[derive(Clone, Debug)]
pub struct LeverageOptions {
    /// Sparsification factor `K` (the paper's Theorem 1.2 uses
    /// `K = Θ(log³ n)`).
    pub k: usize,
    /// Target boundedness: split so every multi-edge has `τ̂ ≤ 1/alpha_inv`.
    pub alpha_inv: f64,
    /// JL sketch rows per `log₂ n` (total rows = `rows_per_log·log₂ n`).
    pub rows_per_log: usize,
    /// Multiplier absorbing JL distortion so estimates stay
    /// overestimates w.h.p.
    pub safety: f64,
    /// Accuracy of the inner Theorem 1.1 solves (the paper: `O(1)`).
    pub inner_eps: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for LeverageOptions {
    fn default() -> Self {
        LeverageOptions {
            k: 8,
            alpha_inv: 4.0,
            rows_per_log: 2,
            safety: 1.5,
            inner_eps: 0.25,
            seed: 0x1e7e_4a6e,
        }
    }
}

/// Compute leverage-score overestimates `τ̂(e)` for every edge of `g`.
pub fn leverage_overestimates(
    g: &MultiGraph,
    opts: &LeverageOptions,
) -> Result<Vec<f64>, SolverError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(SolverError::EmptyGraph);
    }
    let comps = num_components(g);
    if comps != 1 {
        return Err(SolverError::Disconnected { components: comps });
    }
    if opts.k == 0
        || !(opts.alpha_inv >= 1.0 && opts.alpha_inv.is_finite())
        || opts.rows_per_log == 0
    {
        return Err(SolverError::InvalidOption(
            "leverage options: need k ≥ 1, finite alpha_inv ≥ 1, rows_per_log ≥ 1".into(),
        ));
    }
    let mut rng = StreamRng::new(opts.seed, 0x6c65_7665);
    // Step 1: uniform 1/K subsample at ORIGINAL weights, unioned with
    // a BFS spanning tree (deduplicated). Keeping weights unscaled
    // makes L_{G'} ≼ L_G, so effective resistances in G' dominate
    // those in G (Fact 2.1) and the estimates are true overestimates —
    // the CLMMPS15 mechanism. The tree guarantees connectivity.
    let mut keep = vec![false; g.num_edges()];
    for flag in keep.iter_mut() {
        *flag = rng.next_index(opts.k) == 0;
    }
    for ei in bfs_tree_edge_indices(g) {
        keep[ei] = true;
    }
    let sampled: Vec<Edge> =
        g.edges().iter().zip(&keep).filter(|&(_, &k)| k).map(|(e, _)| *e).collect();
    let gp = MultiGraph::from_edges(n, sampled);

    // Step 2: JL sketch. rows = rows_per_log · ⌈log₂ n⌉.
    let rows = opts.rows_per_log * ((n.max(2) as f64).log2().ceil() as usize);
    // Loose solves: they stop on the cheap relative residual rather
    // than the certified `‖·‖_L` bound.
    let inner = LaplacianSolver::build(
        &gp,
        SolverOptions {
            seed: rng.next_u64(),
            outer: OuterMethod::PcgResidual,
            ..SolverOptions::default()
        },
    )?;
    // Each row r: z_r = Bᵀ W^{1/2} ξ_r over G' edges, y_r = L_{G'}⁺ z_r.
    // Rows are independent and keyed by their counter `r` (never by
    // scheduling), so running them in parallel across the pool — each
    // inner solve is itself parallel; rayon composes the two levels —
    // keeps the output bit-identical for any thread count. There are
    // only O(log n) rows but each is a full inner solve, so the split
    // floor drops to one row per task.
    // A failed inner solve must surface, not silently contribute an
    // all-zero row: a zero row biases R̂ low, and the whole contract
    // of this function is that estimates are OVERestimates.
    let ys: Vec<Vec<f64>> = (0..rows)
        .into_par_iter()
        .with_min_len(1)
        .map(|r| {
            let mut row_rng = StreamRng::new(opts.seed, 0x4a4c + r as u64);
            let mut z = vec![0.0; n];
            for e in gp.edges() {
                let xi = row_rng.next_sign() * e.w.sqrt();
                z[e.u as usize] += xi;
                z[e.v as usize] -= xi;
            }
            inner.solve(&z, opts.inner_eps).map(|out| out.solution)
        })
        .collect::<Result<Vec<_>, SolverError>>()?;

    // Step 3: R̂(u,v) = (1/rows') Σ_r (y_r[u] − y_r[v])² — the sketch
    // normalization is folded in here (ξ entries are ±1, so we divide
    // by the row count).
    let edges = g.edges();
    let scale = opts.safety / 1.0;
    let taus: Vec<f64> = edges
        .par_iter()
        .map(|e| {
            let r_hat: f64 = ys
                .iter()
                .map(|y| {
                    let d = y[e.u as usize] - y[e.v as usize];
                    d * d
                })
                .sum::<f64>()
                / rows as f64;
            (scale * e.w * r_hat).min(1.0)
        })
        .collect();
    Ok(taus)
}

/// Lemma 3.3 end-to-end: estimate and split.
pub fn leverage_split(g: &MultiGraph, opts: &LeverageOptions) -> Result<MultiGraph, SolverError> {
    let taus = leverage_overestimates(g, opts)?;
    Ok(crate::alpha::split_by_scores(g, &taus, 1.0 / opts.alpha_inv))
}

/// Edge indices of a BFS spanning tree of `g` (shared with the
/// [`crate::sparsify`] subsampled-oracle path).
pub(crate) fn bfs_tree_edge_indices(g: &MultiGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let inc = g.incidence();
    let edges = g.edges();
    let mut visited = vec![false; n];
    let mut tree = Vec::with_capacity(n.saturating_sub(1));
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(0u32);
    while let Some(u) = queue.pop_front() {
        for &ei in inc.edges_at(u as usize) {
            let e = &edges[ei as usize];
            let v = e.other(u);
            if !visited[v as usize] {
                visited[v as usize] = true;
                tree.push(ei as usize);
                queue.push_back(v);
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::{leverage_scores_dense, to_dense};

    #[test]
    fn estimates_mostly_overestimate() {
        // With the default safety factor, the JL estimates should
        // dominate the exact scores for the vast majority of edges.
        let g = generators::gnp_connected(120, 0.1, 3);
        let exact = leverage_scores_dense(&g);
        let est = leverage_overestimates(&g, &LeverageOptions::default()).expect("estimate");
        assert_eq!(est.len(), g.num_edges());
        let over = exact.iter().zip(&est).filter(|&(t, e)| *e >= *t * 0.999 || *e >= 0.999).count();
        let frac = over as f64 / exact.len() as f64;
        assert!(frac > 0.85, "only {frac:.2} of edges overestimated");
    }

    #[test]
    fn estimates_are_calibrated() {
        // Σ τ̂ should be within a constant of Σ τ = n − 1 (not, say,
        // 100x off) on a sparse graph where sampling keeps most edges.
        let g = generators::grid2d(12, 12);
        let opts = LeverageOptions { k: 2, ..Default::default() };
        let est = leverage_overestimates(&g, &opts).expect("estimate");
        let sum: f64 = est.iter().sum();
        let n = g.num_vertices() as f64;
        assert!(sum >= 0.5 * (n - 1.0), "sum {sum} too small");
        assert!(sum <= 30.0 * (n - 1.0), "sum {sum} too large");
    }

    #[test]
    fn split_preserves_laplacian_and_bounds_most_edges() {
        let g = generators::gnp_connected(80, 0.15, 9);
        let opts = LeverageOptions { alpha_inv: 4.0, ..Default::default() };
        let h = leverage_split(&g, &opts).expect("split");
        let lg = to_dense(&g);
        let lh = to_dense(&h);
        assert!(lg.subtract(&lh).max_abs() < 1e-9);
        // The α-bound holds for the overwhelming majority (statistical
        // guarantee, exact check via dense scores).
        let taus = leverage_scores_dense(&h);
        let ok = taus.iter().filter(|&&t| t <= 0.25 * 1.05).count();
        let frac = ok as f64 / taus.len() as f64;
        assert!(frac > 0.9, "only {frac:.2} of multi-edges α-bounded");
    }

    #[test]
    fn dense_graph_splits_fewer_than_naive() {
        // The point of Lemma 3.3: on dense graphs most edges have tiny
        // leverage, so the total is O(m + nKα⁻¹) instead of O(mα⁻¹).
        // At this scale (m = 1770, nK = 480) the predicted win is
        // roughly 2x; demand a clear improvement over naive.
        let g = generators::complete(60);
        let opts = LeverageOptions { alpha_inv: 8.0, ..Default::default() };
        let h = leverage_split(&g, &opts).expect("split");
        let naive = g.num_edges() * 8;
        assert!(
            (h.num_edges() as f64) < 0.7 * naive as f64,
            "leverage split {} not better than naive {naive}",
            h.num_edges()
        );
    }

    #[test]
    fn tree_edges_have_high_estimates() {
        // Tree edges have τ = 1 exactly; estimates must not be tiny.
        let g = generators::binary_tree(63);
        let est = leverage_overestimates(&g, &LeverageOptions::default()).expect("estimate");
        for (i, &t) in est.iter().enumerate() {
            assert!(t > 0.5, "tree edge {i} estimated {t}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::path(5);
        let bad = LeverageOptions { k: 0, ..Default::default() };
        assert!(leverage_overestimates(&g, &bad).is_err());
        // An infinite α⁻¹ would reach `split_by_scores`' assert.
        let bad = LeverageOptions { alpha_inv: f64::INFINITY, ..Default::default() };
        assert!(leverage_split(&g, &bad).is_err());
        let mut dg = MultiGraph::new(4);
        dg.add_edge(0, 1, 1.0);
        assert!(matches!(
            leverage_overestimates(&dg, &LeverageOptions::default()).unwrap_err(),
            SolverError::Disconnected { .. }
        ));
    }

    #[test]
    fn bfs_tree_spans() {
        let g = generators::gnp_connected(50, 0.1, 4);
        let tree_idx = bfs_tree_edge_indices(&g);
        assert_eq!(tree_idx.len(), 49);
        let tree: Vec<_> = tree_idx.iter().map(|&i| g.edges()[i]).collect();
        let tg = MultiGraph::from_edges(50, tree);
        assert!(parlap_graph::connectivity::is_connected(&tg));
    }
}
