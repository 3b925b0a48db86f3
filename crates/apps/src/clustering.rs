//! Graph clustering by sweep cuts: spectral (Cheeger) and local
//! (personalized-PageRank) partitioning.
//!
//! Both classical pipelines sit directly on the solver:
//!
//! * **Spectral**: compute the Fiedler vector by inverse power
//!   iteration (each step one Laplacian solve), sort vertices by
//!   their entry, and take the best prefix ("sweep") cut. Cheeger's
//!   inequality brackets the result:
//!   `λ₂/2 ≤ φ(G) ≤ φ(sweep) ≤ √(2λ₂)` — verified in the tests.
//! * **Local**: compute a personalized PageRank vector from a seed
//!   (one SDDM solve via [`crate::pagerank`]), sweep the
//!   degree-normalized scores — the Andersen–Chung–Lang recipe with
//!   an exact PPR vector.

use crate::pagerank::PageRankSolver;
use parlap_core::error::SolverError;
use parlap_core::solver::{LaplacianSolver, SolverOptions};
use parlap_core::spectral::{fiedler_vector, FiedlerOptions};
use parlap_graph::multigraph::MultiGraph;

/// A cut produced by a sweep.
#[derive(Clone, Debug)]
pub struct SweepCut {
    /// Membership mask of the smaller-conductance side.
    pub side: Vec<bool>,
    /// Conductance `w(∂S) / min(vol S, vol S̄)`.
    pub conductance: f64,
    /// Number of vertices on the chosen side.
    pub size: usize,
}

/// Conductance of a vertex set: `w(∂S) / min(vol S, vol S̄)`.
/// Returns `+∞` for the empty set or the full vertex set.
///
/// # Panics
/// Panics if the mask length mismatches the graph.
pub fn conductance(g: &MultiGraph, side: &[bool]) -> f64 {
    assert_eq!(side.len(), g.num_vertices(), "mask length");
    let mut cut = 0.0f64;
    let mut vol_s = 0.0f64;
    let mut vol_rest = 0.0f64;
    for e in g.edges() {
        let (su, sv) = (side[e.u as usize], side[e.v as usize]);
        if su != sv {
            cut += e.w;
        }
        match (su, sv) {
            (true, true) => vol_s += 2.0 * e.w,
            (false, false) => vol_rest += 2.0 * e.w,
            _ => {
                vol_s += e.w;
                vol_rest += e.w;
            }
        }
    }
    let denom = vol_s.min(vol_rest);
    if denom <= 0.0 {
        f64::INFINITY
    } else {
        cut / denom
    }
}

/// Sweep all prefix cuts of the vertex ordering induced by `score`
/// (descending) and return the best-conductance one. `O(m + n log n)`
/// using incremental cut/volume updates.
pub fn sweep_cut(g: &MultiGraph, score: &[f64]) -> SweepCut {
    let n = g.num_vertices();
    assert_eq!(score.len(), n, "score length");
    assert!(n >= 2, "sweep needs at least two vertices");
    let inc = g.incidence();
    let edges = g.edges();
    let total_vol: f64 = 2.0 * g.total_weight();
    let mut order: Vec<u32> = (0..n as u32).collect();
    parlap_primitives::util::sort_desc_by_score(&mut order, |&v| score[v as usize]);
    let mut side = vec![false; n];
    let mut cut = 0.0f64;
    let mut vol = 0.0f64;
    let mut best = f64::INFINITY;
    let mut best_k = 0usize;
    for (k, &v) in order.iter().enumerate().take(n - 1) {
        side[v as usize] = true;
        for &ei in inc.edges_at(v as usize) {
            let e = &edges[ei as usize];
            let o = e.other(v) as usize;
            vol += e.w;
            if side[o] {
                cut -= e.w;
            } else {
                cut += e.w;
            }
        }
        let phi = cut / vol.min(total_vol - vol).max(f64::MIN_POSITIVE);
        if phi < best {
            best = phi;
            best_k = k + 1;
        }
    }
    let mut side = vec![false; n];
    for &v in order.iter().take(best_k) {
        side[v as usize] = true;
    }
    // Report the smaller-volume side for a canonical answer.
    let vol_s: f64 = side
        .iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(v, _)| inc.edges_at(v).iter().map(|&ei| edges[ei as usize].w).sum::<f64>())
        .sum();
    if vol_s > total_vol / 2.0 {
        for s in side.iter_mut() {
            *s = !*s;
        }
    }
    let size = side.iter().filter(|&&s| s).count();
    SweepCut { side, conductance: best, size }
}

/// Spectral bipartition: Fiedler vector + sweep cut, with the λ₂
/// estimate for Cheeger verification.
pub fn spectral_cluster(
    g: &MultiGraph,
    options: SolverOptions,
    fiedler_opts: &FiedlerOptions,
) -> Result<(SweepCut, f64), SolverError> {
    let solver = LaplacianSolver::build(g, options)?;
    let fied = fiedler_vector(g, &solver, fiedler_opts)?;
    Ok((sweep_cut(g, &fied.vector), fied.lambda2))
}

/// Local clustering around a seed vertex: exact personalized PageRank
/// (teleport `beta`) swept on degree-normalized scores
/// (Andersen–Chung–Lang with an exact vector).
pub fn local_cluster(
    g: &MultiGraph,
    seed_vertex: u32,
    beta: f64,
    options: SolverOptions,
    eps: f64,
) -> Result<SweepCut, SolverError> {
    let pr = PageRankSolver::build(g, beta, options)?;
    let out = pr.rank(&[(seed_vertex, 1.0)], eps)?;
    let deg = g.weighted_degrees();
    let normalized: Vec<f64> =
        out.scores.iter().zip(&deg).map(|(p, d)| p / d.max(f64::MIN_POSITIVE)).collect();
    Ok(sweep_cut(g, &normalized))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::multigraph::Edge;
    use parlap_primitives::prng::StreamRng;

    fn opts() -> SolverOptions {
        SolverOptions { seed: 21, ..SolverOptions::default() }
    }

    /// Two k-cliques joined by a single unit edge.
    fn dumbbell(k: usize) -> MultiGraph {
        let mut edges = Vec::new();
        for b in 0..2 {
            let off = (b * k) as u32;
            for i in 0..k as u32 {
                for j in (i + 1)..k as u32 {
                    edges.push(Edge::new(off + i, off + j, 1.0));
                }
            }
        }
        edges.push(Edge::new(0, k as u32, 1.0));
        MultiGraph::from_edges(2 * k, edges)
    }

    #[test]
    fn conductance_hand_computed() {
        // 4-cycle split into opposite pairs: cut 2 edges of 4 total;
        // vol S = 4, φ = 2/4.
        let g = generators::cycle(4);
        let side = vec![true, true, false, false];
        assert!((conductance(&g, &side) - 0.5).abs() < 1e-12);
        // Degenerate sets.
        assert!(conductance(&g, &[false; 4]).is_infinite());
        assert!(conductance(&g, &[true; 4]).is_infinite());
    }

    #[test]
    fn sweep_finds_dumbbell_bottleneck() {
        let g = dumbbell(8);
        let (cut, _l2) = spectral_cluster(&g, opts(), &FiedlerOptions::default()).unwrap();
        assert_eq!(cut.size, 8, "one clique per side");
        // The bridge is the only crossing edge: φ = 1/(2·28+1).
        let expect = 1.0 / 57.0;
        assert!((cut.conductance - expect).abs() < 1e-9, "φ = {} vs {expect}", cut.conductance);
        // The sides are exactly the cliques.
        let first: bool = cut.side[0];
        assert!(cut.side[..8].iter().all(|&s| s == first));
        assert!(cut.side[8..].iter().all(|&s| s != first));
    }

    #[test]
    fn cheeger_inequality_brackets_sweep() {
        // λ₂/2 ≤ φ(sweep) ≤ √(2 λ₂) on assorted graphs.
        for (name, g) in [
            ("dumbbell", dumbbell(6)),
            ("grid", generators::grid2d(7, 7)),
            ("cycle", generators::cycle(30)),
            ("gnp", generators::gnp_connected(60, 0.15, 3)),
        ] {
            let (cut, l2) = spectral_cluster(&g, opts(), &FiedlerOptions::default()).unwrap();
            let phi = cut.conductance;
            // Conductance-form Cheeger needs λ₂ of the *normalized*
            // Laplacian; for our unnormalized λ₂ use the safe bounds
            // with the degree extremes.
            let deg = g.weighted_degrees();
            let dmax = deg.iter().fold(0.0f64, |a, &b| a.max(b));
            let dmin = deg.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let l2n_hi = l2 / dmin;
            let l2n_lo = l2 / dmax;
            assert!(
                phi >= l2n_lo / 2.0 - 1e-9,
                "{name}: φ {phi} below Cheeger lower bound {}",
                l2n_lo / 2.0
            );
            assert!(
                phi <= (2.0 * l2n_hi).sqrt() + 1e-9,
                "{name}: φ {phi} above Cheeger upper bound {}",
                (2.0 * l2n_hi).sqrt()
            );
        }
    }

    #[test]
    fn local_cluster_recovers_planted_community() {
        // Planted partition: two dense blobs, sparse cross edges.
        let k = 20;
        let mut rng = StreamRng::new(5, 0);
        let mut edges = Vec::new();
        for b in 0..2 {
            let off = (b * k) as u32;
            for i in 0..k as u32 {
                edges.push(Edge::new(off + i, off + (i + 1) % k as u32, 1.0));
                for j in (i + 1)..k as u32 {
                    if rng.next_f64() < 0.4 {
                        edges.push(Edge::new(off + i, off + j, 1.0));
                    }
                }
            }
        }
        for _ in 0..3 {
            let u = rng.next_index(k) as u32;
            let v = (k + rng.next_index(k)) as u32;
            edges.push(Edge::new(u, v, 1.0));
        }
        let g = MultiGraph::from_edges(2 * k, edges);
        let cut = local_cluster(&g, 3, 0.1, opts(), 1e-9).unwrap();
        // The seed's blob must be recovered (allow 2 stragglers).
        let in_seed_blob = cut.side[3];
        let errors = (0..2 * k)
            .filter(|&v| {
                let should = v < k;
                (cut.side[v] == in_seed_blob) != should
            })
            .count();
        assert!(errors <= 2, "local cluster missed the planted blob by {errors}");
        assert!(cut.conductance < 0.1, "φ = {}", cut.conductance);
    }

    #[test]
    fn sweep_cut_matches_conductance_fn() {
        // The incremental sweep conductance must agree with the
        // direct computation on its output set.
        let g = generators::gnp_connected(40, 0.2, 9);
        let score: Vec<f64> = (0..40).map(|i| ((i * 31 % 17) as f64).sin()).collect();
        let cut = sweep_cut(&g, &score);
        let direct = conductance(&g, &cut.side);
        assert!(
            (cut.conductance - direct).abs() < 1e-9,
            "incremental {} vs direct {direct}",
            cut.conductance
        );
    }

    #[test]
    fn sweep_never_returns_degenerate_cut() {
        let g = generators::grid2d(5, 5);
        let score: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let cut = sweep_cut(&g, &score);
        assert!(cut.size >= 1 && cut.size < 25);
        assert!(cut.conductance.is_finite());
    }
}
