//! Spectral sparsification by effective-resistance sampling
//! (Spielman–Srivastava '11) — the optional preprocessing stage of the
//! solver's build pipeline.
//!
//! The paper's solver exists to *avoid needing* sparsifiers inside
//! the factorization — but sparsification itself remains a prime
//! consumer of Laplacian solvers: sampling `q = O(n log n / ε²)`
//! edges with probabilities `p_e ∝ w_e R_eff(e)` (leverage scores)
//! and reweighting by `w_e/(q p_e)` yields `L_H ≈_ε L_G` w.h.p.
//! The leverage scores come from the crate's JL resistance oracle
//! ([`ResistanceOracle`]), which itself runs `O(log n)` solver calls,
//! one after another — so this module is the solver eating its own
//! output.
//!
//! Used as the build-pipeline stage (`SolverOptions::sparsify`,
//! [`crate::pipeline`]) the oracle is built on a cheap uniform
//! `1/K` subsample of the input (∪ a BFS spanning tree, weights
//! unscaled — [`SparsifyOptions::oracle_subsample`]): `L_{G'} ≼ L_G`
//! makes the subsample's resistances *overestimate* the true ones
//! (the \[CLMMPS15\] mechanism already used by [`crate::leverage`]),
//! so sampling stays correct while the oracle's own inner solves run
//! on `~m/K` edges instead of `m` — otherwise the stage would pay the
//! very dense build it exists to avoid.
//!
//! # Determinism
//!
//! Sampling is chunked: the `q` i.i.d. draws are split into fixed
//! 4096-draw chunks, chunk `k` draws from its own counter-based
//! [`StreamRng`] substream keyed by `k`, chunks run in parallel, and
//! the per-edge hit *counts* (order-free integers) are merged. The
//! leverage-score normalizer goes through the fixed-chunk
//! [`det_sum_f64`] tree reduction. Both make the sparsifier — and
//! every whole solve built on it — bit-identical for any
//! `RAYON_NUM_THREADS`.

use crate::error::SolverError;
use crate::resistance::{ResistanceOptions, ResistanceOracle};
use parlap_graph::multigraph::{Edge, MultiGraph};
use parlap_primitives::prng::StreamRng;
use parlap_primitives::reduce::det_sum_f64;
use parlap_primitives::sample::AliasTable;
use parlap_primitives::util::par_tabulate;

/// Fixed draw-chunk size of the deterministic parallel sampler. Like
/// [`parlap_primitives::reduce::DET_CHUNK`], it must never depend on
/// the thread count — the chunk layout is the determinism guarantee.
const SAMPLE_CHUNK: usize = 4096;

/// Options for [`sparsify`].
#[derive(Clone, Debug)]
pub struct SparsifyOptions {
    /// Seed for the edge sampling and the resistance sketch.
    pub seed: u64,
    /// Resistance-oracle build options (sketch width, inner accuracy).
    pub resistance: ResistanceOptions,
    /// Build the resistance oracle on a uniform `1/K` edge subsample
    /// (∪ BFS spanning tree, weights unscaled) instead of the full
    /// input. `L_{G'} ≼ L_G`, so the subsampled resistances
    /// overestimate the true ones — sampling probabilities stay valid
    /// (slightly conservative) while the oracle build runs on `~m/K`
    /// edges. `K ≤ 1` builds the oracle on the input itself (the
    /// classic Spielman–Srivastava estimate; default).
    pub oracle_subsample: usize,
}

impl Default for SparsifyOptions {
    fn default() -> Self {
        SparsifyOptions {
            seed: 0x5a51,
            resistance: ResistanceOptions::default(),
            oracle_subsample: 1,
        }
    }
}

/// Outcome of a sparsification run.
#[derive(Clone, Debug)]
pub struct Sparsifier {
    /// The sparsified graph (multi-edges merged; `≤ q` edges).
    pub graph: MultiGraph,
    /// Number of i.i.d. samples drawn (`q`).
    pub samples: usize,
    /// Sum of estimated leverage scores `Σ w_e R̂_e` (≈ `n − 1`; a
    /// sanity check on the resistance sketch, Foster's theorem).
    pub leverage_total: f64,
}

/// The Spielman–Srivastava sample count `q = ⌈C n ln n / ε²⌉`
/// (C = 4) targeting Loewner accuracy `ε` on `n` vertices. Exposed so
/// the build pipeline can decide *before* sampling whether `q < m`
/// makes the stage worthwhile ([`crate::solver::SparsifyMode`]).
pub fn sample_budget(n: usize, eps: f64) -> usize {
    let nf = n.max(2) as f64;
    (4.0 * nf * nf.ln() / (eps * eps)).ceil() as usize
}

/// Draw `q` i.i.d. edges with probability ∝ `w_e · R̂_eff(e)` and
/// reweight each sampled copy by `w_e / (q p_e)` (Spielman–
/// Srivastava). Returns the merged sparsifier.
///
/// With `q = O(n log n / ε²)` the result satisfies `L_H ≈_ε L_G`
/// w.h.p.; with tiny `q` the sample may even be disconnected — the
/// caller chooses the trade-off (see [`sparsify_to_eps`]).
///
/// Deterministic for any thread count (see the module docs): the
/// draws are chunked on a fixed 4096 grid with per-chunk RNG
/// substreams and integer count merges.
pub fn sparsify(
    g: &MultiGraph,
    q: usize,
    opts: &SparsifyOptions,
) -> Result<Sparsifier, SolverError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(SolverError::EmptyGraph);
    }
    if q == 0 {
        return Err(SolverError::InvalidOption("need q ≥ 1 samples".into()));
    }
    let m = g.num_edges();
    if m == 0 {
        return Ok(Sparsifier { graph: g.clone(), samples: q, leverage_total: 0.0 });
    }
    // The resistance oracle: on the input itself, or on a cheap
    // uniform subsample whose resistances dominate the input's.
    let subsampled;
    let oracle_graph = if opts.oracle_subsample > 1 {
        let mut rng = StreamRng::new(opts.seed, 0x6f72_6163);
        let mut keep = vec![false; m];
        for flag in keep.iter_mut() {
            *flag = rng.next_index(opts.oracle_subsample) == 0;
        }
        for ei in crate::leverage::bfs_tree_edge_indices(g) {
            keep[ei] = true;
        }
        let sampled: Vec<Edge> =
            g.edges().iter().zip(&keep).filter(|&(_, &k)| k).map(|(e, _)| *e).collect();
        subsampled = MultiGraph::from_edges(n, sampled);
        &subsampled
    } else {
        g
    };
    let oracle = ResistanceOracle::build(oracle_graph, &opts.resistance)?;
    let edges = g.edges();
    // Leverage-score estimates (clamped to [0, 1] — the sketch can
    // overshoot slightly). Each entry is a pure function of its edge,
    // so the parallel tabulation is deterministic.
    let scores: Vec<f64> = par_tabulate(m, |i| {
        let e = &edges[i];
        oracle.leverage(e.u as usize, e.v as usize, e.w).clamp(1e-12, 1.0)
    });
    let leverage_total = det_sum_f64(&scores);
    let table = AliasTable::new(&scores);
    // Chunked deterministic sampling: chunk k draws its fixed range of
    // the q samples from substream k; only *which thread* runs a chunk
    // varies with the pool size.
    let chunks = q.div_ceil(SAMPLE_CHUNK);
    let drawn: Vec<Vec<u32>> = par_tabulate(chunks, |k| {
        let mut rng = StreamRng::new(opts.seed, 0x7370_6172).substream(k as u64);
        let len = SAMPLE_CHUNK.min(q - k * SAMPLE_CHUNK);
        (0..len).map(|_| table.sample(&mut rng) as u32).collect()
    });
    // Integer hit counts are order-free; the merge order cannot change
    // the result.
    let mut counts = vec![0u64; m];
    for chunk in &drawn {
        for &e in chunk {
            counts[e as usize] += 1;
        }
    }
    // Final weight per surviving edge computed once (count · w/(q·p)):
    // no repeated float accumulation anywhere on the sampling path.
    let kept: Vec<Edge> = edges
        .iter()
        .enumerate()
        .filter(|&(i, _)| counts[i] > 0)
        .map(|(i, e)| {
            let p_e = scores[i] / leverage_total;
            Edge::new(e.u, e.v, counts[i] as f64 * e.w / (q as f64 * p_e))
        })
        .collect();
    let graph = MultiGraph::from_edges(n, kept).simplify();
    Ok(Sparsifier { graph, samples: q, leverage_total })
}

/// Sparsify to a target Loewner accuracy `ε` using the
/// Spielman–Srivastava sample count [`sample_budget`].
pub fn sparsify_to_eps(
    g: &MultiGraph,
    eps: f64,
    opts: &SparsifyOptions,
) -> Result<Sparsifier, SolverError> {
    if !(0.0..1.0).contains(&eps) || eps == 0.0 {
        return Err(SolverError::InvalidOption(format!("eps must be in (0,1), got {eps}")));
    }
    sparsify(g, sample_budget(g.num_vertices(), eps), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_dense;
    use parlap_linalg::approx::loewner_eps;

    #[test]
    fn leverage_total_near_foster() {
        // Foster: Σ w_e R_e = n − 1 exactly.
        let g = generators::gnp_connected(40, 0.2, 2);
        let s = sparsify(&g, 10, &SparsifyOptions::default()).unwrap();
        let n = g.num_vertices() as f64;
        assert!(
            (s.leverage_total - (n - 1.0)).abs() < 0.25 * (n - 1.0),
            "Foster check: Σ τ̂ = {} vs n−1 = {}",
            s.leverage_total,
            n - 1.0
        );
    }

    #[test]
    fn sparsifier_edge_budget() {
        let g = generators::complete(30); // m = 435
        let q = 120;
        let s = sparsify(&g, q, &SparsifyOptions::default()).unwrap();
        assert!(s.graph.num_edges() <= q, "{} kept > q = {q}", s.graph.num_edges());
        assert_eq!(s.graph.num_vertices(), 30);
    }

    #[test]
    fn dense_graph_sparsifies_accurately() {
        // K_25: every edge has leverage 2/25, all sampling is benign;
        // a generous q gives a tight Loewner ε against the original.
        let g = generators::complete(25);
        let s = sparsify(&g, 6000, &SparsifyOptions::default()).unwrap();
        let eps = loewner_eps(&to_dense(&s.graph), &to_dense(&g), 1e-9);
        assert!(eps < 0.35, "Loewner eps {eps}");
    }

    #[test]
    fn subsampled_oracle_still_sparsifies_accurately() {
        // The cheap-stage configuration: oracle built on a 1/4 uniform
        // subsample ∪ BFS tree. Overestimated resistances redistribute
        // sampling mass slightly but the sparsifier stays accurate.
        let g = generators::complete(25);
        let opts = SparsifyOptions { oracle_subsample: 4, ..SparsifyOptions::default() };
        let s = sparsify(&g, 6000, &opts).unwrap();
        let eps = loewner_eps(&to_dense(&s.graph), &to_dense(&g), 1e-9);
        assert!(eps < 0.5, "subsampled-oracle Loewner eps {eps}");
        assert!(parlap_graph::connectivity::is_connected(&s.graph));
    }

    #[test]
    fn sparsify_to_eps_hits_target_shape() {
        // Not a w.h.p. statement at this size, but the measured ε
        // should be in the ballpark of the requested one.
        let g = generators::complete(20);
        let s = sparsify_to_eps(&g, 0.5, &SparsifyOptions::default()).unwrap();
        let eps = loewner_eps(&to_dense(&s.graph), &to_dense(&g), 1e-9);
        assert!(eps < 1.0, "requested 0.5, measured {eps}");
    }

    #[test]
    fn sample_budget_matches_formula() {
        let n = 20usize;
        let expect = (4.0 * 20.0 * (20.0f64).ln() / 0.25).ceil() as usize;
        assert_eq!(sample_budget(n, 0.5), expect);
        // Degenerate vertex counts clamp to n = 2.
        assert_eq!(sample_budget(0, 0.5), sample_budget(2, 0.5));
    }

    #[test]
    fn expectation_is_unbiased() {
        // Mean of many independent sparsifiers converges to L.
        let g = generators::cycle(8);
        let runs = 300usize;
        let mut mean = parlap_linalg::dense::DenseMatrix::zeros(8);
        for r in 0..runs {
            let opts = SparsifyOptions { seed: 1000 + r as u64, ..SparsifyOptions::default() };
            let s = sparsify(&g, 6, &opts).unwrap();
            let l = to_dense(&s.graph);
            for i in 0..8 {
                for j in 0..8 {
                    mean.add(i, j, l.get(i, j) / runs as f64);
                }
            }
        }
        let err = mean.subtract(&to_dense(&g)).frobenius() / to_dense(&g).frobenius();
        assert!(err < 0.15, "relative Frobenius bias {err}");
    }

    #[test]
    fn tree_edges_always_survive_large_q() {
        // On a tree every leverage score is 1: sampling must keep the
        // graph connected once q ≳ n ln n (coupon collector).
        let g = generators::binary_tree(31);
        let s = sparsify(&g, 600, &SparsifyOptions::default()).unwrap();
        assert!(parlap_graph::connectivity::is_connected(&s.graph));
        // The merged weights should be close to the originals.
        let eps = loewner_eps(&to_dense(&s.graph), &to_dense(&g), 1e-9);
        assert!(eps < 0.8, "tree eps {eps}");
    }

    #[test]
    fn multi_chunk_sampling_spans_chunk_boundary() {
        // q > SAMPLE_CHUNK exercises the parallel multi-chunk path;
        // repeated runs must agree bit-for-bit (same substreams).
        let g = generators::complete(20);
        let q = SAMPLE_CHUNK + 1234;
        let a = sparsify(&g, q, &SparsifyOptions::default()).unwrap();
        let b = sparsify(&g, q, &SparsifyOptions::default()).unwrap();
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.samples, q);
    }

    #[test]
    fn input_validation() {
        let g = generators::path(4);
        assert!(sparsify(&g, 0, &SparsifyOptions::default()).is_err());
        assert!(sparsify_to_eps(&g, 0.0, &SparsifyOptions::default()).is_err());
        assert!(sparsify_to_eps(&g, 1.5, &SparsifyOptions::default()).is_err());
        let empty = MultiGraph::new(0);
        assert!(sparsify(&empty, 5, &SparsifyOptions::default()).is_err());
    }
}
