//! `TerminalWalks` (Algorithm 4): sparse unbiased Schur-complement
//! approximation by C-terminal random walks.
//!
//! For every multi-edge `e = (u, v)` of `G`, extend both endpoints by
//! random walks until they hit the terminal set `C`; the concatenated
//! walk `W(e)` (which contains `e` itself) contributes one multi-edge
//! between its two terminals with the *harmonic* weight
//! `w(f_e) = 1 / Σ_{f ∈ W(e)} 1/w(f)` — a walk of resistors in series.
//! Walks whose endpoints coincide are discarded.
//!
//! Guarantees reproduced here as tests and experiments:
//! * `E[L_H] = SC(L_G, C)` (Lemma 5.1);
//! * each sampled edge is `α`-bounded if `G` is (Lemma 5.2, via the
//!   effective-resistance triangle inequality);
//! * `|E(H)| ≤ |E(G)|`, expected walk length `O(1)` and max length
//!   `O(log m)` when `V∖C` is 5-DD (Lemma 5.4).
//!
//! Every walk draws from its own deterministic random stream keyed by
//! the edge index, so results are identical for any thread count. An
//! edge with both endpoints in `C` has two empty walks and draws
//! nothing: it is only relabelled.

use parlap_graph::multigraph::{Edge, Incidence, MultiGraph};
use parlap_primitives::cost::{log2_ceil, Cost};
use parlap_primitives::prng::StreamRng;
use parlap_primitives::sample::AliasTable;
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// Hard cap on a single walk; exceeded only if the caller supplies a
/// terminal set whose complement is far from 5-DD.
const WALK_CAP: u64 = 1 << 22;

/// Statistics from one `TerminalWalks` invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Total random-walk steps across all edges (excludes the middle
    /// edge itself).
    pub total_steps: u64,
    /// Longest combined walk (both endpoint extensions).
    pub max_walk_len: u64,
    /// Edges discarded because both terminals coincided.
    pub discarded: usize,
    /// Edges emitted into `H`.
    pub kept: usize,
    /// PRAM cost of the invocation.
    pub cost: Cost,
}

/// Output of [`terminal_walks`]: the sampled multigraph `H` on the
/// relabeled terminal vertices, and the relabeling.
#[derive(Clone, Debug)]
pub struct TerminalWalksOutput {
    /// `H` with vertices `0..|C|`.
    pub graph: MultiGraph,
    /// `new → old`: original id of each vertex of `H` (sorted).
    pub c_ids: Vec<u32>,
    /// Walk statistics.
    pub stats: WalkStats,
}

/// Edges per walk task. Each chunk writes its kept edges in edge order,
/// so the output never depends on the chunk size or the schedule.
const WALK_CHUNK: usize = 4096;

/// Run `TerminalWalks(G, C)`.
///
/// `inc` must be `g.incidence()`: the caller builds it once per level
/// and shares it with [`crate::five_dd::five_dd_subset`]. `in_c[v]`
/// marks the terminal set. Requires at least one terminal; walks are
/// only taken from non-terminal vertices, which must be able to reach
/// `C` (guaranteed for connected `G`).
pub fn terminal_walks(
    g: &MultiGraph,
    inc: &Incidence,
    in_c: &[bool],
    seed: u64,
) -> TerminalWalksOutput {
    let n = g.num_vertices();
    assert_eq!(in_c.len(), n, "terminal mask length mismatch");
    assert_eq!(inc.num_vertices(), n, "incidence is not this graph's");
    let c_ids: Vec<u32> = (0..n as u32).filter(|&v| in_c[v as usize]).collect();
    assert!(!c_ids.is_empty(), "TerminalWalks requires a non-empty terminal set");
    let mut new_id = vec![u32::MAX; n];
    for (new, &old) in c_ids.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let edges = g.edges();
    // Per-vertex transition samplers for the interior (F) vertices:
    // step to an incident multi-edge with probability ∝ its weight.
    // (The HS19 sampling primitive of Lemma 2.6.)
    let samplers: Vec<Option<AliasTable>> = (0..n)
        .into_par_iter()
        .map(|v| {
            if in_c[v] || inc.degree(v) == 0 {
                None
            } else {
                let w: Vec<f64> = inc.edges_at(v).iter().map(|&ei| edges[ei as usize].w).collect();
                Some(AliasTable::new(&w))
            }
        })
        .collect();

    let walk_from = |start: u32, rng: &mut StreamRng| -> (u32, f64, u64) {
        let mut v = start;
        let mut sum_inv = 0.0;
        let mut steps = 0u64;
        while !in_c[v as usize] {
            let table = samplers[v as usize]
                .as_ref()
                .expect("interior vertex with no incident edges cannot reach C");
            let slot = table.sample(rng);
            let e = &edges[inc.edges_at(v as usize)[slot] as usize];
            sum_inv += 1.0 / e.w;
            v = e.other(v);
            steps += 1;
            assert!(
                steps < WALK_CAP,
                "random walk failed to terminate; is V∖C (almost) 5-DD and G connected?"
            );
        }
        (v, sum_inv, steps)
    };

    // Walk the edges `first..first + chunk.len()`, appending the kept
    // ones to `out` in edge order; the returned stats leave `cost` zero.
    let walk_chunk = |first: usize, chunk: &[Edge], out: &mut Vec<Edge>| -> WalkStats {
        let mut stats = WalkStats::default();
        for (i, e) in (first..).zip(chunk) {
            if in_c[e.u as usize] && in_c[e.v as usize] {
                // Both walks are empty: relabel only, with the same
                // harmonic expression, and no random stream.
                let w = 1.0 / (0.0 + 0.0 + 1.0 / e.w);
                out.push(Edge::new(new_id[e.u as usize], new_id[e.v as usize], w));
                stats.kept += 1;
                continue;
            }
            let mut rng = StreamRng::new(seed, i as u64);
            let (c1, s1, st1) = walk_from(e.u, &mut rng);
            let (c2, s2, st2) = walk_from(e.v, &mut rng);
            let steps = st1 + st2;
            stats.total_steps += steps;
            stats.max_walk_len = stats.max_walk_len.max(steps);
            if c1 == c2 {
                stats.discarded += 1;
            } else {
                let w = 1.0 / (s1 + s2 + 1.0 / e.w);
                out.push(Edge::new(new_id[c1 as usize], new_id[c2 as usize], w));
                stats.kept += 1;
            }
        }
        stats
    };

    let mut out_edges = Vec::new();
    let mut stats = WalkStats::default();
    if edges.len() >= PAR_CUTOFF {
        let chunks: Vec<(Vec<Edge>, WalkStats)> = edges
            .par_chunks(WALK_CHUNK)
            .enumerate()
            .map(|(c, chunk)| {
                let mut kept = Vec::with_capacity(chunk.len());
                let chunk_stats = walk_chunk(c * WALK_CHUNK, chunk, &mut kept);
                (kept, chunk_stats)
            })
            .collect();
        out_edges.reserve_exact(chunks.iter().map(|(kept, _)| kept.len()).sum());
        for (kept, s) in chunks {
            out_edges.extend_from_slice(&kept);
            stats.total_steps += s.total_steps;
            stats.max_walk_len = stats.max_walk_len.max(s.max_walk_len);
            stats.discarded += s.discarded;
            stats.kept += s.kept;
        }
    } else {
        out_edges.reserve(edges.len());
        stats = walk_chunk(0, edges, &mut out_edges);
    }
    let m = edges.len() as u64;
    stats.cost = Cost::new(
        // sampler build + walks + compaction
        2 * m + stats.total_steps + 2 * m,
        // sampler build (HS19 primitive depth) + longest walk + compaction
        log2_ceil(m.max(n as u64)) + stats.max_walk_len + 2 * log2_ceil(m),
    );
    TerminalWalksOutput { graph: MultiGraph::from_edges(c_ids.len(), out_edges), c_ids, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::{leverage_scores_dense, to_dense};
    use parlap_graph::schur::{is_laplacian_matrix, schur_complement_dense};
    use parlap_linalg::dense::DenseMatrix;

    fn mask(n: usize, c: &[u32]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &v in c {
            m[v as usize] = true;
        }
        m
    }

    #[test]
    fn all_terminals_is_identity() {
        let g = generators::cycle(5);
        let out = terminal_walks(&g, &g.incidence(), &[true; 5], 1);
        assert_eq!(out.graph.num_edges(), g.num_edges());
        assert_eq!(out.stats.total_steps, 0);
        assert_eq!(out.stats.discarded, 0);
        for (a, b) in out.graph.edges().iter().zip(g.edges()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn edge_count_never_grows() {
        let g = generators::gnp_connected(200, 0.03, 5);
        let c: Vec<u32> = (0..200u32).filter(|v| v % 3 != 0).collect();
        let out = terminal_walks(&g, &g.incidence(), &mask(200, &c), 2);
        assert!(out.graph.num_edges() <= g.num_edges());
        assert_eq!(out.stats.kept + out.stats.discarded, g.num_edges());
        assert_eq!(out.graph.num_vertices(), c.len());
    }

    #[test]
    fn unbiasedness_on_path() {
        // Path 0-1-2, C = {0, 2}: SC has single edge of weight 1/2.
        // Every walk is forced (deterministic): both edges yield the
        // 0-2 edge with weight 1/2... edge (0,1): W = 0,(01),(12),2 →
        // weight 1/(1+1) = 1/2. Same for edge (1,2). So H always has
        // two multi-edges of weight 1/2?? No: expectation must equal
        // SC. Walk from interior vertex 1 goes to 0 or 2 w.p. 1/2.
        // Edge (0,1): walk from 0 stops; walk from 1 → 0 (discard) or
        // → 2 (keep, weight 1/2). E[edge] = 1/2 · 1/2 = 1/4 from this
        // edge, ditto (1,2): total expected weight 1/2 = SC. ✓
        let g = generators::path(3);
        let inc = g.incidence();
        let c = mask(3, &[0, 2]);
        let trials = 40_000;
        let mut total_w = 0.0;
        let mut kept = 0usize;
        for t in 0..trials {
            let out = terminal_walks(&g, &inc, &c, 1000 + t);
            for e in out.graph.edges() {
                assert!((e.w - 0.5).abs() < 1e-12, "every kept edge has weight 1/2");
                total_w += e.w;
                kept += 1;
            }
        }
        let mean_w = total_w / trials as f64;
        assert!((mean_w - 0.5).abs() < 0.02, "mean weight {mean_w}");
        let keep_rate = kept as f64 / (2.0 * trials as f64);
        assert!((keep_rate - 0.5).abs() < 0.02, "keep rate {keep_rate}");
    }

    #[test]
    fn unbiasedness_against_dense_schur() {
        // Statistical check of Lemma 5.1 on a weighted graph.
        let g = generators::randomize_weights(&generators::complete(6), 0.5, 2.0, 11);
        let c_list: Vec<u32> = vec![0, 1, 2];
        let c = mask(6, &c_list);
        let exact = schur_complement_dense(&g, &c_list);
        let inc = g.incidence();
        let trials = 30_000u64;
        let k = c_list.len();
        let mut mean = DenseMatrix::zeros(k);
        for t in 0..trials {
            let out = terminal_walks(&g, &inc, &c, 777_000 + t);
            assert_eq!(out.c_ids, c_list);
            let lh = to_dense(&out.graph);
            for i in 0..k {
                for j in 0..k {
                    mean.add(i, j, lh.get(i, j) / trials as f64);
                }
            }
        }
        for i in 0..k {
            for j in 0..k {
                let diff = (mean.get(i, j) - exact.get(i, j)).abs();
                assert!(
                    diff < 0.08,
                    "E[L_H]({i},{j})={} vs SC={}",
                    mean.get(i, j),
                    exact.get(i, j)
                );
            }
        }
    }

    #[test]
    fn output_is_laplacian_of_multigraph() {
        let g = generators::gnp_connected(40, 0.2, 3);
        let c: Vec<u32> = (0..20).collect();
        let out = terminal_walks(&g, &g.incidence(), &mask(40, &c), 9);
        let lh = to_dense(&out.graph);
        assert!(is_laplacian_matrix(&lh, 1e-9));
    }

    #[test]
    fn alpha_boundedness_preserved() {
        // Lemma 5.2: sampled edges are α-bounded w.r.t. the ORIGINAL L.
        // Split each edge of a small graph in 4 (α = 1/4), run walks,
        // and check w(f_e)·R_G(c1,c2) ≤ 1/4 + tol exactly via dense ER.
        let base = generators::randomize_weights(&generators::complete(7), 0.5, 2.0, 21);
        let split = 4usize;
        let mut edges = Vec::new();
        for e in base.edges() {
            for _ in 0..split {
                edges.push(Edge::new(e.u, e.v, e.w / split as f64));
            }
        }
        let g = MultiGraph::from_edges(7, edges);
        // Verify the split graph is 1/4-bounded (leverage scores w.r.t.
        // its own Laplacian = the base Laplacian).
        for tau in leverage_scores_dense(&g) {
            assert!(tau <= 0.25 + 1e-9, "input not α-bounded: {tau}");
        }
        let l = to_dense(&base);
        let pinv = l.pseudoinverse(1e-12);
        let c_list: Vec<u32> = vec![0, 1, 2, 3];
        let c = mask(7, &c_list);
        let inc = g.incidence();
        for t in 0..200 {
            let out = terminal_walks(&g, &inc, &c, 31_000 + t);
            for e in out.graph.edges() {
                let (u, v) = (c_list[e.u as usize] as usize, c_list[e.v as usize] as usize);
                let r = pinv.get(u, u) + pinv.get(v, v) - 2.0 * pinv.get(u, v);
                assert!(e.w * r <= 0.25 + 1e-9, "sampled edge leverage {} > α", e.w * r);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(100, 0.05, 2);
        let c: Vec<u32> = (0..50).collect();
        let inc = g.incidence();
        let a = terminal_walks(&g, &inc, &mask(100, &c), 4);
        let b = terminal_walks(&g, &inc, &mask(100, &c), 4);
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.stats.total_steps, b.stats.total_steps);
        let c2 = terminal_walks(&g, &inc, &mask(100, &c), 5);
        assert_ne!(a.graph.edges(), c2.graph.edges());
    }

    #[test]
    fn walk_lengths_small_for_5dd_complement() {
        use crate::five_dd::{five_dd_subset, SAMPLE_FRACTION};
        let g = generators::grid2d(40, 40);
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut rng = StreamRng::new(6, 0);
        let r = five_dd_subset(&g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION);
        let in_c: Vec<bool> = r.in_f.iter().map(|&f| !f).collect();
        let out = terminal_walks(&g, &inc, &in_c, 8);
        let mean_steps = out.stats.total_steps as f64 / g.num_edges() as f64;
        // From an F vertex, P(step lands in C) ≥ 4/5, and most edges
        // have both endpoints already in C: mean steps well below 1.
        assert!(mean_steps < 1.0, "mean steps {mean_steps}");
        // Max walk length O(log m): loose numeric bound.
        let log_m = (g.num_edges() as f64).ln();
        assert!(
            (out.stats.max_walk_len as f64) < 8.0 * log_m + 8.0,
            "max walk {} vs log m {log_m}",
            out.stats.max_walk_len
        );
    }

    #[test]
    fn weight_is_harmonic_sum_of_walk() {
        // Single interior vertex with both neighbors terminal: every
        // surviving walk is exactly 0-1-2, so every kept edge has the
        // harmonic weight 1/(1/2 + 1/4) = 4/3 deterministically.
        let g = MultiGraph::from_edges(3, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 4.0)]);
        let c = mask(3, &[0, 2]);
        let inc = g.incidence();
        let mut kept_any = false;
        for seed in 0..50 {
            let out = terminal_walks(&g, &inc, &c, seed);
            for e in out.graph.edges() {
                kept_any = true;
                assert!((e.w - 4.0 / 3.0).abs() < 1e-12, "w={}", e.w);
                // Walk of two edges: exactly one interior step each side.
            }
            assert!(out.stats.max_walk_len <= 1, "one step suffices from vertex 1");
        }
        assert!(kept_any, "some walks must survive across 50 seeds");
    }

    /// `terminal_walks` as a per-edge loop: every edge, terminal pairs
    /// included, draws its own stream, and the per-edge results are
    /// compacted afterwards. The chunked version must match it bit for
    /// bit.
    fn reference_terminal_walks(g: &MultiGraph, in_c: &[bool], seed: u64) -> TerminalWalksOutput {
        let n = g.num_vertices();
        let c_ids: Vec<u32> = (0..n as u32).filter(|&v| in_c[v as usize]).collect();
        let mut new_id = vec![u32::MAX; n];
        for (new, &old) in c_ids.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        let inc = g.incidence();
        let edges = g.edges();
        let samplers: Vec<Option<AliasTable>> = (0..n)
            .map(|v| {
                if in_c[v] || inc.degree(v) == 0 {
                    None
                } else {
                    let w: Vec<f64> =
                        inc.edges_at(v).iter().map(|&ei| edges[ei as usize].w).collect();
                    Some(AliasTable::new(&w))
                }
            })
            .collect();
        let walk_from = |start: u32, rng: &mut StreamRng| -> (u32, f64, u64) {
            let (mut v, mut sum_inv, mut steps) = (start, 0.0, 0u64);
            while !in_c[v as usize] {
                let slot = samplers[v as usize].as_ref().unwrap().sample(rng);
                let e = &edges[inc.edges_at(v as usize)[slot] as usize];
                sum_inv += 1.0 / e.w;
                v = e.other(v);
                steps += 1;
            }
            (v, sum_inv, steps)
        };
        let results: Vec<(Option<Edge>, u64)> = edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut rng = StreamRng::new(seed, i as u64);
                let (c1, s1, st1) = walk_from(e.u, &mut rng);
                let (c2, s2, st2) = walk_from(e.v, &mut rng);
                let w = 1.0 / (s1 + s2 + 1.0 / e.w);
                let kept =
                    (c1 != c2).then(|| Edge::new(new_id[c1 as usize], new_id[c2 as usize], w));
                (kept, st1 + st2)
            })
            .collect();
        let mut out_edges = Vec::new();
        let mut stats = WalkStats::default();
        for (maybe_edge, steps) in results {
            stats.total_steps += steps;
            stats.max_walk_len = stats.max_walk_len.max(steps);
            match maybe_edge {
                Some(e) => {
                    stats.kept += 1;
                    out_edges.push(e);
                }
                None => stats.discarded += 1,
            }
        }
        let m = edges.len() as u64;
        stats.cost = Cost::new(
            2 * m + stats.total_steps + 2 * m,
            log2_ceil(m.max(n as u64)) + stats.max_walk_len + 2 * log2_ceil(m),
        );
        TerminalWalksOutput { graph: MultiGraph::from_edges(c_ids.len(), out_edges), c_ids, stats }
    }

    #[test]
    fn chunked_walks_match_the_per_edge_reference() {
        use crate::five_dd::{five_dd_subset, SAMPLE_FRACTION};
        use parlap_primitives::util::with_threads;
        let bits = |g: &MultiGraph| -> Vec<(u32, u32, u64)> {
            g.edges().iter().map(|e| (e.u, e.v, e.w.to_bits())).collect()
        };
        // One graph below PAR_CUTOFF, one above; neither edge count is
        // a multiple of the chunk, so the last chunk is partial.
        for (n, p, graph_seed) in [(300, 0.05, 1), (1500, 0.01, 2)] {
            let g = generators::randomize_weights(
                &generators::gnp_connected(n, p, graph_seed),
                0.5,
                2.0,
                graph_seed,
            );
            let m = g.num_edges();
            assert_ne!(m % WALK_CHUNK, 0, "m = {m}");
            assert_eq!(m >= PAR_CUTOFF, graph_seed == 2, "m = {m}");
            let inc = g.incidence();
            let mut one_interior = vec![true; n];
            one_interior[n / 2] = false;
            let dd = five_dd_subset(
                &g,
                &inc,
                &g.weighted_degrees(),
                &mut StreamRng::new(3, 0),
                SAMPLE_FRACTION,
            );
            let five_dd_c: Vec<bool> = dd.in_f.iter().map(|&f| !f).collect();
            for (name, in_c) in [
                ("all terminals", vec![true; n]),
                ("one interior", one_interior),
                ("5-DD F", five_dd_c),
            ] {
                let want = reference_terminal_walks(&g, &in_c, 17);
                for threads in [1, 2] {
                    let got = with_threads(threads, || terminal_walks(&g, &inc, &in_c, 17));
                    let at = format!("m = {m}, {name}, {threads} threads");
                    assert_eq!(bits(&got.graph), bits(&want.graph), "{at}");
                    assert_eq!(got.graph.num_vertices(), want.graph.num_vertices(), "{at}");
                    assert_eq!(got.c_ids, want.c_ids, "{at}");
                    assert_eq!(got.stats, want.stats, "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty terminal set")]
    fn empty_c_panics() {
        let g = generators::path(3);
        terminal_walks(&g, &g.incidence(), &[false, false, false], 0);
    }
}
