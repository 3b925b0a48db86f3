//! `BlockCholesky` (Algorithm 1): the recursive sparse block Cholesky
//! factorization chain.
//!
//! Each round finds a 5-DD subset `F_k` (Algorithm 3), then replaces
//! the graph with an unbiased random-walk sample of its Schur
//! complement onto `C_k` (Algorithm 4). The chain
//! `(G(0), …, G(d); F_1, …, F_d)` terminates when ≤ `base_size`
//! (default 100, per the paper) vertices remain; the base Laplacian is
//! pseudo-inverted exactly by a dense grounded Cholesky.
//!
//! After the last round one pass puts the chain into elimination order
//! ([`CholeskyChain::order`]): `F_1`'s vertices first, then `F_2`'s,
//! …, then `G(d)`'s. Each `G(k)` is then a suffix of that order, so
//! [`crate::apply::ChainApply`] runs the whole forward/backward
//! substitution in place on one vector.
//!
//! Theorem 3.9 invariants, all checked by tests/experiments:
//! 1. every `G(k)` has at most `m` multi-edges,
//! 2. every `F_k` is 5-DD in `G(k-1)`,
//! 3. `|V(G(d))| = O(1)`,
//! 4. `d = O(log n)`,
//! 5. the implied factorization is a `0.5`-approximation of `L` w.h.p.
//!    (for `α⁻¹ = Θ(log² n)` input splitting).

use crate::backend::dense_base_pinv;
use crate::blocks::{CrossBlock, LocalLap};
use crate::error::SolverError;
use crate::five_dd::{five_dd_subset, SAMPLE_FRACTION};
use crate::walks::terminal_walks;
use parlap_graph::connectivity::num_components;
use parlap_graph::laplacian::to_dense;
use parlap_graph::multigraph::{Edge, MultiGraph};
use parlap_linalg::dense::DenseMatrix;
use parlap_primitives::cost::{Cost, CostMeter};
use parlap_primitives::prng::{mix2, StreamRng};
use std::borrow::Cow;
use std::time::Instant;

/// How many times [`block_cholesky`] and
/// [`crate::schur_approx::approx_schur`] resample a round whose sampled
/// Schur complement came out disconnected (the rare deviation event of
/// Theorem 3.9-(5)). The chain counts the retries it takes in
/// [`ChainStats::connectivity_retries_used`].
pub const CONNECTIVITY_RETRIES: usize = 3;

/// Options controlling chain construction.
#[derive(Clone, Debug)]
pub struct ChainOptions {
    /// Seed for all sampling (5-DD candidate sets and walks).
    pub seed: u64,
    /// Stop recursing when this few vertices remain (paper: 100).
    pub base_size: usize,
    /// `5DDSubset` candidate-set fraction (paper: 1/20).
    pub sample_fraction: f64,
    /// Hard cap on rounds (safety net; the paper proves `O(log n)`).
    pub max_rounds: usize,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            seed: 0x9a9a_1234,
            base_size: 100,
            sample_fraction: SAMPLE_FRACTION,
            max_rounds: 10_000,
        }
    }
}

/// One elimination round: the partition of `G(k)` into `F_{k+1} ⊔
/// C_{k+1}` and the block operators `ApplyCholesky` needs.
///
/// In the chain's elimination order ([`CholeskyChain::order`]), `G(k)`
/// is the suffix of positions from `n₀ − n` on (`n₀` the input's
/// vertex count). Its first [`nf`](Self::nf) positions are the level's
/// F slice, `F_{k+1}` in increasing `G(k)` id. The rest are `C_{k+1}`,
/// which is `G(k+1)` and so the next level's suffix.
#[derive(Clone, Debug)]
pub struct ChainLevel {
    /// `|V(G(k))|`.
    pub n: usize,
    /// Jacobi `X` diagonal over the F slice: weight from each F vertex
    /// to `C` (strictly positive for connected graphs).
    pub x_diag: Vec<f64>,
    /// `Y`: Laplacian of `G(k)[F]` over the F slice. Its adjacency
    /// holds one merged arc per distinct F–F pair (the weights of
    /// `G(k)`'s parallel multi-edges summed); its diagonal sums every
    /// multi-edge.
    pub ff: LocalLap,
    /// Crossing block: one merged arc per distinct `(c, f)` pair in
    /// each orientation. `f` indexes the F slice and `c` the suffix
    /// after it: the C-grouped row `r` is the suffix's `r`-th position,
    /// and the F-grouped arcs point at suffix positions.
    pub cross: CrossBlock,
    /// `|E(G(k))|`, counting multi-edges (Theorem 3.9-(1)
    /// bookkeeping), not the fewer merged arcs `ff` and `cross` store.
    pub m_edges: usize,
}

impl ChainLevel {
    /// `|F_{k+1}|`, the length of the level's F slice.
    pub fn nf(&self) -> usize {
        self.ff.dim()
    }
}

/// Statistics and PRAM costs recorded during construction.
#[derive(Clone, Debug, Default)]
pub struct ChainStats {
    /// `d`: number of elimination rounds.
    pub rounds: usize,
    /// `|V(G(k))|` for `k = 0..=d`.
    pub level_vertices: Vec<usize>,
    /// `|E(G(k))|` for `k = 0..=d`.
    pub level_edges: Vec<usize>,
    /// Sampling rounds inside each `5DDSubset` call.
    pub five_dd_rounds: Vec<usize>,
    /// Total walk steps per round.
    pub walk_total_steps: Vec<u64>,
    /// Longest walk per round.
    pub walk_max_len: Vec<u64>,
    /// Rounds that had to be resampled for connectivity.
    pub connectivity_retries_used: usize,
    /// Per-phase ledger: PRAM cost and wall-clock time
    /// ([`CostMeter::wall_by_label`]) of `five_dd` (the level's
    /// incidence and degrees, then `5DDSubset`), `terminal_walks`,
    /// `connectivity` (the check of each sampled Schur complement; it
    /// is outside the paper's cost model, so its cost is zero),
    /// `level_build` (each round's block data, plus the closing pass
    /// into elimination order, which is charged zero work) and
    /// `base_pinv`. Times are taken once per round (per attempt for the
    /// walks and their check) and never read by the build.
    pub meter: CostMeter,
}

/// The factorization chain of Theorem 3.9 plus the dense base-case
/// pseudoinverse.
#[derive(Clone, Debug)]
pub struct CholeskyChain {
    /// Per-round partition and block data, in elimination order.
    pub levels: Vec<ChainLevel>,
    /// The elimination order: `order[p]` is the input vertex at
    /// position `p`. Level 0's F slice comes first, then level 1's, and
    /// so on, then the base in `G(d)`'s vertex order.
    pub order: Vec<u32>,
    /// `L_{G(d)}⁺` (dense; `G(d)` has ≤ `base_size` vertices).
    pub base_pinv: DenseMatrix,
    /// `|V(G(d))|`.
    pub base_n: usize,
    /// `|V(G(0))|` — the dimension of the implied operator.
    pub n: usize,
    /// Jacobi sweeps `l` for the inner 5-DD solves: the paper's choice
    /// `ε = 1/(2d)` gives `l = O(log log n)`.
    pub jacobi_sweeps: usize,
    /// Construction statistics.
    pub stats: ChainStats,
}

impl CholeskyChain {
    /// `d`, the number of rounds.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// PRAM cost of one application of the implied operator `W`
    /// (Theorem 3.10: `O(m log n log log n)` work,
    /// `O(log m log n log log n)` depth), charged per merged arc the
    /// apply reads rather than per multi-edge of `G(k)`.
    pub fn apply_cost(&self) -> Cost {
        use parlap_primitives::cost::log2_ceil;
        // The permutations into and out of elimination order.
        let mut total = Cost::new(2 * self.n as u64, 2);
        for level in &self.levels {
            let nf = level.nf() as u64;
            let nc = (level.n - level.nf()) as u64;
            let m_ff = level.ff.num_edges() as u64;
            let m_cf = level.cross.num_crossings() as u64;
            let jacobi = Cost::new(2 * m_ff + 2 * nf, log2_ceil(m_ff.max(nf)) + 2)
                .repeat(self.jacobi_sweeps as u64 + 1);
            // Forward: Jacobi + crossing gather; backward: crossing
            // gather + Jacobi. Two Jacobi applies per level per solve.
            let cross = Cost::new(m_cf + nc, log2_ceil(m_cf.max(nc.max(1))) + 1);
            total = total.then(jacobi.repeat(2)).then(cross.repeat(2));
        }
        let b = self.base_n as u64;
        total.then(Cost::new(b * b, log2_ceil(b.max(1))))
    }

    /// Estimated resident bytes of the chain: the elimination order;
    /// per level the Jacobi `X` diagonal, the `G[F]` Laplacian (merged
    /// arcs stored in both directions plus offsets and diagonal), and
    /// the crossing block (merged arcs, both orientations); plus the
    /// dense `base_n × base_n` pseudoinverse.
    /// Counts the dominant arrays only — per-`Vec` headers and
    /// allocator slack are ignored — so this is a budget estimate, not
    /// an exact accounting.
    pub fn estimated_bytes(&self) -> usize {
        // One stored arc is a (u32, f64) pair: 16 bytes with padding.
        const ARC: usize = std::mem::size_of::<(u32, f64)>();
        let mut total = std::mem::size_of::<Self>() + self.order.len() * 4;
        for level in &self.levels {
            let nf = level.nf();
            let nc = level.n - nf;
            total += level.x_diag.len() * 8;
            // LocalLap: CSR offsets + merged arcs both ways + diag.
            total += (nf + 1) * 8 + 2 * level.ff.num_edges() * ARC + nf * 8;
            // CrossBlock: two orientations, each offsets + merged arcs.
            total += (nf + 1) * 8 + (nc + 1) * 8 + 2 * level.cross.num_crossings() * ARC;
        }
        total + self.base_n * self.base_n * 8
    }
}

/// Build the chain (Algorithm 1), in elimination order.
///
/// The input must be connected; it should already be `α`-bounded (via
/// [`crate::alpha`]) for the Theorem 3.9 concentration guarantee —
/// construction itself succeeds regardless.
pub fn block_cholesky(g: &MultiGraph, opts: &ChainOptions) -> Result<CholeskyChain, SolverError> {
    let (mut chain, parts) = block_cholesky_rounds(g, opts)?;
    let t = Instant::now();
    chain.order = into_elimination_order(&mut chain.levels, &parts, chain.base_n);
    chain.stats.meter.record_timed("level_build", Cost::ZERO, t.elapsed());
    Ok(chain)
}

/// One round's partition of `G(k)`, in `G(k)` ids: `f[i]` is the F
/// slice's `i`-th vertex, and `c[j]` is C-local vertex `j`, which is
/// `G(k+1)`'s vertex `j`.
pub(crate) struct Partition {
    pub(crate) f: Vec<u32>,
    pub(crate) c: Vec<u32>,
}

/// Algorithm 1's rounds and the base pinv, before the pass into
/// elimination order: each level's crossing block still names C by
/// C-local id, `order` is empty, and the partitions come back beside
/// the chain.
pub(crate) fn block_cholesky_rounds(
    g: &MultiGraph,
    opts: &ChainOptions,
) -> Result<(CholeskyChain, Vec<Partition>), SolverError> {
    let n0 = g.num_vertices();
    if n0 == 0 {
        return Err(SolverError::EmptyGraph);
    }
    let comps = num_components(g);
    if comps != 1 {
        return Err(SolverError::Disconnected { components: comps });
    }
    if opts.base_size < 1 {
        return Err(SolverError::InvalidOption("base_size must be ≥ 1".into()));
    }
    if !(opts.sample_fraction > 0.0 && opts.sample_fraction <= 1.0) {
        return Err(SolverError::InvalidOption("sample_fraction must be in (0,1]".into()));
    }

    let mut stats = ChainStats::default();
    let mut levels: Vec<ChainLevel> = Vec::new();
    let mut parts: Vec<Partition> = Vec::new();
    // Round 0 reads the caller's graph; later rounds own the sample.
    let mut cur = Cow::Borrowed(g);
    stats.level_vertices.push(cur.num_vertices());
    stats.level_edges.push(cur.num_edges());

    let mut k = 0usize;
    while cur.num_vertices() > opts.base_size {
        if k >= opts.max_rounds {
            return Err(SolverError::InvariantViolation(format!(
                "exceeded max_rounds={} with {} vertices left",
                opts.max_rounds,
                cur.num_vertices()
            )));
        }
        // One incidence per level, shared by 5DDSubset and every walk
        // attempt.
        let t = Instant::now();
        let inc = cur.incidence();
        let wdeg = cur.weighted_degrees();
        // F_{k+1} ← 5DDSubset(G(k)).
        let mut rng = StreamRng::new(opts.seed, mix2(0x5dd, k as u64));
        let dd = five_dd_subset(&cur, &inc, &wdeg, &mut rng, opts.sample_fraction);
        stats.meter.record_timed("five_dd", dd.cost, t.elapsed());
        stats.five_dd_rounds.push(dd.rounds);
        let in_c: Vec<bool> = dd.in_f.iter().map(|&f| !f).collect();

        // G(k+1) ← TerminalWalks(G(k), C_{k+1}), resampling the rare
        // disconnected draw (deviation event of Theorem 3.9-(5)).
        let mut attempt = 0usize;
        let out = loop {
            let walk_seed = mix2(opts.seed, mix2(k as u64, attempt as u64));
            let t = Instant::now();
            let out = terminal_walks(&cur, &inc, &in_c, walk_seed);
            stats.meter.record_timed("terminal_walks", out.stats.cost, t.elapsed());
            let t = Instant::now();
            let connected = num_components(&out.graph) == 1;
            stats.meter.record_timed("connectivity", Cost::ZERO, t.elapsed());
            if connected || attempt >= CONNECTIVITY_RETRIES {
                if attempt > 0 {
                    stats.connectivity_retries_used += attempt;
                }
                break out;
            }
            attempt += 1;
        };
        stats.walk_total_steps.push(out.stats.total_steps);
        stats.walk_max_len.push(out.stats.max_walk_len);

        // Level block data.
        let t = Instant::now();
        let level = build_level(&cur, &dd.in_f, &dd.f_set, &out.c_ids, &wdeg)?;
        stats.meter.record_timed("level_build", Cost::new(cur.num_edges() as u64, 12), t.elapsed());
        levels.push(level);
        parts.push(Partition { f: dd.f_set, c: out.c_ids });

        cur = Cow::Owned(out.graph);
        stats.level_vertices.push(cur.num_vertices());
        stats.level_edges.push(cur.num_edges());
        k += 1;
    }

    // Base case: the exact pinv of the ≤ base_size multigraph by
    // grounded Cholesky (`to_dense` sums its parallel edges).
    let t = Instant::now();
    let base_n = cur.num_vertices();
    let base_pinv = dense_base_pinv(&to_dense(&cur))?;
    stats.meter.record_timed(
        "base_pinv",
        Cost::new((base_n as u64).pow(3).max(1), (base_n as u64).max(1)),
        t.elapsed(),
    );
    stats.rounds = levels.len();

    // Jacobi ε = 1/(2d) per Algorithm 2 (d ≥ 1 to keep ε < 1).
    let d = levels.len().max(1);
    let jacobi_sweeps = crate::jacobi::sweeps_for(1.0 / (2.0 * d as f64));

    let chain =
        CholeskyChain { levels, order: Vec::new(), base_pinv, base_n, n: n0, jacobi_sweeps, stats };
    Ok((chain, parts))
}

/// Put the chain into elimination order and return `order` (see
/// [`CholeskyChain::order`]).
///
/// Walks the levels from the base up, tracking `pos`: each vertex's
/// position within the current `G(k+1)` suffix. Level `k`'s crossing
/// block gets its C ids renamed to those positions
/// ([`CrossBlock::relabel_c`]). Then `G(k)`'s positions follow: `F`
/// first in partition order, then `C` at `nf +` its `G(k+1)` position.
/// `ff` and `x_diag` are already in F-slice order. `O(Σ n_k + arcs)`
/// work, no arithmetic on weights.
pub(crate) fn into_elimination_order(
    levels: &mut [ChainLevel],
    parts: &[Partition],
    base_n: usize,
) -> Vec<u32> {
    let mut pos: Vec<u32> = (0..base_n as u32).collect();
    for (level, part) in levels.iter_mut().zip(parts).rev() {
        debug_assert_eq!(part.c.len(), pos.len());
        level.cross.relabel_c(&pos);
        let nf = part.f.len() as u32;
        let mut up = vec![0u32; level.n];
        for (i, &f) in part.f.iter().enumerate() {
            up[f as usize] = i as u32;
        }
        for (&c, &p) in part.c.iter().zip(&pos) {
            up[c as usize] = nf + p;
        }
        pos = up;
    }
    let mut order = vec![0u32; pos.len()];
    for (u, &p) in pos.iter().enumerate() {
        order[p as usize] = u as u32;
    }
    order
}

/// Split `G(k)`'s edges into the FF / CF / CC blocks and build the
/// level operators.
fn build_level(
    g: &MultiGraph,
    in_f: &[bool],
    f_set: &[u32],
    c_ids: &[u32],
    wdeg: &[f64],
) -> Result<ChainLevel, SolverError> {
    let n = g.num_vertices();
    let nf = f_set.len();
    let nc = c_ids.len();
    debug_assert_eq!(nf + nc, n);
    // old id → local index in its side.
    let mut local = vec![u32::MAX; n];
    for (i, &f) in f_set.iter().enumerate() {
        local[f as usize] = i as u32;
    }
    for (j, &c) in c_ids.iter().enumerate() {
        local[c as usize] = j as u32;
    }
    let mut ff_edges: Vec<Edge> = Vec::new();
    let mut crossings: Vec<(u32, u32, f64)> = Vec::new();
    for e in g.edges() {
        let fu = in_f[e.u as usize];
        let fv = in_f[e.v as usize];
        match (fu, fv) {
            (true, true) => ff_edges.push(Edge::new(local[e.u as usize], local[e.v as usize], e.w)),
            (true, false) => crossings.push((local[e.v as usize], local[e.u as usize], e.w)),
            (false, true) => crossings.push((local[e.u as usize], local[e.v as usize], e.w)),
            (false, false) => {} // CC edges are untouched by this level
        }
    }
    let ff = LocalLap::from_edges(nf, &ff_edges);
    // X_ii = w_G(i) − w_{G[F]}(i): the weight from i into C. Strictly
    // positive whenever G is connected and F is 5-DD. A pure element
    // map (entry i reads only its own degree pair), so the parallel
    // tabulate is schedule-independent; the invariant check runs after.
    let x_diag: Vec<f64> =
        parlap_primitives::util::par_tabulate(nf, |i| wdeg[f_set[i] as usize] - ff.diag()[i]);
    if let Some((i, &x)) = x_diag.iter().enumerate().find(|&(_, &x)| !(x > 0.0)) {
        let f = f_set[i];
        return Err(SolverError::InvariantViolation(format!(
            "F vertex {f} has no weight to C (x_diag = {x}); graph disconnected?"
        )));
    }
    let cross = CrossBlock::from_crossings(nc, nf, &crossings);
    Ok(ChainLevel { n, x_diag, ff, cross, m_edges: g.num_edges() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::five_dd::verify_five_dd;
    use parlap_graph::generators;

    fn opts(seed: u64) -> ChainOptions {
        ChainOptions { seed, ..ChainOptions::default() }
    }

    #[test]
    fn terminates_and_respects_invariants() {
        let g = generators::grid2d(40, 40); // 1600 vertices
        let chain = block_cholesky(&g, &opts(1)).expect("build");
        let m0 = g.num_edges();
        assert!(chain.base_n <= 100);
        assert!(chain.depth() > 0);
        // Theorem 3.9-(1): every level has ≤ m multi-edges.
        for (k, &m) in chain.stats.level_edges.iter().enumerate() {
            assert!(m <= m0, "level {k}: {m} > {m0}");
        }
        // Vertex counts strictly decrease by ≥ n/40 per round.
        for w in chain.stats.level_vertices.windows(2) {
            assert!(w[1] < w[0]);
            assert!((w[0] - w[1]) * 40 >= w[0], "shrink too small: {} -> {}", w[0], w[1]);
        }
        // Theorem 3.9-(4): d = O(log n) — numeric sanity bound using
        // the paper's worst-case base log_{40/39}.
        let d_bound = ((g.num_vertices() as f64).ln() / (40.0f64 / 39.0).ln()).ceil() as usize;
        assert!(chain.depth() <= d_bound, "d = {} > bound {d_bound}", chain.depth());
    }

    #[test]
    fn small_graph_is_base_case_only() {
        let g = generators::complete(10);
        let chain = block_cholesky(&g, &opts(2)).expect("build");
        assert_eq!(chain.depth(), 0);
        assert_eq!(chain.base_n, 10);
        assert_eq!(chain.n, 10);
        assert_eq!(chain.order, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn rejects_disconnected() {
        let mut g = MultiGraph::new(10);
        g.add_edge(0, 1, 1.0);
        let err = block_cholesky(&g, &opts(0)).unwrap_err();
        assert!(matches!(err, SolverError::Disconnected { .. }));
    }

    #[test]
    fn rejects_empty() {
        let g = MultiGraph::new(0);
        assert_eq!(block_cholesky(&g, &opts(0)).unwrap_err(), SolverError::EmptyGraph);
    }

    #[test]
    fn levels_partition_vertices_and_are_5dd() {
        let g = generators::gnp_connected(600, 0.01, 7);
        let chain = block_cholesky(&g, &opts(3)).expect("build");
        // `order` lists every input vertex once, and the F slices then
        // the base tile it: level k starts at position n − n_k.
        let mut seen = vec![false; chain.n];
        for &u in &chain.order {
            assert!(!std::mem::replace(&mut seen[u as usize], true), "vertex {u} listed twice");
        }
        assert!(seen.iter().all(|&s| s), "order misses a vertex");
        let mut start = 0;
        // Walk the chain re-deriving each level's graph is costly; we
        // check partition sizes and the stored 5-DD data instead.
        for level in &chain.levels {
            assert_eq!(chain.n - level.n, start);
            assert!(level.nf() > 0 && level.nf() < level.n);
            assert_eq!(level.x_diag.len(), level.nf());
            assert_eq!(level.cross.grouped_by_c().num_sources(), level.n - level.nf());
            start += level.nf();
            // x_diag strictly positive and consistent with 5-DD:
            // internal degree ≤ total/5 ⟺ x ≥ 4/5 · wdeg.
            for (i, &x) in level.x_diag.iter().enumerate() {
                let within = level.ff.diag()[i];
                assert!(x > 0.0);
                assert!(
                    within <= (within + x) / 5.0 + 1e-9,
                    "F vertex {i} not 5-DD: within={within}, x={x}"
                );
            }
        }
        assert_eq!(chain.n - start, chain.base_n);
    }

    #[test]
    fn first_level_f_is_5dd_in_input() {
        let g = generators::grid2d(25, 25);
        let chain = block_cholesky(&g, &opts(5)).expect("build");
        let mut in_f = vec![false; g.num_vertices()];
        for &f in &chain.order[..chain.levels[0].nf()] {
            in_f[f as usize] = true;
        }
        assert!(verify_five_dd(&g, &in_f));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(400, 0.02, 9);
        let a = block_cholesky(&g, &opts(11)).expect("build");
        let b = block_cholesky(&g, &opts(11)).expect("build");
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.stats.level_edges, b.stats.level_edges);
        assert_eq!(a.stats.level_vertices, b.stats.level_vertices);
    }

    #[test]
    fn jacobi_sweeps_grow_with_depth() {
        // ε = 1/(2d) ⇒ sweeps ≈ log2(6d), odd.
        let g = generators::grid2d(40, 40);
        let chain = block_cholesky(&g, &opts(1)).expect("build");
        let d = chain.depth() as f64;
        let expect = crate::jacobi::sweeps_for(1.0 / (2.0 * d));
        assert_eq!(chain.jacobi_sweeps, expect);
        assert!(chain.jacobi_sweeps % 2 == 1);
    }

    #[test]
    fn cost_meter_has_all_phases() {
        let g = generators::grid2d(30, 30);
        let chain = block_cholesky(&g, &opts(1)).expect("build");
        let labels: Vec<String> =
            chain.stats.meter.by_label().into_iter().map(|(l, _)| l).collect();
        for needed in ["five_dd", "terminal_walks", "level_build", "base_pinv"] {
            assert!(labels.iter().any(|l| l == needed), "missing phase {needed}");
        }
        let wall = chain.stats.meter.wall_by_label();
        for needed in ["five_dd", "terminal_walks", "connectivity", "level_build", "base_pinv"] {
            let time = wall.iter().find(|(l, _)| l == needed).map(|&(_, t)| t);
            assert!(time.is_some_and(|t| !t.is_zero()), "phase {needed} has no wall time");
        }
        assert!(chain.apply_cost().work > 0);
    }

    #[test]
    fn no_level_stores_a_parallel_arc() {
        // Every grid edge as 4 parallel copies, and a dense graph whose
        // sampled levels pile up multi-edges.
        let split = crate::alpha::split_uniform(&generators::grid2d(30, 30), 4);
        let dense = generators::gnp_connected(200, 0.3, 4);
        for g in [&split, &dense] {
            let chain = block_cholesky(g, &opts(6)).expect("build");
            assert!(chain.depth() > 0);
            assert_eq!(chain.stats.level_edges[0], g.num_edges());
            for (k, level) in chain.levels.iter().enumerate() {
                let blocks =
                    [level.ff.adjacency(), level.cross.grouped_by_c(), level.cross.grouped_by_f()];
                for csr in blocks {
                    for s in 0..csr.num_sources() {
                        let mut targets: Vec<u32> = csr.arcs_at(s).iter().map(|a| a.0).collect();
                        targets.sort_unstable();
                        targets.dedup();
                        assert_eq!(
                            targets.len(),
                            csr.arcs_at(s).len(),
                            "level {k}: row {s} lists a target twice"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_options_rejected() {
        let g = generators::path(5);
        let bad = ChainOptions { base_size: 0, ..ChainOptions::default() };
        assert!(matches!(block_cholesky(&g, &bad).unwrap_err(), SolverError::InvalidOption(_)));
        let bad2 = ChainOptions { sample_fraction: 0.0, ..ChainOptions::default() };
        assert!(matches!(block_cholesky(&g, &bad2).unwrap_err(), SolverError::InvalidOption(_)));
    }
}
