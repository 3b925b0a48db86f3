//! Property-based tests (proptest) on cross-crate invariants.

use parlap::prelude::*;
use parlap_core::five_dd::{five_dd_subset, verify_five_dd, SAMPLE_FRACTION};
use parlap_core::walks::terminal_walks;
use parlap_graph::laplacian::to_dense;
use parlap_graph::multigraph::Edge;
use parlap_graph::schur::is_laplacian_matrix;
use proptest::prelude::*;

/// A random connected weighted multigraph: a spanning path plus extra
/// random edges (possibly parallel).
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = MultiGraph> {
    (3..max_n)
        .prop_flat_map(|n| {
            let extra =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..10.0), 0..(3 * n));
            let backbone = proptest::collection::vec(0.1f64..10.0, n - 1);
            (Just(n), backbone, extra)
        })
        .prop_map(|(n, backbone, extra)| {
            let mut edges: Vec<Edge> = backbone
                .into_iter()
                .enumerate()
                .map(|(i, w)| Edge::new(i as u32, i as u32 + 1, w))
                .collect();
            for (u, v, w) in extra {
                if u != v {
                    edges.push(Edge::new(u, v, w));
                }
            }
            MultiGraph::from_edges(n, edges)
        })
}

/// A random multigraph, possibly disconnected, with many parallel
/// edges and isolated vertices: endpoints come from the first `span`
/// ids only, so the ids from `span` to `n` never get an edge.
fn arb_multigraph(max_m: usize) -> impl Strategy<Value = MultiGraph> {
    (
        2usize..300,
        2u32..300,
        proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20, 0.1f64..10.0), 0..max_m),
    )
        .prop_map(|(n, span, raw)| {
            let span = span.min(n as u32);
            let edges: Vec<Edge> = raw
                .into_iter()
                .map(|(a, b, w)| (a % span, b % span, w))
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, w)| Edge::new(u, v, w))
                .collect();
            MultiGraph::from_edges(n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `edges_at(v)` lists exactly v's incident edge indices, in
    /// increasing order (the stable-sort order the walks' alias tables
    /// are built in), for edge counts on both sides of the 4k-record
    /// cutoff the incidence used to sort with, and of `PAR_CUTOFF`.
    #[test]
    fn incidence_lists_edges_in_index_order(g in arb_multigraph(12_000)) {
        let n = g.num_vertices();
        let inc = g.incidence();
        let mut expect: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, e) in g.edges().iter().enumerate() {
            expect[e.u as usize].push(i as u32);
            expect[e.v as usize].push(i as u32);
        }
        prop_assert_eq!(inc.num_vertices(), n);
        for (v, want) in expect.iter().enumerate() {
            let got = inc.edges_at(v);
            prop_assert!(got.windows(2).all(|p| p[0] < p[1]), "vertex {} not increasing", v);
            prop_assert_eq!(got, want.as_slice());
            prop_assert_eq!(inc.degree(v), want.len());
        }
    }

    /// Laplacian structure: zero row sums, symmetric, PSD on random
    /// test vectors.
    #[test]
    fn laplacian_invariants(g in arb_connected_graph(40), xs in proptest::collection::vec(-5.0f64..5.0, 40)) {
        let l = to_dense(&g);
        let n = g.num_vertices();
        prop_assert!(is_laplacian_matrix(&l, 1e-9));
        let x = &xs[..n.min(xs.len())];
        if x.len() == n {
            prop_assert!(l.quad_form(x) >= -1e-9, "xᵀLx = {}", l.quad_form(x));
        }
    }

    /// The sampled Schur complement is always a Laplacian of a graph on
    /// C with no more multi-edges than the input (Lemma 5.4 + 5.1
    /// structure), for arbitrary terminal sets.
    #[test]
    fn terminal_walks_structure(g in arb_connected_graph(30), seed in 0u64..5000, cut in 1usize..20) {
        let n = g.num_vertices();
        let c_count = (cut % (n - 1)) + 1; // 1..n
        let in_c: Vec<bool> = (0..n).map(|v| v < c_count).collect();
        let out = terminal_walks(&g, &g.incidence(), &in_c, seed);
        prop_assert!(out.graph.num_edges() <= g.num_edges());
        prop_assert_eq!(out.graph.num_vertices(), c_count);
        let lh = to_dense(&out.graph);
        prop_assert!(is_laplacian_matrix(&lh, 1e-9));
        // Every sampled weight is at most the max input weight (the
        // harmonic mean of a walk never exceeds its lightest edge).
        let wmax = g.edges().iter().map(|e| e.w).fold(0.0f64, f64::max);
        for e in out.graph.edges() {
            prop_assert!(e.w <= wmax + 1e-12, "sampled {} > max {}", e.w, wmax);
        }
    }

    /// 5DDSubset always returns a valid 5-DD subset of the demanded
    /// size fraction (Lemma 3.4), on arbitrary connected inputs.
    #[test]
    fn five_dd_always_valid(g in arb_connected_graph(60), seed in 0u64..5000) {
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut rng = StreamRng::new(seed, 0);
        let r = five_dd_subset(&g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION);
        prop_assert!(verify_five_dd(&g, &r.in_f));
        prop_assert!(r.f_set.len() * 40 >= g.num_vertices());
    }

    /// Uniform splitting never changes the Laplacian and always
    /// achieves the 1/s leverage bound (Lemma 3.2).
    #[test]
    fn split_preserves_system(g in arb_connected_graph(25), s in 1usize..6) {
        let h = parlap_core::alpha::split_uniform(&g, s);
        prop_assert_eq!(h.num_edges(), g.num_edges() * s);
        let d = to_dense(&g).subtract(&to_dense(&h)).max_abs();
        prop_assert!(d < 1e-9);
    }

    /// The solver delivers the requested accuracy on random graphs and
    /// random demands (Theorem 1.1, statistically).
    #[test]
    fn solver_accuracy_random_graphs(g in arb_connected_graph(40), seed in 0u64..1000) {
        let solver = LaplacianSolver::build(
            &g,
            SolverOptions { seed, ..Default::default() },
        ).expect("build");
        let b = vector::random_demand(g.num_vertices(), seed ^ 0xabc);
        let out = solver.solve(&b, 1e-4).expect("solve");
        let err = solver.relative_error(&b, &out.solution);
        prop_assert!(err <= 1e-4, "err = {err}");
    }

    /// CG and the solver agree on random instances.
    #[test]
    fn solver_matches_cg(g in arb_connected_graph(30), seed in 0u64..1000) {
        use parlap_graph::laplacian::to_csr;
        let n = g.num_vertices();
        let b = vector::random_demand(n, seed);
        let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
        let ours = solver.solve(&b, 1e-9).expect("solve").solution;
        let cg = cg_solve(&to_csr(&g), &b, 1e-12, 50_000).solution;
        let num: f64 = ours.iter().zip(&cg).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let den: f64 = cg.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        prop_assert!(num / den < 1e-5, "disagreement {}", num / den);
    }

    /// Lemma 5.3: effective resistance is a metric — the triangle
    /// inequality `R(u,z) ≤ R(u,v) + R(v,z)` holds for every triple.
    /// This is the fact TerminalWalks' α-closure (Lemma 5.2) rests on.
    #[test]
    fn effective_resistance_triangle_inequality(
        g in arb_connected_graph(16),
        picks in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16), 4),
    ) {
        use parlap_graph::laplacian::to_dense;
        let n = g.num_vertices();
        let pinv = to_dense(&g).pseudoinverse(1e-12);
        let r = |a: usize, b: usize| pinv.get(a, a) + pinv.get(b, b) - 2.0 * pinv.get(a, b);
        for (u, v, z) in picks {
            let (u, v, z) = (u % n, v % n, z % n);
            prop_assert!(
                r(u, z) <= r(u, v) + r(v, z) + 1e-9,
                "triangle violated: R({u},{z}) = {} > {} + {}",
                r(u, z), r(u, v), r(v, z)
            );
        }
    }

    /// Rayleigh monotonicity: adding an edge can only decrease every
    /// effective resistance (the reason sampled multi-edges cannot
    /// blow up leverage scores).
    #[test]
    fn rayleigh_monotonicity(
        g in arb_connected_graph(14),
        u in 0usize..14, v in 0usize..14, w in 0.1f64..5.0,
    ) {
        use parlap_graph::laplacian::to_dense;
        let n = g.num_vertices();
        let (u, v) = (u % n, v % n);
        prop_assume!(u != v);
        let pinv_before = to_dense(&g).pseudoinverse(1e-12);
        let mut h = g.clone();
        h.add_edge(u as u32, v as u32, w);
        let pinv_after = to_dense(&h).pseudoinverse(1e-12);
        let r = |p: &parlap_linalg::DenseMatrix, a: usize, b: usize|
            p.get(a, a) + p.get(b, b) - 2.0 * p.get(a, b);
        for a in 0..n {
            for b in (a + 1)..n {
                prop_assert!(
                    r(&pinv_after, a, b) <= r(&pinv_before, a, b) + 1e-9,
                    "R({a},{b}) increased after adding an edge"
                );
            }
        }
    }

    /// Parallel FastSV components agree with the sequential
    /// union-find count on arbitrary (possibly disconnected) graphs.
    #[test]
    fn parallel_components_agree_with_bfs(
        n in 2usize..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60, 0.1f64..2.0), 0..80),
    ) {
        let edges: Vec<Edge> = edges
            .into_iter()
            .filter(|&(u, v, _)| (u as usize) < n && (v as usize) < n && u != v)
            .map(|(u, v, w)| Edge::new(u, v, w))
            .collect();
        let g = MultiGraph::from_edges(n, edges);
        let cc = parlap_graph::components::parallel_components(&g);
        prop_assert_eq!(cc.count, parlap_graph::connectivity::num_components(&g));
    }
}

/// A random weighted multigraph that stresses Laplacian assembly:
/// parallel and reversed copies of one pair, a hub (vertex 0) with
/// degree far above 48, and isolated vertices (ids from `span` up get
/// no edge). Weights are not dyadic, so a sum taken in another order
/// changes bits.
fn arb_assembly_multigraph() -> impl Strategy<Value = MultiGraph> {
    (
        (2usize..160, 2u32..160),
        proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20, 0.1f64..10.0), 0..400),
        proptest::collection::vec((0u32..1 << 20, 0.1f64..10.0), 0..160),
    )
        .prop_map(|((n, span), raw, hub)| {
            let span = span.min(n as u32);
            let mut edges = Vec::new();
            for (i, &(a, b, w)) in raw.iter().enumerate() {
                let (u, v) = (a % span, b % span);
                if u != v {
                    edges.push(Edge::new(u, v, w));
                    if i % 3 == 0 {
                        edges.push(Edge::new(v, u, w * 0.7));
                    }
                }
            }
            for &(x, w) in &hub {
                let x = x % span;
                if x != 0 {
                    edges.push(if x % 2 == 0 { Edge::new(0, x, w) } else { Edge::new(x, 0, w) });
                }
            }
            MultiGraph::from_edges(n, edges)
        })
}

/// The reference `simplify`: a hash map sums each pair's copies in
/// edge order from 0.0, then a sort orders the pairs.
fn simplify_reference(g: &MultiGraph) -> Vec<Edge> {
    let mut acc: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    for e in g.edges() {
        *acc.entry((e.u.min(e.v), e.u.max(e.v))).or_insert(0.0) += e.w;
    }
    let mut edges: Vec<Edge> = acc.into_iter().map(|((u, v), w)| Edge::new(u, v, w)).collect();
    edges.sort_by_key(|e| (e.u, e.v));
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_csr` equals `from_triplets` over the four triplets of every
    /// edge, bit for bit: the same rows, columns and sums in input
    /// order, and an empty row for a vertex with no edges.
    #[test]
    fn to_csr_matches_the_triplet_assembly(g in arb_assembly_multigraph()) {
        use parlap_graph::laplacian::to_csr;
        use parlap_linalg::csr::CsrMatrix;
        use parlap_linalg::op::LinOp;
        let mut triplets = Vec::with_capacity(4 * g.num_edges());
        for e in g.edges() {
            triplets.push((e.u, e.u, e.w));
            triplets.push((e.v, e.v, e.w));
            triplets.push((e.u, e.v, -e.w));
            triplets.push((e.v, e.u, -e.w));
        }
        let n = g.num_vertices();
        let want = CsrMatrix::from_triplets(n, &triplets);
        let got = to_csr(&g);
        prop_assert_eq!(got.dim(), n);
        prop_assert_eq!(got.nnz(), want.nnz());
        for r in 0..n {
            let bits = |m: &CsrMatrix| m.row(r).map(|(c, v)| (c, v.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// `simplify` equals the hash-map version bit for bit: one edge per
    /// pair with the smaller endpoint first, ordered by pair, each
    /// weight summed in edge order.
    #[test]
    fn simplify_matches_the_hash_map_version(g in arb_assembly_multigraph()) {
        let s = g.simplify();
        prop_assert_eq!(s.num_vertices(), g.num_vertices());
        let bits = |edges: &[Edge]| edges.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(s.edges()), bits(&simplify_reference(&g)));
    }
}
