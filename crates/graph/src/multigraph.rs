//! The weighted multigraph type and its CSR incidence structure.

use parlap_primitives::scan::exclusive_scan;

/// A weighted multi-edge between two distinct vertices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint (`u != v`; self-loops are rejected).
    pub v: u32,
    /// Positive finite weight (conductance).
    pub w: f64,
}

impl Edge {
    /// Construct an edge, normalizing endpoint order is *not* done —
    /// multigraph edges are undirected but stored as given.
    #[inline]
    pub fn new(u: u32, v: u32, w: f64) -> Self {
        Edge { u, v, w }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    /// Panics (debug) if `x` is not an endpoint.
    #[inline]
    pub fn other(&self, x: u32) -> u32 {
        debug_assert!(x == self.u || x == self.v, "vertex {x} not on edge {self:?}");
        self.u ^ self.v ^ x
    }
}

/// A connected weighted undirected multigraph on vertices `0..n`.
///
/// Stored as a flat edge list; the CSR incidence structure
/// ([`Incidence`]) is built on demand by a counting sort. Multiple parallel
/// edges between the same endpoints are allowed and meaningful (they
/// carry the α-boundedness structure of the paper); self-loops are
/// rejected (they contribute nothing to a Laplacian).
#[derive(Clone, Debug)]
pub struct MultiGraph {
    n: usize,
    edges: Vec<Edge>,
}

impl MultiGraph {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        MultiGraph { n, edges: Vec::new() }
    }

    /// Build from an edge list.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or non-positive /
    /// non-finite weights.
    pub fn from_edges(n: usize, edges: Vec<Edge>) -> Self {
        for e in &edges {
            Self::validate_edge(n, e);
        }
        MultiGraph { n, edges }
    }

    fn validate_edge(n: usize, e: &Edge) {
        assert!(e.u != e.v, "self-loop at vertex {} rejected", e.u);
        assert!(
            (e.u as usize) < n && (e.v as usize) < n,
            "edge ({}, {}) out of range for n={n}",
            e.u,
            e.v
        );
        assert!(e.w.is_finite() && e.w > 0.0, "edge weight {} must be positive and finite", e.w);
    }

    /// Append one edge.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f64) {
        let e = Edge::new(u, v, w);
        Self::validate_edge(self.n, &e);
        self.edges.push(e);
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of multi-edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Consume into the raw edge list.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Sum of all edge weights (deterministic fixed-chunk tree
    /// reduction — bit-identical for any thread count).
    pub fn total_weight(&self) -> f64 {
        parlap_primitives::reduce::det_reduce_f64(self.edges.len(), |r| {
            self.edges[r].iter().map(|e| e.w).sum()
        })
    }

    /// Weighted degree `w(u) = Σ_{e ∋ u} w(e)` for every vertex.
    /// `O(m)` work.
    pub fn weighted_degrees(&self) -> Vec<f64> {
        let mut deg = vec![0.0f64; self.n];
        for e in &self.edges {
            deg[e.u as usize] += e.w;
            deg[e.v as usize] += e.w;
        }
        deg
    }

    /// Unweighted degree (number of incident multi-edges) per vertex.
    pub fn multi_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Build the CSR incidence structure (each edge listed under both
    /// endpoints) — the Lemma 2.7 conversion, as a stable counting sort
    /// of the `2m` incidence records by vertex: one pass counts each
    /// vertex's degree, an exclusive scan turns the counts into
    /// offsets, and one scatter in edge order fills the lists. `O(m +
    /// n)` work. [`Incidence::edges_at`] lists a vertex's edges in
    /// increasing index order, the order the walk samplers' alias
    /// tables are built in, so it is part of the determinism contract.
    pub fn incidence(&self) -> Incidence {
        let mut cursor = self.multi_degrees();
        let offsets = exclusive_scan(&cursor);
        cursor.copy_from_slice(&offsets[..self.n]);
        let mut inc_edges = vec![0u32; offsets[self.n]];
        for (i, e) in self.edges.iter().enumerate() {
            for x in [e.u as usize, e.v as usize] {
                inc_edges[cursor[x]] = i as u32;
                cursor[x] += 1;
            }
        }
        Incidence { offsets, inc_edges }
    }

    /// Merge parallel multi-edges into a simple weighted graph: one edge
    /// `(u, v, Σw)` with `u < v` per adjacent pair, ordered by `(u, v)`.
    /// The sparsify stage merges its sample with it
    /// (`parlap_core::sparsify`), and [`crate::io::write_matrix_market`]
    /// writes its edges.
    ///
    /// Two stable counting sorts, first by the larger endpoint and then
    /// by the smaller, group the copies of a pair in edge order, and
    /// each merged weight is their sum in that order. `O(n + m)`.
    pub fn simplify(&self) -> MultiGraph {
        let pairs: Vec<Edge> =
            self.edges.iter().map(|e| Edge::new(e.u.min(e.v), e.u.max(e.v), e.w)).collect();
        let by_larger = counting_sort(pairs, self.n, |e| e.v);
        let mut edges = counting_sort(by_larger, self.n, |e| e.u);
        let mut len = 0usize;
        for i in 0..edges.len() {
            let e = edges[i];
            if len > 0 && (edges[len - 1].u, edges[len - 1].v) == (e.u, e.v) {
                edges[len - 1].w += e.w;
            } else {
                edges[len] = e;
                len += 1;
            }
        }
        edges.truncate(len);
        edges.shrink_to_fit();
        MultiGraph { n: self.n, edges }
    }

    /// Restrict to the induced sub-multigraph on `keep` (a boolean
    /// membership mask), relabeling vertices to `0..keep.count()`.
    /// Returns the graph and the old-id list (`new → old`).
    pub fn induced_subgraph(&self, keep: &[bool]) -> (MultiGraph, Vec<u32>) {
        assert_eq!(keep.len(), self.n, "mask length mismatch");
        let old_ids: Vec<u32> = (0..self.n as u32).filter(|&v| keep[v as usize]).collect();
        let mut new_id = vec![u32::MAX; self.n];
        for (new, &old) in old_ids.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .filter(|e| keep[e.u as usize] && keep[e.v as usize])
            .map(|e| Edge::new(new_id[e.u as usize], new_id[e.v as usize], e.w))
            .collect();
        (MultiGraph { n: old_ids.len(), edges }, old_ids)
    }
}

/// Stable counting sort of `edges` by `key(e) < n`.
fn counting_sort(edges: Vec<Edge>, n: usize, key: impl Fn(&Edge) -> u32) -> Vec<Edge> {
    let mut cursor = vec![0usize; n];
    for e in &edges {
        cursor[key(e) as usize] += 1;
    }
    let offsets = exclusive_scan(&cursor);
    cursor.copy_from_slice(&offsets[..n]);
    let mut out = vec![Edge::new(0, 0, 0.0); edges.len()];
    for e in edges {
        let k = key(&e) as usize;
        out[cursor[k]] = e;
        cursor[k] += 1;
    }
    out
}

/// Incremental assembly of a [`MultiGraph`] from streamed edge chunks.
///
/// The chunked loaders ([`crate::dimacs::parse_dimacs_chunked`],
/// [`crate::io::parse_edge_list_chunked`]) feed fixed-size runs of
/// parsed edges straight into this builder instead of materializing a
/// separate whole-file edge list first. The built graph is a pure
/// function of the edge *sequence* — chunk boundaries never change the
/// result — which is what makes loaded graphs bit-identical across
/// chunk sizes.
///
/// Two vertex-count modes:
/// * [`GraphBuilder::with_vertices`] — the count is declared up front
///   (DIMACS problem line); endpoints are range-checked as they stream.
/// * [`GraphBuilder::inferred`] — the count becomes
///   `1 + max(endpoint)` at [`GraphBuilder::finish`] (plain edge
///   lists, which carry no header).
#[derive(Debug)]
pub struct GraphBuilder {
    declared_n: Option<usize>,
    /// `1 + max endpoint` streamed so far (inferred mode).
    max_seen: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Builder for a graph with a declared vertex count; every pushed
    /// endpoint is validated against it immediately.
    pub fn with_vertices(n: usize) -> Self {
        GraphBuilder { declared_n: Some(n), max_seen: 0, edges: Vec::new() }
    }

    /// Builder that infers the vertex count from the streamed
    /// endpoints at [`GraphBuilder::finish`].
    pub fn inferred() -> Self {
        GraphBuilder { declared_n: None, max_seen: 0, edges: Vec::new() }
    }

    /// Reserve capacity for `additional` more edges (e.g. from a
    /// DIMACS problem line's declared edge count).
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Append one edge.
    ///
    /// # Panics
    /// Panics on self-loops, non-positive / non-finite weights, and —
    /// under a declared vertex count — out-of-range endpoints, exactly
    /// like [`MultiGraph::add_edge`]. Format-level loaders perform
    /// their own friendlier `Result`-based validation before pushing.
    pub fn push(&mut self, u: u32, v: u32, w: f64) {
        let e = Edge::new(u, v, w);
        match self.declared_n {
            Some(n) => MultiGraph::validate_edge(n, &e),
            None => {
                assert!(e.u != e.v, "self-loop at vertex {} rejected", e.u);
                assert!(
                    e.w.is_finite() && e.w > 0.0,
                    "edge weight {} must be positive and finite",
                    e.w
                );
                self.max_seen = self.max_seen.max(e.u.max(e.v) as usize + 1);
            }
        }
        self.edges.push(e);
    }

    /// Append a parsed chunk in order ([`GraphBuilder::push`] per
    /// edge; same validation, same panics).
    pub fn push_chunk(&mut self, chunk: &[Edge]) {
        self.edges.reserve(chunk.len());
        for e in chunk {
            self.push(e.u, e.v, e.w);
        }
    }

    /// Number of edges streamed so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finish assembly. The edge storage is moved, not copied — the
    /// builder's buffer *is* the graph's edge list.
    pub fn finish(self) -> MultiGraph {
        let n = self.declared_n.unwrap_or(self.max_seen);
        MultiGraph { n, edges: self.edges }
    }
}

/// CSR incidence structure: for each vertex, the indices of its
/// incident multi-edges.
#[derive(Clone, Debug)]
pub struct Incidence {
    offsets: Vec<usize>,
    inc_edges: Vec<u32>,
}

impl Incidence {
    /// Edge indices incident to vertex `v`.
    #[inline]
    pub fn edges_at(&self, v: usize) -> &[u32] {
        &self.inc_edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Number of incident multi-edges of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> MultiGraph {
        MultiGraph::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(0, 2, 3.0)],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weighted_degrees(), vec![4.0, 3.0, 5.0]);
        assert_eq!(g.multi_degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7, 1.0);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        MultiGraph::from_edges(2, vec![Edge::new(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        MultiGraph::from_edges(2, vec![Edge::new(0, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        MultiGraph::from_edges(2, vec![Edge::new(0, 1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nan_weight() {
        MultiGraph::from_edges(2, vec![Edge::new(0, 1, f64::NAN)]);
    }

    #[test]
    fn incidence_structure() {
        let g = triangle();
        let inc = g.incidence();
        assert_eq!(inc.num_vertices(), 3);
        assert_eq!(inc.degree(0), 2);
        assert_eq!(inc.edges_at(0), &[0, 2]); // edges (0,1) and (0,2)
        assert_eq!(inc.edges_at(1), &[0, 1]);
        assert_eq!(inc.edges_at(2), &[1, 2]);
    }

    #[test]
    fn incidence_with_isolated_vertex() {
        let g = MultiGraph::from_edges(3, vec![Edge::new(0, 1, 1.0)]);
        let inc = g.incidence();
        assert_eq!(inc.degree(2), 0);
        assert_eq!(inc.edges_at(2), &[] as &[u32]);
    }

    #[test]
    fn parallel_edges_kept() {
        let g = MultiGraph::from_edges(
            2,
            vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0), Edge::new(1, 0, 3.0)],
        );
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.weighted_degrees(), vec![6.0, 6.0]);
        let s = g.simplify();
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.edges()[0].w, 6.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = triangle();
        let (sub, ids) = g.induced_subgraph(&[true, false, true]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.edges()[0], Edge::new(0, 1, 3.0));
    }

    #[test]
    fn simplify_merges_and_orders_deterministically() {
        let mut g = MultiGraph::new(4);
        for _ in 0..5 {
            g.add_edge(2, 1, 0.5);
            g.add_edge(1, 2, 0.5);
            g.add_edge(0, 3, 1.0);
        }
        let s = g.simplify();
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.edges()[0], Edge::new(0, 3, 5.0));
        assert_eq!(s.edges()[1], Edge::new(1, 2, 5.0));
        // Same electrical object: weighted degrees agree.
        assert_eq!(g.weighted_degrees(), s.weighted_degrees());
    }

    #[test]
    fn total_weight_large_parallel_path_matches() {
        let n = 20_000usize;
        let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1, 0.5)).collect();
        let g = MultiGraph::from_edges(n, edges);
        let expect = 0.5 * (n as f64 - 1.0);
        assert!((g.total_weight() - expect).abs() < 1e-9);
    }

    #[test]
    fn into_edges_roundtrip() {
        let g = triangle();
        let edges = g.clone().into_edges();
        let g2 = MultiGraph::from_edges(3, edges);
        assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn builder_declared_matches_from_edges() {
        let mut b = GraphBuilder::with_vertices(4);
        b.reserve(3);
        b.push(0, 1, 1.0);
        b.push_chunk(&[Edge::new(1, 2, 2.0), Edge::new(2, 3, 0.5)]);
        assert_eq!(b.num_edges(), 3);
        let g = b.finish();
        let h = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(2, 3, 0.5)],
        );
        assert_eq!(g.num_vertices(), h.num_vertices());
        assert_eq!(g.edges(), h.edges());
    }

    #[test]
    fn builder_infers_vertex_count() {
        let mut b = GraphBuilder::inferred();
        b.push(0, 7, 1.0);
        b.push(3, 2, 1.0);
        assert_eq!(b.finish().num_vertices(), 8);
        // Edgeless inferred graph has zero vertices.
        assert_eq!(GraphBuilder::inferred().finish().num_vertices(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range_eagerly() {
        GraphBuilder::with_vertices(2).push(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn builder_rejects_self_loop_in_inferred_mode() {
        GraphBuilder::inferred().push(3, 3, 1.0);
    }

    #[test]
    fn incidence_large_parallel_path() {
        // A path above PAR_CUTOFF: interior vertices list their two
        // edges in index order.
        let n = 10_000usize;
        let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let g = MultiGraph::from_edges(n, edges);
        let inc = g.incidence();
        assert_eq!(inc.degree(0), 1);
        assert_eq!(inc.degree(1), 2);
        assert_eq!(inc.degree(n - 1), 1);
        // Interior vertex i is incident to edges i-1 and i.
        assert_eq!(inc.edges_at(500), &[499, 500]);
    }
}
