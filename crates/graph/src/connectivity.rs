//! Connectivity checking.
//!
//! The solver's precondition (Fact 2.3 context) is a *connected*
//! multigraph, and the chain re-checks it on every sampled Schur
//! complement. [`num_components`] is a union-find over the edge list:
//! no incidence structure, `O(m α(n))` work, and it stops reading edges
//! as soon as a single component remains — a connected multigraph is
//! usually settled long before its last edge.

use crate::multigraph::MultiGraph;

/// Number of connected components.
pub fn num_components(g: &MultiGraph) -> usize {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![1u32; n];
    let mut components = n;
    for e in g.edges() {
        if components == 1 {
            break;
        }
        let (a, b) = (find(&mut parent, e.u), find(&mut parent, e.v));
        if a != b {
            // Union by size: hang the smaller tree under the larger.
            let (big, small) = if size[a as usize] >= size[b as usize] { (a, b) } else { (b, a) };
            parent[small as usize] = big;
            size[big as usize] += size[small as usize];
            components -= 1;
        }
    }
    components
}

/// Root of `x`'s tree, halving the path on the way up.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grandparent = parent[parent[x as usize] as usize];
        parent[x as usize] = grandparent;
        x = grandparent;
    }
    x
}

/// True iff the multigraph is connected (and nonempty).
pub fn is_connected(g: &MultiGraph) -> bool {
    g.num_vertices() > 0 && num_components(g) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::Edge;

    #[test]
    fn single_vertex_is_connected() {
        assert!(is_connected(&MultiGraph::new(1)));
    }

    #[test]
    fn empty_graph_not_connected() {
        assert!(!is_connected(&MultiGraph::new(0)));
    }

    #[test]
    fn two_isolated_vertices() {
        let g = MultiGraph::new(2);
        assert!(!is_connected(&g));
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn path_is_connected() {
        let g = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0), Edge::new(2, 3, 1.0)],
        );
        assert!(is_connected(&g));
    }

    #[test]
    fn two_triangles_disconnected() {
        let g = MultiGraph::from_edges(
            6,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(4, 5, 1.0),
                Edge::new(3, 5, 1.0),
            ],
        );
        assert!(!is_connected(&g));
        assert_eq!(num_components(&g), 2);
    }

    #[test]
    fn large_star_is_one_component() {
        let n = 5000;
        let edges: Vec<Edge> = (1..n as u32).map(|i| Edge::new(0, i, 1.0)).collect();
        let g = MultiGraph::from_edges(n, edges);
        assert!(is_connected(&g));
        assert_eq!(num_components(&g), 1);
    }

    #[test]
    fn connected_prefix_then_many_more_edges() {
        // A spanning path first, then a long tail of chords: the count
        // reaches one after n − 1 edges, where the scan stops. (With n
        // even, 6i + 3 is odd, so no chord is a self-loop.)
        let n = 1000u32;
        let mut edges: Vec<Edge> = (0..n - 1).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        for i in 0..20 * n {
            edges.push(Edge::new(i % n, (7 * i + 3) % n, 1.0));
        }
        let g = MultiGraph::from_edges(n as usize, edges);
        assert_eq!(num_components(&g), 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn disconnected_with_many_parallel_edges() {
        // Two cliques' worth of parallel edges on {0, 1, 2} and {3, 4},
        // each pair repeated 50 times: still two components.
        let mut edges = Vec::new();
        for _ in 0..50 {
            for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)] {
                edges.push(Edge::new(u, v, 0.5));
            }
        }
        let g = MultiGraph::from_edges(5, edges);
        assert_eq!(num_components(&g), 2);
        assert!(!is_connected(&g));
    }

    #[test]
    fn one_vertex_is_one_component() {
        assert_eq!(num_components(&MultiGraph::new(1)), 1);
    }

    #[test]
    fn isolated_vertices_each_count() {
        // Edges on {0..4} only; vertices 5..9 are isolated.
        let edges: Vec<Edge> = (0..4).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        let g = MultiGraph::from_edges(10, edges);
        assert_eq!(num_components(&g), 1 + 5);
    }
}
