//! Parallel connected components (FastSV).
//!
//! The solver's precondition (connectivity, Fact 2.3) is checked with
//! a sequential union-find in [`crate::connectivity`]; this module provides
//! the *parallel* counterpart in the paper's own cost model: the
//! Shiloach–Vishkin family of hook-and-shortcut algorithms,
//! specifically FastSV (Zhang–Azad–Hu 2020). Labels only decrease
//! (min-id hooking via atomic `fetch_min`), the pointer forest stays
//! acyclic, and the algorithm stabilizes in `O(log n)` rounds of
//! `O(m)` work — `O(m log n)` work, `O(log² n)` depth, comfortably
//! inside the solver's own budget.
//!
//! The final label of every vertex is the minimum vertex id of its
//! component, independent of scheduling — races only tighten the
//! labels, so the output is deterministic even though the execution
//! is not.

use crate::multigraph::MultiGraph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Connected-component labels: `labels[v]` is the smallest vertex id
/// in `v`'s component.
#[derive(Clone, Debug)]
pub struct Components {
    /// Per-vertex component representative (min id in the component).
    pub labels: Vec<u32>,
    /// Number of distinct components.
    pub count: usize,
    /// Hook/shortcut rounds until stabilization.
    pub rounds: usize,
}

impl Components {
    /// Whether `u` and `v` are in the same component.
    #[inline]
    pub fn connected(&self, u: usize, v: usize) -> bool {
        self.labels[u] == self.labels[v]
    }
}

/// Compute connected components with parallel FastSV.
pub fn parallel_components(g: &MultiGraph) -> Components {
    let n = g.num_vertices();
    if n == 0 {
        return Components { labels: Vec::new(), count: 0, rounds: 0 };
    }
    let f: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let edges = g.edges();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let changed = AtomicBool::new(false);
        // Hooking: for each edge, pull the (grand)parent of each side
        // down to the other side's parent. fetch_min keeps labels
        // monotone decreasing, so concurrent updates stay safe.
        edges.par_iter().for_each(|e| {
            let (u, v) = (e.u as usize, e.v as usize);
            let fu = f[u].load(Ordering::Relaxed) as usize;
            let fv = f[v].load(Ordering::Relaxed) as usize;
            let ffu = f[fu].load(Ordering::Relaxed);
            let ffv = f[fv].load(Ordering::Relaxed);
            // Stochastic hooking: f[f[u]] ← min(·, f[f[v]]) both ways.
            if ffv < ffu && f[fu].fetch_min(ffv, Ordering::Relaxed) > ffv {
                changed.store(true, Ordering::Relaxed);
            }
            if ffu < ffv && f[fv].fetch_min(ffu, Ordering::Relaxed) > ffu {
                changed.store(true, Ordering::Relaxed);
            }
            // Aggressive hooking: pull the vertices themselves.
            if ffv < ffu && f[u].fetch_min(ffv, Ordering::Relaxed) > ffv {
                changed.store(true, Ordering::Relaxed);
            }
            if ffu < ffv && f[v].fetch_min(ffu, Ordering::Relaxed) > ffu {
                changed.store(true, Ordering::Relaxed);
            }
        });
        // Shortcutting: f[v] ← f[f[v]] (pointer jumping).
        (0..n).into_par_iter().for_each(|v| {
            let fv = f[v].load(Ordering::Relaxed) as usize;
            let ffv = f[fv].load(Ordering::Relaxed);
            if ffv < f[v].load(Ordering::Relaxed) && f[v].fetch_min(ffv, Ordering::Relaxed) > ffv {
                changed.store(true, Ordering::Relaxed);
            }
        });
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
    // Final flatten (all chains have stabilized to roots already, but
    // one more pass guarantees labels[v] = root id).
    let labels: Vec<u32> = (0..n)
        .into_par_iter()
        .map(|v| {
            let mut x = f[v].load(Ordering::Relaxed);
            while f[x as usize].load(Ordering::Relaxed) != x {
                x = f[x as usize].load(Ordering::Relaxed);
            }
            x
        })
        .collect();
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for &l in &labels {
        if !seen[l as usize] {
            seen[l as usize] = true;
            count += 1;
        }
    }
    Components { labels, count, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::num_components;
    use crate::generators;
    use crate::multigraph::Edge;
    use parlap_primitives::prng::StreamRng;

    #[test]
    fn single_component_families() {
        for g in [
            generators::path(100),
            generators::cycle(64),
            generators::grid2d(12, 9),
            generators::complete(20),
            generators::gnp_connected(300, 0.02, 7),
        ] {
            let cc = parallel_components(&g);
            assert_eq!(cc.count, 1);
            assert!(cc.labels.iter().all(|&l| l == 0), "min-id label is 0");
        }
    }

    #[test]
    fn labels_are_component_minima() {
        // Three components: {0,1,2}, {3,4}, {5}.
        let g = MultiGraph::from_edges(
            6,
            vec![Edge::new(1, 2, 1.0), Edge::new(0, 2, 1.0), Edge::new(3, 4, 1.0)],
        );
        let cc = parallel_components(&g);
        assert_eq!(cc.count, 3);
        assert_eq!(cc.labels, vec![0, 0, 0, 3, 3, 5]);
        assert!(cc.connected(0, 1));
        assert!(!cc.connected(2, 3));
    }

    #[test]
    fn agrees_with_bfs_on_random_forests() {
        for seed in 0..20u64 {
            let mut rng = StreamRng::new(seed, 0);
            let n = 200;
            let mut edges = Vec::new();
            for _ in 0..150 {
                let u = rng.next_index(n) as u32;
                let v = rng.next_index(n) as u32;
                if u != v {
                    edges.push(Edge::new(u, v, 1.0));
                }
            }
            let g = MultiGraph::from_edges(n, edges);
            let cc = parallel_components(&g);
            assert_eq!(cc.count, num_components(&g), "seed {seed}");
            // Labels constant within and distinct across components.
            for e in g.edges() {
                assert_eq!(cc.labels[e.u as usize], cc.labels[e.v as usize]);
            }
        }
    }

    #[test]
    fn rounds_logarithmic_on_path() {
        // The worst case for naive label propagation is a path
        // (diameter n); FastSV must finish in O(log n) rounds.
        let g = generators::path(100_000);
        let cc = parallel_components(&g);
        assert_eq!(cc.count, 1);
        assert!(cc.rounds <= 40, "rounds {} should be O(log n) ≈ 17", cc.rounds);
    }

    #[test]
    fn empty_and_edgeless() {
        let cc = parallel_components(&MultiGraph::new(0));
        assert_eq!(cc.count, 0);
        let cc = parallel_components(&MultiGraph::new(5));
        assert_eq!(cc.count, 5);
        assert_eq!(cc.labels, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_edges_are_harmless() {
        let g = MultiGraph::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0), Edge::new(0, 1, 3.0)],
        );
        let cc = parallel_components(&g);
        assert_eq!(cc.count, 2);
    }
}
