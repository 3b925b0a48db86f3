//! `ApproxSchur` (Algorithm 6, Section 7): sparse ε-approximate Schur
//! complements.
//!
//! A small twist on `BlockCholesky`: instead of eliminating 5-DD
//! subsets of the *whole* graph, eliminate 5-DD subsets of the
//! still-to-be-eliminated interior `U = V ∖ C` (a 5-DD subset of an
//! induced subgraph is 5-DD in the full graph) and run `TerminalWalks`
//! towards everything not yet eliminated. After `O(log |U|)` rounds
//! the interior is gone and the remaining multigraph `G_S` on exactly
//! the terminal set `C` satisfies, w.h.p. (Theorem 7.1):
//!
//! 1. `L_{G_S} ≈_ε SC(L_G, C)` for `α⁻¹ = Θ(ε⁻² log² n)` input
//!    splitting;
//! 2. `|E(G_S)| ≤ m`.

use crate::alpha::split_uniform;
use crate::chain::CONNECTIVITY_RETRIES;
use crate::error::SolverError;
use crate::five_dd::{five_dd_subset, SAMPLE_FRACTION};
use crate::walks::terminal_walks;
use parlap_graph::connectivity::num_components;
use parlap_graph::multigraph::MultiGraph;
use parlap_primitives::cost::CostMeter;
use parlap_primitives::prng::{mix2, StreamRng};

/// Options for [`approx_schur`].
#[derive(Clone, Debug)]
pub struct ApproxSchurOptions {
    /// Seed for all sampling.
    pub seed: u64,
    /// Uniform α⁻¹ split applied before elimination. Theorem 7.1 wants
    /// `Θ(ε⁻² log² n)`; the experiments sweep the practical range.
    pub split: usize,
    /// `5DDSubset` candidate fraction.
    pub sample_fraction: f64,
}

impl Default for ApproxSchurOptions {
    fn default() -> Self {
        ApproxSchurOptions { seed: 0x5c4u64, split: 4, sample_fraction: SAMPLE_FRACTION }
    }
}

/// Result of `ApproxSchur`.
#[derive(Clone, Debug)]
pub struct ApproxSchurResult {
    /// `G_S` on relabeled terminals `0..|C|`.
    pub graph: MultiGraph,
    /// `new → old`: original vertex id for each vertex of `G_S`
    /// (ascending).
    pub c_ids: Vec<u32>,
    /// Elimination rounds `d` (Theorem 7.1: `O(log |V∖C|)`).
    pub rounds: usize,
    /// Per-phase PRAM cost ledger.
    pub meter: CostMeter,
}

/// Compute a sparse approximation of `SC(L_G, C)`.
///
/// `terminals` lists the vertices of `C` (distinct, non-empty, and a
/// strict subset unless you want a copy of `G` back).
pub fn approx_schur(
    g: &MultiGraph,
    terminals: &[u32],
    opts: &ApproxSchurOptions,
) -> Result<ApproxSchurResult, SolverError> {
    let n = g.num_vertices();
    if n == 0 {
        return Err(SolverError::EmptyGraph);
    }
    let comps = num_components(g);
    if comps != 1 {
        return Err(SolverError::Disconnected { components: comps });
    }
    if terminals.is_empty() {
        return Err(SolverError::InvalidOption("terminal set must be non-empty".into()));
    }
    if opts.split == 0 {
        return Err(SolverError::InvalidOption("split must be ≥ 1".into()));
    }
    let mut orig_terminal = vec![false; n];
    for &c in terminals {
        if c as usize >= n {
            return Err(SolverError::InvalidOption(format!("terminal {c} out of range")));
        }
        if orig_terminal[c as usize] {
            return Err(SolverError::InvalidOption(format!("duplicate terminal {c}")));
        }
        orig_terminal[c as usize] = true;
    }

    let mut meter = CostMeter::new();
    let mut cur = split_uniform(g, opts.split);
    // cur-local → original id.
    let mut cur_ids: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0usize;
    loop {
        // U = interior vertices still present.
        let in_u: Vec<bool> = cur_ids.iter().map(|&o| !orig_terminal[o as usize]).collect();
        if !in_u.iter().any(|&b| b) {
            break;
        }
        // F ← 5DDSubset(cur[U]) (5-DD in the induced subgraph implies
        // 5-DD in cur).
        let (sub, sub_ids) = cur.induced_subgraph(&in_u);
        let sub_inc = sub.incidence();
        let sub_wdeg = sub.weighted_degrees();
        let mut rng = StreamRng::new(opts.seed, mix2(0x5c4, rounds as u64));
        let dd = five_dd_subset(&sub, &sub_inc, &sub_wdeg, &mut rng, opts.sample_fraction);
        meter.record("five_dd", dd.cost);
        // Terminal mask for this round: everything except F.
        let mut in_c = vec![true; cur.num_vertices()];
        for &f_sub in &dd.f_set {
            in_c[sub_ids[f_sub as usize] as usize] = false;
        }
        // Walks, with connectivity retry, all on one incidence.
        let inc = cur.incidence();
        let mut attempt = 0usize;
        let out = loop {
            let walk_seed = mix2(opts.seed, mix2(rounds as u64, attempt as u64));
            let out = terminal_walks(&cur, &inc, &in_c, walk_seed);
            meter.record("terminal_walks", out.stats.cost);
            if num_components(&out.graph) == 1 || attempt >= CONNECTIVITY_RETRIES {
                break out;
            }
            attempt += 1;
        };
        cur_ids = out.c_ids.iter().map(|&c| cur_ids[c as usize]).collect();
        cur = out.graph;
        rounds += 1;
        if rounds > 64 * 64 {
            return Err(SolverError::InvariantViolation(
                "ApproxSchur failed to drain the interior".into(),
            ));
        }
    }
    Ok(ApproxSchurResult { graph: cur, c_ids: cur_ids, rounds, meter })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_dense;
    use parlap_graph::schur::{is_laplacian_matrix, schur_complement_dense};
    use parlap_linalg::approx::loewner_eps;

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn result_lands_on_terminals() {
        let g = generators::gnp_connected(200, 0.03, 1);
        let terminals: Vec<u32> = (0..200u32).filter(|v| v % 4 == 0).collect();
        let r = approx_schur(&g, &terminals, &ApproxSchurOptions::default()).expect("schur");
        assert_eq!(r.c_ids, sorted(terminals));
        assert!(r.rounds >= 1);
    }

    #[test]
    fn edge_count_bounded_by_split_input() {
        let g = generators::gnp_connected(300, 0.02, 5);
        let terminals: Vec<u32> = (0..60u32).collect();
        let opts = ApproxSchurOptions::default();
        let r = approx_schur(&g, &terminals, &opts).expect("schur");
        assert!(
            r.graph.num_edges() <= g.num_edges() * opts.split,
            "{} > m = {}",
            r.graph.num_edges(),
            g.num_edges() * opts.split
        );
    }

    #[test]
    fn approximates_dense_oracle() {
        // Theorem 7.1 quality check on a small graph where the exact
        // SC is computable. Generous ε for practical split factors.
        let g = generators::gnp_connected(60, 0.15, 7);
        let terminals: Vec<u32> = (0..15u32).collect();
        let opts = ApproxSchurOptions { split: 8, ..Default::default() };
        let r = approx_schur(&g, &terminals, &opts).expect("schur");
        let approx = to_dense(&r.graph);
        assert!(is_laplacian_matrix(&approx, 1e-9));
        let exact = schur_complement_dense(&g, &r.c_ids);
        let eps = loewner_eps(&approx, &exact, 1e-8);
        assert!(eps < 1.0, "L_GS ≈_eps SC with eps = {eps}");
    }

    #[test]
    fn quality_improves_with_split() {
        let g = generators::grid2d(8, 8);
        let terminals: Vec<u32> = (0..16u32).collect();
        let mut epss = Vec::new();
        for split in [1usize, 4, 16] {
            // Average over seeds to smooth sampling noise.
            let mut tot = 0.0;
            for seed in 0..3u64 {
                let opts = ApproxSchurOptions { split, seed, ..Default::default() };
                let r = approx_schur(&g, &terminals, &opts).expect("schur");
                let approx = to_dense(&r.graph);
                let exact = schur_complement_dense(&g, &r.c_ids);
                tot += loewner_eps(&approx, &exact, 1e-8).min(10.0);
            }
            epss.push(tot / 3.0);
        }
        assert!(epss[2] < epss[0], "no quality improvement with splitting: {epss:?}");
    }

    #[test]
    fn rounds_logarithmic_in_interior() {
        let g = generators::grid2d(30, 30);
        let terminals: Vec<u32> = (0..30u32).collect(); // tiny C, big U
        let r = approx_schur(&g, &terminals, &ApproxSchurOptions::default()).expect("schur");
        let s = (900 - 30) as f64;
        let bound = (s.ln() / (40.0f64 / 39.0).ln()).ceil() as usize;
        assert!(r.rounds <= bound, "rounds {} > bound {bound}", r.rounds);
    }

    #[test]
    fn all_terminals_returns_input() {
        let g = generators::cycle(10);
        let terminals: Vec<u32> = (0..10).collect();
        let opts = ApproxSchurOptions { split: 1, ..Default::default() };
        let r = approx_schur(&g, &terminals, &opts).expect("schur");
        assert_eq!(r.rounds, 0);
        assert_eq!(r.graph.num_edges(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(150, 0.04, 9);
        let terminals: Vec<u32> = (0..40u32).collect();
        let a = approx_schur(&g, &terminals, &ApproxSchurOptions::default()).expect("schur");
        let b = approx_schur(&g, &terminals, &ApproxSchurOptions::default()).expect("schur");
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::path(6);
        let opts = ApproxSchurOptions::default();
        assert!(approx_schur(&g, &[], &opts).is_err());
        assert!(approx_schur(&g, &[9], &opts).is_err());
        assert!(approx_schur(&g, &[1, 1], &opts).is_err());
        let mut dg = MultiGraph::new(4);
        dg.add_edge(0, 1, 1.0);
        assert!(matches!(
            approx_schur(&dg, &[0], &opts).unwrap_err(),
            SolverError::Disconnected { .. }
        ));
    }
}
