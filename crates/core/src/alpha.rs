//! α-bounded edge splitting (Lemma 3.2 and the splitting step of
//! Lemma 3.3).
//!
//! A multi-edge is `α`-bounded when its leverage score
//! `τ(e) = w(e)·R_eff(e)` is at most `α`. Theorem 3.9 needs
//! `α⁻¹ = Θ(log² n)` for its martingale concentration. Since every
//! simple-graph edge has `τ(e) ≤ 1`, splitting each edge into `⌈α⁻¹⌉`
//! copies of `1/⌈α⁻¹⌉` times the weight makes the multigraph α-bounded
//! without changing its Laplacian (Lemma 3.2). With leverage-score
//! *overestimates* `τ̂(e)` (Section 6), `⌈τ̂(e)/α⌉` copies suffice,
//! giving `O(m + nKα⁻¹)` multi-edges instead of `O(mα⁻¹)`.

use crate::error::SolverError;
use parlap_graph::multigraph::{Edge, MultiGraph};
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// How to achieve the α-boundedness the chain's analysis wants.
#[derive(Clone, Debug, PartialEq)]
pub enum SplitStrategy {
    /// No splitting (α = 1). Cheapest build; the concentration
    /// guarantee is only heuristic, so pair with divergence checking.
    None,
    /// Split every edge into exactly this many copies (α = 1/copies).
    Fixed(usize),
    /// The paper's theoretical setting: `copies = ⌈c·log₂²n⌉`
    /// (Theorem 3.9's `α⁻¹ = Θ(log² n)` with tunable constant).
    LogSquared {
        /// Constant in front of `log₂² n`.
        c: f64,
    },
    /// Lemma 3.3: split edge `e` into `⌈τ̂(e)/α⌉` copies using
    /// leverage-score overestimates computed via uniform sparsification
    /// + Johnson–Lindenstrauss (Section 6).
    LeverageScore {
        /// Sparsification factor `K` (the paper picks `K = Θ(log³ n)`).
        k: usize,
        /// `α⁻¹` to target (e.g. `c·log₂² n`).
        alpha_inv: f64,
    },
}

impl SplitStrategy {
    /// Check the parameters: `Fixed(c)` needs `c ≥ 1`, `LogSquared` a
    /// finite `c > 0`, and `LeverageScore` `k ≥ 1` and a finite
    /// `alpha_inv ≥ 1`. The build pipeline calls this before any
    /// backend builds, so a bad split fails the same way under the
    /// multigrid backend (which ignores the split) as under the chain.
    pub fn validate(&self) -> Result<(), SolverError> {
        let bad = match self {
            SplitStrategy::Fixed(0) => "Fixed split of 0 copies".to_string(),
            SplitStrategy::LogSquared { c } if !(c.is_finite() && *c > 0.0) => {
                format!("LogSquared constant c = {c} must be finite and > 0")
            }
            SplitStrategy::LeverageScore { k, alpha_inv }
                if *k == 0 || !(alpha_inv.is_finite() && *alpha_inv >= 1.0) =>
            {
                let need = "LeverageScore needs k ≥ 1 and a finite alpha_inv ≥ 1";
                format!("{need} (k = {k}, alpha_inv = {alpha_inv})")
            }
            _ => return Ok(()),
        };
        Err(SolverError::InvalidOption(bad))
    }
}

impl Default for SplitStrategy {
    fn default() -> Self {
        // Practical default: a small fixed split gives the sampler
        // enough concentration on real workloads (experiment E10
        // sweeps this trade-off; measured λ(W·L) ⊂ [0.55, 3.1] at
        // split 4 across our families) without the Θ(log²n) blow-up.
        SplitStrategy::Fixed(4)
    }
}

/// `⌈c · log₂² n⌉`, the Theorem 3.9 copy count.
pub fn copies_for_log_squared(n: usize, c: f64) -> usize {
    assert!(c > 0.0, "log-squared constant must be positive");
    let lg = (n.max(2) as f64).log2();
    (c * lg * lg).ceil().max(1.0) as usize
}

/// Lemma 3.2: uniform split of every edge into `copies` pieces.
///
/// The output Laplacian is identical; every multi-edge is
/// `1/copies`-bounded. `O(m·copies)` work, `O(log)` depth (a flat
/// parallel tabulate).
pub fn split_uniform(g: &MultiGraph, copies: usize) -> MultiGraph {
    assert!(copies >= 1, "copies must be ≥ 1");
    if copies == 1 {
        return g.clone();
    }
    let edges = g.edges();
    let m = edges.len();
    let inv = copies as f64;
    let build = |idx: usize| {
        let e = &edges[idx / copies];
        Edge::new(e.u, e.v, e.w / inv)
    };
    let out: Vec<Edge> = if m * copies >= PAR_CUTOFF {
        (0..m * copies).into_par_iter().map(build).collect()
    } else {
        (0..m * copies).map(build).collect()
    };
    MultiGraph::from_edges(g.num_vertices(), out)
}

/// Split edge `e` into `⌈scores[e]/α⌉` copies (the Lemma 3.3 step,
/// given overestimates `scores`). Scores are clamped to `[α, 1]` so
/// every edge gets at least one copy and at most `⌈1/α⌉`.
pub fn split_by_scores(g: &MultiGraph, scores: &[f64], alpha: f64) -> MultiGraph {
    assert_eq!(scores.len(), g.num_edges(), "one score per edge required");
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
    let mut out = Vec::with_capacity(g.num_edges());
    for (e, &s) in g.edges().iter().zip(scores) {
        assert!(s.is_finite() && s >= 0.0, "invalid leverage estimate {s}");
        let s = s.clamp(alpha, 1.0);
        let copies = (s / alpha).ceil().max(1.0) as usize;
        let w = e.w / copies as f64;
        for _ in 0..copies {
            out.push(Edge::new(e.u, e.v, w));
        }
    }
    MultiGraph::from_edges(g.num_vertices(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::{leverage_scores_dense, to_dense};

    #[test]
    fn validate_accepts_in_range_parameters() {
        for ok in [
            SplitStrategy::None,
            SplitStrategy::Fixed(1),
            SplitStrategy::default(),
            SplitStrategy::LogSquared { c: 0.5 },
            SplitStrategy::LeverageScore { k: 1, alpha_inv: 1.0 },
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        let bad = SplitStrategy::LogSquared { c: f64::INFINITY };
        assert!(matches!(bad.validate(), Err(SolverError::InvalidOption(_))));
    }

    #[test]
    fn uniform_split_preserves_laplacian() {
        let g = generators::randomize_weights(&generators::gnp_connected(20, 0.2, 1), 0.5, 3.0, 2);
        let h = split_uniform(&g, 5);
        assert_eq!(h.num_edges(), 5 * g.num_edges());
        let lg = to_dense(&g);
        let lh = to_dense(&h);
        assert!(lg.subtract(&lh).max_abs() < 1e-12);
    }

    #[test]
    fn uniform_split_bounds_leverage() {
        // After an s-way split, every multi-edge has τ ≤ 1/s.
        let g = generators::gnp_connected(15, 0.3, 7);
        let s = 4;
        let h = split_uniform(&g, s);
        for tau in leverage_scores_dense(&h) {
            assert!(tau <= 1.0 / s as f64 + 1e-9, "tau={tau}");
        }
    }

    #[test]
    fn split_one_is_identity() {
        let g = generators::cycle(6);
        let h = split_uniform(&g, 1);
        assert_eq!(h.edges(), g.edges());
    }

    #[test]
    fn log_squared_counts() {
        assert_eq!(copies_for_log_squared(2, 1.0), 1);
        let c1024 = copies_for_log_squared(1024, 1.0);
        assert_eq!(c1024, 100); // log2 = 10 → 100
        assert_eq!(copies_for_log_squared(1024, 0.25), 25);
        assert!(copies_for_log_squared(1 << 20, 1.0) == 400);
    }

    #[test]
    fn score_split_preserves_laplacian_and_bounds() {
        let g = generators::randomize_weights(&generators::complete(10), 0.5, 2.0, 3);
        let exact = leverage_scores_dense(&g);
        // Overestimate by 1.3x, target α = 1/8.
        let scores: Vec<f64> = exact.iter().map(|t| (t * 1.3).min(1.0)).collect();
        let alpha = 0.125;
        let h = split_by_scores(&g, &scores, alpha);
        let lg = to_dense(&g);
        let lh = to_dense(&h);
        assert!(lg.subtract(&lh).max_abs() < 1e-12);
        for tau in leverage_scores_dense(&h) {
            assert!(tau <= alpha + 1e-9, "tau={tau}");
        }
        // Fewer edges than the naive ⌈1/α⌉-way split.
        assert!(h.num_edges() < g.num_edges() * 8);
    }

    #[test]
    fn score_split_clamps() {
        let g = generators::path(3);
        // Absurd scores are clamped into [α, 1].
        let h = split_by_scores(&g, &[5.0, 0.0], 0.5);
        assert_eq!(h.num_edges(), 2 + 1);
    }

    #[test]
    #[should_panic(expected = "one score per edge")]
    fn score_length_mismatch_panics() {
        let g = generators::path(3);
        split_by_scores(&g, &[1.0], 0.5);
    }

    #[test]
    fn default_strategy_is_practical() {
        assert_eq!(SplitStrategy::default(), SplitStrategy::Fixed(4));
    }
}
