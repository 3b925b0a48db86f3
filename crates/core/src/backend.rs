//! The preconditioner backend boundary: one trait, many factorizations.
//!
//! The paper's randomized block-Cholesky chain ([`crate::chain`] +
//! [`crate::apply`]) is one way to build an operator `W ≈ L⁺`;
//! unsmoothed-aggregation multigrid ([`crate::multigrid`], after LAMG
//! and Konolige's parallel Laplacian solver) is another. Everything
//! above the preconditioner — the outer PCG/Richardson loop,
//! the serving tier, the registry's byte budgets — only needs the
//! contract captured by [`Preconditioner`]:
//!
//! * **build** from a [`MultiGraph`] + [`SolverOptions`], failing with
//!   a [`SolverError`] on bad input;
//! * a **deterministic apply**: for a fixed built backend, `apply`
//!   output is bit-identical at any worker count (the same fixed-chunk
//!   reduction / element-map policy the rest of the solve path obeys);
//! * an **`estimated_bytes`** resident-size estimate, which the
//!   [`crate::registry::SolverRegistry`] eviction budget consumes —
//!   budgets are therefore backend-aware for free;
//! * a stable **`descriptor`** string for logging and registry keys: a
//!   pure function of the built state, so two builds from the same
//!   graph and options produce the same descriptor.
//!
//! Backend selection is [`SolverOptions::backend`], defaulting to the
//! `PARLAP_BACKEND` environment variable (`chain`, `multigrid`, or
//! `auto`; unset keeps the chain, preserving bit-compatibility with
//! previous releases). [`BackendKind::Auto`] picks per graph family:
//! low-degree, low-skew graphs (meshes, tori, paths) go to multigrid;
//! skewed or dense graphs (preferential attachment, Gnp, cliques) stay
//! on the chain.

use crate::apply::ChainBackend;
use crate::error::SolverError;
use crate::multigrid::MultigridBackend;
use crate::solver::SolverOptions;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::dense::DenseMatrix;
use parlap_primitives::cost::Cost;

/// Which preconditioner backend a solver builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Decide per graph at build time from cheap structural statistics
    /// (average degree and degree skew; see [`BackendKind::resolve`]).
    Auto,
    /// The paper's randomized block-Cholesky chain (Theorem 3.9) —
    /// the default, bit-identical to previous releases.
    Chain,
    /// Unsmoothed-aggregation multigrid: deterministic greedy matching
    /// → Galerkin coarsening → symmetric V-cycles
    /// ([`crate::multigrid`]).
    Multigrid,
}

/// Average-degree ceiling for `Auto` to pick multigrid: meshes and
/// tori sit at ≤ 4 neighbors; anything denser aggregates poorly under
/// pairwise matching.
const AUTO_MAX_AVG_DEGREE: f64 = 4.5;
/// Degree-skew (max/avg) ceiling for `Auto` to pick multigrid: hubs
/// (preferential attachment, stars) defeat piecewise-constant coarse
/// spaces, so skewed graphs stay on the chain.
const AUTO_MAX_DEGREE_SKEW: f64 = 3.0;

impl BackendKind {
    /// Parse a `PARLAP_BACKEND` value (case-insensitive). Empty means
    /// unset (the `Chain` default, preserving bit-compatibility with
    /// previous releases — CI legs pass `""` for "no override");
    /// anything other than `chain`/`multigrid`/`auto` — e.g. the typo
    /// `mg` — is rejected with a clear error instead of silently
    /// running the wrong backend.
    pub fn parse_env(value: &str) -> Result<Self, String> {
        match value {
            "" => Ok(BackendKind::Chain),
            v if v.eq_ignore_ascii_case("chain") => Ok(BackendKind::Chain),
            v if v.eq_ignore_ascii_case("multigrid") => Ok(BackendKind::Multigrid),
            v if v.eq_ignore_ascii_case("auto") => Ok(BackendKind::Auto),
            other => Err(format!(
                "unrecognized PARLAP_BACKEND value {other:?}: expected \"chain\", \"multigrid\", or \"auto\""
            )),
        }
    }

    /// Default from the `PARLAP_BACKEND` environment variable, read
    /// once per process via [`BackendKind::parse_env`]. Panics with a
    /// clear message on an unrecognized value.
    pub fn default_from_env() -> Self {
        static CACHE: std::sync::OnceLock<BackendKind> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| match std::env::var("PARLAP_BACKEND") {
            Ok(v) => Self::parse_env(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => BackendKind::Chain,
        })
    }

    /// Resolve `Auto` against a concrete graph; `Chain` and
    /// `Multigrid` return themselves. The heuristic uses structural
    /// degrees only (no weights, no randomness): multigrid wins on
    /// mesh-like graphs — average degree ≤ 4.5 **and** max/avg degree
    /// skew ≤ 3 — and the chain keeps everything else. Degrees are
    /// invariant under renumbering, so the answer does not depend on
    /// the vertex numbering.
    pub fn resolve(self, g: &MultiGraph) -> BackendKind {
        match self {
            BackendKind::Chain => BackendKind::Chain,
            BackendKind::Multigrid => BackendKind::Multigrid,
            BackendKind::Auto => {
                let n = g.num_vertices();
                if n == 0 {
                    return BackendKind::Chain;
                }
                let degs = g.multi_degrees();
                let max_deg = degs.iter().copied().max().unwrap_or(0) as f64;
                let avg_deg = 2.0 * g.num_edges() as f64 / n as f64;
                let skew = if avg_deg > 0.0 { max_deg / avg_deg } else { 1.0 };
                if avg_deg <= AUTO_MAX_AVG_DEGREE && skew <= AUTO_MAX_DEGREE_SKEW {
                    BackendKind::Multigrid
                } else {
                    BackendKind::Chain
                }
            }
        }
    }
}

/// A built preconditioner `W ≈ L⁺`: the boundary between the outer
/// iteration / serving tier and any concrete factorization.
///
/// Implementations must keep the determinism contract: `apply` output
/// is a pure function of the built state and `b`, bit-identical at
/// any worker count. See the [module docs](self) for the full
/// contract.
///
/// **Interruption boundary.** Cooperative interruption (deadlines,
/// cancellation — [`parlap_linalg::interrupt::InterruptHandle`]) is
/// polled by the *outer* loops between applications of this trait,
/// never inside an `apply`: one apply is the unit of non-interruptible
/// work. That keeps backends oblivious to serving-tier concerns,
/// bounds the latency of honoring an interrupt by one outer iteration
/// (one system matvec + one `W` apply), and — because an apply either
/// runs to completion or not at all — preserves the bit-identity
/// contract for every iteration that did run.
///
/// ```
/// use parlap_core::backend::{build_backend, BackendKind, Preconditioner};
/// use parlap_core::solver::SolverOptions;
/// use parlap_graph::generators;
/// use parlap_linalg::vector::random_demand;
///
/// let g = generators::grid2d(12, 12);
/// let options = SolverOptions { backend: BackendKind::Multigrid, ..Default::default() };
/// let w = build_backend(&g, &options).unwrap();
/// assert_eq!(w.dim(), 144);
/// assert!(w.estimated_bytes() > 0);
/// assert!(w.descriptor().starts_with("multigrid"));
/// // Deterministic apply: same input, same bits.
/// let b = random_demand(144, 1);
/// let (mut x, mut y) = (vec![0.0; 144], vec![0.0; 144]);
/// w.apply(&b, &mut x);
/// w.apply(&b, &mut y);
/// assert_eq!(x, y);
/// ```
pub trait Preconditioner: Send + Sync + std::fmt::Debug {
    /// Build the backend from a connected multigraph. Implementations
    /// reject an empty graph with [`SolverError::EmptyGraph`] and a
    /// disconnected one with [`SolverError::Disconnected`].
    fn build(g: &MultiGraph, options: &SolverOptions) -> Result<Self, SolverError>
    where
        Self: Sized;

    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;

    /// `out = W b`. Deterministic: bit-identical at any worker count.
    fn apply(&self, b: &[f64], out: &mut [f64]);

    /// Estimated resident bytes of the built state (dominant arrays
    /// only, no allocator slack) — consumed by the
    /// [`crate::registry::SolverRegistry`] memory budget.
    fn estimated_bytes(&self) -> usize;

    /// A stable one-line description of the built backend (kind plus
    /// its structural parameters), suitable for logs and registry
    /// keys: a pure function of graph + options, identical across
    /// rebuilds.
    fn descriptor(&self) -> String;

    /// PRAM cost of one `apply`.
    fn apply_cost(&self) -> Cost;

    /// Downcast support (lets [`crate::solver::LaplacianSolver`]
    /// expose chain-specific accessors without widening this trait).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable counterpart of [`Preconditioner::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A borrowed [`Preconditioner`] viewed as a
/// [`LinOp`](parlap_linalg::op::LinOp) — the shape the outer
/// PCG and Richardson loops consume.
#[derive(Clone, Copy, Debug)]
pub struct BackendOp<'a>(pub &'a dyn Preconditioner);

impl parlap_linalg::op::LinOp for BackendOp<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        self.0.apply(b, out);
    }
}

/// Build the backend selected by `options.backend` (resolving
/// [`BackendKind::Auto`] against `g`) and box it behind the trait.
pub fn build_backend(
    g: &MultiGraph,
    options: &SolverOptions,
) -> Result<Box<dyn Preconditioner>, SolverError> {
    match options.backend.resolve(g) {
        BackendKind::Chain => Ok(Box::new(ChainBackend::build(g, options)?)),
        BackendKind::Multigrid => Ok(Box::new(MultigridBackend::build(g, options)?)),
        BackendKind::Auto => unreachable!("resolve() never returns Auto"),
    }
}

/// The exact dense base solve both backends end in: the
/// pseudoinverse of the ≤ `base_size` base Laplacian by grounded
/// Cholesky ([`DenseMatrix::laplacian_pinv`]), one grounded vertex per
/// component. A base with an entry or pivot that is not finite, or a
/// pivot that is not positive — in practice, edge weights whose sums
/// overflowed — fails the build instead of leaving a base that cannot
/// meet any `ε`.
pub(crate) fn dense_base_pinv(l: &DenseMatrix) -> Result<DenseMatrix, SolverError> {
    l.laplacian_pinv().ok_or_else(|| {
        SolverError::InvariantViolation(format!(
            "grounded Cholesky of the {}-vertex base Laplacian failed: an entry or pivot \
             is not finite, or a pivot is not positive (do summed edge weights overflow?)",
            l.dim()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;

    #[test]
    fn auto_picks_multigrid_for_meshes_and_chain_for_hubs() {
        let grid = generators::grid2d(20, 20);
        let torus = generators::torus2d(12, 12);
        let path = generators::path(50);
        for g in [&grid, &torus, &path] {
            assert_eq!(BackendKind::Auto.resolve(g), BackendKind::Multigrid);
        }
        let pa = generators::preferential_attachment(400, 3, 4);
        let star = generators::star(40);
        let clique = generators::complete(30);
        for g in [&pa, &star, &clique] {
            assert_eq!(BackendKind::Auto.resolve(g), BackendKind::Chain);
        }
    }

    /// Strict env-knob parsing: the typo `mg` must be rejected, not
    /// silently mapped to the chain default.
    #[test]
    fn backend_env_values_parsed_strictly() {
        assert_eq!(BackendKind::parse_env(""), Ok(BackendKind::Chain));
        assert_eq!(BackendKind::parse_env("chain"), Ok(BackendKind::Chain));
        assert_eq!(BackendKind::parse_env("Multigrid"), Ok(BackendKind::Multigrid));
        assert_eq!(BackendKind::parse_env("AUTO"), Ok(BackendKind::Auto));
        let err = BackendKind::parse_env("mg").unwrap_err();
        assert!(err.contains("PARLAP_BACKEND") && err.contains("mg"), "{err}");
    }

    #[test]
    fn explicit_kinds_resolve_to_themselves() {
        let g = generators::grid2d(5, 5);
        assert_eq!(BackendKind::Chain.resolve(&g), BackendKind::Chain);
        assert_eq!(BackendKind::Multigrid.resolve(&g), BackendKind::Multigrid);
    }

    #[test]
    fn build_backend_dispatches_by_kind() {
        let g = generators::grid2d(14, 14);
        let chain = build_backend(
            &g,
            &SolverOptions { backend: BackendKind::Chain, ..SolverOptions::default() },
        )
        .expect("chain");
        let mg = build_backend(
            &g,
            &SolverOptions { backend: BackendKind::Multigrid, ..SolverOptions::default() },
        )
        .expect("multigrid");
        assert!(chain.descriptor().starts_with("chain("), "{}", chain.descriptor());
        assert!(mg.descriptor().starts_with("multigrid("), "{}", mg.descriptor());
        assert_eq!(chain.dim(), 196);
        assert_eq!(mg.dim(), 196);
    }

    #[test]
    fn descriptors_are_stable_across_rebuilds() {
        let g = generators::gnp_connected(300, 0.02, 5);
        for kind in [BackendKind::Chain, BackendKind::Multigrid] {
            let o = SolverOptions { backend: kind, seed: 9, ..SolverOptions::default() };
            let a = build_backend(&g, &o).expect("build");
            let b = build_backend(&g, &o).expect("build");
            assert_eq!(a.descriptor(), b.descriptor(), "{kind:?} descriptor must be stable");
        }
    }
}
