//! The solver's explicit build pipeline:
//! **ingest → (optional) sparsify → backend build**.
//!
//! * **ingest** — the graph layer's chunked streaming loaders
//!   (`parlap_graph::dimacs::parse_dimacs_chunked`,
//!   `parlap_graph::io::parse_edge_list_chunked`) assemble the
//!   [`MultiGraph`] straight from fixed-size parsed-edge chunks;
//! * **sparsify** (`sparsify_stage`, this module) — when
//!   [`SolverOptions::sparsify`](crate::solver::SolverOptions::sparsify)
//!   engages, a Spielman–Srivastava sparsifier `H ≈_ε G`
//!   (`ε =` [`SPARSIFY_EPS`]) is sampled
//!   ([`crate::sparsify`](mod@crate::sparsify)) and the *backend* is
//!   built on `H` while the
//!   outer loop keeps iterating on the original `L_G` — the
//!   preconditioner boundary absorbs the extra `(1+ε)/(1−ε)` spectral
//!   slack (the certified PCG or Richardson stop reads a widened δ),
//!   so the ε-guarantee against the dense-pinv oracle is unchanged;
//! * **backend build** — [`build_backend`] constructs the chain or
//!   multigrid preconditioner behind the
//!   [`Preconditioner`] trait.
//!
//! Every stage is deterministic for any worker count, so whole-solve
//! outputs with the sparsify stage enabled stay bit-identical at
//! 1/2/8 workers.

use crate::backend::{build_backend, BackendKind, Preconditioner};
use crate::error::SolverError;
use crate::solver::SolverOptions;
use crate::sparsify::{sparsify_to_eps, SparsifyOptions};
use parlap_graph::connectivity::num_components;
use parlap_graph::laplacian::to_csr;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::csr::CsrMatrix;
use parlap_primitives::prng::mix2;

/// Target Loewner accuracy of the sparsify stage's sample: sets the
/// sample budget `q = ⌈4 n ln n / ε²⌉ ≈ 11 n ln n` (comfortably below
/// `m` on dense inputs) and widens the outer loop's δ by
/// `ln((1+ε)/(1−ε)) = ln 4`, a constant factor of outer iterations.
pub const SPARSIFY_EPS: f64 = 0.6;

/// Summary of an engaged sparsify stage, retained on the built solver
/// for descriptors, byte accounting, and tests.
#[derive(Clone, Debug)]
pub struct SparsifyStage {
    /// Number of i.i.d. edge samples drawn (`⌈4 n ln n / ε²⌉`).
    pub samples: usize,
    /// Edge count of the input graph the stage replaced.
    pub edges_before: usize,
    /// The sparsifier. The backend was built on this graph; the outer
    /// loop still iterates on the original Laplacian.
    pub graph: MultiGraph,
}

impl SparsifyStage {
    /// Edge count of the sparsifier (after multi-edge merging).
    pub fn edges_after(&self) -> usize {
        self.graph.num_edges()
    }
}

/// Everything [`crate::solver::LaplacianSolver::build`] needs from the
/// pipeline: the original-graph CSR, the backend built on the
/// (possibly sparsified) graph, and the stage record.
pub(crate) struct Prepared {
    pub(crate) csr: CsrMatrix,
    pub(crate) backend: Box<dyn Preconditioner>,
    pub(crate) resolved_backend: BackendKind,
    pub(crate) sparsify: Option<SparsifyStage>,
}

/// Run the build pipeline on an ingested graph.
pub(crate) fn prepare(g: &MultiGraph, options: &SolverOptions) -> Result<Prepared, SolverError> {
    if g.num_vertices() == 0 {
        return Err(SolverError::EmptyGraph);
    }
    // Split parameters are validated regardless of backend, so a bad
    // configuration fails the same way under the multigrid backend
    // (which ignores the split) as under the chain.
    options.split.validate()?;
    if !(options.delta.is_finite() && options.delta > 0.0) {
        return Err(SolverError::InvalidOption(format!(
            "delta = {} must be finite and > 0",
            options.delta
        )));
    }
    // Only the chain reads the fraction; checked here for both backends.
    if !(options.sample_fraction > 0.0 && options.sample_fraction <= 1.0) {
        return Err(SolverError::InvalidOption(format!(
            "sample_fraction = {} must be in (0, 1]",
            options.sample_fraction
        )));
    }
    // Stage: sparsify (optional).
    let stage = sparsify_stage(g, options)?;
    // Stage: backend build — on the sparsifier when the stage engaged,
    // else on the input.
    let backend_graph = stage.as_ref().map_or(g, |st| &st.graph);
    let resolved_backend = options.backend.resolve(backend_graph);
    let backend = build_backend(backend_graph, options)?;
    Ok(Prepared { csr: to_csr(g), backend, resolved_backend, sparsify: stage })
}

/// The sparsify stage: decide, sample, and sanity-check. Returns
/// `None` when the stage should not (or safely cannot) replace the
/// backend's input — every `None` path is a deterministic function of
/// the graph and options, so builds stay reproducible.
fn sparsify_stage(
    g: &MultiGraph,
    options: &SolverOptions,
) -> Result<Option<SparsifyStage>, SolverError> {
    let (n, m) = (g.num_vertices(), g.num_edges());
    if !options.sparsify.engages(n, m) {
        return Ok(None);
    }
    // Stage-internal knobs: a coarse sketch (2 rows per log n, inner
    // solves to 0.25) on a 1/8 uniform subsample — the same cheap
    // estimate recipe as `LeverageOptions`. The whole point of the
    // stage is that this preprocessing is much cheaper than the dense
    // backend build it replaces.
    let sopts = SparsifyOptions {
        seed: mix2(options.seed, 0x7370_6c69),
        resistance: crate::resistance::ResistanceOptions {
            rows_per_log: 2,
            inner_eps: 0.25,
            seed: mix2(options.seed, 0x736b_6574),
        },
        oracle_subsample: 8,
    };
    let s = sparsify_to_eps(g, SPARSIFY_EPS, &sopts)?;
    // A sample that failed to shrink the edge set, or (tiny-q corner)
    // lost connectivity, would make the backend build slower or fail
    // outright: fall back to the non-sparsified build deterministically.
    if s.graph.num_edges() >= m || num_components(&s.graph) != 1 {
        return Ok(None);
    }
    Ok(Some(SparsifyStage { samples: s.samples, edges_before: m, graph: s.graph }))
}
