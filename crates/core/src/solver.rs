//! The public solver API: Theorems 1.1 and 1.2.
//!
//! [`LaplacianSolver::build`] splits the input into an α-bounded
//! multigraph (Lemma 3.2 or 3.3 according to
//! [`crate::alpha::SplitStrategy`]), runs
//! `BlockCholesky` (Theorem 3.9), and keeps the implied operator
//! `W ≈₁ L⁺` (Theorem 3.10). [`LaplacianSolver::solve`] then drives
//! the preconditioner to accuracy ε with an outer loop. The default is
//! PCG stopped on the certificate `√(rᵀWr / bᵀWb) ≤ ½e^{−δ}ε`, which
//! bounds the paper's `‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L` when `W ≈_δ L⁺`, in
//! `O(e^δ log 1/ε)` iterations. The paper's own `PreconRichardson`
//! (Algorithm 5, Lemma 3.11) reads the same certificate at
//! `O(e^{2δ} log 1/ε)` iterations and stays selectable through
//! [`OuterMethod::Richardson`].

use crate::alpha::SplitStrategy;
use crate::apply::ChainBackend;
use crate::backend::{BackendKind, BackendOp, Preconditioner};
use crate::chain::CholeskyChain;
use crate::error::{SolveProgress, SolverError};
use crate::pipeline::{SparsifyStage, SPARSIFY_EPS};
use crate::richardson::{certified_target, preconditioned_richardson, RichardsonOptions};
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::cg::{cg_solve, pcg_solve_with, PcgStop};
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::interrupt::InterruptHandle;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::dot;
use parlap_primitives::cost::Cost;

/// The outer loop that drives the preconditioner to accuracy ε: one
/// variant per stop rule in use. The certified stop
/// `√(rᵀWr / bᵀWb) ≤ ½e^{−δ}ε` bounds the paper's relative `‖·‖_L`
/// error by ε whenever `W ≈_δ L⁺`; the value is reported in
/// [`SolveOutcome::certified_error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OuterMethod {
    /// Preconditioned conjugate gradient stopped on the certificate
    /// (default): `O(e^δ log 1/ε)` iterations on a symmetric
    /// preconditioner (both backends are), and no step size to take
    /// from δ.
    Pcg,
    /// PCG stopped on the relative residual `‖b − Lx‖₂ ≤ ε‖b‖₂`, with
    /// no certificate: the cheap stop of the library's loose inner
    /// solves.
    PcgResidual,
    /// The paper's `PreconRichardson` (Algorithm 5) with its
    /// certificate: step `2/(e^{−δ} + e^{δ})`, and up to
    /// `6⌈e^{2δ} ln 1/ε⌉ + 10` iterations to meet the certified stop.
    /// Falls back to [`OuterMethod::Pcg`] when it diverges or misses
    /// the certificate (chain quality worse than the assumed δ).
    Richardson,
    /// Algorithm 5 verbatim: exactly `⌈e^{2δ} ln 1/ε⌉` iterations and
    /// no certificate. Falls back to [`OuterMethod::PcgResidual`] when
    /// it diverges.
    RichardsonFixed,
}

/// Whether the build pipeline inserts the spectral-sparsification
/// stage ([`crate::pipeline`]): sample `H ≈_ε G`
/// ([`crate::sparsify`](mod@crate::sparsify)) at
/// `ε =` [`SPARSIFY_EPS`], build the
/// preconditioner backend on `H`,
/// and keep the outer loop iterating on the original `L_G`. The
/// preconditioner boundary absorbs the sparsifier's extra spectral
/// slack, so solves still meet ε against the dense-pinv oracle — the
/// stage only trades preconditioner quality (more outer iterations)
/// for a much cheaper build on dense inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparsifyMode {
    /// Never sparsify (default).
    Off,
    /// Sparsify whenever it shrinks the backend's input: engages iff
    /// the Spielman–Srivastava sample budget
    /// `q = ⌈4 n ln n / ε²⌉` is below `m` (a sample that cannot shrink
    /// the edge set is pure loss, so small/sparse graphs no-op).
    On,
}

impl SparsifyMode {
    /// Whether the stage engages for an `n`-vertex, `m`-edge input — a
    /// pure function of the two, so the build decision is
    /// deterministic and testable.
    pub fn engages(self, n: usize, m: usize) -> bool {
        match self {
            SparsifyMode::Off => false,
            SparsifyMode::On => m > crate::sparsify::sample_budget(n, SPARSIFY_EPS),
        }
    }
}

/// Options for [`LaplacianSolver::build`].
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Seed for all randomness (splitting, 5-DD sampling, walks).
    pub seed: u64,
    /// α-bounding strategy (Lemma 3.2 naive / Lemma 3.3 leverage /
    /// fixed / none).
    pub split: SplitStrategy,
    /// Recursion stops at this many vertices (paper: 100).
    pub base_size: usize,
    /// `5DDSubset` candidate fraction, in `(0, 1]`. The default, 0.15,
    /// is three times the paper's 1/20
    /// ([`SAMPLE_FRACTION`](crate::five_dd::SAMPLE_FRACTION)), picked
    /// by the sweep in `BENCH_chain_depth.json`: each round still keeps
    /// a 5-DD set of at least `n/40` vertices (a starved round halves
    /// the fraction, down to 1/20), and the chain needs about a third
    /// of the rounds. Only the chain reads it.
    pub sample_fraction: f64,
    /// Assumed preconditioner quality δ (Theorem 3.10 guarantees
    /// δ = 1 w.h.p. under Θ(log²n) splitting), finite and `> 0`: sets
    /// Richardson's step and iteration count, and the certified stop's
    /// margin `½e^{−δ}`.
    pub delta: f64,
    /// Outer loop and stop rule: [`OuterMethod::Pcg`] by default.
    pub outer: OuterMethod,
    /// `Lx = b` on a connected graph is solvable only for `b ⊥ 1`.
    /// By default (`false`) the solver *projects* `b` onto `1⊥` and
    /// solves the consistent part — the standard convention, documented
    /// on [`LaplacianSolver::solve`]. Set `true` to instead reject a
    /// right-hand side whose kernel component is non-negligible with
    /// [`SolverError::InconsistentRhs`].
    pub require_balanced_rhs: bool,
    /// Which preconditioner backend to build
    /// ([`BackendKind::Chain`], [`BackendKind::Multigrid`], or
    /// [`BackendKind::Auto`]). The default follows the
    /// `PARLAP_BACKEND` env variable, `Chain` when unset — so the
    /// bit-identity contract with previous releases holds unless
    /// explicitly opted in. The multigrid backend ignores the
    /// chain-specific [`SolverOptions::split`], though invalid split
    /// parameters are still rejected at build.
    pub backend: BackendKind,
    /// The build pipeline's optional sparsify stage (see
    /// [`SparsifyMode`]); `Off` by default.
    pub sparsify: SparsifyMode,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            seed: 0xbeef_cafe,
            split: SplitStrategy::default(),
            base_size: 100,
            sample_fraction: 0.15,
            delta: 1.0,
            outer: OuterMethod::Pcg,
            require_balanced_rhs: false,
            backend: BackendKind::default_from_env(),
            sparsify: SparsifyMode::Off,
        }
    }
}

/// Result of one solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Mean-zero solution estimate `x̃ ≈ L⁺ b`.
    pub solution: Vec<f64>,
    /// Outer iterations performed; after a fallback, Richardson's
    /// iterations plus PCG's.
    pub iterations: usize,
    /// Final relative residual `‖b − Lx̃‖₂/‖b‖₂`.
    pub relative_residual: f64,
    /// PRAM cost of the solve (outer iterations × (matvec + W apply)).
    pub cost: Cost,
    /// True when Richardson diverged or missed its certificate and its
    /// PCG fallback (named on each [`OuterMethod`] variant) produced
    /// the answer.
    pub used_fallback: bool,
    /// The certified relative `‖·‖_L` error estimate `√(rᵀWr / bᵀWb)`
    /// of the returned solution: at most `½e^{−δ}ε` under
    /// [`OuterMethod::Pcg`] and [`OuterMethod::Richardson`]. `None`
    /// under the uncertified [`OuterMethod::PcgResidual`] and
    /// [`OuterMethod::RichardsonFixed`], and for a right-hand side that
    /// projects to zero.
    pub certified_error: Option<f64>,
}

/// A built Laplacian solver: construct once, solve many right-hand
/// sides.
///
/// ```
/// use parlap_core::solver::{LaplacianSolver, SolverOptions};
/// use parlap_graph::generators;
/// use parlap_linalg::vector::random_demand;
///
/// let g = generators::grid2d(20, 20);
/// let solver = LaplacianSolver::build(&g, SolverOptions::default()).unwrap();
/// let b = random_demand(g.num_vertices(), 1);
/// let out = solver.solve(&b, 1e-6).unwrap();
/// assert!(solver.relative_error(&b, &out.solution) < 1e-5);
/// ```
#[derive(Debug)]
pub struct LaplacianSolver {
    n: usize,
    csr: CsrMatrix,
    /// The built preconditioner (chain or multigrid; see
    /// [`SolverOptions::backend`]).
    backend: Box<dyn Preconditioner>,
    /// `options.backend` with `Auto` resolved against the graph.
    resolved_backend: BackendKind,
    options: SolverOptions,
    /// Engaged sparsify stage (see [`SparsifyMode`]): the backend was
    /// built on `sparsify.graph`, the CSR is still the input graph.
    sparsify: Option<SparsifyStage>,
}

impl LaplacianSolver {
    /// Run the build pipeline ([`crate::pipeline`]): ingest →
    /// (optional) sparsify → backend build.
    pub fn build(g: &MultiGraph, options: SolverOptions) -> Result<Self, SolverError> {
        let prepared = crate::pipeline::prepare(g, &options)?;
        Ok(LaplacianSolver {
            n: g.num_vertices(),
            csr: prepared.csr,
            backend: prepared.backend,
            resolved_backend: prepared.resolved_backend,
            options,
            sparsify: prepared.sparsify,
        })
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The backend actually built ([`SolverOptions::backend`] with
    /// `Auto` resolved against the graph at build time).
    pub fn backend_kind(&self) -> BackendKind {
        self.resolved_backend
    }

    /// The built preconditioner behind the
    /// [`Preconditioner`] trait — backend-agnostic access to `apply`,
    /// [`Preconditioner::estimated_bytes`], and
    /// [`Preconditioner::descriptor`].
    pub fn backend(&self) -> &dyn Preconditioner {
        self.backend.as_ref()
    }

    /// A stable one-line description of the built backend (kind plus
    /// structural parameters) for logs and registry bookkeeping. When
    /// the sparsify stage engaged, it is recorded as a prefix — e.g.
    /// `sparsify(eps=0.6,m=19900→4175)+chain(...)` — so registry
    /// descriptors show which pipeline stages shaped the build.
    pub fn descriptor(&self) -> String {
        match &self.sparsify {
            None => self.backend.descriptor(),
            Some(st) => format!(
                "sparsify(eps={},m={}\u{2192}{})+{}",
                SPARSIFY_EPS,
                st.edges_before,
                st.edges_after(),
                self.backend.descriptor()
            ),
        }
    }

    /// The engaged sparsify stage (`None` when the stage was off, did
    /// not engage, or fell back). Exposed for tests, experiments, and
    /// registry bookkeeping.
    pub fn sparsify_stage(&self) -> Option<&SparsifyStage> {
        self.sparsify.as_ref()
    }

    /// The preconditioner-quality δ the outer loop should assume: the
    /// configured [`SolverOptions::delta`], widened by
    /// `ln((1+ε)/(1−ε))` when the backend was built on an ε-sparsifier
    /// (`ε =` [`SPARSIFY_EPS`])
    /// (`e^{-δ'} L_H ≼ L_G ≼ e^{δ'} L_H` needs the extra slack), so
    /// Richardson's step size and the certified stop's margin stay
    /// valid and the solve still meets ε against the original
    /// Laplacian.
    fn effective_delta(&self) -> f64 {
        match &self.sparsify {
            None => self.options.delta,
            Some(_) => self.options.delta + ((1.0 + SPARSIFY_EPS) / (1.0 - SPARSIFY_EPS)).ln(),
        }
    }

    /// The factorization chain (stats, invariants, cost model).
    ///
    /// # Panics
    ///
    /// Panics when the solver was built with the multigrid backend,
    /// which has no chain — check [`LaplacianSolver::backend_kind`]
    /// first, or use the backend-agnostic
    /// [`LaplacianSolver::backend`] accessors.
    pub fn chain(&self) -> &CholeskyChain {
        self.chain_backend()
            .unwrap_or_else(|| {
                panic!("chain() on a {:?} backend — use backend()", self.resolved_backend)
            })
            .chain()
    }

    /// Split factor actually used (1 for `None` and for backends that
    /// do not split).
    pub fn split_copies(&self) -> usize {
        self.chain_backend().map_or(1, ChainBackend::split_copies)
    }

    /// Downcast to the chain backend, `None` under multigrid.
    fn chain_backend(&self) -> Option<&ChainBackend> {
        self.backend.as_any().downcast_ref::<ChainBackend>()
    }

    /// The operator `W ≈ L⁺` (borrowing the solver).
    pub fn preconditioner(&self) -> BackendOp<'_> {
        BackendOp(self.backend.as_ref())
    }

    /// Solve `Lx = b` to accuracy `ε`.
    ///
    /// Under the certified outer loops ([`OuterMethod::Pcg`], the
    /// default, and [`OuterMethod::Richardson`]) the solve delivers the
    /// Theorem 1.1 guarantee `‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L` whenever the
    /// preconditioner meets its assumed δ (w.h.p. for the chain), and
    /// reports the certificate in [`SolveOutcome::certified_error`].
    /// [`OuterMethod::PcgResidual`] reads `ε` as a relative-residual
    /// tolerance, and [`OuterMethod::RichardsonFixed`] runs the paper's
    /// fixed count.
    ///
    /// # Input validation
    ///
    /// `ε` must lie in `(0, 1)` for every outer method — `ε ≥ 1` would
    /// let a residual-tolerance loop accept the zero vector as
    /// "converged", and `ε ≤ 0` or NaN would iterate pointlessly to
    /// the budget; both are rejected as [`SolverError::InvalidOption`].
    /// `b` must be finite in every entry. A `b` with a component along
    /// the all-ones kernel (`1ᵀb ≠ 0`, i.e. an unbalanced demand) makes
    /// `Lx = b` inconsistent on a connected graph; the solver
    /// **projects `b` onto `1⊥`** and solves the consistent part — the
    /// returned residual is measured against the projected system.
    /// Set [`SolverOptions::require_balanced_rhs`] to reject such
    /// inputs with [`SolverError::InconsistentRhs`] instead.
    pub fn solve(&self, b: &[f64], eps: f64) -> Result<SolveOutcome, SolverError> {
        self.solve_with(b, eps, None)
    }

    /// [`LaplacianSolver::solve`] with an optional cooperative
    /// [`InterruptHandle`], polled once at the top of every outer
    /// iteration (PCG or Richardson alike). When the
    /// handle trips, the solve aborts with
    /// [`SolverError::Cancelled`] / [`SolverError::DeadlineExceeded`]
    /// carrying [`SolveProgress`] (iterations completed, last
    /// certified error). Interruption never changes the arithmetic of
    /// completed iterations, so an uninterrupted solve through this
    /// entry point is bit-identical to [`LaplacianSolver::solve`].
    pub fn solve_with(
        &self,
        b: &[f64],
        eps: f64,
        interrupt: Option<&InterruptHandle>,
    ) -> Result<SolveOutcome, SolverError> {
        self.validate_request(b, eps)?;
        let w = self.preconditioner();
        match self.options.outer {
            OuterMethod::Pcg => self.solve_pcg(&w, b, eps, true, interrupt),
            OuterMethod::PcgResidual => self.solve_pcg(&w, b, eps, false, interrupt),
            OuterMethod::Richardson => self.solve_richardson(&w, b, eps, true, interrupt),
            OuterMethod::RichardsonFixed => self.solve_richardson(&w, b, eps, false, interrupt),
        }
    }

    /// Run [`LaplacianSolver::solve`]'s input validation without
    /// solving: dimension, `ε ∈ (0, 1)`, finiteness, and (when
    /// [`SolverOptions::require_balanced_rhs`] is set) the kernel
    /// balance check. Serving tiers call this at **admission time** so
    /// a bad request is rejected before it is copied, enqueued, or
    /// given a batch slot — the error returned here is exactly the
    /// error `solve` would return.
    pub fn validate_request(&self, b: &[f64], eps: f64) -> Result<(), SolverError> {
        if b.len() != self.n {
            return Err(SolverError::DimensionMismatch { expected: self.n, got: b.len() });
        }
        if !(eps > 0.0 && eps < 1.0) {
            return Err(SolverError::InvalidOption(format!("eps = {eps} must be in (0, 1)")));
        }
        if b.iter().any(|x| !x.is_finite()) {
            return Err(SolverError::InvalidOption(
                "right-hand side contains a non-finite entry".into(),
            ));
        }
        if self.options.require_balanced_rhs {
            // Relative kernel mass |1ᵀb| / (√n · ‖b‖₂) ∈ [0, 1]; the
            // threshold admits the rounding noise of a demand vector
            // balanced in f64 while catching any real imbalance.
            let bnorm = parlap_linalg::vector::norm2(b);
            if bnorm > 0.0 {
                let sum = parlap_linalg::vector::mean(b) * self.n as f64;
                let imbalance = sum.abs() / ((self.n as f64).sqrt() * bnorm);
                if imbalance > 1e-10 {
                    return Err(SolverError::InconsistentRhs { imbalance });
                }
            }
        }
        Ok(())
    }

    /// Estimated resident memory of this built solver in bytes: the
    /// CSR of the original Laplacian plus the factorization chain
    /// ([`CholeskyChain::estimated_bytes`]). The estimate drives the
    /// [`crate::registry::SolverRegistry`] eviction budget; it counts
    /// the dominant `O(m)` arrays and the dense base pseudoinverse,
    /// not allocator slack.
    pub fn estimated_bytes(&self) -> usize {
        // CSR: row pointers (usize), column indices (u32), values (f64).
        let csr = (self.n + 1) * 8 + self.csr.nnz() * (4 + 8);
        // The retained sparsifier (16 bytes per Edge{u32,u32,f64}) —
        // the backend's own arrays are already counted above.
        let sparsifier = self.sparsify.as_ref().map_or(0, |st| {
            st.edges_after() * std::mem::size_of::<parlap_graph::multigraph::Edge>()
        });
        std::mem::size_of::<Self>() + csr + self.backend.estimated_bytes() + sparsifier
    }

    /// Mutable chain access for in-crate failure-injection tests (a
    /// corrupted level makes the apply path panic deterministically,
    /// which the service's panic-containment tests rely on). Panics on
    /// a non-chain backend, like [`LaplacianSolver::chain`].
    #[cfg(test)]
    pub(crate) fn chain_mut_for_tests(&mut self) -> &mut CholeskyChain {
        self.backend
            .as_any_mut()
            .downcast_mut::<ChainBackend>()
            .expect("chain_mut_for_tests on a non-chain backend")
            .chain_mut_for_tests()
    }

    /// PCG on `w`, stopped on the certificate `½e^{−δ}ε` when `certify`
    /// is set and on the relative residual `ε` otherwise.
    fn solve_pcg(
        &self,
        w: &BackendOp<'_>,
        b: &[f64],
        eps: f64,
        certify: bool,
        interrupt: Option<&InterruptHandle>,
    ) -> Result<SolveOutcome, SolverError> {
        let max_iter = 40 * ((self.n as f64).log2().ceil() as usize + 10);
        let stop = if certify {
            PcgStop::PreconditionedResidual(certified_target(self.effective_delta(), eps))
        } else {
            PcgStop::RelativeResidual(eps)
        };
        let out = pcg_solve_with(&self.csr, w, b, stop, max_iter, interrupt);
        if let Some(reason) = out.interrupted {
            let progress = SolveProgress {
                iterations: out.iterations,
                certified_error: out.preconditioned_residual,
            };
            return Err(SolverError::interrupted(reason, progress));
        }
        if !out.converged {
            return Err(SolverError::Diverged {
                at_iteration: out.iterations,
                growth: out.relative_residual,
            });
        }
        let cost = self.solve_cost(out.iterations);
        Ok(SolveOutcome {
            solution: out.solution,
            iterations: out.iterations,
            relative_residual: out.relative_residual,
            cost,
            used_fallback: false,
            certified_error: out.preconditioned_residual,
        })
    }

    /// Algorithm 5 on `w`, with its certificate when `certify` is set.
    /// A divergence, or a certificate still above `½e^{−δ}ε` at the end
    /// of the extended budget (chain quality far below the assumed δ),
    /// falls back to PCG with the same `certify`; the fallback's
    /// outcome counts the Richardson iterations spent before it.
    fn solve_richardson(
        &self,
        w: &BackendOp<'_>,
        b: &[f64],
        eps: f64,
        certify: bool,
        interrupt: Option<&InterruptHandle>,
    ) -> Result<SolveOutcome, SolverError> {
        let delta = self.effective_delta();
        let opts =
            RichardsonOptions { delta, certify_error: certify, interrupt: interrupt.cloned() };
        let spent = match preconditioned_richardson(&self.csr, w, b, eps, &opts) {
            Ok(out) if out.certified_error.is_some_and(|ce| ce > certified_target(delta, eps)) => {
                out.iterations
            }
            Ok(out) => {
                return Ok(SolveOutcome {
                    cost: self.solve_cost(out.iterations),
                    solution: out.solution,
                    iterations: out.iterations,
                    relative_residual: out.relative_residual,
                    used_fallback: false,
                    certified_error: out.certified_error,
                });
            }
            Err(SolverError::Diverged { at_iteration, .. }) => at_iteration,
            Err(e) => return Err(e),
        };
        let mut out = self.solve_pcg(w, b, eps, certify, interrupt)?;
        out.iterations += spent;
        out.cost = self.solve_cost(out.iterations);
        out.used_fallback = true;
        Ok(out)
    }

    /// Solve several right-hand sides against the same factorization,
    /// in parallel across systems (each solve is itself parallel;
    /// rayon composes the two levels). Results are identical to
    /// calling [`LaplacianSolver::solve`] per system — the solve path
    /// is deterministic — so this is purely a throughput API (the
    /// build cost is amortized over all systems, the paper's
    /// build-once / solve-many usage pattern).
    pub fn solve_many(
        &self,
        systems: &[Vec<f64>],
        eps: f64,
    ) -> Result<Vec<SolveOutcome>, SolverError> {
        self.solve_batch(systems, eps).into_iter().collect()
    }

    /// Like [`LaplacianSolver::solve_many`], but returns one outcome
    /// **per request** instead of failing the whole batch on the first
    /// error — the shape a serving front-end needs, where one client's
    /// bad request (wrong dimension, non-finite entries) must not
    /// poison its batch-mates. Each entry is exactly what
    /// [`LaplacianSolver::solve`] returns for that system.
    pub fn solve_batch(
        &self,
        systems: &[Vec<f64>],
        eps: f64,
    ) -> Vec<Result<SolveOutcome, SolverError>> {
        self.solve_batch_with(systems, eps, &[])
    }

    /// [`LaplacianSolver::solve_batch`] with a per-request
    /// [`InterruptHandle`]: `interrupts[i]` is polled by request `i`'s
    /// outer loop, so one client's deadline or cancellation stops only
    /// that client's solve — batch-mates are untouched (and their bits
    /// unchanged). `interrupts` must be empty (no interruption, exactly
    /// [`LaplacianSolver::solve_batch`]) or have one entry per system.
    pub fn solve_batch_with(
        &self,
        systems: &[Vec<f64>],
        eps: f64,
        interrupts: &[InterruptHandle],
    ) -> Vec<Result<SolveOutcome, SolverError>> {
        use rayon::prelude::*;
        assert!(
            interrupts.is_empty() || interrupts.len() == systems.len(),
            "solve_batch_with: {} interrupt handles for {} systems",
            interrupts.len(),
            systems.len()
        );
        // Few, expensive items (one full solve each): split down to
        // one system per task so small batches still fan out.
        systems
            .par_iter()
            .enumerate()
            .with_min_len(1)
            .map(|(i, b)| self.solve_with(b, eps, interrupts.get(i)))
            .collect()
    }

    /// PRAM cost model for a solve with the given outer iteration count
    /// (Lemma 3.11 accounting: per iteration one Laplacian matvec and
    /// one `W` application).
    pub fn solve_cost(&self, iterations: usize) -> Cost {
        use parlap_primitives::cost::log2_ceil;
        let m = self.csr.nnz() as u64;
        let matvec = Cost::new(m, log2_ceil(m));
        let per_iter = matvec
            .then(self.backend.apply_cost())
            .then(Cost::new(4 * self.n as u64, 2 * log2_ceil(self.n as u64)));
        per_iter.repeat(iterations.max(1) as u64)
    }

    /// Exact relative error in the paper's metric,
    /// `‖x̃ − L⁺b‖_L / ‖L⁺b‖_L`, using a near-machine-precision CG
    /// reference solve. Expensive — intended for tests and experiments.
    pub fn relative_error(&self, b: &[f64], x: &[f64]) -> f64 {
        assert_eq!(b.len(), self.n, "relative_error: b dimension");
        assert_eq!(x.len(), self.n, "relative_error: x dimension");
        let reference = cg_solve(&self.csr, b, 1e-13, 20 * self.n + 1000);
        let xstar = reference.solution;
        let d: Vec<f64> = x.iter().zip(&xstar).map(|(a, b)| a - b).collect();
        let ld = self.csr.apply_vec(&d);
        let err = dot(&d, &ld).max(0.0).sqrt();
        let lx = self.csr.apply_vec(&xstar);
        let denom = dot(&xstar, &lx).max(0.0).sqrt();
        if denom == 0.0 {
            return if err == 0.0 { 0.0 } else { f64::INFINITY };
        }
        err / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_linalg::vector::{pair_demand, random_demand};

    fn opts(seed: u64) -> SolverOptions {
        SolverOptions { seed, ..SolverOptions::default() }
    }

    const ALL_OUTER: [OuterMethod; 4] = [
        OuterMethod::Pcg,
        OuterMethod::PcgResidual,
        OuterMethod::Richardson,
        OuterMethod::RichardsonFixed,
    ];

    #[test]
    fn solves_grid_to_epsilon() {
        let g = generators::grid2d(30, 30);
        let solver = LaplacianSolver::build(&g, opts(1)).expect("build");
        let b = random_demand(g.num_vertices(), 7);
        for eps in [1e-2, 1e-4, 1e-8] {
            let out = solver.solve(&b, eps).expect("solve");
            let err = solver.relative_error(&b, &out.solution);
            assert!(err <= eps * 1.05, "eps={eps}: L-norm error {err}");
        }
    }

    #[test]
    fn solves_across_graph_families() {
        for (name, g) in [
            ("gnp", generators::gnp_connected(500, 0.01, 3)),
            ("pa", generators::preferential_attachment(500, 3, 4)),
            ("torus", generators::torus2d(20, 25)),
            ("weighted", generators::exponential_weights(&generators::grid2d(22, 22), 100.0, 5)),
            ("barbell", generators::barbell(60)),
        ] {
            let solver = LaplacianSolver::build(&g, opts(11)).expect(name);
            let b = random_demand(g.num_vertices(), 13);
            let out = solver.solve(&b, 1e-6).unwrap_or_else(|e| panic!("{name}: {e}"));
            let err = solver.relative_error(&b, &out.solution);
            assert!(err <= 1e-5, "{name}: error {err}");
        }
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let g = generators::grid2d(20, 20);
        let solver = LaplacianSolver::build(&g, opts(5)).expect("build");
        let systems: Vec<Vec<f64>> =
            (0..6).map(|s| random_demand(g.num_vertices(), 100 + s)).collect();
        let batch = solver.solve_many(&systems, 1e-7).expect("batch");
        assert_eq!(batch.len(), 6);
        for (b, out) in systems.iter().zip(&batch) {
            let single = solver.solve(b, 1e-7).expect("single");
            assert_eq!(out.iterations, single.iterations, "deterministic iteration count");
            for (x, y) in out.solution.iter().zip(&single.solution) {
                assert_eq!(x, y, "bitwise-identical solutions");
            }
        }
    }

    #[test]
    fn solve_many_surfaces_errors() {
        let g = generators::grid2d(10, 10);
        let solver = LaplacianSolver::build(&g, opts(5)).expect("build");
        let systems = vec![random_demand(100, 1), vec![0.0; 7]];
        assert!(matches!(
            solver.solve_many(&systems, 1e-6),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn pair_demand_potential_drop() {
        // Electrical interpretation: unit current between two corners.
        let g = generators::grid2d(15, 15);
        let solver = LaplacianSolver::build(&g, opts(2)).expect("build");
        let b = pair_demand(225, 0, 224);
        let out = solver.solve(&b, 1e-8).expect("solve");
        // Potential at source > potential at sink.
        assert!(out.solution[0] > out.solution[224]);
        let err = solver.relative_error(&b, &out.solution);
        assert!(err < 1e-7, "err {err}");
    }

    #[test]
    fn small_graph_base_case_only() {
        let g = generators::complete(8);
        // Chain-specific assertions: pin the backend so the test keeps
        // its meaning under a PARLAP_BACKEND override.
        let solver =
            LaplacianSolver::build(&g, SolverOptions { backend: BackendKind::Chain, ..opts(5) })
                .expect("build");
        assert_eq!(solver.backend_kind(), BackendKind::Chain);
        assert_eq!(solver.chain().depth(), 0);
        let b = random_demand(8, 3);
        let out = solver.solve(&b, 1e-10).expect("solve");
        assert!(solver.relative_error(&b, &out.solution) < 1e-9);
    }

    #[test]
    fn pcg_mode_converges() {
        let g = generators::gnp_connected(400, 0.015, 9);
        let o = SolverOptions { outer: OuterMethod::Pcg, ..opts(3) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let b = random_demand(400, 1);
        let out = solver.solve(&b, 1e-9).expect("solve");
        assert!(out.relative_residual <= 1e-9);
        assert!(solver.relative_error(&b, &out.solution) < 1e-6);
    }

    #[test]
    fn pcg_beats_unpreconditioned_cg_iterations() {
        use parlap_graph::laplacian::to_csr;
        use parlap_linalg::cg::cg_solve;
        let g = generators::exponential_weights(&generators::grid2d(25, 25), 1e4, 6);
        let o = SolverOptions { outer: OuterMethod::Pcg, ..opts(8) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let b = random_demand(625, 2);
        let ours = solver.solve(&b, 1e-8).expect("solve");
        let plain = cg_solve(&to_csr(&g), &b, 1e-8, 200_000);
        assert!(plain.converged);
        assert!(
            ours.iterations * 3 < plain.iterations,
            "PCG {} vs CG {}",
            ours.iterations,
            plain.iterations
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(300, 0.02, 12);
        let b = random_demand(300, 4);
        let s1 = LaplacianSolver::build(&g, opts(77)).expect("build");
        let s2 = LaplacianSolver::build(&g, opts(77)).expect("build");
        let x1 = s1.solve(&b, 1e-6).expect("solve");
        let x2 = s2.solve(&b, 1e-6).expect("solve");
        assert_eq!(x1.solution, x2.solution);
        assert_eq!(x1.iterations, x2.iterations);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let g = generators::path(10);
        let solver = LaplacianSolver::build(&g, opts(0)).expect("build");
        assert!(matches!(
            solver.solve(&[1.0; 9], 1e-4).unwrap_err(),
            SolverError::DimensionMismatch { expected: 10, got: 9 }
        ));
    }

    /// Degenerate ε — zero, negative, NaN, and the `ε ≥ 1` regime
    /// where a residual-tolerance loop would accept the zero vector as
    /// "converged" — must be rejected up front by *every* outer
    /// method (the Richardson clamp's PCG counterpart lives here, at
    /// the front door).
    #[test]
    fn degenerate_eps_rejected_for_all_outer_methods() {
        let g = generators::path(8);
        for outer in ALL_OUTER {
            let solver =
                LaplacianSolver::build(&g, SolverOptions { outer, ..opts(0) }).expect("build");
            let b = pair_demand(8, 0, 7);
            for eps in [0.0, -1e-6, 1.0, 2.0, f64::NAN, f64::INFINITY] {
                assert!(
                    matches!(solver.solve(&b, eps), Err(SolverError::InvalidOption(_))),
                    "{outer:?} must reject eps = {eps}"
                );
            }
            // The boundary of validity still solves.
            assert!(solver.solve(&b, 0.99).is_ok(), "{outer:?} at eps just below 1");
        }
    }

    /// Default policy: an unbalanced `b` (kernel component) is
    /// projected onto `1⊥` and the consistent part is solved — the
    /// answer equals solving the explicitly projected demand.
    #[test]
    fn unbalanced_rhs_projected_by_default() {
        let g = generators::grid2d(10, 10);
        let solver = LaplacianSolver::build(&g, opts(4)).expect("build");
        let mut b = random_demand(100, 6);
        let balanced = b.clone();
        for x in &mut b {
            *x += 3.25; // push mass onto the all-ones kernel
        }
        let out = solver.solve(&b, 1e-8).expect("projected solve");
        let reference = solver.solve(&balanced, 1e-8).expect("balanced solve");
        // Adding a constant to b and projecting it back out rounds
        // each entry once in f64, so compare to rounding accuracy (not
        // bitwise — the projected system differs by ~1 ulp per entry).
        let num: f64 =
            out.solution.iter().zip(&reference.solution).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = reference.solution.iter().map(|x| x * x).sum();
        assert!(
            num.sqrt() <= 1e-9 * den.sqrt().max(1e-300),
            "projected solve drifted: rel diff {}",
            (num / den).sqrt()
        );
    }

    /// Strict policy: the same unbalanced `b` is rejected with the
    /// dedicated error, while a balanced one still solves.
    #[test]
    fn unbalanced_rhs_rejected_when_strict() {
        let g = generators::grid2d(10, 10);
        let o = SolverOptions { require_balanced_rhs: true, ..opts(4) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let balanced = random_demand(100, 6);
        assert!(solver.solve(&balanced, 1e-6).is_ok(), "balanced b must pass strict mode");
        let mut b = balanced;
        for x in &mut b {
            *x += 3.25;
        }
        match solver.solve(&b, 1e-6).unwrap_err() {
            SolverError::InconsistentRhs { imbalance } => {
                assert!(imbalance > 1e-3, "imbalance {imbalance} should be large");
                assert!(imbalance <= 1.0, "imbalance is a fraction of b's mass");
            }
            other => panic!("expected InconsistentRhs, got {other:?}"),
        }
    }

    #[test]
    fn solve_batch_returns_per_request_outcomes() {
        let g = generators::grid2d(10, 10);
        let solver = LaplacianSolver::build(&g, opts(5)).expect("build");
        let systems = vec![
            random_demand(100, 1),
            vec![0.0; 7], // wrong dimension
            random_demand(100, 2),
        ];
        let outcomes = solver.solve_batch(&systems, 1e-6);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok());
        assert!(
            matches!(outcomes[1], Err(SolverError::DimensionMismatch { expected: 100, got: 7 })),
            "bad request fails alone"
        );
        assert!(outcomes[2].is_ok(), "batch-mates of a bad request must succeed");
        // And each good outcome is exactly the individual solve.
        let direct = solver.solve(&systems[2], 1e-6).expect("direct");
        assert_eq!(outcomes[2].as_ref().unwrap().solution, direct.solution);
    }

    #[test]
    fn non_finite_rhs_rejected() {
        let g = generators::path(4);
        let solver = LaplacianSolver::build(&g, opts(0)).expect("build");
        let mut b = vec![1.0, -1.0, 0.0, 0.0];
        b[2] = f64::NAN;
        assert!(matches!(solver.solve(&b, 1e-4).unwrap_err(), SolverError::InvalidOption(_)));
        b[2] = f64::INFINITY;
        assert!(solver.solve(&b, 1e-4).is_err());
    }

    #[test]
    fn empty_and_disconnected_rejected() {
        assert!(matches!(
            LaplacianSolver::build(&MultiGraph::new(0), opts(0)).unwrap_err(),
            SolverError::EmptyGraph
        ));
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert!(matches!(
            LaplacianSolver::build(&g, opts(0)).unwrap_err(),
            SolverError::Disconnected { components: 2 }
        ));
    }

    #[test]
    fn log_squared_strategy_builds() {
        let g = generators::grid2d(12, 12);
        // Splitting is chain-specific; pin the backend so the
        // split_copies assertion survives a PARLAP_BACKEND override.
        let o = SolverOptions {
            split: SplitStrategy::LogSquared { c: 0.2 },
            backend: BackendKind::Chain,
            ..opts(3)
        };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        assert!(solver.split_copies() >= 2);
        let b = random_demand(144, 5);
        let out = solver.solve(&b, 1e-6).expect("solve");
        assert!(solver.relative_error(&b, &out.solution) < 1e-5);
    }

    #[test]
    fn no_split_still_usually_solves_with_pcg() {
        // Without α-bounding the theory gives no guarantee; PCG mode
        // must still converge because W stays PSD.
        let g = generators::gnp_connected(300, 0.02, 6);
        let o = SolverOptions { split: SplitStrategy::None, outer: OuterMethod::Pcg, ..opts(21) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let b = random_demand(300, 8);
        let out = solver.solve(&b, 1e-8).expect("solve");
        assert!(out.relative_residual <= 1e-8);
    }

    #[test]
    fn cost_model_scales_with_iterations() {
        let g = generators::grid2d(15, 15);
        let solver = LaplacianSolver::build(&g, opts(4)).expect("build");
        let c1 = solver.solve_cost(1);
        let c10 = solver.solve_cost(10);
        assert_eq!(c10.work, c1.work * 10);
        assert_eq!(c10.depth, c1.depth * 10);
    }

    #[test]
    fn paper_exact_mode_runs_fixed_count() {
        // RichardsonFixed reproduces Algorithm 5 verbatim: the
        // iteration count equals ⌈e^{2δ} log 1/ε⌉ exactly.
        let g = generators::grid2d(15, 15);
        let o = SolverOptions { outer: OuterMethod::RichardsonFixed, ..opts(3) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let b = random_demand(225, 1);
        let eps = 1e-6f64;
        let out = solver.solve(&b, eps).expect("solve");
        // ⌈e^{2δ} log 1/ε⌉ with the default δ = 1.
        let theory = ((2.0f64).exp() * (1.0 / eps).ln()).ceil() as usize;
        assert_eq!(out.iterations, theory);
    }

    #[test]
    fn invalid_split_options_rejected() {
        let g = generators::path(5);
        let bad = SolverOptions { split: SplitStrategy::Fixed(0), ..opts(0) };
        assert!(matches!(
            LaplacianSolver::build(&g, bad).unwrap_err(),
            SolverError::InvalidOption(_)
        ));
        let bad2 = SolverOptions { split: SplitStrategy::LogSquared { c: -1.0 }, ..opts(0) };
        assert!(matches!(
            LaplacianSolver::build(&g, bad2).unwrap_err(),
            SolverError::InvalidOption(_)
        ));
    }

    #[test]
    fn solve_outcome_reports_cost_and_residual() {
        let g = generators::grid2d(12, 12);
        let solver = LaplacianSolver::build(&g, opts(2)).expect("build");
        let b = random_demand(144, 3);
        let out = solver.solve(&b, 1e-4).expect("solve");
        assert!(out.cost.work > 0);
        assert!(out.cost.depth > 0);
        assert!(out.relative_residual.is_finite());
        assert!(!out.used_fallback);
    }

    /// The multigrid backend plugs into the same byte accounting, and
    /// the two backends report themselves distinctly.
    #[test]
    fn backend_accessors_and_bytes_for_multigrid() {
        let g = generators::grid2d(20, 20);
        let mg = LaplacianSolver::build(
            &g,
            SolverOptions { backend: BackendKind::Multigrid, ..opts(1) },
        )
        .expect("build");
        assert_eq!(mg.backend_kind(), BackendKind::Multigrid);
        assert!(mg.descriptor().starts_with("multigrid("));
        assert_eq!(mg.split_copies(), 1, "multigrid does not split");
        assert!(mg.estimated_bytes() > mg.backend().estimated_bytes());
        let b = random_demand(400, 3);
        let out = mg.solve(&b, 1e-8).expect("solve");
        assert!(mg.relative_error(&b, &out.solution) <= 1e-8 * 1.05);
    }

    /// Every outer method honors a pre-tripped interrupt handle and
    /// reports progress metadata (zero iterations: tripped at the
    /// first poll), while never falling back to PCG on abandoned work.
    #[test]
    fn all_outer_methods_honor_interrupt_handle() {
        let g = generators::grid2d(12, 12);
        let b = random_demand(144, 3);
        for outer in ALL_OUTER {
            let solver =
                LaplacianSolver::build(&g, SolverOptions { outer, ..opts(2) }).expect("build");
            let h = InterruptHandle::new();
            h.cancel();
            match solver.solve_with(&b, 1e-6, Some(&h)).unwrap_err() {
                SolverError::Cancelled { progress: Some(p) } => {
                    assert_eq!(p.iterations, 0, "{outer:?}: tripped before iteration 1");
                }
                other => panic!("{outer:?}: expected Cancelled with progress, got {other:?}"),
            }
            let expired = InterruptHandle::with_deadline(Some(
                std::time::Instant::now() - std::time::Duration::from_millis(1),
            ));
            assert!(
                matches!(
                    solver.solve_with(&b, 1e-6, Some(&expired)).unwrap_err(),
                    SolverError::DeadlineExceeded { progress: Some(_) }
                ),
                "{outer:?}: expired deadline must surface mid-solve"
            );
        }
    }

    /// `solve_with` and an untripped handle stay bit-identical to
    /// `solve`, and `solve_batch_with` interrupts only the requests
    /// whose handle tripped — batch-mates keep their exact bits.
    #[test]
    fn batch_interruption_is_per_request() {
        let g = generators::grid2d(14, 14);
        let solver = LaplacianSolver::build(&g, opts(6)).expect("build");
        let systems: Vec<Vec<f64>> = (0..4).map(|s| random_demand(196, 50 + s)).collect();
        let handles: Vec<InterruptHandle> = (0..4).map(|_| InterruptHandle::new()).collect();
        handles[1].cancel();
        handles[3].cancel();
        let outcomes = solver.solve_batch_with(&systems, 1e-7, &handles);
        for (k, out) in outcomes.iter().enumerate() {
            if k % 2 == 1 {
                assert!(
                    matches!(out, Err(SolverError::Cancelled { .. })),
                    "request {k} was cancelled, got {out:?}"
                );
            } else {
                let direct = solver.solve(&systems[k], 1e-7).expect("direct");
                assert_eq!(
                    out.as_ref().expect("mate must succeed").solution,
                    direct.solution,
                    "request {k}: batch-mate bits must be untouched by neighbors' cancellation"
                );
            }
        }
    }

    /// Engagement is a pure function of `(n, m)`: `On` engages exactly
    /// when the sample budget shrinks the edge set, `Off` never.
    #[test]
    fn sparsify_engagement_thresholds() {
        let n = 500;
        let q = crate::sparsify::sample_budget(n, SPARSIFY_EPS);
        assert!(!SparsifyMode::Off.engages(n, 100 * q));
        assert!(!SparsifyMode::On.engages(n, q), "q samples cannot shrink m = q");
        assert!(SparsifyMode::On.engages(n, q + 1));
    }

    /// The tentpole guarantee: with the stage engaged on a dense
    /// graph, the backend is built on a strictly smaller sparsifier
    /// while the solve still meets ε against the dense-pinv oracle
    /// (the outer loop iterates on the original Laplacian).
    #[test]
    fn sparsified_solve_meets_eps_on_dense_graph() {
        let g = generators::complete(200); // m = 19900 ≫ q(200, 0.6)
        let o = SolverOptions { sparsify: SparsifyMode::On, ..opts(12) };
        assert!(o.sparsify.engages(g.num_vertices(), g.num_edges()));
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let st = solver.sparsify_stage().expect("stage must engage on K_200");
        assert_eq!(st.edges_before, g.num_edges());
        assert!(st.edges_after() < g.num_edges(), "sparsifier must shrink the edge set");
        assert!(solver.descriptor().starts_with("sparsify(eps=0.6,m=19900\u{2192}"));
        let b = random_demand(200, 3);
        for eps in [1e-4, 1e-8] {
            let out = solver.solve(&b, eps).expect("solve");
            let err = solver.relative_error(&b, &out.solution);
            assert!(err <= eps * 1.05, "sparsified solve, eps={eps}: L-norm error {err}");
        }
    }

    /// Off (the default) is bit-identical to previous releases, and an
    /// engaged stage's sparsifier is counted by `estimated_bytes` so
    /// the registry budget stays honest.
    #[test]
    fn sparsify_off_is_default_and_bytes_account_for_stage() {
        let g = generators::complete(200);
        let b = random_demand(200, 9);
        let off =
            LaplacianSolver::build(&g, SolverOptions { sparsify: SparsifyMode::Off, ..opts(12) })
                .expect("build");
        assert!(off.sparsify_stage().is_none());
        let dflt = LaplacianSolver::build(&g, opts(12)).expect("build");
        assert!(dflt.sparsify_stage().is_none(), "Off must be the default");
        assert_eq!(
            off.solve(&b, 1e-7).expect("solve").solution,
            dflt.solve(&b, 1e-7).expect("solve").solution,
            "explicit Off must not change bits"
        );
        let on =
            LaplacianSolver::build(&g, SolverOptions { sparsify: SparsifyMode::On, ..opts(12) })
                .expect("build");
        let st = on.sparsify_stage().expect("stage");
        // The solver's own accounting must include the retained
        // sparsifier on top of the backend and CSR.
        let floor = on.backend().estimated_bytes() + st.edges_after() * 16;
        assert!(on.estimated_bytes() > floor, "sparsifier bytes missing from the estimate");
    }

    /// The stage no-ops (deterministically) on graphs too sparse for
    /// the sample budget to shrink — `On` on a small grid is exactly
    /// the plain build, bit for bit.
    #[test]
    fn sparsify_noop_on_sparse_graph_is_bit_identical() {
        let g = generators::grid2d(16, 16);
        let b = random_demand(256, 2);
        let off =
            LaplacianSolver::build(&g, SolverOptions { sparsify: SparsifyMode::Off, ..opts(5) })
                .expect("build");
        let on =
            LaplacianSolver::build(&g, SolverOptions { sparsify: SparsifyMode::On, ..opts(5) })
                .expect("build");
        assert!(on.sparsify_stage().is_none(), "q ≫ m: must not engage");
        assert_eq!(
            off.solve(&b, 1e-7).expect("solve").solution,
            on.solve(&b, 1e-7).expect("solve").solution
        );
    }

    /// The default outer loop is certified PCG: on a mesh (Auto →
    /// multigrid) it meets ε in the `‖·‖_L` norm in a fraction of the
    /// ~147 Richardson iterations, and reports a certificate at most
    /// `½e^{−δ}ε`.
    #[test]
    fn default_pcg_certifies_mesh_solves_in_few_iterations() {
        let g = generators::grid2d(64, 64);
        let o = SolverOptions { backend: BackendKind::Auto, ..opts(1) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        assert_eq!(solver.backend_kind(), BackendKind::Multigrid);
        let eps = 1e-6;
        for seed in 0..3 {
            let b = random_demand(g.num_vertices(), 40 + seed);
            let out = solver.solve(&b, eps).expect("solve");
            assert!(out.iterations <= 40, "seed {seed}: {} iterations", out.iterations);
            let cert = out.certified_error.expect("certified by default");
            assert!(cert <= certified_target(1.0, eps), "seed {seed}: certificate {cert}");
            let err = solver.relative_error(&b, &out.solution);
            assert!(err <= eps, "seed {seed}: L-norm error {err}");
        }
    }

    /// With the sparsify stage on, δ widens by `ln 4` and Richardson's
    /// step shrinks; certified PCG's count grows only with `e^δ`.
    #[test]
    fn sparsified_dense_solve_needs_few_pcg_iterations() {
        let g = generators::gnp_connected(400, 0.4, 8);
        let o =
            SolverOptions { sparsify: SparsifyMode::On, backend: BackendKind::Chain, ..opts(3) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        assert!(solver.sparsify_stage().is_some(), "the stage must engage");
        let b = random_demand(400, 5);
        let out = solver.solve(&b, 1e-6).expect("solve");
        assert!(out.iterations <= 30, "{} iterations", out.iterations);
        assert!(solver.relative_error(&b, &out.solution) <= 1e-6);
    }

    /// A Richardson solve that falls back reports the work of both
    /// loops. On this weighted grid the chain is worse than the assumed
    /// δ, so Richardson diverges within its first iterations: the
    /// answer is exactly its fallback's (`Pcg` for `Richardson`,
    /// `PcgResidual` for `RichardsonFixed`), but the count and the cost
    /// also include the Richardson iterations spent before it.
    #[test]
    fn richardson_fallback_counts_both_loops() {
        let g = generators::exponential_weights(&generators::grid2d(30, 30), 1e4, 5);
        let b = random_demand(900, 3);
        let build = |outer| {
            let o = SolverOptions { outer, backend: BackendKind::Chain, ..opts(2) };
            LaplacianSolver::build(&g, o).expect("build")
        };
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (rich, fallback) in [
            (OuterMethod::Richardson, OuterMethod::Pcg),
            (OuterMethod::RichardsonFixed, OuterMethod::PcgResidual),
        ] {
            let (rs, ps) = (build(rich), build(fallback));
            for eps in [1e-4, 1e-6, 1e-8] {
                let r = rs.solve(&b, eps).expect("solve");
                let p = ps.solve(&b, eps).expect("solve");
                assert!(r.used_fallback, "{rich:?}, eps = {eps}: Richardson must fall back here");
                assert_eq!(bits(&r.solution), bits(&p.solution), "{rich:?}, eps = {eps}");
                assert_eq!(r.certified_error, p.certified_error, "{rich:?}, eps = {eps}");
                assert_eq!(r.certified_error.is_some(), rich == OuterMethod::Richardson);
                assert!(
                    r.iterations > p.iterations,
                    "{rich:?}, eps = {eps}: {} iterations vs the fallback's own {}",
                    r.iterations,
                    p.iterations
                );
                assert_eq!(r.cost, rs.solve_cost(r.iterations));
            }
        }
    }

    /// `PcgResidual` keeps PCG's relative-residual stop and reports no
    /// certificate.
    #[test]
    fn uncertified_pcg_stops_on_residual() {
        let g = generators::grid2d(20, 20);
        let o = SolverOptions { outer: OuterMethod::PcgResidual, ..opts(2) };
        let solver = LaplacianSolver::build(&g, o).expect("build");
        let out = solver.solve(&random_demand(400, 1), 1e-8).expect("solve");
        assert!(out.relative_residual <= 1e-8);
        assert_eq!(out.certified_error, None);
    }

    /// A backend that trips an interrupt handle on its `after`-th apply:
    /// lands an interrupt mid-solve without timers.
    #[derive(Debug)]
    struct CancelAfter {
        inner: Box<dyn Preconditioner>,
        handle: InterruptHandle,
        after: usize,
        applies: std::sync::atomic::AtomicUsize,
    }

    impl Preconditioner for CancelAfter {
        fn build(_: &MultiGraph, _: &SolverOptions) -> Result<Self, SolverError> {
            Err(SolverError::InvalidOption("test wrapper".into()))
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply(&self, b: &[f64], out: &mut [f64]) {
            if self.applies.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1 == self.after {
                self.handle.cancel();
            }
            self.inner.apply(b, out);
        }
        fn estimated_bytes(&self) -> usize {
            self.inner.estimated_bytes()
        }
        fn descriptor(&self) -> String {
            self.inner.descriptor()
        }
        fn apply_cost(&self) -> Cost {
            self.inner.apply_cost()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// An interrupted certified PCG solve reports the certificate it
    /// had reached, as Richardson does.
    #[test]
    fn interrupted_pcg_reports_its_last_certificate() {
        let g = generators::grid2d(16, 16);
        let o = SolverOptions { outer: OuterMethod::Pcg, ..opts(4) };
        let mut solver = LaplacianSolver::build(&g, o).expect("build");
        let handle = InterruptHandle::new();
        let inner = crate::backend::build_backend(&g, &solver.options).expect("build");
        solver.backend = Box::new(CancelAfter {
            inner,
            handle: handle.clone(),
            after: 4,
            applies: Default::default(),
        });
        match solver.solve_with(&random_demand(256, 2), 1e-10, Some(&handle)).unwrap_err() {
            SolverError::Cancelled { progress: Some(p) } => {
                assert_eq!(p.iterations, 3, "one apply before the loop, one per iteration");
                let cert = p.certified_error.expect("a certifying loop reports its certificate");
                assert!(cert > 0.0 && cert < 1.0, "certificate {cert}");
            }
            other => panic!("expected Cancelled with progress, got {other:?}"),
        }
    }

    /// Auto resolves per graph family and both choices solve.
    #[test]
    fn auto_backend_resolves_and_solves() {
        let mesh = generators::grid2d(16, 16);
        let hubs = generators::preferential_attachment(300, 3, 2);
        let o = SolverOptions { backend: BackendKind::Auto, ..opts(6) };
        let s_mesh = LaplacianSolver::build(&mesh, o.clone()).expect("build");
        let s_hubs = LaplacianSolver::build(&hubs, o).expect("build");
        assert_eq!(s_mesh.backend_kind(), BackendKind::Multigrid);
        assert_eq!(s_hubs.backend_kind(), BackendKind::Chain);
        for (s, n) in [(&s_mesh, 256), (&s_hubs, 300)] {
            let b = random_demand(n, 4);
            let out = s.solve(&b, 1e-6).expect("solve");
            assert!(s.relative_error(&b, &out.solution) <= 1e-5);
        }
    }
}
