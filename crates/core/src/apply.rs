//! `ApplyCholesky` (Algorithm 2): applying the implied operator
//! `W ≈₁ L⁺` of a [`CholeskyChain`] — and [`ChainBackend`], the
//! block-Cholesky implementation of the
//! [`Preconditioner`] trait.
//!
//! Forward pass (block forward substitution, per level `k`):
//!
//! * `y_F = Z⁽ᵏ⁾ b_F` — Jacobi solve on the 5-DD block,
//! * `y_C = b_C − L_CF y_F`, which becomes `b⁽ᵏ⁺¹⁾`.
//!
//! Base: `x⁽ᵈ⁾ = L_{G(d)}⁺ b⁽ᵈ⁾` (dense pseudoinverse).
//!
//! Backward pass: `x_C = x⁽ᵏ⁺¹⁾`, `x_F = y_F − Z⁽ᵏ⁾ L_FC x_C`.
//!
//! Theorem 3.10: the resulting linear operator `W` satisfies
//! `W⁺ ≈₁ L` w.h.p. and applies in `O(m log n log log n)` work and
//! `O(log m log n log log n)` depth.

use crate::alpha::{copies_for_log_squared, split_uniform, SplitStrategy};
use crate::backend::Preconditioner;
use crate::chain::{block_cholesky, ChainLevel, ChainOptions, CholeskyChain};
use crate::error::SolverError;
use crate::jacobi::JacobiOp;
use crate::solver::SolverOptions;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::op::LinOp;
use parlap_primitives::cost::Cost;
use parlap_primitives::util::par_tabulate;
use std::borrow::Cow;

/// The operator `W ≈ L⁺` implied by a chain: the Algorithm 2
/// forward/backward substitution as a [`LinOp`]. Cheap to construct
/// (borrows the chain; the per-level Jacobi operators are built once —
/// either here, or ahead of time by [`ChainBackend`]).
pub struct ChainApply<'c> {
    chain: &'c CholeskyChain,
    jacobis: Cow<'c, [JacobiOp]>,
}

/// Build the per-level Jacobi operators `Z⁽ᵏ⁾` for a chain. Their
/// constructors carry the chain invariant checks (positive diagonal,
/// dimension, odd sweep count), so this panics on a corrupted chain.
pub fn build_jacobis(chain: &CholeskyChain) -> Vec<JacobiOp> {
    chain
        .levels
        .iter()
        .map(|level| JacobiOp::new(level.x_diag.clone(), level.ff.clone(), chain.jacobi_sweeps))
        .collect()
}

impl<'c> ChainApply<'c> {
    /// Wrap a chain, building the Jacobi operators (whose constructors
    /// carry the chain invariant checks).
    pub fn new(chain: &'c CholeskyChain) -> Self {
        ChainApply { chain, jacobis: Cow::Owned(build_jacobis(chain)) }
    }

    /// Wrap a chain with Jacobi operators built ahead of time (the
    /// [`ChainBackend`] fast path: one construction per build, not one
    /// per apply).
    pub fn with_prebuilt(chain: &'c CholeskyChain, jacobis: &'c [JacobiOp]) -> Self {
        debug_assert_eq!(jacobis.len(), chain.levels.len(), "one Jacobi operator per level");
        ChainApply { chain, jacobis: Cow::Borrowed(jacobis) }
    }

    /// The underlying chain.
    pub fn chain(&self) -> &CholeskyChain {
        self.chain
    }

    /// Parallel gather `out[i] = b[ids[i]]` — a pure element map, so
    /// schedule-independent (`O(1)` depth, `O(|ids|)` work).
    fn gather(b: &[f64], ids: &[u32]) -> Vec<f64> {
        par_tabulate(ids.len(), |i| b[ids[i] as usize])
    }

    fn forward_level(&self, k: usize, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let level: &ChainLevel = &self.chain.levels[k];
        let b_f = Self::gather(b, &level.f_local);
        let b_c = Self::gather(b, &level.c_local);
        // y_F = Z b_F.
        let y_f = self.jacobis[k].apply_vec(&b_f);
        // y_C = b_C − L_CF y_F = b_C + Σ_{(c,f,w)} w·y_F[f].
        let mut coupling = vec![0.0; level.c_local.len()];
        level.cross.into_c(&y_f, &mut coupling);
        let y_c: Vec<f64> = par_tabulate(b_c.len(), |j| b_c[j] + coupling[j]);
        (y_f, y_c)
    }

    fn backward_level(&self, k: usize, y_f: &[f64], x_c: &[f64]) -> Vec<f64> {
        let level = &self.chain.levels[k];
        // t = −L_FC x_C = Σ_{(c,f,w)} w·x_C[c]  per f.
        let mut t = vec![0.0; level.f_local.len()];
        level.cross.into_f(x_c, &mut t);
        // x_F = y_F − Z·L_FC x_C = y_F + Z·t.
        let zt = self.jacobis[k].apply_vec(&t);
        // Scatter both sides into the level vector. The two index sets
        // partition `0..n` with disjoint targets, so the sequential
        // scatter is a pure permutation copy; writes never race with
        // the parallel reads above.
        let mut x = vec![0.0; level.n];
        for (i, &f) in level.f_local.iter().enumerate() {
            x[f as usize] = y_f[i] + zt[i];
        }
        for (j, &c) in level.c_local.iter().enumerate() {
            x[c as usize] = x_c[j];
        }
        x
    }
}

impl LinOp for ChainApply<'_> {
    fn dim(&self) -> usize {
        self.chain.n
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        let d = self.chain.levels.len();
        // The triangular factorization U⁻¹ D⁺ U⁻ᵀ is a *generalized*
        // inverse of the singular Laplacian: exact on range(L) but its
        // outputs carry kernel (constant) components. Projecting input
        // and output onto 1⊥ makes the operator agree with the
        // Moore–Penrose L⁺ (exactly, for exact blocks) and keeps its
        // kernel aligned with span(1).
        let mut b_cur = b.to_vec();
        parlap_linalg::vector::project_out_ones(&mut b_cur);
        // Forward pass, keeping y_F per level for the backward pass.
        let mut y_fs: Vec<Vec<f64>> = Vec::with_capacity(d);
        for k in 0..d {
            let (y_f, y_c) = self.forward_level(k, &b_cur);
            y_fs.push(y_f);
            b_cur = y_c;
        }
        // Base solve.
        debug_assert_eq!(b_cur.len(), self.chain.base_n);
        let mut x_cur = self.chain.base_pinv.apply_vec(&b_cur);
        // Backward pass.
        for k in (0..d).rev() {
            x_cur = self.backward_level(k, &y_fs[k], &x_cur);
        }
        parlap_linalg::vector::project_out_ones(&mut x_cur);
        out.copy_from_slice(&x_cur);
    }
}

/// The block-Cholesky [`Preconditioner`] backend: α-bounded splitting
/// (Lemma 3.2/3.3), the factorization chain (Theorem 3.9) and the
/// prebuilt per-level Jacobi operators.
///
/// This is the paper's solver, repackaged behind the backend trait:
/// building it from a graph + options produces exactly the chain (and
/// bits) previous releases produced.
#[derive(Debug)]
pub struct ChainBackend {
    chain: CholeskyChain,
    /// Built once per backend, borrowed by every apply.
    jacobis: Vec<JacobiOp>,
    split_copies: usize,
}

impl ChainBackend {
    /// The factorization chain (stats, invariants, cost model).
    pub fn chain(&self) -> &CholeskyChain {
        &self.chain
    }

    /// Split factor actually used (1 for [`SplitStrategy::None`]).
    pub fn split_copies(&self) -> usize {
        self.split_copies
    }

    /// The apply operator as a [`LinOp`] view borrowing this backend.
    pub fn as_linop(&self) -> ChainApply<'_> {
        ChainApply::with_prebuilt(&self.chain, &self.jacobis)
    }

    /// Mutable chain access for in-crate failure-injection tests (a
    /// corrupted level makes the apply path panic deterministically,
    /// which the service's panic-containment tests rely on). The
    /// prebuilt Jacobi operators are dropped so the corruption is
    /// observed at the next apply.
    #[cfg(test)]
    pub(crate) fn chain_mut_for_tests(&mut self) -> &mut CholeskyChain {
        self.jacobis.clear();
        &mut self.chain
    }
}

impl Preconditioner for ChainBackend {
    fn build(g: &MultiGraph, options: &SolverOptions) -> Result<Self, SolverError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(SolverError::EmptyGraph);
        }
        let (multi, copies) = match &options.split {
            SplitStrategy::None => (g.clone(), 1),
            SplitStrategy::Fixed(c) => {
                if *c == 0 {
                    return Err(SolverError::InvalidOption("Fixed split of 0 copies".into()));
                }
                (split_uniform(g, *c), *c)
            }
            SplitStrategy::LogSquared { c } => {
                if !(*c > 0.0) {
                    return Err(SolverError::InvalidOption(
                        "LogSquared constant must be positive".into(),
                    ));
                }
                let copies = copies_for_log_squared(n, *c);
                (split_uniform(g, copies), copies)
            }
            SplitStrategy::LeverageScore { k, alpha_inv } => {
                let opts = crate::leverage::LeverageOptions {
                    k: *k,
                    alpha_inv: *alpha_inv,
                    seed: options.seed,
                    ..Default::default()
                };
                (crate::leverage::leverage_split(g, &opts)?, alpha_inv.ceil() as usize)
            }
        };
        let chain_opts = ChainOptions {
            seed: options.seed,
            base_size: options.base_size,
            sample_fraction: options.sample_fraction,
            connectivity_retries: options.connectivity_retries,
            ..ChainOptions::default()
        };
        let chain = block_cholesky(&multi, &chain_opts)?;
        let jacobis = build_jacobis(&chain);
        Ok(ChainBackend { chain, jacobis, split_copies: copies })
    }

    fn dim(&self) -> usize {
        self.chain.n
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        // Rebuild lazily if a test cleared the prebuilt operators to
        // corrupt the chain (`build_jacobis` re-runs the invariant
        // checks and panics on the corruption — the intended signal).
        if self.jacobis.len() != self.chain.levels.len() {
            let jacobis = build_jacobis(&self.chain);
            ChainApply::with_prebuilt(&self.chain, &jacobis).apply(b, out);
            return;
        }
        self.as_linop().apply(b, out);
    }

    fn estimated_bytes(&self) -> usize {
        // The prebuilt Jacobi operators clone each level's X diagonal
        // and G[F] Laplacian (its merged arcs), so count them alongside
        // the chain.
        const ARC: usize = std::mem::size_of::<(u32, f64)>();
        let jacobis: usize = self
            .chain
            .levels
            .iter()
            .map(|l| {
                let nf = l.f_local.len();
                2 * nf * 8 + (nf + 1) * 8 + 2 * l.ff.num_edges() * ARC
            })
            .sum();
        std::mem::size_of::<Self>() + self.chain.estimated_bytes() + jacobis
    }

    fn descriptor(&self) -> String {
        format!(
            "chain(n={},d={},base={},sweeps={},copies={})",
            self.chain.n,
            self.chain.depth(),
            self.chain.base_n,
            self.chain.jacobi_sweeps,
            self.split_copies,
        )
    }

    fn apply_cost(&self) -> Cost {
        self.chain.apply_cost()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_dense;
    use parlap_graph::multigraph::{Edge, MultiGraph};
    use parlap_linalg::approx::{loewner_eps, precond_spectrum};
    use parlap_linalg::dense::DenseMatrix;
    use parlap_linalg::vector::{norm2, project_out_ones, random_demand, sub};

    fn opts(seed: u64) -> ChainOptions {
        ChainOptions { seed, ..ChainOptions::default() }
    }

    /// Split every edge into `s` copies (α = 1/s boundedness).
    fn split_edges(g: &MultiGraph, s: usize) -> MultiGraph {
        let mut edges = Vec::with_capacity(g.num_edges() * s);
        for e in g.edges() {
            for _ in 0..s {
                edges.push(Edge::new(e.u, e.v, e.w / s as f64));
            }
        }
        MultiGraph::from_edges(g.num_vertices(), edges)
    }

    fn materialize(op: &impl LinOp) -> DenseMatrix {
        let n = op.dim();
        let mut m = DenseMatrix::zeros(n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = op.apply_vec(&e);
            for i in 0..n {
                m.set(i, j, col[i]);
            }
        }
        m
    }

    /// Validate the forward/backward substitution algebra in
    /// isolation: hand-build a one-level chain whose Schur complement
    /// is EXACT (dense oracle) and whose Jacobi operator runs enough
    /// sweeps to be numerically exact. Then W must equal L⁺ to
    /// near machine precision — any discrepancy is an apply bug, not
    /// sampling noise.
    #[test]
    fn exact_chain_reproduces_pseudoinverse() {
        use crate::blocks::{CrossBlock, LocalLap};
        use crate::chain::{ChainLevel, ChainStats};
        use parlap_graph::schur::schur_complement_dense;
        // Graph where F = {0, 1} is 5-DD *with* an internal edge, so
        // the Jacobi block is nontrivial.
        let g = MultiGraph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 0.1), // internal F edge
                Edge::new(0, 2, 1.0),
                Edge::new(0, 3, 1.0),
                Edge::new(1, 3, 1.0),
                Edge::new(1, 4, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(2, 4, 1.0),
            ],
        );
        let f_local = vec![0u32, 1];
        let c_local = vec![2u32, 3, 4];
        // 5-DD holds by hand here: deg(0) = deg(1) = 2.1, internal 0.1,
        // and 0.1 <= 2.1 / 5 (a constant fact, so not an assertion).
        let ff = LocalLap::from_edges(2, &[Edge::new(0, 1, 0.1)]);
        let x_diag = vec![2.0, 2.0]; // weight from each F vertex to C
        let crossings = vec![
            (0u32, 0u32, 1.0), // (c=2, f=0)
            (1, 0, 1.0),       // (c=3, f=0)
            (1, 1, 1.0),       // (c=3, f=1)
            (2, 1, 1.0),       // (c=4, f=1)
        ];
        let cross = CrossBlock::from_crossings(3, 2, &crossings);
        let level =
            ChainLevel { n: 5, f_local, c_local: c_local.clone(), x_diag, ff, cross, m_edges: 8 };
        // Exact Schur complement as the base case.
        let sc = schur_complement_dense(&g, &c_local);
        let chain = crate::chain::CholeskyChain {
            levels: vec![level],
            base_pinv: sc.pseudoinverse(1e-13),
            base_n: 3,
            n: 5,
            jacobi_sweeps: 199, // numerically exact: (X⁻¹Y) eigs ≤ 1/2
            stats: ChainStats::default(),
        };
        let w = ChainApply::new(&chain);
        let wd = materialize(&w);
        let exact = to_dense(&g).pseudoinverse(1e-13);
        let err = wd.subtract(&exact).max_abs();
        assert!(err < 1e-9, "apply algebra error: {err}");
    }

    #[test]
    fn base_case_only_is_exact_pinv() {
        let g = generators::complete(12);
        let chain = block_cholesky(&g, &opts(1)).expect("build");
        assert_eq!(chain.depth(), 0);
        let w = ChainApply::new(&chain);
        let wd = materialize(&w);
        let exact = to_dense(&g).pseudoinverse(1e-12);
        assert!(wd.subtract(&exact).max_abs() < 1e-9);
    }

    #[test]
    fn operator_is_symmetric() {
        let g = split_edges(&generators::gnp_connected(250, 0.03, 4), 2);
        let chain = block_cholesky(&g, &opts(2)).expect("build");
        assert!(chain.depth() >= 1);
        let w = ChainApply::new(&chain);
        let wd = materialize(&w);
        assert!(
            wd.is_symmetric(1e-8 * wd.max_abs()),
            "W must be symmetric (asym {})",
            wd.subtract(&wd.transpose()).max_abs()
        );
    }

    #[test]
    fn w_pinv_approximates_l_dense() {
        // Theorem 3.10 on a small graph with honest splitting: the
        // materialized W should satisfy W⁺ ≈_ε L with ε ≤ 1.
        let base = generators::gnp_connected(250, 0.04, 8);
        let g = split_edges(&base, 4);
        let chain = block_cholesky(&g, &opts(3)).expect("build");
        let w = ChainApply::new(&chain);
        let wd = materialize(&w);
        let wpinv = wd.pseudoinverse(1e-11);
        let l = to_dense(&base);
        let eps = loewner_eps(&wpinv, &l, 1e-9);
        assert!(eps < 1.0, "W⁺ ≈_eps L with eps = {eps} ≥ 1");
    }

    #[test]
    fn spectrum_bounds_via_power_iteration() {
        let base = generators::grid2d(20, 20);
        let g = split_edges(&base, 3);
        let chain = block_cholesky(&g, &opts(5)).expect("build");
        let w = ChainApply::new(&chain);
        let lop = parlap_graph::laplacian::LaplacianOp::new(&base);
        let (lo, hi) = precond_spectrum(&lop, &w, 60, 17);
        assert!(lo > (-1.0f64).exp() * 0.7, "λmin = {lo} too small");
        assert!(hi < 1.0f64.exp() * 1.3, "λmax = {hi} too large");
    }

    #[test]
    fn kernel_behavior() {
        // W maps 1 near the kernel direction consistently: applying to
        // a demand vector keeps results finite and solving works on 1⊥.
        let g = split_edges(&generators::torus2d(12, 12), 2);
        let chain = block_cholesky(&g, &opts(7)).expect("build");
        let w = ChainApply::new(&chain);
        let b = random_demand(g.num_vertices(), 3);
        let x = w.apply_vec(&b);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(norm2(&x) > 0.0);
    }

    #[test]
    fn preconditioner_accelerates_residual_decay() {
        // One Richardson-style step with W should shrink the residual
        // of a demand problem substantially (contraction < 1).
        let base = generators::gnp_connected(300, 0.02, 10);
        let g = split_edges(&base, 3);
        let chain = block_cholesky(&g, &opts(11)).expect("build");
        let w = ChainApply::new(&chain);
        let lop = parlap_graph::laplacian::LaplacianOp::new(&base);
        let b = random_demand(base.num_vertices(), 5);
        // x1 = W b; r1 = b − L x1.
        let x1 = w.apply_vec(&b);
        let lx = lop.apply_vec(&x1);
        let mut r1 = sub(&b, &lx);
        project_out_ones(&mut r1);
        assert!(norm2(&r1) < 0.9 * norm2(&b), "no contraction: {} vs {}", norm2(&r1), norm2(&b));
    }

    /// The backend's trait apply (prebuilt Jacobi operators) is
    /// bit-identical to a fresh `ChainApply` over the same chain.
    #[test]
    fn backend_apply_matches_fresh_chain_apply() {
        let g = generators::grid2d(18, 18);
        let opts = SolverOptions { seed: 4, ..SolverOptions::default() };
        let backend = ChainBackend::build(&g, &opts).expect("build");
        let b = random_demand(324, 6);
        let mut via_trait = vec![0.0; 324];
        Preconditioner::apply(&backend, &b, &mut via_trait);
        let fresh = ChainApply::new(backend.chain()).apply_vec(&b);
        assert_eq!(via_trait, fresh, "prebuilt and fresh Jacobi paths must agree bitwise");
        assert!(backend.descriptor().starts_with("chain("));
        assert!(backend.estimated_bytes() > backend.chain().estimated_bytes());
    }
}
