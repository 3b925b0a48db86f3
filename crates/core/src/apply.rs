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
//! The chain is stored in elimination order ([`CholeskyChain::order`]),
//! where level `k`'s F slice is followed by `G(k+1)`, so both passes
//! run in place on one vector: `y_F` overwrites `b_F`, `y_C` is added
//! into the suffix, and `x_F` is added onto `y_F`.
//!
//! Theorem 3.10: the resulting linear operator `W` satisfies
//! `W⁺ ≈₁ L` w.h.p. and applies in `O(m log n log log n)` work and
//! `O(log m log n log log n)` depth.

use crate::alpha::{copies_for_log_squared, split_uniform, SplitStrategy};
use crate::backend::Preconditioner;
use crate::blocks::for_each_row;
use crate::chain::{block_cholesky, ChainLevel, ChainOptions, CholeskyChain};
use crate::error::SolverError;
use crate::jacobi::jacobi_in_place;
use crate::solver::SolverOptions;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::project_out_ones;
use parlap_primitives::cost::Cost;
use parlap_primitives::util::par_tabulate;
use std::borrow::Cow;

/// The operator `W ≈ L⁺` implied by a chain: the Algorithm 2
/// forward/backward substitution as a [`LinOp`]. Borrows the chain;
/// construction only checks it.
pub struct ChainApply<'c> {
    chain: &'c CholeskyChain,
}

impl<'c> ChainApply<'c> {
    /// Wrap a chain.
    ///
    /// # Panics
    /// Panics if the Jacobi sweep count is even (Lemma 3.5 needs it
    /// odd), `order` does not cover the `n` vertices, or a level's `X`
    /// diagonal does not cover its F slice.
    pub fn new(chain: &'c CholeskyChain) -> Self {
        assert!(chain.jacobi_sweeps % 2 == 1, "Jacobi sweep count must be odd (Lemma 3.5)");
        assert_eq!(chain.order.len(), chain.n, "elimination order length is not n");
        for (k, level) in chain.levels.iter().enumerate() {
            assert_eq!(level.x_diag.len(), level.nf(), "level {k}: X diagonal length is not |F|");
        }
        ChainApply { chain }
    }

    /// The underlying chain.
    pub fn chain(&self) -> &CholeskyChain {
        self.chain
    }
}

impl LinOp for ChainApply<'_> {
    fn dim(&self) -> usize {
        self.chain.n
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        let chain = self.chain;
        let n = chain.n;
        // The triangular factorization U⁻¹ D⁺ U⁻ᵀ is a *generalized*
        // inverse of the singular Laplacian: exact on range(L) but its
        // outputs carry kernel (constant) components. Projecting input
        // and output onto 1⊥ makes the operator agree with the
        // Moore–Penrose L⁺ (exactly, for exact blocks) and keeps its
        // kernel aligned with span(1). Both projections run in input
        // order.
        out.copy_from_slice(b);
        project_out_ones(out);
        let mut v = par_tabulate(n, |p| out[chain.order[p] as usize]);
        // Scratch for the Jacobi solves (`xinvb`, `spare`), the
        // backward pass's `t` and the base solve's output.
        let width = chain.levels.iter().map(ChainLevel::nf).max().unwrap_or(0).max(chain.base_n);
        let (mut xinvb, mut spare, mut t) = (vec![0.0; width], vec![0.0; width], vec![0.0; width]);
        let mut jacobi = |level: &ChainLevel, z: &mut [f64]| {
            let (xinvb, spare) = (&mut xinvb[..z.len()], &mut spare[..z.len()]);
            jacobi_in_place(&level.x_diag, &level.ff, chain.jacobi_sweeps, z, xinvb, spare);
        };
        // Level k's vertices are the suffix from n − n_k: its F slice
        // `f`, then G(k+1) as `c`.
        for level in &chain.levels {
            let (f, c) = v[n - level.n..].split_at_mut(level.nf());
            // y_F = Z b_F, then y_C = b_C − L_CF y_F.
            jacobi(level, f);
            level.cross.add_into_c(f, c);
        }
        let base = &mut v[n - chain.base_n..];
        chain.base_pinv.apply(base, &mut t[..chain.base_n]);
        base.copy_from_slice(&t[..chain.base_n]);
        for level in chain.levels.iter().rev() {
            let (f, c) = v[n - level.n..].split_at_mut(level.nf());
            // x_F = y_F + Z t with t = −L_FC x_C.
            let t = &mut t[..f.len()];
            level.cross.into_f(c, t);
            jacobi(level, t);
            for_each_row(f, |i, x| *x += t[i]);
        }
        for (&u, &x) in chain.order.iter().zip(&v) {
            out[u as usize] = x;
        }
        project_out_ones(out);
    }
}

/// The chain options a solver's options imply.
pub(crate) fn chain_options(options: &SolverOptions) -> ChainOptions {
    ChainOptions {
        seed: options.seed,
        base_size: options.base_size,
        sample_fraction: options.sample_fraction,
        ..ChainOptions::default()
    }
}

/// The block-Cholesky [`Preconditioner`] backend: α-bounded splitting
/// (Lemma 3.2/3.3) and the factorization chain (Theorem 3.9).
///
/// This is the paper's solver, repackaged behind the backend trait:
/// building it from a graph + options produces exactly the chain (and
/// bits) previous releases produced.
#[derive(Debug)]
pub struct ChainBackend {
    chain: CholeskyChain,
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
        ChainApply::new(&self.chain)
    }

    /// Mutable chain access for in-crate failure-injection tests (a
    /// corrupted level makes the apply path panic deterministically,
    /// which the service's panic-containment tests rely on).
    #[cfg(test)]
    pub(crate) fn chain_mut_for_tests(&mut self) -> &mut CholeskyChain {
        &mut self.chain
    }
}

impl Preconditioner for ChainBackend {
    fn build(g: &MultiGraph, options: &SolverOptions) -> Result<Self, SolverError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(SolverError::EmptyGraph);
        }
        options.split.validate()?;
        let (multi, copies) = match &options.split {
            SplitStrategy::None => (Cow::Borrowed(g), 1),
            SplitStrategy::Fixed(c) => (Cow::Owned(split_uniform(g, *c)), *c),
            SplitStrategy::LogSquared { c } => {
                let copies = copies_for_log_squared(n, *c);
                (Cow::Owned(split_uniform(g, copies)), copies)
            }
            SplitStrategy::LeverageScore { k, alpha_inv } => {
                let opts = crate::leverage::LeverageOptions {
                    k: *k,
                    alpha_inv: *alpha_inv,
                    seed: options.seed,
                    ..Default::default()
                };
                let split = crate::leverage::leverage_split(g, &opts)?;
                (Cow::Owned(split), alpha_inv.ceil() as usize)
            }
        };
        let chain = block_cholesky(&multi, &chain_options(options))?;
        Ok(ChainBackend { chain, split_copies: copies })
    }

    fn dim(&self) -> usize {
        self.chain.n
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        self.as_linop().apply(b, out);
    }

    fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.chain.estimated_bytes()
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
    use crate::chain::Partition;
    use parlap_graph::generators;
    use parlap_graph::laplacian::to_dense;
    use parlap_graph::multigraph::{Edge, MultiGraph};
    use parlap_linalg::approx::{loewner_eps, precond_spectrum};
    use parlap_linalg::dense::DenseMatrix;
    use parlap_linalg::vector::{norm2, random_demand, sub};

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
    /// sweeps to be numerically exact, then put it into elimination
    /// order by the same pass the build uses. W must equal L⁺ to
    /// near machine precision — any discrepancy is an apply bug, not
    /// sampling noise.
    #[test]
    fn exact_chain_reproduces_pseudoinverse() {
        use crate::blocks::{CrossBlock, LocalLap};
        use crate::chain::{into_elimination_order, ChainStats, Partition};
        use parlap_graph::schur::schur_complement_dense;
        // Graph where F = {1, 3} is 5-DD *with* an internal edge, so
        // the Jacobi block is nontrivial, and is not a prefix of the
        // vertex ids, so the elimination order moves vertices.
        let g = MultiGraph::from_edges(
            5,
            vec![
                Edge::new(1, 3, 0.1), // internal F edge
                Edge::new(1, 0, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(3, 2, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(2, 4, 1.0),
                Edge::new(0, 4, 1.0),
            ],
        );
        let part = Partition { f: vec![1, 3], c: vec![0, 2, 4] };
        // 5-DD holds by hand here: deg(1) = deg(3) = 2.1, internal 0.1,
        // and 0.1 <= 2.1 / 5 (a constant fact, so not an assertion).
        let ff = LocalLap::from_edges(2, &[Edge::new(0, 1, 0.1)]);
        let x_diag = vec![2.0, 2.0]; // weight from each F vertex to C
        let crossings = vec![
            (0u32, 0u32, 1.0), // (c=0, f=1)
            (1, 0, 1.0),       // (c=2, f=1)
            (1, 1, 1.0),       // (c=2, f=3)
            (2, 1, 1.0),       // (c=4, f=3)
        ];
        let cross = CrossBlock::from_crossings(3, 2, &crossings);
        let mut levels = vec![ChainLevel { n: 5, x_diag, ff, cross, m_edges: 8 }];
        let order = into_elimination_order(&mut levels, &[part], 3);
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        // Exact Schur complement as the base case, in G(1)'s order.
        let sc = schur_complement_dense(&g, &[0, 2, 4]);
        let chain = crate::chain::CholeskyChain {
            levels,
            order,
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

    /// The backend's trait apply is bit-identical to a fresh
    /// `ChainApply` over the same chain.
    #[test]
    fn backend_apply_matches_fresh_chain_apply() {
        let g = generators::grid2d(18, 18);
        let opts = SolverOptions { seed: 4, ..SolverOptions::default() };
        let backend = ChainBackend::build(&g, &opts).expect("build");
        let b = random_demand(324, 6);
        let mut via_trait = vec![0.0; 324];
        Preconditioner::apply(&backend, &b, &mut via_trait);
        let fresh = ChainApply::new(backend.chain()).apply_vec(&b);
        assert_eq!(via_trait, fresh, "trait and fresh apply must agree bitwise");
        assert!(backend.descriptor().starts_with("chain("));
        assert!(backend.estimated_bytes() > backend.chain().estimated_bytes());
    }

    /// The per-level apply that the elimination order replaced, kept
    /// as the oracle for [`ChainApply`]. Per level it gathers `b_F` and
    /// `b_C` into their own vectors, runs the two-pass Jacobi
    /// recurrence, and scatters `x` back into `G(k)` order. It reads a
    /// chain as `block_cholesky_rounds` leaves it, before the pass into
    /// elimination order.
    fn reference_apply(chain: &CholeskyChain, parts: &[Partition], b: &[f64]) -> Vec<f64> {
        let jacobi = |level: &ChainLevel, b: &[f64]| {
            let xinvb: Vec<f64> = b.iter().zip(&level.x_diag).map(|(bi, xi)| bi / xi).collect();
            let mut z = xinvb.clone();
            let mut yz = vec![0.0; z.len()];
            for _ in 0..chain.jacobi_sweeps {
                level.ff.apply(&z, &mut yz);
                for i in 0..z.len() {
                    z[i] = xinvb[i] - yz[i] / level.x_diag[i];
                }
            }
            z
        };
        let mut b_cur = b.to_vec();
        project_out_ones(&mut b_cur);
        let mut y_fs = Vec::new();
        for (level, part) in chain.levels.iter().zip(parts) {
            let b_f: Vec<f64> = part.f.iter().map(|&u| b_cur[u as usize]).collect();
            let y_f = jacobi(level, &b_f);
            let mut coupling = vec![0.0; part.c.len()];
            level.cross.grouped_by_c().gather(&y_f, &mut coupling);
            b_cur = part.c.iter().zip(&coupling).map(|(&u, &s)| b_cur[u as usize] + s).collect();
            y_fs.push(y_f);
        }
        let mut x = chain.base_pinv.apply_vec(&b_cur);
        for ((level, part), y_f) in chain.levels.iter().zip(parts).zip(&y_fs).rev() {
            let mut t = vec![0.0; part.f.len()];
            level.cross.into_f(&x, &mut t);
            let zt = jacobi(level, &t);
            let mut up = vec![0.0; level.n];
            for (i, &u) in part.f.iter().enumerate() {
                up[u as usize] = y_f[i] + zt[i];
            }
            for (j, &u) in part.c.iter().enumerate() {
                up[u as usize] = x[j];
            }
            x = up;
        }
        project_out_ones(&mut x);
        x
    }

    /// The in-place apply in elimination order gives the per-level
    /// algebra's bits, at pool sizes 1 and 2: the backend a solver
    /// builds against [`reference_apply`] on the same rounds.
    #[test]
    fn flat_apply_matches_per_level_reference_bitwise() {
        use crate::backend::BackendKind;
        use crate::chain::block_cholesky_rounds;
        use crate::solver::{LaplacianSolver, SparsifyMode};
        use parlap_primitives::util::with_threads;
        let options = SolverOptions { seed: 9, backend: BackendKind::Chain, ..Default::default() };
        let sparsified = SolverOptions { sparsify: SparsifyMode::On, ..options.clone() };
        let cases = [
            ("grid", generators::grid2d(100, 100), &options),
            (
                "exp-weight grid",
                generators::exponential_weights(&generators::grid2d(40, 40), 1e4, 5),
                &options,
            ),
            ("gnp", generators::gnp_connected(2000, 0.003, 4), &options),
            ("pref_attach", generators::preferential_attachment(2000, 3, 6), &options),
            ("dense gnp, sparsified", generators::gnp_connected(250, 0.8, 3), &sparsified),
        ];
        for (name, g, opts) in &cases {
            let b = random_demand(g.num_vertices(), 11);
            let apply_at = |threads: usize| {
                with_threads(threads, || {
                    let solver = LaplacianSolver::build(g, (*opts).clone()).expect("build");
                    let mut out = vec![0.0; b.len()];
                    solver.backend().apply(&b, &mut out);
                    let stage = solver.sparsify_stage();
                    assert_eq!(stage.is_some(), opts.sparsify == SparsifyMode::On, "{name}");
                    let chain_input = stage.map_or(g, |st| &st.graph);
                    (out, split_uniform(chain_input, 4))
                })
            };
            let (flat1, multi) = apply_at(1);
            let (flat2, _) = apply_at(2);
            let (rounds, parts) =
                block_cholesky_rounds(&multi, &chain_options(opts)).expect("build");
            assert!(rounds.depth() >= 1, "{name}: need a level");
            let want = reference_apply(&rounds, &parts, &b);
            for (threads, got) in [(1, &flat1), (2, &flat2)] {
                assert!(
                    got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name}: flat apply at {threads} threads differs from the per-level reference"
                );
            }
        }
    }
}
