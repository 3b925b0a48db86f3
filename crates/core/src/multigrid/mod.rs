//! Parallel unsmoothed-aggregation multigrid — the second
//! [`Preconditioner`] backend.
//!
//! In the style of LAMG (Livne–Brandt) and Konolige's parallel graph
//! Laplacian solver, but stripped to the deterministic core:
//!
//! 1. **Aggregate** ([`mod@aggregate`]): deterministic greedy heavy-edge
//!    matching in vertex order, leftovers folded into neighboring
//!    aggregates (size-capped) or kept as singletons.
//! 2. **Coarsen** ([`galerkin`]): `A_c = Pᵀ A P` for the
//!    piecewise-constant `P`, one `O(nnz)` pass that folds each coarse
//!    row's children into it. The finest level is the Laplacian the
//!    solver already assembled for its outer loop, shared, not copied.
//! 3. **Repeat** until the matrix fits the dense base
//!    (`SolverOptions::base_size`, the same knob the chain uses), a
//!    level cap, or a stall guard trips; the base is solved exactly
//!    like the chain's, by a dense grounded-Cholesky pseudoinverse.
//!
//! One `apply` runs a single symmetric V(2,2)-cycle: two damped-Jacobi
//! pre-smoothing sweeps (`ω = 2/3`, from a zero initial guess),
//! restrict the residual, recurse, prolongate the correction, two
//! post-smoothing sweeps. Equal pre/post counts with the symmetric
//! Jacobi smoother make the cycle operator `B` symmetric positive
//! semidefinite — which the outer PCG/Richardson loop
//! requires of any preconditioner — and the outer loop supplies the
//! iteration count, so the backend never cycles internally.
//!
//! **Determinism.** Every stage is either a sequential sweep (setup), a
//! pure element map (`par_tabulate`), a CSR row-parallel matvec with a
//! sequential per-row fold, or a per-coarse-row sequential gather —
//! all bit-identical at any worker count, the same policy as the rest
//! of the crate. There is no randomness anywhere: two builds from the
//! same graph are bitwise identical, so `descriptor()` is stable for
//! free.
//!
//! The kernel is handled exactly as in the chain: `P·1_c = 1_f` keeps
//! every coarse matrix a Laplacian with constant kernel, restriction
//! preserves vector sums (so coarse right-hand sides stay balanced),
//! and `apply` sandwiches the cycle in `project_out_ones` to pin the
//! output mean.

pub mod aggregate;
pub mod galerkin;

use crate::backend::{dense_base_pinv, Preconditioner};
use crate::error::SolverError;
use crate::solver::SolverOptions;
use aggregate::aggregate;
use galerkin::{children_csr, galerkin_coarse};
use parlap_graph::connectivity::num_components;
use parlap_graph::laplacian::to_csr;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::dense::DenseMatrix;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::project_out_ones;
use parlap_primitives::cost::{log2_ceil, Cost};
use parlap_primitives::util::par_tabulate;
use std::sync::Arc;

/// Damped-Jacobi relaxation weight. For a Laplacian,
/// `λmax(D⁻¹A) ≤ 2`, so `ω = 2/3` keeps `ω·D⁻¹A` inside `(0, 4/3)` —
/// a convergent smoother in the `A`-seminorm, which makes the V-cycle
/// operator positive semidefinite.
const OMEGA: f64 = 2.0 / 3.0;
/// Pre-smoothing sweeps per level (equal to post — symmetry).
const PRE_SWEEPS: usize = 2;
/// Post-smoothing sweeps per level.
const POST_SWEEPS: usize = 2;
/// Hierarchy depth cap (far above any real hierarchy; a backstop
/// against pathological slow-shrink inputs).
const MAX_LEVELS: usize = 64;
/// Stall guard: when one round of aggregation shrinks the vertex count
/// by less than 5%, and the level is already small enough for a dense
/// base, stop coarsening there instead of stacking useless levels.
const STALL_SHRINK: f64 = 0.95;
/// Largest matrix the stall guard will hand to the dense base.
const STALL_MAX_DENSE: usize = 4096;

/// One level of the hierarchy: the matrix, its inverse diagonal for
/// Jacobi smoothing, and the transfer maps to the next-coarser level.
#[derive(Debug)]
struct MgLevel {
    /// Shared: the finest level's matrix may be the solver's own `L`.
    a: Arc<CsrMatrix>,
    inv_diag: Vec<f64>,
    /// Fine → coarse vertex map (prolongation: `x[i] += xc[agg_of[i]]`).
    agg_of: Vec<u32>,
    /// CSR over coarse vertices listing their fine children, in
    /// increasing fine order (restriction: sequential per-row fold).
    coarse_ptr: Vec<usize>,
    children: Vec<u32>,
}

/// The built multigrid hierarchy. See the [module docs](self).
#[derive(Debug)]
pub struct MultigridBackend {
    levels: Vec<MgLevel>,
    base_pinv: DenseMatrix,
    base_n: usize,
    n: usize,
    total_nnz: usize,
}

/// Invert a CSR Laplacian's diagonal. On a connected graph every
/// vertex has positive degree (and every coarse vertex positive cut
/// weight), so a non-positive diagonal means a broken hierarchy.
fn inverse_diagonal(a: &CsrMatrix) -> Vec<f64> {
    (0..a.dim())
        .map(|r| {
            let d = a.row(r).find(|&(c, _)| c as usize == r).map_or(0.0, |(_, v)| v);
            assert!(d > 0.0, "non-positive Laplacian diagonal {d} at row {r}");
            1.0 / d
        })
        .collect()
}

impl MultigridBackend {
    /// Build the hierarchy on `l`, the Laplacian [`to_csr`] assembles
    /// from `g`, keeping `l` itself as the finest level: the solver
    /// passes its own system matrix here, so one build holds one copy.
    pub(crate) fn build_on(
        g: &MultiGraph,
        l: Arc<CsrMatrix>,
        options: &SolverOptions,
    ) -> Result<Self, SolverError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(SolverError::EmptyGraph);
        }
        let components = num_components(g);
        if components > 1 {
            return Err(SolverError::Disconnected { components });
        }
        if options.base_size == 0 {
            return Err(SolverError::InvalidOption("base_size must be ≥ 1".into()));
        }
        debug_assert_eq!(l.dim(), n, "the Laplacian must be the graph's");
        let mut a = l;
        let mut levels = Vec::new();
        let mut total_nnz = a.nnz();
        while a.dim() > options.base_size && levels.len() < MAX_LEVELS {
            let agg = aggregate(&a);
            let stalled = (agg.num_aggregates as f64) > STALL_SHRINK * a.dim() as f64;
            if stalled && a.dim() <= STALL_MAX_DENSE {
                break;
            }
            let (coarse_ptr, children) = children_csr(&agg.agg_of, agg.num_aggregates);
            let coarse = galerkin_coarse(&a, &agg.agg_of, &coarse_ptr, &children);
            total_nnz += coarse.nnz();
            let inv_diag = inverse_diagonal(&a);
            levels.push(MgLevel { a, inv_diag, agg_of: agg.agg_of, coarse_ptr, children });
            a = Arc::new(coarse);
        }
        let base_n = a.dim();
        let base_pinv = dense_base_pinv(&a.to_dense())?;
        Ok(MultigridBackend { levels, base_pinv, base_n, n, total_nnz })
    }

    /// The finest level's matrix, `None` when the whole graph fits the
    /// dense base.
    pub(crate) fn finest(&self) -> Option<&Arc<CsrMatrix>> {
        self.levels.first().map(|l| &l.a)
    }

    /// Number of non-base levels in the hierarchy.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Dimension of the dense base.
    pub fn base_n(&self) -> usize {
        self.base_n
    }

    /// Vertex counts per level, finest first, including the base.
    pub fn level_dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> = self.levels.iter().map(|l| l.a.dim()).collect();
        dims.push(self.base_n);
        dims
    }

    /// One damped-Jacobi sweep `x ← x + ω D⁻¹ (b − A x)` as a pure
    /// element map over the residual.
    fn smooth(level: &MgLevel, x: &[f64], b: &[f64]) -> Vec<f64> {
        let ax = level.a.apply_vec(x);
        par_tabulate(x.len(), |i| x[i] + OMEGA * level.inv_diag[i] * (b[i] - ax[i]))
    }

    /// Restrict a fine residual: `rc[j] = Σ_{agg(i)=j} r[i]`, each
    /// coarse entry folded sequentially in increasing fine order.
    fn restrict(level: &MgLevel, r: &[f64]) -> Vec<f64> {
        par_tabulate(level.coarse_ptr.len() - 1, |j| {
            level.children[level.coarse_ptr[j]..level.coarse_ptr[j + 1]]
                .iter()
                .map(|&i| r[i as usize])
                .sum()
        })
    }

    /// One symmetric V(2,2)-cycle from a zero initial guess.
    fn vcycle(&self, k: usize, b: &[f64]) -> Vec<f64> {
        if k == self.levels.len() {
            return self.base_pinv.apply_vec(b);
        }
        let level = &self.levels[k];
        // Pre-smooth from zero: the first sweep collapses to ω D⁻¹ b.
        let mut x = par_tabulate(b.len(), |i| OMEGA * level.inv_diag[i] * b[i]);
        for _ in 1..PRE_SWEEPS {
            x = Self::smooth(level, &x, b);
        }
        // Coarse-grid correction.
        let ax = level.a.apply_vec(&x);
        let r = par_tabulate(b.len(), |i| b[i] - ax[i]);
        let xc = self.vcycle(k + 1, &Self::restrict(level, &r));
        x = par_tabulate(b.len(), |i| x[i] + xc[level.agg_of[i] as usize]);
        for _ in 0..POST_SWEEPS {
            x = Self::smooth(level, &x, b);
        }
        x
    }
}

impl Preconditioner for MultigridBackend {
    fn build(g: &MultiGraph, options: &SolverOptions) -> Result<Self, SolverError> {
        Self::build_on(g, Arc::new(to_csr(g)), options)
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, b: &[f64], out: &mut [f64]) {
        let mut rhs = b.to_vec();
        project_out_ones(&mut rhs);
        let mut x = self.vcycle(0, &rhs);
        project_out_ones(&mut x);
        out.copy_from_slice(&x);
    }

    fn estimated_bytes(&self) -> usize {
        let levels: usize = self
            .levels
            .iter()
            .map(|l| {
                let nl = l.a.dim();
                // CSR (row ptr + col idx + values), inverse diagonal,
                // fine→coarse map, children CSR.
                (nl + 1) * 8
                    + l.a.nnz() * (4 + 8)
                    + nl * 8
                    + nl * 4
                    + l.coarse_ptr.len() * 8
                    + l.children.len() * 4
            })
            .sum();
        std::mem::size_of::<Self>() + levels + self.base_n * self.base_n * 8
    }

    fn descriptor(&self) -> String {
        format!(
            "multigrid(n={},levels={},base={},nnz={},cycle=v({PRE_SWEEPS},{POST_SWEEPS}))",
            self.n,
            self.levels.len(),
            self.base_n,
            self.total_nnz,
        )
    }

    fn apply_cost(&self) -> Cost {
        // Per level: PRE + POST smoothing sweeps plus one residual,
        // each a CSR matvec (O(nnz) work, O(log nnz) depth) and an
        // element map; the base is a dense matvec.
        let sweeps = (PRE_SWEEPS + POST_SWEEPS + 1) as u64;
        let mut cost = Cost::new(0, 0);
        for l in &self.levels {
            let m = l.a.nnz() as u64;
            let nl = l.a.dim() as u64;
            cost = cost.then(Cost::new(sweeps * (m + 2 * nl), sweeps * log2_ceil(m.max(2))));
        }
        let b = self.base_n as u64;
        cost.then(Cost::new(b * b, log2_ceil(b.max(2))))
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
    use parlap_linalg::vector::{dot, norm2, random_demand};

    fn build(g: &MultiGraph) -> MultigridBackend {
        MultigridBackend::build(g, &SolverOptions::default()).expect("build")
    }

    fn materialize(w: &MultigridBackend) -> DenseMatrix {
        let n = w.dim();
        let mut m = DenseMatrix::zeros(n);
        let mut col = vec![0.0; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            w.apply(&e, &mut col);
            for i in 0..n {
                m.set(i, j, col[i]);
            }
        }
        m
    }

    #[test]
    fn small_graph_is_exact_pinv() {
        // n ≤ base_size: the hierarchy is just the dense base, so the
        // backend *is* L⁺ (up to the pseudoinverse tolerance).
        let g = generators::grid2d(6, 6);
        let w = build(&g);
        assert_eq!(w.num_levels(), 0);
        let wd = materialize(&w);
        let exact = to_dense(&g).pseudoinverse(1e-12);
        assert!(wd.subtract(&exact).max_abs() < 1e-9);
    }

    #[test]
    fn hierarchy_shrinks_geometrically_on_meshes() {
        let g = generators::grid2d(40, 40);
        let w = build(&g);
        assert!(w.num_levels() >= 2);
        let dims = w.level_dims();
        for pair in dims.windows(2) {
            assert!(pair[1] < pair[0], "levels must shrink: {dims:?}");
        }
        assert!(w.base_n() <= 100);
    }

    #[test]
    fn cycle_operator_is_symmetric_psd() {
        let g = generators::grid2d(13, 11);
        let w = build(&g);
        assert!(w.num_levels() >= 1);
        let wd = materialize(&w);
        assert!(
            wd.is_symmetric(1e-10 * wd.max_abs().max(1.0)),
            "V(2,2) with symmetric smoother must be symmetric (asym {})",
            wd.subtract(&wd.transpose()).max_abs()
        );
        // PSD on 1⊥: xᵀWx ≥ 0 for balanced probes.
        for seed in 0..5 {
            let x = random_demand(w.dim(), seed);
            let wx = {
                let mut out = vec![0.0; w.dim()];
                w.apply(&x, &mut out);
                out
            };
            assert!(dot(&x, &wx) > 0.0, "seed {seed}: xᵀWx must be positive on 1⊥");
        }
    }

    #[test]
    fn one_cycle_contracts_the_error() {
        // Richardson with B: e ← (I − BL)e. One cycle must shrink the
        // A-norm of the error of a random start on a mesh.
        let g = generators::grid2d(24, 24);
        let w = build(&g);
        let l = parlap_graph::laplacian::LaplacianOp::new(&g);
        let b = random_demand(g.num_vertices(), 9);
        // x0 = 0 → error e0 = L⁺b, residual r0 = b.
        let x1 = {
            let mut out = vec![0.0; w.dim()];
            w.apply(&b, &mut out);
            out
        };
        let r1: Vec<f64> = b.iter().zip(&l.apply_vec(&x1)).map(|(bi, axi)| bi - axi).collect();
        assert!(
            norm2(&r1) < 0.7 * norm2(&b),
            "one V-cycle should contract the residual: {} vs {}",
            norm2(&r1),
            norm2(&b)
        );
    }

    #[test]
    fn pcg_with_multigrid_converges_fast() {
        let g = generators::grid2d(30, 30);
        let w = build(&g);
        let csr = to_csr(&g);
        let b = random_demand(900, 3);
        let adapter = crate::backend::BackendOp(&w);
        let out = parlap_linalg::cg::pcg_solve(&csr, &adapter, &b, 1e-10, 200);
        assert!(out.converged, "PCG(MG) stalled at {}", out.relative_residual);
        assert!(out.iterations < 60, "PCG(MG) took {} iterations", out.iterations);
    }

    #[test]
    fn apply_is_deterministic_and_build_is_reproducible() {
        let g = generators::gnp_connected(400, 0.015, 5);
        let w1 = build(&g);
        let w2 = build(&g);
        assert_eq!(w1.descriptor(), w2.descriptor());
        let b = random_demand(400, 8);
        let (mut x1, mut x2) = (vec![0.0; 400], vec![0.0; 400]);
        w1.apply(&b, &mut x1);
        w2.apply(&b, &mut x2);
        assert_eq!(x1, x2, "two builds must agree bitwise");
    }

    #[test]
    fn rejects_empty_and_disconnected() {
        assert!(matches!(
            MultigridBackend::build(&MultiGraph::new(0), &SolverOptions::default()),
            Err(SolverError::EmptyGraph)
        ));
        let mut g = MultiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert!(matches!(
            MultigridBackend::build(&g, &SolverOptions::default()),
            Err(SolverError::Disconnected { components: 2 })
        ));
    }

    #[test]
    fn estimated_bytes_and_cost_scale_with_size() {
        let small = build(&generators::grid2d(15, 15));
        let large = build(&generators::grid2d(40, 40));
        assert!(large.estimated_bytes() > small.estimated_bytes());
        assert!(large.apply_cost().work > small.apply_cost().work);
        assert!(large.apply_cost().depth > 0);
    }

    #[test]
    fn output_is_mean_zero() {
        let g = generators::torus2d(12, 12);
        let w = build(&g);
        let mut b = random_demand(144, 2);
        b[0] += 5.0; // unbalanced input
        let mut x = vec![0.0; 144];
        w.apply(&b, &mut x);
        let mean: f64 = x.iter().sum::<f64>() / 144.0;
        assert!(mean.abs() < 1e-12, "mean {mean}");
    }
}
