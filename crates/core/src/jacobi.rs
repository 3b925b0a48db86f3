//! The Jacobi polynomial operator `Z` for 5-DD blocks (Lemma 3.5).
//!
//! For a 5-DD matrix `M = X + Y` (`X` diagonal, `Y` the Laplacian of
//! the induced subgraph `G[F]`), the truncated Neumann series
//!
//! `Z = Σ_{i=0}^{l} X⁻¹ (−Y X⁻¹)^i`,  `l` odd, `l ≥ log₂(3/ε)`,
//!
//! satisfies `M ≼ Z⁻¹ ≼ M + εY`. Because `M` is 5-DD, `2Y ≼ X`, so a
//! *constant* number of sweeps per digit suffices — this is why the
//! solver's inner blocks cost only `O(m log log n)` work.
//!
//! Applied via the recurrence `x⁽⁰⁾ = X⁻¹b`,
//! `x⁽ⁱ⁾ = X⁻¹b − X⁻¹ Y x⁽ⁱ⁻¹⁾` (Algorithm 2's `Jacobi`), giving
//! `x⁽ˡ⁾ = Z b` after `l` sweeps. `jacobi_in_place` is the one body:
//! [`JacobiOp`] wraps it, and the chain's apply runs it on each level's
//! F slice.
//!
//! Every parallel loop here is an element map (entry `i` reads only
//! `b[i]`, `x_diag[i]`, and the sequential sum of `Y`'s row `i`), so
//! the operator is bit-identical for any thread count — the
//! deterministic-reduction policy of `parlap_primitives::reduce`.

use crate::blocks::{for_each_row, LocalLap};
use parlap_linalg::op::LinOp;
use parlap_primitives::cost::{log2_ceil, Cost};

/// Smallest odd `l ≥ log₂(3/ε)` (the paper's sweep count).
pub fn sweeps_for(eps: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "Jacobi eps must be in (0,1)");
    let l = (3.0 / eps).log2().ceil().max(1.0) as usize;
    if l % 2 == 1 {
        l
    } else {
        l + 1
    }
}

/// `z ← Z z` for the 5-DD block `M = X + Y`, in place, with `sweeps`
/// (odd) Jacobi sweeps. `xinvb` and `spare` are scratch of `z`'s
/// length.
///
/// Each sweep is one row pass `next[i] = X⁻¹b[i] − (Y z)[i] / X_ii`
/// from one buffer into another. The first reads `xinvb`, and later
/// ones alternate between `spare` and `z`; an odd count lands the last
/// one in `z`.
pub(crate) fn jacobi_in_place(
    x_diag: &[f64],
    y: &LocalLap,
    sweeps: usize,
    z: &mut [f64],
    xinvb: &mut [f64],
    spare: &mut [f64],
) {
    debug_assert!(sweeps % 2 == 1, "Jacobi sweep count must be odd (Lemma 3.5)");
    debug_assert!(x_diag.len() == z.len() && xinvb.len() == z.len() && spare.len() == z.len());
    for_each_row(xinvb, |i, v| *v = z[i] / x_diag[i]);
    let sweep = |from: &[f64], to: &mut [f64], xinvb: &[f64]| {
        for_each_row(to, |i, t| *t = xinvb[i] - y.row(i, from) / x_diag[i]);
    };
    sweep(xinvb, z, xinvb);
    for _ in 0..sweeps / 2 {
        sweep(z, spare, xinvb);
        sweep(spare, z, xinvb);
    }
}

/// The operator `Z ≈ M⁻¹` for a 5-DD block `M = X + Y`.
#[derive(Clone, Debug)]
pub struct JacobiOp {
    x_diag: Vec<f64>,
    y: LocalLap,
    sweeps: usize,
}

impl JacobiOp {
    /// Build from the diagonal `X`, the induced-subgraph Laplacian `Y`,
    /// and the sweep count (use [`sweeps_for`]).
    ///
    /// # Panics
    /// Panics if dimensions mismatch, any `X_ii ≤ 0`, or `sweeps` is
    /// even (the Loewner bounds of Lemma 3.5 need odd `l`).
    pub fn new(x_diag: Vec<f64>, y: LocalLap, sweeps: usize) -> Self {
        assert_eq!(x_diag.len(), y.dim(), "JacobiOp: dimension mismatch");
        assert!(sweeps % 2 == 1, "Jacobi sweep count must be odd (Lemma 3.5)");
        assert!(
            x_diag.iter().all(|&x| x > 0.0 && x.is_finite()),
            "JacobiOp: X diagonal must be strictly positive"
        );
        JacobiOp { x_diag, y, sweeps }
    }

    /// Sweep count `l`.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// PRAM cost of one application, charged per arc `Y` stores (one
    /// per distinct F–F pair, parallel edges merged).
    pub fn cost(&self) -> Cost {
        let m = self.y.num_edges() as u64;
        let nf = self.x_diag.len() as u64;
        let per_sweep = Cost::new(2 * m + 2 * nf, log2_ceil(m.max(nf)) + 2);
        per_sweep.repeat(self.sweeps as u64 + 1)
    }
}

impl LinOp for JacobiOp {
    fn dim(&self) -> usize {
        self.x_diag.len()
    }

    fn apply(&self, b: &[f64], z: &mut [f64]) {
        let n = self.x_diag.len();
        z.copy_from_slice(b);
        let (mut xinvb, mut spare) = (vec![0.0; n], vec![0.0; n]);
        jacobi_in_place(&self.x_diag, &self.y, self.sweeps, z, &mut xinvb, &mut spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::multigraph::Edge;
    use parlap_linalg::dense::DenseMatrix;
    use parlap_linalg::eigen::eigen_sym;
    use parlap_primitives::prng::StreamRng;

    #[test]
    fn sweep_counts() {
        // l = smallest odd ≥ log2(3/eps)
        assert_eq!(sweeps_for(0.5), 3);
        assert_eq!(sweeps_for(0.1), 5);
        assert_eq!(sweeps_for(0.01), 9);
        assert_eq!(sweeps_for(0.375), 3);
        assert_eq!(sweeps_for(0.75), 3); // log2(4) = 2 → bump to 3
    }

    /// Build a random 5-DD system: Y a random graph Laplacian,
    /// X_ii = 4·deg_i + positive noise (so M = X + Y is 5-DD).
    fn random_5dd(n: usize, seed: u64) -> (Vec<f64>, LocalLap, Vec<Edge>) {
        let mut rng = StreamRng::new(seed, 0);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.next_f64() < 0.4 {
                    edges.push(Edge::new(u, v, 0.5 + rng.next_f64()));
                }
            }
        }
        let y = LocalLap::from_edges(n, &edges);
        let x: Vec<f64> = y.diag().iter().map(|&d| 4.0 * d + 0.5 + rng.next_f64()).collect();
        (x, y, edges)
    }

    fn dense_from_parts(x: &[f64], edges: &[Edge], n: usize) -> (DenseMatrix, DenseMatrix) {
        // Returns (M = X + Y, Y).
        let mut y = DenseMatrix::zeros(n);
        for e in edges {
            let (u, v) = (e.u as usize, e.v as usize);
            y.add(u, u, e.w);
            y.add(v, v, e.w);
            y.add(u, v, -e.w);
            y.add(v, u, -e.w);
        }
        let mut m = y.clone();
        for i in 0..n {
            m.add(i, i, x[i]);
        }
        (m, y)
    }

    fn materialize(op: &JacobiOp, n: usize) -> DenseMatrix {
        let mut z = DenseMatrix::zeros(n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = op.apply_vec(&e);
            for i in 0..n {
                z.set(i, j, col[i]);
            }
        }
        z
    }

    /// Lemma 3.5: M ≼ Z⁻¹ ≼ M + εY, checked via generalized
    /// eigenvalues: all eigenvalues of Z·M ≤ 1 and of Z·(M+εY) ≥ 1.
    #[test]
    fn lemma_3_5_loewner_bounds() {
        for seed in 0..5 {
            let n = 10;
            let (x, y, edges) = random_5dd(n, seed);
            let (m, ydense) = dense_from_parts(&x, &edges, n);
            for eps in [0.5, 0.1, 0.02] {
                let op = JacobiOp::new(x.clone(), y.clone(), sweeps_for(eps));
                let z = materialize(&op, n);
                assert!(z.is_symmetric(1e-9), "Z must be symmetric");
                // S1 = Z^{1/2} M Z^{1/2}: eigenvalues of Z·M.
                let ez = eigen_sym(&z);
                assert!(ez.values.iter().all(|&l| l > 0.0), "Z must be PD");
                let zh = ez.spectral_map(|l| l.sqrt());
                let s1 = zh.matmul(&m).matmul(&zh);
                let l1 = eigen_sym(&s1);
                let lmax = l1.values.last().copied().expect("nonempty");
                assert!(lmax <= 1.0 + 1e-9, "λmax(ZM) = {lmax} > 1 (seed {seed}, eps {eps})");
                // M + εY.
                let mut me = m.clone();
                for i in 0..n {
                    for j in 0..n {
                        me.add(i, j, eps * ydense.get(i, j));
                    }
                }
                let s2 = zh.matmul(&me).matmul(&zh);
                let l2 = eigen_sym(&s2);
                let lmin = l2.values.first().copied().expect("nonempty");
                assert!(lmin >= 1.0 - 1e-9, "λmin(Z(M+εY)) = {lmin} < 1 (seed {seed}, eps {eps})");
            }
        }
    }

    #[test]
    fn converges_to_inverse_with_more_sweeps() {
        let n = 8;
        let (x, y, edges) = random_5dd(n, 42);
        let (m, _) = dense_from_parts(&x, &edges, n);
        let minv = m.pseudoinverse(1e-14); // M is PD, so this is M⁻¹
        let mut last_err = f64::INFINITY;
        for sweeps in [1usize, 3, 7, 15] {
            let op = JacobiOp::new(x.clone(), y.clone(), sweeps);
            let z = materialize(&op, n);
            let err = z.subtract(&minv).max_abs();
            assert!(err < last_err || err < 1e-12, "sweeps={sweeps}: {err} !< {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-4, "15 sweeps should be quite accurate: {last_err}");
    }

    #[test]
    fn no_edges_is_diagonal_inverse() {
        let x = vec![2.0, 4.0];
        let y = LocalLap::from_edges(2, &[]);
        let op = JacobiOp::new(x, y, 1);
        let out = op.apply_vec(&[1.0, 1.0]);
        assert!((out[0] - 0.5).abs() < 1e-15);
        assert!((out[1] - 0.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_sweeps_rejected() {
        let y = LocalLap::from_edges(1, &[]);
        JacobiOp::new(vec![1.0], y, 2);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_diagonal_rejected() {
        let y = LocalLap::from_edges(1, &[]);
        JacobiOp::new(vec![0.0], y, 1);
    }

    #[test]
    fn cost_scales_with_sweeps() {
        let (x, y, _) = random_5dd(6, 1);
        let c3 = JacobiOp::new(x.clone(), y.clone(), 3).cost();
        let c7 = JacobiOp::new(x, y, 7).cost();
        assert_eq!(c7.work, c3.work * 2);
    }
}
