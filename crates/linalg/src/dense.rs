//! Dense symmetric matrices.
//!
//! Row-major dense storage with the handful of factorizations parlap
//! needs: Cholesky (SPD solves), the exact Laplacian pseudoinverse by
//! grounded Cholesky (the dense base `G(d)` that both preconditioner
//! backends end in), and the general symmetric pseudoinverse via the
//! Jacobi eigensolver (exact oracles for tests and the `≈_ε`
//! experiments).

use crate::op::LinOp;

/// A square dense matrix, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// The `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix { n, data: vec![0.0; n * n] }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major slice of length `n²`.
    pub fn from_row_major(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "row-major data must have n² entries");
        DenseMatrix { n, data }
    }

    /// Dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Mutable entry `(i, j)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// `‖A - Aᵀ‖_max ≤ tol`?
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.n, other.n, "matmul: dimension mismatch");
        let n = self.n;
        let mut out = DenseMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    *out.get_mut(i, j) += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let n = self.n;
        let mut out = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// `self - other`.
    pub fn subtract(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.n, other.n, "subtract: dimension mismatch");
        DenseMatrix {
            n: self.n,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect(),
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Quadratic form `xᵀ A x`.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n, "quad_form: dimension mismatch");
        let mut acc = 0.0;
        for i in 0..self.n {
            let mut row = 0.0;
            for j in 0..self.n {
                row += self.get(i, j) * x[j];
            }
            acc += x[i] * row;
        }
        acc
    }

    /// Cholesky factorization `A = R Rᵀ` (R lower-triangular) of an SPD
    /// matrix. Returns `None` if a pivot is not positive and finite
    /// (not SPD, or a NaN/∞ entry reached the factor).
    pub fn cholesky(&self) -> Option<CholeskyFactor> {
        let n = self.n;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if !(sum > 0.0 && sum.is_finite()) {
                        return None;
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(CholeskyFactor { n, l })
    }

    /// Exact pseudoinverse of a graph Laplacian by grounded Cholesky.
    ///
    /// For each connected component (read off the nonzero off-diagonal
    /// pattern) it grounds the vertex of largest diagonal, Cholesky-factors
    /// the SPD minor on the rest, inverts it, pads the grounded row and
    /// column with zeros and projects both sides onto the component's
    /// `1⊥`. A disconnected Laplacian therefore gets its blockwise
    /// pseudoinverse, one kernel vector per component. That is the
    /// matrix the eigen [`DenseMatrix::pseudoinverse`] returns up to
    /// rounding, here in about `n³` flops with no iterative eigensolve
    /// and no eigenvalue cut-off.
    ///
    /// Returns `None` if an entry, a pivot or the result is not
    /// finite, or a pivot is not positive (the input is not a
    /// Laplacian, or its weights overflowed).
    pub fn laplacian_pinv(&self) -> Option<DenseMatrix> {
        if !self.data.iter().all(|x| x.is_finite()) {
            return None;
        }
        let mut out = DenseMatrix::zeros(self.n);
        for comp in self.components() {
            self.grounded_pinv(&comp, &mut out)?;
        }
        out.data.iter().all(|x| x.is_finite()).then_some(out)
    }

    /// Vertex sets of the connected components of the off-diagonal
    /// nonzero pattern, each ascending, in order of their least vertex.
    fn components(&self) -> Vec<Vec<usize>> {
        let n = self.n;
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for root in 0..n {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            let mut comp = vec![root];
            let mut next = 0;
            while next < comp.len() {
                let u = comp[next];
                next += 1;
                for (v, &a) in self.data[u * n..(u + 1) * n].iter().enumerate() {
                    if a != 0.0 && !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Write the pseudoinverse block of the component `comp` into
    /// `out`: `P X P` with `P = I − J/c` and `X` the inverse of the
    /// minor with the grounded vertex's row and column zero.
    fn grounded_pinv(&self, comp: &[usize], out: &mut DenseMatrix) -> Option<()> {
        let c = comp.len();
        let mut ground = comp[0];
        for &v in comp {
            if self.get(v, v) > self.get(ground, ground) {
                ground = v;
            }
        }
        // The grounded vertex goes last, so `X` is the inverse padded
        // with a zero last row and column.
        let order: Vec<usize> =
            comp.iter().copied().filter(|&v| v != ground).chain([ground]).collect();
        let m = c - 1;
        let mut minor = DenseMatrix::zeros(m);
        for (a, &i) in order[..m].iter().enumerate() {
            for (b, &j) in order[..m].iter().enumerate() {
                minor.set(a, b, self.get(i, j));
            }
        }
        let x = minor.cholesky()?.inverse();
        // P X P = X − r 1ᵀ − 1 rᵀ + t J for the row means r of X and
        // their mean t; the lower triangle is mirrored so the result
        // is exactly symmetric.
        let cf = c as f64;
        let mut r = vec![0.0; c];
        for (a, ra) in r[..m].iter_mut().enumerate() {
            *ra = x.data[a * m..(a + 1) * m].iter().sum::<f64>() / cf;
        }
        let t = r.iter().sum::<f64>() / cf;
        for a in 0..c {
            for b in 0..=a {
                let xab = if a < m { x.get(a, b) } else { 0.0 };
                let v = xab - r[a] - r[b] + t;
                out.set(order[a], order[b], v);
                out.set(order[b], order[a], v);
            }
        }
        Some(())
    }

    /// Pseudoinverse of a symmetric matrix: eigenvalues below
    /// `rel_tol · λ_max` are treated as the kernel.
    pub fn pseudoinverse(&self, rel_tol: f64) -> DenseMatrix {
        let e = crate::eigen::eigen_sym(self);
        let lmax = e.values.iter().fold(0.0f64, |m, &l| m.max(l.abs()));
        let cut = rel_tol * lmax.max(1e-300);
        e.spectral_map(|l| if l.abs() > cut { 1.0 / l } else { 0.0 })
    }
}

impl LinOp for DenseMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Lower-triangular Cholesky factor with forward/backward solves.
#[derive(Clone, Debug)]
pub struct CholeskyFactor {
    n: usize,
    l: Vec<f64>,
}

impl CholeskyFactor {
    /// `Σᵢ ln L_ii`, so that `ln det A = 2 · diag_log_sum()` — used by
    /// the matrix-tree counting oracle without overflowing `det`.
    pub fn diag_log_sum(&self) -> f64 {
        (0..self.n).map(|i| self.l[i * self.n + i].ln()).sum()
    }

    /// `A⁻¹ = L⁻ᵀ L⁻¹`: the rows of `Z = L⁻¹` by forward substitution,
    /// then `ZᵀZ` as a sum of row outer products, lower triangle
    /// mirrored. Both passes run along rows.
    fn inverse(&self) -> DenseMatrix {
        let n = self.n;
        let l = &self.l;
        let mut z = vec![0.0f64; n * n];
        for i in 0..n {
            // z_i = (e_i − Σ_{k<i} L_ik z_k) / L_ii; z_k is zero past k.
            let (done, rest) = z.split_at_mut(i * n);
            let zi = &mut rest[..=i];
            for k in 0..i {
                let lik = l[i * n + k];
                if lik == 0.0 {
                    continue;
                }
                for (zij, &zkj) in zi.iter_mut().zip(&done[k * n..=k * n + k]) {
                    *zij -= lik * zkj;
                }
            }
            zi[i] += 1.0;
            let lii = l[i * n + i];
            for zij in zi.iter_mut() {
                *zij /= lii;
            }
        }
        let mut inv = DenseMatrix::zeros(n);
        for k in 0..n {
            let zk = &z[k * n..=k * n + k];
            for (a, &zka) in zk.iter().enumerate() {
                if zka == 0.0 {
                    continue;
                }
                for (x, &zkb) in inv.data[a * n..=a * n + a].iter_mut().zip(zk) {
                    *x += zka * zkb;
                }
            }
        }
        for a in 0..n {
            for b in 0..a {
                inv.data[b * n + a] = inv.data[a * n + b];
            }
        }
        inv
    }

    /// Solve `A x = b` given `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "cholesky solve: dimension mismatch");
        let n = self.n;
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[i * n + k] * y[k];
            }
            y[i] = sum / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[k * n + i] * x[k];
            }
            x[i] = sum / self.l[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        // A = Bᵀ B + I for B = [[1,2,0],[0,1,1],[1,0,1]] is SPD.
        DenseMatrix::from_row_major(3, vec![3.0, 2.0, 1.0, 2.0, 6.0, 1.0, 1.0, 1.0, 3.0])
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = spd3();
        let f = a.cholesky().expect("SPD");
        let b = vec![1.0, -2.0, 0.5];
        let x = f.solve(&b);
        let ax = a.apply_vec(&x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = DenseMatrix::from_row_major(2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn cholesky_rejects_nan_and_infinite_pivots() {
        let nan = DenseMatrix::from_row_major(2, vec![1.0, f64::NAN, f64::NAN, 1.0]);
        assert!(nan.cholesky().is_none());
        let nan_diag = DenseMatrix::from_row_major(2, vec![f64::NAN, 0.0, 0.0, 1.0]);
        assert!(nan_diag.cholesky().is_none());
        let inf = DenseMatrix::from_row_major(2, vec![f64::INFINITY, 0.0, 0.0, 1.0]);
        assert!(inf.cholesky().is_none());
    }

    /// Dense Laplacian of the weighted edges `(u, v, w)` on `n` vertices.
    fn laplacian(n: usize, edges: &[(usize, usize, f64)]) -> DenseMatrix {
        let mut l = DenseMatrix::zeros(n);
        for &(u, v, w) in edges {
            l.add(u, u, w);
            l.add(v, v, w);
            l.add(u, v, -w);
            l.add(v, u, -w);
        }
        l
    }

    fn path_edges(n: usize) -> Vec<(usize, usize, f64)> {
        (1..n).map(|v| (v - 1, v, 1.0)).collect()
    }

    fn grid_edges(rows: usize, cols: usize) -> Vec<(usize, usize, f64)> {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1.0));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1.0));
                }
            }
        }
        edges
    }

    /// `max |a − b| / max(1, max |b|)`.
    fn rel_gap(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        a.subtract(b).max_abs() / b.max_abs().max(1.0)
    }

    /// Checks the Moore–Penrose identities that pin `L⁺` for a
    /// connected Laplacian: `L L⁺ L = L`, `L L⁺ = I − J/n` and exact
    /// symmetry.
    fn assert_laplacian_pinv(l: &DenseMatrix, p: &DenseMatrix, tol: f64) {
        let n = l.dim();
        assert!(p.is_symmetric(0.0));
        let lpl = l.matmul(p).matmul(l);
        assert!(rel_gap(&lpl, l) < tol, "L L⁺ L gap {}", rel_gap(&lpl, l));
        let mut proj = DenseMatrix::identity(n);
        proj.data.iter_mut().for_each(|x| *x -= 1.0 / n as f64);
        let lp = l.matmul(p);
        assert!(rel_gap(&lp, &proj) < tol, "L L⁺ gap {}", rel_gap(&lp, &proj));
    }

    #[test]
    fn laplacian_pinv_matches_eigen_oracle() {
        let mut rng = parlap_primitives::prng::StreamRng::new(7, 0);
        let mut gnp = Vec::new();
        for u in 0..80 {
            for v in (u + 1)..80 {
                if rng.next_f64() < 0.1 {
                    gnp.push((u, v, 0.5 + rng.next_f64()));
                }
            }
        }
        let star: Vec<_> = (1..50).map(|v| (0, v, 1.0)).collect();
        let cases = [
            ("path(100)", laplacian(100, &path_edges(100))),
            ("star(50)", laplacian(50, &star)),
            ("grid 8x10", laplacian(80, &grid_edges(8, 10))),
            ("gnp(80, 0.1)", laplacian(80, &gnp)),
        ];
        for (name, l) in &cases {
            let p = l.laplacian_pinv().expect("Laplacian");
            let oracle = l.pseudoinverse(1e-13);
            let gap = rel_gap(&p, &oracle);
            assert!(gap < 1e-11, "{name}: gap to the eigen pinv {gap:e}");
            assert_laplacian_pinv(l, &p, 1e-11);
        }
    }

    #[test]
    fn laplacian_pinv_spread_weights() {
        // Weights 10^u for u uniform in [−4, 4] on an 8×8 grid: κ ≈ 1e11.
        let mut rng = parlap_primitives::prng::StreamRng::new(11, 0);
        let edges: Vec<_> = grid_edges(8, 8)
            .into_iter()
            .map(|(u, v, _)| (u, v, 10f64.powf(8.0 * rng.next_f64() - 4.0)))
            .collect();
        let l = laplacian(64, &edges);
        let p = l.laplacian_pinv().expect("Laplacian");
        let oracle = l.pseudoinverse(1e-13);
        let gap = rel_gap(&p, &oracle);
        assert!(gap < 1e-6, "gap to the eigen pinv {gap:e}");
        assert_laplacian_pinv(&l, &p, 1e-8);
    }

    #[test]
    fn laplacian_pinv_tiny_sizes() {
        assert_eq!(DenseMatrix::zeros(0).laplacian_pinv(), Some(DenseMatrix::zeros(0)));
        assert_eq!(DenseMatrix::zeros(1).laplacian_pinv(), Some(DenseMatrix::zeros(1)));
        // One edge of weight 3: L⁺ = L / 36 = [[1, −1], [−1, 1]] / 12.
        let l = laplacian(2, &[(0, 1, 3.0)]);
        let p = l.laplacian_pinv().expect("Laplacian");
        let want = DenseMatrix::from_row_major(2, vec![1.0, -1.0, -1.0, 1.0]);
        for (got, want) in p.data().iter().zip(want.data()) {
            assert!((got - want / 12.0).abs() < 1e-15);
        }
    }

    #[test]
    fn laplacian_pinv_is_blockwise_on_components() {
        // A triangle on {0, 2, 4} and a weighted path on {1, 3, 5, 6},
        // interleaved so neither block is contiguous.
        let tri = [(0, 2, 1.0), (2, 4, 2.0), (0, 4, 1.5)];
        let path = [(1, 3, 0.5), (3, 5, 4.0), (5, 6, 1.0)];
        let both: Vec<_> = tri.iter().chain(&path).copied().collect();
        let l = laplacian(7, &both);
        let p = l.laplacian_pinv().expect("Laplacian");
        assert!(rel_gap(&p, &l.pseudoinverse(1e-13)) < 1e-13);
        // Each block is the pinv of that component alone; cross-block
        // entries are exactly zero.
        for (verts, edges) in [(&[0usize, 2, 4][..], &tri[..]), (&[1usize, 3, 5, 6][..], &path[..])]
        {
            let local = |v: usize| verts.iter().position(|&x| x == v).expect("in block");
            let sub: Vec<_> = edges.iter().map(|&(u, v, w)| (local(u), local(v), w)).collect();
            let block = laplacian(verts.len(), &sub).laplacian_pinv().expect("Laplacian");
            for (a, &u) in verts.iter().enumerate() {
                for (b, &v) in verts.iter().enumerate() {
                    assert!((p.get(u, v) - block.get(a, b)).abs() < 1e-15);
                }
            }
        }
        for u in [0, 2, 4] {
            for v in [1, 3, 5, 6] {
                assert_eq!(p.get(u, v), 0.0);
                assert_eq!(p.get(v, u), 0.0);
            }
        }
        // An isolated vertex is a component of its own, with pinv 0.
        let iso = laplacian(3, &[(0, 1, 1.0)]);
        let p = iso.laplacian_pinv().expect("Laplacian");
        assert_eq!((p.get(2, 2), p.get(0, 2), p.get(2, 1)), (0.0, 0.0, 0.0));
        assert!((p.get(0, 0) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn laplacian_pinv_rejects_non_finite_and_indefinite() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut l = laplacian(3, &path_edges(3));
            l.set(0, 1, bad);
            l.set(1, 0, bad);
            assert!(l.laplacian_pinv().is_none(), "entry {bad}");
        }
        // A negative edge weight makes the grounded minor indefinite.
        let l = laplacian(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, -3.0)]);
        assert!(l.laplacian_pinv().is_none());
    }

    #[test]
    fn pseudoinverse_of_singular_laplacian() {
        // Triangle graph Laplacian, kernel = span(1).
        let l =
            DenseMatrix::from_row_major(3, vec![2.0, -1.0, -1.0, -1.0, 2.0, -1.0, -1.0, -1.0, 2.0]);
        let p = l.pseudoinverse(1e-10);
        // L · L⁺ should be the projector onto 1⊥: I - J/3.
        let proj = l.matmul(&p);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 2.0 / 3.0 } else { -1.0 / 3.0 };
                assert!((proj.get(i, j) - expect).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = spd3();
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn quad_form_matches_manual() {
        let a = spd3();
        let x = [1.0, 0.0, -1.0];
        // xᵀAx = a00 - a02 - a20 + a22 = 3 - 1 - 1 + 3.
        assert!((a.quad_form(&x) - 4.0).abs() < 1e-14);
    }

    #[test]
    fn linop_apply_matches_matmul() {
        let a = spd3();
        let x = vec![0.5, -1.0, 2.0];
        let y = a.apply_vec(&x);
        for i in 0..3 {
            let expect: f64 = (0..3).map(|j| a.get(i, j) * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_subtract_norms() {
        let a = spd3();
        assert!(a.is_symmetric(0.0));
        let d = a.subtract(&a.transpose());
        assert_eq!(d.max_abs(), 0.0);
        assert_eq!(d.frobenius(), 0.0);
    }
}
