//! Cyclic Jacobi eigensolver for dense symmetric matrices.
//!
//! Used for the general symmetric [`DenseMatrix::pseudoinverse`] and
//! as the exact oracle behind the `≈_ε` Loewner checks in tests and
//! experiments. The solver's base case does not use it: both backends
//! invert their base Laplacian by grounded Cholesky
//! ([`DenseMatrix::laplacian_pinv`]). Cyclic Jacobi is unconditionally
//! stable for symmetric matrices and converges quadratically once
//! sweeps start annihilating small off-diagonals.

use crate::dense::DenseMatrix;

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Clone, Debug)]
pub struct EigenDecomposition {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Eigenvectors; column `j` (i.e. `vectors[i*n + j]` over rows `i`)
    /// corresponds to `values[j]`. Stored as a row-major dense matrix.
    pub vectors: DenseMatrix,
}

impl EigenDecomposition {
    /// Reconstruct `V diag(f(λ)) Vᵀ` for an arbitrary spectral map `f`.
    pub fn spectral_map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        let n = self.values.len();
        let v = &self.vectors;
        let mut out = DenseMatrix::zeros(n);
        for k in 0..n {
            let fk = f(self.values[k]);
            if fk == 0.0 {
                continue;
            }
            for i in 0..n {
                let vik = v.get(i, k);
                if vik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    *out.get_mut(i, j) += fk * vik * v.get(j, k);
                }
            }
        }
        out
    }
}

/// Maximum absolute off-diagonal entry (convergence measure).
fn max_offdiag(a: &DenseMatrix) -> f64 {
    let n = a.dim();
    let mut m: f64 = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            m = m.max(a.get(i, j).abs());
        }
    }
    m
}

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
///
/// # Panics
/// Panics if `a` is not (numerically) symmetric.
pub fn eigen_sym(a: &DenseMatrix) -> EigenDecomposition {
    let n = a.dim();
    assert!(a.is_symmetric(1e-9), "eigen_sym requires a symmetric matrix");
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    if n <= 1 {
        return EigenDecomposition { values: (0..n).map(|i| m.get(i, i)).collect(), vectors: v };
    }
    let scale: f64 = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| a.get(i, j).abs())
        .fold(0.0, f64::max)
        .max(1e-300);
    let tol = 1e-14 * scale;
    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        if max_offdiag(&m) <= tol {
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Rotation angle zeroing (p,q): standard stable formulas.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Update M = Jᵀ M J over rows/cols p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors: V = V J.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    // Extract and sort ascending, permuting eigenvector columns.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN eigenvalue"));
    let values: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut vectors = DenseMatrix::zeros(n);
    for (newcol, &(_, oldcol)) in pairs.iter().enumerate() {
        for i in 0..n {
            vectors.set(i, newcol, v.get(i, oldcol));
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &x) in r.iter().enumerate() {
                m.set(i, j, x);
            }
        }
        m
    }

    #[test]
    fn diagonal_matrix() {
        let a = from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = eigen_sym(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1, 3.
        let a = from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigen_sym(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // Pseudo-random symmetric 12x12.
        let n = 12;
        let mut a = DenseMatrix::zeros(n);
        let mut state = 88172645463325252u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let x = rng();
                a.set(i, j, x);
                a.set(j, i, x);
            }
        }
        let e = eigen_sym(&a);
        // A ≈ V Λ Vᵀ.
        let recon = e.spectral_map(|l| l);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (recon.get(i, j) - a.get(i, j)).abs() < 1e-9,
                    "recon mismatch at ({i},{j})"
                );
            }
        }
        // Columns orthonormal.
        for c1 in 0..n {
            for c2 in c1..n {
                let d: f64 = (0..n).map(|i| e.vectors.get(i, c1) * e.vectors.get(i, c2)).sum();
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-9, "orthonormality fail ({c1},{c2})");
            }
        }
    }

    #[test]
    fn path_laplacian_spectrum() {
        // Path on 3 vertices: L = [[1,-1,0],[-1,2,-1],[0,-1,1]],
        // eigenvalues 0, 1, 3.
        let a = from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let e = eigen_sym(&a);
        let expect = [0.0, 1.0, 3.0];
        for (got, want) in e.values.iter().zip(expect) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn one_by_one() {
        let a = from_rows(&[&[5.0]]);
        let e = eigen_sym(&a);
        assert_eq!(e.values, vec![5.0]);
    }

    #[test]
    fn spectral_map_pseudoinverse() {
        let a = from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]); // eigenvalues 0, 2
        let e = eigen_sym(&a);
        let pinv = e.spectral_map(|l| if l.abs() > 1e-12 { 1.0 / l } else { 0.0 });
        // A⁺ of [[1,-1],[-1,1]] is [[.25,-.25],[-.25,.25]].
        assert!((pinv.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((pinv.get(0, 1) + 0.25).abs() < 1e-12);
    }
}
