//! Property-based tests for the linear-algebra substrate.

use parlap_linalg::csr::CsrMatrix;
use parlap_linalg::dense::DenseMatrix;
use parlap_linalg::eigen::eigen_sym;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector;
use proptest::prelude::*;

fn arb_sym(n: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-3.0f64..3.0, n * n).prop_map(move |data| {
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = data[i * n + j];
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    })
}

/// A random connected weighted Laplacian on 2–12 vertices: a path
/// through every vertex plus up to `3n` extra edges (self-pairs
/// dropped, repeats summed), weights spread over four decades.
fn arb_connected_laplacian() -> impl Strategy<Value = DenseMatrix> {
    (2usize..13).prop_flat_map(|n| {
        (
            proptest::collection::vec(-2.0f64..2.0, n - 1),
            proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 0..3 * n),
        )
            .prop_map(move |(path, extra)| {
                let mut l = DenseMatrix::zeros(n);
                let edges = path.iter().enumerate().map(|(u, &e)| (u, u + 1, e)).chain(extra);
                for (u, v, e) in edges.filter(|&(u, v, _)| u != v) {
                    let w = 10f64.powf(e);
                    l.add(u, u, w);
                    l.add(v, v, w);
                    l.add(u, v, -w);
                    l.add(v, u, -w);
                }
                l
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Jacobi eigendecomposition reconstructs the matrix and produces
    /// an orthonormal basis, for arbitrary symmetric inputs.
    #[test]
    fn eigen_reconstructs(m in arb_sym(8)) {
        let e = eigen_sym(&m);
        let recon = e.spectral_map(|l| l);
        prop_assert!(recon.subtract(&m).max_abs() < 1e-8);
        // Orthonormality.
        let vt = e.vectors.transpose();
        let gram = vt.matmul(&e.vectors);
        prop_assert!(gram.subtract(&DenseMatrix::identity(8)).max_abs() < 1e-8);
        // Eigenvalues ascending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// Pseudoinverse is a Moore–Penrose inverse: A A⁺ A = A and
    /// (A A⁺) symmetric.
    #[test]
    fn pseudoinverse_properties(m in arb_sym(7)) {
        let p = m.pseudoinverse(1e-10);
        let apa = m.matmul(&p).matmul(&m);
        prop_assert!(apa.subtract(&m).max_abs() < 1e-6 * m.max_abs().max(1.0));
        let ap = m.matmul(&p);
        prop_assert!(ap.is_symmetric(1e-6));
    }

    /// The grounded-Cholesky Laplacian pseudoinverse is a Moore–Penrose
    /// inverse with the all-ones kernel: L L⁺ L = L, L⁺ symmetric and
    /// L⁺𝟙 = 0.
    #[test]
    fn laplacian_pinv_properties(l in arb_connected_laplacian()) {
        let n = l.dim();
        let p = l.laplacian_pinv().expect("connected Laplacian");
        let lpl = l.matmul(&p).matmul(&l);
        prop_assert!(lpl.subtract(&l).max_abs() < 1e-9 * l.max_abs());
        prop_assert!(p.is_symmetric(0.0));
        let p1 = p.apply_vec(&vec![1.0; n]);
        prop_assert!(p1.iter().all(|x| x.abs() < 1e-12 * p.max_abs().max(1.0)));
    }

    /// Cholesky solves reproduce SPD systems (built as AᵀA + I).
    #[test]
    fn cholesky_solves(m in arb_sym(6), b in proptest::collection::vec(-5.0f64..5.0, 6)) {
        let mut spd = m.matmul(&m); // symmetric PSD
        for i in 0..6 {
            spd.add(i, i, 1.0); // + I ⇒ PD
        }
        let f = spd.cholesky().expect("SPD by construction");
        let x = f.solve(&b);
        let ax = spd.apply_vec(&x);
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }

    /// CSR from triplets applies identically to the dense materialization.
    #[test]
    fn csr_matches_dense(
        triplets in proptest::collection::vec((0u32..10, 0u32..10, -3.0f64..3.0), 0..80),
        x in proptest::collection::vec(-2.0f64..2.0, 10),
    ) {
        let csr = CsrMatrix::from_triplets(10, &triplets);
        let dense = csr.to_dense();
        let y1 = csr.apply_vec(&x);
        let y2 = dense.apply_vec(&x);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// Vector kernels agree with naive implementations.
    #[test]
    fn vector_kernels(x in proptest::collection::vec(-10.0f64..10.0, 1..300),
                      a in -2.0f64..2.0) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let d = vector::dot(&x, &y);
        let naive: f64 = x.iter().zip(&y).map(|(p, q)| p * q).sum();
        prop_assert!((d - naive).abs() <= 1e-9 * naive.abs().max(1.0));
        let mut z = y.clone();
        vector::axpy(a, &x, &mut z);
        for i in 0..x.len() {
            prop_assert!((z[i] - (y[i] + a * x[i])).abs() < 1e-12);
        }
        let mut w = x.clone();
        vector::project_out_ones(&mut w);
        prop_assert!(vector::mean(&w).abs() < 1e-9);
    }
}
