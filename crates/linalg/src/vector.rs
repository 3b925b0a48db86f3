//! Parallel dense vector kernels.
//!
//! Element-wise maps (`axpy`, `scale`, …) route through the kernels of
//! [`parlap_primitives::kernels`] and switch between a sequential call
//! and a chunked rayon parallel loop at
//! [`parlap_primitives::util::PAR_CUTOFF`]; each output element depends
//! only on its own inputs, so they are schedule-independent. Every
//! floating-point *reduction* (`dot`, `mean`, norms) goes through the
//! deterministic fixed-chunk tree reduction of
//! [`parlap_primitives::reduce`], so all results are bit-identical for
//! any thread count. In the PRAM model each kernel is `O(n)` work and
//! `O(log n)` depth (reductions) or `O(1)` depth (maps).

use parlap_primitives::kernels;
use parlap_primitives::prng::StreamRng;
use parlap_primitives::reduce::{det_dot, det_sum_f64};
use parlap_primitives::util::{par_apply_chunks, par_zip_apply_chunks, PAR_CUTOFF};
use rayon::prelude::*;

/// Dot product `xᵀy` (deterministic tree reduction).
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: dimension mismatch");
    det_dot(x, y)
}

/// Squared Euclidean norm.
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y ← y + a·x`. Element-wise, so the chunked parallel path is
/// schedule-independent.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    if x.len() < PAR_CUTOFF {
        kernels::axpy(a, x, y);
    } else {
        par_zip_apply_chunks(y, x, &|yc, xc| kernels::axpy(a, xc, yc));
    }
}

/// `y ← x + b·y` (the "xpby" update used by CG's direction
/// recurrence). Element-wise like [`axpy`].
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: dimension mismatch");
    if x.len() < PAR_CUTOFF {
        kernels::xpby(x, b, y);
    } else {
        par_zip_apply_chunks(y, x, &|yc, xc| kernels::xpby(xc, b, yc));
    }
}

/// `x ← a·x`. Element-wise like [`axpy`].
pub fn scale(a: f64, x: &mut [f64]) {
    if x.len() < PAR_CUTOFF {
        kernels::scale(a, x);
    } else {
        par_apply_chunks(x, &|c| kernels::scale(a, c));
    }
}

/// Elementwise difference `x - y` as a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: dimension mismatch");
    if x.len() < PAR_CUTOFF {
        x.iter().zip(y).map(|(a, b)| a - b).collect()
    } else {
        x.par_iter().zip(y.par_iter()).map(|(a, b)| a - b).collect()
    }
}

/// Mean of the entries (deterministic tree reduction).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    det_sum_f64(x) / x.len() as f64
}

/// Project `x` onto the subspace orthogonal to the all-ones vector
/// (the kernel of a connected Laplacian): `x ← x - mean(x)·1`.
pub fn project_out_ones(x: &mut [f64]) {
    let m = mean(x);
    if x.len() < PAR_CUTOFF {
        for xi in x.iter_mut() {
            *xi -= m;
        }
    } else {
        x.par_iter_mut().for_each(|xi| *xi -= m);
    }
}

/// A reproducible "demand" vector: i.i.d. standard normals projected
/// onto `1⊥`, so it is a valid right-hand side for a connected
/// Laplacian system.
pub fn random_demand(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StreamRng::new(seed, 0xdead_beef);
    let mut b: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    project_out_ones(&mut b);
    b
}

/// A unit demand between two vertices: `b = e_s - e_t` (electrical
/// flow boundary condition).
pub fn pair_demand(n: usize, s: usize, t: usize) -> Vec<f64> {
    assert!(s < n && t < n && s != t, "invalid pair demand ({s}, {t}) for n={n}");
    let mut b = vec![0.0; n];
    b[s] = 1.0;
    b[t] = -1.0;
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
        assert_eq!(norm2_sq(&x), 14.0);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn axpy_xpby_scale_sub() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![7.0, 14.0]);
        scale(2.0, &mut y);
        assert_eq!(y, vec![14.0, 28.0]);
        assert_eq!(sub(&y, &x), vec![13.0, 26.0]);
    }

    #[test]
    fn projection_kills_mean() {
        let mut x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        project_out_ones(&mut x);
        assert!(mean(&x).abs() < 1e-10);
    }

    #[test]
    fn random_demand_zero_sum_and_reproducible() {
        let b1 = random_demand(5000, 42);
        let b2 = random_demand(5000, 42);
        assert_eq!(b1, b2);
        assert!(b1.iter().sum::<f64>().abs() < 1e-8);
        assert!(norm2(&b1) > 1.0);
    }

    #[test]
    fn pair_demand_shape() {
        let b = pair_demand(4, 0, 3);
        assert_eq!(b, vec![1.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn parallel_paths_match_sequential() {
        let n = PAR_CUTOFF * 2 + 7;
        let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 23) as f64 - 11.0).collect();
        let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - seq).abs() / seq.abs().max(1.0) < 1e-10);
        let mut yp = y.clone();
        axpy(1.5, &x, &mut yp);
        for i in (0..n).step_by(999) {
            assert!((yp[i] - (y[i] + 1.5 * x[i])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn reductions_bit_identical_across_thread_counts() {
        use parlap_primitives::util::with_threads;
        let n = PAR_CUTOFF * 3 + 41;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let probe = |threads: usize| {
            with_threads(threads, || {
                (dot(&x, &y).to_bits(), norm2(&x).to_bits(), mean(&y).to_bits())
            })
        };
        let base = probe(1);
        for t in [2, 4, 8] {
            assert_eq!(probe(t), base, "vector reduction bits changed at {t} threads");
        }
    }
}
