//! Conjugate gradient and preconditioned conjugate gradient.
//!
//! CG plays three roles in parlap:
//!
//! 1. **Reference solver** — run to near machine precision, it supplies
//!    the "exact" `L⁺b` against which the paper's error norm
//!    `‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L` is evaluated in tests and experiments.
//! 2. **Baseline** — unpreconditioned CG is the classical iterative
//!    method the paper's nearly-linear solvers are measured against.
//! 3. **Outer loop** — PCG over the solver's preconditioner `B` is
//!    the default outer iteration. Stopping on
//!    [`PcgStop::PreconditionedResidual`] reads the same certificate
//!    `√(rᵀBr / bᵀBb)` as the paper's Richardson loop, at
//!    `O(e^δ log 1/ε)` rather than `O(e^{2δ} log 1/ε)` iterations; the
//!    solver also falls back to PCG when Richardson diverges or misses
//!    its certificate (ARCHITECTURE.md, "The solve pipeline", step 4).
//!
//! Laplacians are singular with kernel `span(1)` on connected graphs,
//! so right-hand sides and iterates are projected onto `1⊥`.

use crate::interrupt::{InterruptHandle, InterruptReason};
use crate::op::LinOp;
use crate::vector::{axpy, dot, norm2, project_out_ones, sub, xpby};

/// Outcome of an iterative solve.
#[derive(Clone, Debug)]
pub struct IterativeSolve {
    /// The computed solution (mean-zero representative).
    pub solution: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final relative residual `‖b - Ax‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// `Some(reason)` when the solve stopped early because an
    /// [`InterruptHandle`] tripped; `None` for a normal finish.
    pub interrupted: Option<InterruptReason>,
    /// Under [`PcgStop::PreconditionedResidual`], the last
    /// `√(rᵀz / r₀ᵀz₀)` computed — on the freshly computed residual
    /// when `converged`. `None` under the other stop rules, for a zero
    /// right-hand side, and before the first iteration completes.
    pub preconditioned_residual: Option<f64>,
}

/// When [`pcg_solve_with`] stops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PcgStop {
    /// `‖r‖₂ ≤ tol·‖b‖₂` on the recursively updated residual.
    RelativeResidual(f64),
    /// `√(rᵀz / r₀ᵀz₀) ≤ tol` with `z = Mr`: PCG's own `ρ = rᵀz` over
    /// its starting value `bᵀMb`, so the test costs no extra work. When
    /// `M ≈_δ A⁺` this is within `e^δ` of the relative `‖·‖_A` error.
    /// Before returning, the bound is confirmed on a freshly computed
    /// `b − Ax`; a miss restarts CG from that residual within the same
    /// iteration budget.
    PreconditionedResidual(f64),
}

/// Conjugate gradient for a singular-consistent PSD system `Ax = b`
/// with `ker(A) = span(1)` (a connected Laplacian).
///
/// Stops when the relative residual drops below `tol` or after
/// `max_iter` iterations.
pub fn cg_solve(a: &impl LinOp, b: &[f64], tol: f64, max_iter: usize) -> IterativeSolve {
    cg_solve_with(a, b, tol, max_iter, None)
}

/// [`cg_solve`] with an optional [`InterruptHandle`] polled once at the
/// top of each iteration. On a trip the solve returns the last
/// completed iterate with `interrupted = Some(reason)`; iterates
/// computed before the trip are bit-identical to the uninterrupted run.
pub fn cg_solve_with(
    a: &impl LinOp,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    interrupt: Option<&InterruptHandle>,
) -> IterativeSolve {
    let n = a.dim();
    assert_eq!(b.len(), n, "cg_solve: dimension mismatch");
    let mut b = b.to_vec();
    project_out_ones(&mut b);
    let bnorm = norm2(&b);
    if bnorm == 0.0 {
        return IterativeSolve {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
            interrupted: None,
            preconditioned_residual: None,
        };
    }
    let mut x = vec![0.0; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rs = dot(&r, &r);
    let mut ap = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut interrupted = None;
    for _ in 0..max_iter {
        if let Some(reason) = interrupt.and_then(InterruptHandle::poll) {
            interrupted = Some(reason);
            break;
        }
        a.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Numerically at the kernel; cannot progress further.
            break;
        }
        let alpha = rs / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        iterations += 1;
        let rs_new = dot(&r, &r);
        if rs_new.sqrt() <= tol * bnorm {
            converged = true;
            rs = rs_new;
            break;
        }
        let beta = rs_new / rs;
        rs = rs_new;
        xpby(&r, beta, &mut p);
        // Periodically purge kernel drift.
        if iterations % 64 == 0 {
            project_out_ones(&mut r);
            project_out_ones(&mut p);
        }
    }
    project_out_ones(&mut x);
    IterativeSolve {
        solution: x,
        iterations,
        relative_residual: rs.sqrt() / bnorm,
        converged,
        interrupted,
        preconditioned_residual: None,
    }
}

/// Preconditioned conjugate gradient: `m` approximates `A⁺` and is
/// applied once per iteration. Same kernel-handling as [`cg_solve`];
/// stops on [`PcgStop::RelativeResidual`]`(tol)`.
pub fn pcg_solve(
    a: &impl LinOp,
    m: &impl LinOp,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> IterativeSolve {
    pcg_solve_with(a, m, b, PcgStop::RelativeResidual(tol), max_iter, None)
}

/// [`pcg_solve`] with a choice of [`PcgStop`] rule and an optional
/// [`InterruptHandle`] polled once at the top of each iteration (same
/// semantics as [`cg_solve_with`]).
pub fn pcg_solve_with(
    a: &impl LinOp,
    m: &impl LinOp,
    b: &[f64],
    stop: PcgStop,
    max_iter: usize,
    interrupt: Option<&InterruptHandle>,
) -> IterativeSolve {
    let n = a.dim();
    assert_eq!(b.len(), n, "pcg_solve: dimension mismatch");
    assert_eq!(m.dim(), n, "pcg_solve: preconditioner dimension mismatch");
    let mut b = b.to_vec();
    project_out_ones(&mut b);
    let bnorm = norm2(&b);
    if bnorm == 0.0 {
        return IterativeSolve {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
            interrupted: None,
            preconditioned_residual: None,
        };
    }
    let mut x = vec![0.0; n];
    let mut r = b.clone();
    let mut z = m.apply_vec(&r);
    project_out_ones(&mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    // √(rᵀz / r₀ᵀz₀); NaN, which never meets a tolerance, unless
    // r₀ᵀz₀ > 0 (an `m` that is not positive on b certifies nothing).
    let rz0 = rz;
    let certificate = |rz: f64| if rz0 > 0.0 { (rz.max(0.0) / rz0).sqrt() } else { f64::NAN };
    let mut last_cert = None;
    let mut ap = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut rnorm = bnorm;
    let mut interrupted = None;
    while iterations < max_iter {
        if let Some(reason) = interrupt.and_then(InterruptHandle::poll) {
            interrupted = Some(reason);
            break;
        }
        a.apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        iterations += 1;
        if let PcgStop::RelativeResidual(tol) = stop {
            rnorm = norm2(&r);
            if rnorm <= tol * bnorm {
                converged = true;
                break;
            }
        }
        m.apply(&r, &mut z);
        project_out_ones(&mut z);
        let rz_new = dot(&r, &z);
        if let PcgStop::PreconditionedResidual(tol) = stop {
            let cert = certificate(rz_new);
            last_cert = Some(cert);
            if cert <= tol {
                // The recursive r drifts from b − Ax in floating point:
                // confirm the bound on the true residual.
                a.apply(&x, &mut ap);
                r = sub(&b, &ap);
                m.apply(&r, &mut z);
                project_out_ones(&mut z);
                rz = dot(&r, &z);
                let cert = certificate(rz);
                last_cert = Some(cert);
                if cert <= tol {
                    converged = true;
                    break;
                }
                // Missed: restart CG from the true residual.
                p.copy_from_slice(&z);
                continue;
            }
        }
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    if let PcgStop::PreconditionedResidual(_) = stop {
        rnorm = norm2(&r);
    }
    project_out_ones(&mut x);
    IterativeSolve {
        solution: x,
        iterations,
        relative_residual: rnorm / bnorm,
        converged,
        interrupted,
        preconditioned_residual: last_cert,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::op::{DiagOp, Identity};

    /// Laplacian of the path graph on n vertices as CSR.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..(n - 1) as u32 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, &t)
    }

    #[test]
    fn cg_solves_path_laplacian() {
        let n = 50;
        let l = path_laplacian(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let out = cg_solve(&l, &b, 1e-10, 10 * n);
        assert!(out.converged, "residual {}", out.relative_residual);
        // For a unit flow along a path of unit resistors, consecutive
        // potential differences are 1.
        for i in 0..n - 1 {
            let d = out.solution[i] - out.solution[i + 1];
            assert!((d - 1.0).abs() < 1e-6, "gap {i} = {d}");
        }
    }

    #[test]
    fn cg_zero_rhs() {
        let l = path_laplacian(5);
        let out = cg_solve(&l, &[0.0; 5], 1e-10, 100);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.solution, vec![0.0; 5]);
    }

    #[test]
    fn cg_projects_inconsistent_rhs() {
        // b with nonzero sum: CG solves the projected system.
        let l = path_laplacian(10);
        let b = vec![1.0; 10]; // pure kernel component
        let out = cg_solve(&l, &b, 1e-10, 100);
        assert!(out.converged);
        assert!(norm2(&out.solution) < 1e-10);
    }

    #[test]
    fn pcg_with_identity_matches_cg() {
        let n = 40;
        let l = path_laplacian(n);
        let mut b = vec![0.0; n];
        b[3] = 2.0;
        b[17] = -2.0;
        let plain = cg_solve(&l, &b, 1e-12, 1000);
        let pre = pcg_solve(&l, &Identity { n }, &b, 1e-12, 1000);
        assert!(pre.converged);
        for (a, b) in plain.solution.iter().zip(&pre.solution) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        // Wildly varying weights stress unpreconditioned CG.
        let n = 60;
        let mut t = Vec::new();
        for i in 0..(n - 1) as u32 {
            let w = if i % 2 == 0 { 1000.0 } else { 0.001 };
            t.push((i, i, w));
            t.push((i + 1, i + 1, w));
            t.push((i, i + 1, -w));
            t.push((i + 1, i, -w));
        }
        let l = CsrMatrix::from_triplets(n, &t);
        let d: Vec<f64> = (0..n)
            .map(|i| 1.0 / l.row(i).find(|&(c, _)| c as usize == i).map(|(_, v)| v).unwrap_or(1.0))
            .collect();
        let b = crate::vector::random_demand(n, 3);
        let plain = cg_solve(&l, &b, 1e-8, 100_000);
        let pre = pcg_solve(&l, &DiagOp { diag: d }, &b, 1e-8, 100_000);
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "jacobi {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn precancelled_handle_stops_before_first_iteration() {
        use crate::interrupt::{InterruptHandle, InterruptReason};
        let n = 100;
        let l = path_laplacian(n);
        let b = crate::vector::pair_demand(n, 0, n - 1);
        let h = InterruptHandle::new();
        h.cancel();
        let out = cg_solve_with(&l, &b, 1e-12, 10_000, Some(&h));
        assert_eq!(out.interrupted, Some(InterruptReason::Cancelled));
        assert_eq!(out.iterations, 0);
        assert!(!out.converged);
        let stop = PcgStop::RelativeResidual(1e-12);
        let pre = pcg_solve_with(&l, &Identity { n }, &b, stop, 10_000, Some(&h));
        assert_eq!(pre.interrupted, Some(InterruptReason::Cancelled));
        assert_eq!(pre.iterations, 0);
    }

    #[test]
    fn untripped_handle_is_bit_identical_to_no_handle() {
        use crate::interrupt::InterruptHandle;
        let n = 80;
        let l = path_laplacian(n);
        let b = crate::vector::random_demand(n, 11);
        let h = InterruptHandle::new();
        let plain = pcg_solve(&l, &Identity { n }, &b, 1e-10, 5_000);
        let stop = PcgStop::RelativeResidual(1e-10);
        let with = pcg_solve_with(&l, &Identity { n }, &b, stop, 5_000, Some(&h));
        assert_eq!(with.interrupted, None);
        assert_eq!(plain.iterations, with.iterations);
        let pb: Vec<u64> = plain.solution.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = with.solution.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, wb, "polling an untripped handle must not change arithmetic");
    }

    /// `√(rᵀMr / bᵀMb)` of `x`, recomputed from scratch.
    fn certificate_of(a: &impl LinOp, m: &impl LinOp, b: &[f64], x: &[f64]) -> f64 {
        let mut b = b.to_vec();
        project_out_ones(&mut b);
        let r = sub(&b, &a.apply_vec(x));
        (dot(&r, &m.apply_vec(&r)) / dot(&b, &m.apply_vec(&b))).sqrt()
    }

    #[test]
    fn preconditioned_residual_stop_holds_on_the_returned_solution() {
        let n = 60;
        let l = path_laplacian(n);
        let m = DiagOp { diag: (0..n).map(|i| 1.0 / (1.0 + (i % 3) as f64)).collect() };
        let b = crate::vector::random_demand(n, 5);
        for tol in [1e-3, 1e-8] {
            let stop = PcgStop::PreconditionedResidual(tol);
            let out = pcg_solve_with(&l, &m, &b, stop, 10_000, None);
            assert!(out.converged, "tol {tol}");
            let cert = out.preconditioned_residual.expect("a certified stop reports its value");
            assert!(cert <= tol, "tol {tol}: certificate {cert}");
            let fresh = certificate_of(&l, &m, &b, &out.solution);
            assert!(fresh <= tol * 1.001, "tol {tol}: recomputed certificate {fresh}");
        }
        let plain = pcg_solve(&l, &m, &b, 1e-8, 10_000);
        assert_eq!(plain.preconditioned_residual, None);
    }

    /// An operator whose `at`-th application is 1% off: every later
    /// recursive residual differs from `b − Ax` by that error.
    struct GlitchOnce<'a> {
        inner: &'a CsrMatrix,
        at: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl LinOp for GlitchOnce<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
            if self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1 == self.at {
                y.iter_mut().for_each(|v| *v *= 1.01);
            }
        }
    }

    #[test]
    fn missed_confirmation_restarts_from_the_true_residual() {
        let n = 60;
        let l = path_laplacian(n);
        let id = Identity { n };
        let b = crate::vector::random_demand(n, 9);
        let stop = PcgStop::PreconditionedResidual(1e-8);
        let clean = pcg_solve_with(&l, &id, &b, stop, 10_000, None);
        let glitch = GlitchOnce { inner: &l, at: 3, calls: Default::default() };
        let out = pcg_solve_with(&glitch, &id, &b, stop, 10_000, None);
        assert!(clean.converged && out.converged);
        assert!(out.iterations > clean.iterations, "the restart costs iterations");
        assert!(certificate_of(&l, &id, &b, &out.solution) <= 1e-8 * 1.001);
    }

    #[test]
    fn reports_nonconvergence() {
        let n = 400;
        let l = path_laplacian(n); // condition number ~ n², needs many iters
        let b = crate::vector::pair_demand(n, 0, n - 1);
        let out = cg_solve(&l, &b, 1e-14, 3);
        assert!(!out.converged);
        assert!(out.relative_residual > 1e-14);
    }
}
