//! `PreconRichardson` (Algorithm 5): preconditioned Richardson
//! iteration.
//!
//! Given `B ≈_δ A⁺`, the iteration
//! `x⁽ᵏ⁾ = (I − αBA) x⁽ᵏ⁻¹⁾ + α x⁽⁰⁾` with `x⁽⁰⁾ = Bb` and
//! `α = 2/(e^{−δ} + e^{δ})` reaches an `ε`-approximate solution in
//! `⌈e^{2δ} log(1/ε)⌉` iterations (Theorem 3.8), each one application
//! of `A` and one of `B`.
//!
//! Extensions beyond the paper: an optional certified stop that reads
//! the error estimate `√(rᵀBr / bᵀBb)`, and divergence detection that
//! turns a too-optimistic `δ` into a reported error instead of garbage.

use crate::error::{SolveProgress, SolverError};
use parlap_linalg::interrupt::InterruptHandle;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::{axpy, norm2, project_out_ones, sub};

/// Result of a Richardson solve.
#[derive(Clone, Debug)]
pub struct RichardsonOutcome {
    /// Mean-zero solution estimate.
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final `‖b − Ax‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
    /// Step size `α` used.
    pub alpha: f64,
    /// Certified relative `‖·‖_A` error estimate `√(rᵀBr / bᵀBb)` at
    /// exit (within `e^δ` of the truth when `B ≈_δ A⁺`); `None` when
    /// certification was disabled or the RHS was zero.
    pub certified_error: Option<f64>,
}

/// Options for [`preconditioned_richardson`].
#[derive(Clone, Debug)]
pub struct RichardsonOptions {
    /// Assumed preconditioner quality `δ` (`B ≈_δ A⁺`); the paper's
    /// chain guarantees `δ = 1` w.h.p. (Theorem 3.10).
    pub delta: f64,
    /// Keep iterating (up to 6× the theoretical count) until the
    /// *certified* `‖·‖_A` error estimate `√(rᵀBr / bᵀBb)` — which is
    /// within `e^δ` of the true relative error whenever `B ≈_δ A⁺` —
    /// meets `ε` with margin. Same `O(e^{2δ} log 1/ε)` asymptotics;
    /// robust when the chain quality is slightly worse than assumed.
    /// `false` runs the paper's exact fixed iteration count.
    pub certify_error: bool,
    /// Cooperative interruption token, polled once at the top of every
    /// outer iteration. A trip aborts the solve with
    /// [`SolverError::DeadlineExceeded`] / [`SolverError::Cancelled`]
    /// carrying the completed-iteration count and the last certified
    /// error. Polling never changes the arithmetic of completed
    /// iterations, so determinism is unaffected.
    pub interrupt: Option<InterruptHandle>,
}

impl Default for RichardsonOptions {
    fn default() -> Self {
        RichardsonOptions { delta: 1.0, certify_error: true, interrupt: None }
    }
}

/// The paper's iteration count `⌈e^{2δ} log(1/ε)⌉`, clamped to at
/// least 1: for `ε ≥ 1` (or a NaN `ε`) the raw formula is ≤ 0, and an
/// outer loop trusting a 0 here would return the zero vector as a
/// "converged" answer. ([`preconditioned_richardson`] and
/// [`crate::solver::LaplacianSolver::solve`] additionally reject
/// `ε ∉ (0, 1)` outright; the clamp protects direct callers.)
pub fn richardson_iterations(delta: f64, eps: f64) -> usize {
    ((2.0 * delta).exp() * (1.0 / eps).ln()).ceil().max(1.0) as usize
}

/// The bound a certified solve drives `√(rᵀBr / bᵀBb)` below:
/// `½e^{−δ}ε`. The estimate is within `e^δ` of the true relative
/// `‖·‖_A` error when `B ≈_δ A⁺`, so meeting it leaves a factor-2
/// margin under `ε`. Richardson's certified loop and the solver's PCG
/// stop rule both read it.
pub fn certified_target(delta: f64, eps: f64) -> f64 {
    0.5 * (-delta).exp() * eps
}

/// Run `PreconRichardson(A, B, b, δ, ε)`.
///
/// `A` is the (singular, connected-Laplacian) system operator and `B`
/// the approximate pseudoinverse; both restricted to `1⊥` by
/// projection. Returns the `ε`-approximate solution in the `‖·‖_A`
/// sense guaranteed by Theorem 3.8 when `B ≈_δ A⁺` holds.
pub fn preconditioned_richardson(
    a: &impl LinOp,
    b_op: &impl LinOp,
    b: &[f64],
    eps: f64,
    opts: &RichardsonOptions,
) -> Result<RichardsonOutcome, SolverError> {
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch { expected: n, got: b.len() });
    }
    if b_op.dim() != n {
        return Err(SolverError::DimensionMismatch { expected: n, got: b_op.dim() });
    }
    if !(eps > 0.0 && eps < 1.0) {
        return Err(SolverError::InvalidOption(format!("eps = {eps} must be in (0, 1)")));
    }
    if !(opts.delta > 0.0) {
        return Err(SolverError::InvalidOption(format!("delta = {} must be > 0", opts.delta)));
    }
    let alpha = 2.0 / ((-opts.delta).exp() + opts.delta.exp());
    let iters = richardson_iterations(opts.delta, eps);

    let mut rhs = b.to_vec();
    project_out_ones(&mut rhs);
    let bnorm = norm2(&rhs);
    if bnorm == 0.0 {
        return Ok(RichardsonOutcome {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            alpha,
            certified_error: None,
        });
    }

    // x⁽⁰⁾ = B b.
    let x0 = b_op.apply_vec(&rhs);
    // bᵀBb ≈ bᵀA⁺b = ‖x*‖²_A within e^δ: the denominator of the
    // certified error estimate. Free (x0 is already computed).
    let bwb = parlap_linalg::vector::dot(&rhs, &x0).max(0.0);
    let cert_target = certified_target(opts.delta, eps);
    let mut x = x0.clone();
    let mut ax = vec![0.0; n];
    let mut rel_res = f64::INFINITY;
    let mut prev_res = f64::INFINITY;
    let mut growth_streak = 0usize;
    let mut performed = 0usize;
    let iter_cap = if opts.certify_error { 6 * iters + 10 } else { iters };
    let mut last_cert: Option<f64> = None;
    for k in 1..=iter_cap {
        // Cooperative interruption: polled once per outer iteration,
        // before any work for iteration k. The check only decides
        // whether to continue — iterations already completed are
        // bit-identical to the uninterrupted run.
        if let Some(reason) = opts.interrupt.as_ref().and_then(InterruptHandle::poll) {
            let progress = SolveProgress { iterations: performed, certified_error: last_cert };
            return Err(SolverError::interrupted(reason, progress));
        }
        a.apply(&x, &mut ax);
        // Residual is free here: r = b − Ax.
        let r = sub(&rhs, &ax);
        let res = norm2(&r);
        rel_res = res / bnorm;
        // Divergence guard against an over-optimistic δ (an
        // under-split input): five growing residuals past 10× ‖b‖.
        if res > prev_res * 1.000_001 {
            growth_streak += 1;
        } else {
            growth_streak = 0;
        }
        if growth_streak >= 5 && rel_res > 10.0 {
            return Err(SolverError::Diverged { at_iteration: k, growth: res / bnorm });
        }
        prev_res = res;
        // x ← x − α·B(Ax) + α·x0 = x + α·B r  (since B x0-term folds in:
        // (I − αBA)x + αx0 = x − αB(Ax) + αBb = x + αB(b − Ax)).
        let br = b_op.apply_vec(&r);
        if opts.certify_error && bwb > 0.0 {
            // ‖x − x*‖²_A = rᵀA⁺r ≈ rᵀBr within e^δ; stop when the
            // certified relative error meets ε with margin.
            let rwr = parlap_linalg::vector::dot(&r, &br).max(0.0);
            let cert = (rwr / bwb).sqrt();
            last_cert = Some(cert);
            if cert <= cert_target {
                performed = k - 1;
                break;
            }
        } else if k > iters {
            performed = k - 1;
            break;
        }
        axpy(alpha, &br, &mut x);
        performed = k;
    }
    // Refresh the final residual (and certificate) at the exit point.
    a.apply(&x, &mut ax);
    let r = sub(&rhs, &ax);
    rel_res = rel_res.min(norm2(&r) / bnorm);
    let certified_error = if opts.certify_error && bwb > 0.0 {
        let br = b_op.apply_vec(&r);
        let rwr = parlap_linalg::vector::dot(&r, &br).max(0.0);
        Some((rwr / bwb).sqrt())
    } else {
        None
    };
    project_out_ones(&mut x);
    Ok(RichardsonOutcome {
        solution: x,
        iterations: performed,
        relative_residual: rel_res,
        alpha,
        certified_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;
    use parlap_graph::laplacian::{to_dense, LaplacianOp};
    use parlap_linalg::dense::DenseMatrix;
    use parlap_linalg::vector::{dot, random_demand};

    #[test]
    fn iteration_count_formula() {
        // δ=1, ε=0.5: ⌈e² ln 2⌉ = ⌈5.12⌉ = 6.
        assert_eq!(richardson_iterations(1.0, 0.5), 6);
        // Shrinking ε only adds log factors.
        let i1 = richardson_iterations(1.0, 1e-3);
        let i2 = richardson_iterations(1.0, 1e-6);
        assert!(i2 <= 2 * i1 + 1);
    }

    /// The ≥ 1 clamp: `ε ≥ 1` makes the raw formula ≤ 0 — a direct
    /// caller trusting it would run zero iterations and return the
    /// zero vector as "converged". (The solver front door rejects such
    /// ε for every outer method; see the solver's edge-case tests for
    /// the PCG equivalent.)
    #[test]
    fn iteration_count_clamped_to_one_for_degenerate_eps() {
        for eps in [1.0, 2.0, 1e9, f64::INFINITY, f64::NAN] {
            assert_eq!(richardson_iterations(1.0, eps), 1, "eps = {eps}");
            assert_eq!(richardson_iterations(0.1, eps), 1, "eps = {eps}, small delta");
        }
        // Just inside the valid range the formula takes over again.
        assert!(richardson_iterations(1.0, 0.99) >= 1);
    }

    #[test]
    fn exact_preconditioner_converges_fast() {
        let g = generators::gnp_connected(40, 0.2, 1);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let b = random_demand(40, 2);
        // δ can be tiny since B = A⁺ exactly.
        let opts = RichardsonOptions { delta: 0.05, ..Default::default() };
        let out = preconditioned_richardson(&lop, &pinv, &b, 1e-10, &opts).expect("solve");
        assert!(out.relative_residual < 1e-8, "res {}", out.relative_residual);
        // Check against the true solution in the L-norm.
        let xstar = pinv.apply_vec(&b);
        let d: Vec<f64> = out.solution.iter().zip(&xstar).map(|(a, b)| a - b).collect();
        let ld = lop.apply_vec(&d);
        let err = dot(&d, &ld).sqrt();
        let lx = lop.apply_vec(&xstar);
        let denom = dot(&xstar, &lx).sqrt();
        assert!(err <= 1e-8 * denom.max(1.0), "L-norm err {err}");
    }

    #[test]
    fn scaled_preconditioner_with_matching_delta() {
        // B = 2·L⁺ is a δ = ln 2 approximation of L⁺; Theorem 3.8 must
        // still deliver ε accuracy with that δ.
        let g = generators::gnp_connected(30, 0.25, 5);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let mut scaled = DenseMatrix::zeros(30);
        for i in 0..30 {
            for j in 0..30 {
                scaled.set(i, j, 2.0 * pinv.get(i, j));
            }
        }
        let lop = LaplacianOp::new(&g);
        let b = random_demand(30, 7);
        let opts = RichardsonOptions { delta: 2.0f64.ln(), ..Default::default() };
        let out = preconditioned_richardson(&lop, &scaled, &b, 1e-8, &opts).expect("solve");
        assert!(out.relative_residual < 1e-6, "res {}", out.relative_residual);
    }

    #[test]
    fn eps_sweep_hits_l_norm_targets() {
        // The headline guarantee: ‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L for each ε.
        let g = generators::grid2d(8, 8);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let b = random_demand(64, 11);
        let xstar = pinv.apply_vec(&b);
        let denom = {
            let lx = lop.apply_vec(&xstar);
            dot(&xstar, &lx).sqrt()
        };
        for eps in [0.3, 0.05, 1e-3, 1e-6] {
            let opts = RichardsonOptions { delta: 0.2, ..Default::default() };
            let out = preconditioned_richardson(&lop, &pinv, &b, eps, &opts).expect("solve");
            let d: Vec<f64> = out.solution.iter().zip(&xstar).map(|(a, b)| a - b).collect();
            let ld = lop.apply_vec(&d);
            let err = dot(&d, &ld).sqrt();
            assert!(err <= eps * denom * 1.01, "eps={eps}: {err} > {}", eps * denom);
        }
    }

    #[test]
    fn divergence_detected_with_bad_preconditioner() {
        // B = −L⁺ makes the iteration push the wrong way.
        let g = generators::gnp_connected(25, 0.3, 3);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let mut neg = DenseMatrix::zeros(25);
        for i in 0..25 {
            for j in 0..25 {
                neg.set(i, j, -pinv.get(i, j));
            }
        }
        let lop = LaplacianOp::new(&g);
        let b = random_demand(25, 9);
        let opts = RichardsonOptions { delta: 1.0, ..Default::default() };
        let err = preconditioned_richardson(&lop, &neg, &b, 1e-10, &opts).unwrap_err();
        assert!(matches!(err, SolverError::Diverged { .. }), "got {err:?}");
    }

    /// The certified stop ends Algorithm 5 early when the
    /// preconditioner beats its assumed δ: with the exact pseudoinverse
    /// it meets ε in fewer iterations than the paper's fixed count.
    #[test]
    fn early_stop_saves_iterations() {
        let g = generators::gnp_connected(40, 0.2, 1);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let b = random_demand(40, 2);
        let eps = 1e-8;
        let full = preconditioned_richardson(
            &lop,
            &pinv,
            &b,
            eps,
            &RichardsonOptions { delta: 1.0, certify_error: false, ..Default::default() },
        )
        .expect("solve");
        assert_eq!(full.iterations, richardson_iterations(1.0, eps));
        assert_eq!(full.certified_error, None);
        let cert = preconditioned_richardson(
            &lop,
            &pinv,
            &b,
            eps,
            &RichardsonOptions { delta: 1.0, ..Default::default() },
        )
        .expect("solve");
        assert!(cert.iterations < full.iterations);
        let ce = cert.certified_error.expect("certified mode reports its certificate");
        assert!(ce <= certified_target(1.0, eps), "certificate {ce}");
    }

    /// Wrapper operator that cancels an interrupt handle after a fixed
    /// number of applications — a deterministic way to land an
    /// interrupt mid-solve without timers.
    struct CancelAfter<'a, T: LinOp> {
        inner: &'a T,
        handle: InterruptHandle,
        after: usize,
        count: std::sync::atomic::AtomicUsize,
    }

    impl<T: LinOp> LinOp for CancelAfter<'_, T> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            let seen = self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if seen >= self.after {
                self.handle.cancel();
            }
            self.inner.apply(x, y);
        }
    }

    #[test]
    fn mid_solve_cancel_reports_partial_progress() {
        let g = generators::grid2d(8, 8);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        // B = L⁺/2 under-relaxes: the certified error contracts by
        // only ~2× per iteration, so reaching 1e-12 needs ~40
        // iterations — the exact pseudoinverse would converge before
        // the cancel below could ever trip.
        let mut weak = DenseMatrix::zeros(64);
        for i in 0..64 {
            for j in 0..64 {
                weak.set(i, j, 0.5 * pinv.get(i, j));
            }
        }
        let lop = LaplacianOp::new(&g);
        let b = random_demand(64, 4);
        let handle = InterruptHandle::new();
        // Cancel after 5 system applies; the poll at the top of the
        // next outer iteration must honor it.
        let wrapped = CancelAfter {
            inner: &lop,
            handle: handle.clone(),
            after: 5,
            count: std::sync::atomic::AtomicUsize::new(0),
        };
        let opts = RichardsonOptions { delta: 2.0, certify_error: true, interrupt: Some(handle) };
        let err = preconditioned_richardson(&wrapped, &weak, &b, 1e-12, &opts).unwrap_err();
        match err {
            SolverError::Cancelled { progress: Some(p) } => {
                assert!(p.iterations >= 1, "some iterations must have completed");
                assert!(p.iterations <= 7, "cancel honored within one iteration");
                assert!(p.certified_error.is_some(), "certifying loop records last cert");
            }
            other => panic!("expected mid-solve Cancelled with progress, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_interrupts_at_first_poll() {
        use std::time::{Duration, Instant};
        let g = generators::grid2d(6, 6);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let b = random_demand(36, 8);
        let handle =
            InterruptHandle::with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let opts = RichardsonOptions { interrupt: Some(handle), ..Default::default() };
        let err = preconditioned_richardson(&lop, &pinv, &b, 1e-10, &opts).unwrap_err();
        assert_eq!(
            err,
            SolverError::DeadlineExceeded {
                progress: Some(SolveProgress { iterations: 0, certified_error: None })
            }
        );
    }

    #[test]
    fn untripped_handle_keeps_solution_bit_identical() {
        let g = generators::gnp_connected(40, 0.2, 1);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let b = random_demand(40, 2);
        let plain = preconditioned_richardson(&lop, &pinv, &b, 1e-9, &RichardsonOptions::default())
            .expect("solve");
        let opts =
            RichardsonOptions { interrupt: Some(InterruptHandle::new()), ..Default::default() };
        let armed = preconditioned_richardson(&lop, &pinv, &b, 1e-9, &opts).expect("solve");
        assert_eq!(plain.iterations, armed.iterations);
        let pb: Vec<u64> = plain.solution.iter().map(|v| v.to_bits()).collect();
        let ab: Vec<u64> = armed.solution.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, ab, "armed-but-untripped handle must not change a bit");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let g = generators::path(5);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let out =
            preconditioned_richardson(&lop, &pinv, &[0.0; 5], 0.5, &RichardsonOptions::default())
                .expect("solve");
        assert_eq!(out.iterations, 0);
        assert_eq!(out.solution, vec![0.0; 5]);
    }

    #[test]
    fn bad_inputs_rejected() {
        let g = generators::path(4);
        let l = to_dense(&g);
        let pinv = l.pseudoinverse(1e-12);
        let lop = LaplacianOp::new(&g);
        let opts = RichardsonOptions::default();
        assert!(matches!(
            preconditioned_richardson(&lop, &pinv, &[1.0; 3], 0.5, &opts).unwrap_err(),
            SolverError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            preconditioned_richardson(&lop, &pinv, &[1.0; 4], 1.5, &opts).unwrap_err(),
            SolverError::InvalidOption(_)
        ));
    }
}
