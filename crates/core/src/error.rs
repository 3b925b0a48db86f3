//! Error types for the parlap solver.

use parlap_linalg::interrupt::InterruptReason;
use std::fmt;

/// Partial progress recorded when a solve is interrupted mid-flight.
///
/// Attached to [`SolverError::DeadlineExceeded`] and
/// [`SolverError::Cancelled`] when the interruption landed *inside*
/// the outer iteration loop; `None` on those variants means the
/// request was dropped before any solve work started (at admission or
/// batch formation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveProgress {
    /// Outer iterations completed before the interrupt was honored.
    pub iterations: usize,
    /// Last certified `‖·‖_A` error estimate, when the outer loop
    /// certifies (`None` under the uncertified outer loops and before
    /// the first certificate is computed).
    pub certified_error: Option<f64>,
}

/// Everything that can go wrong building or applying the solver.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The input graph has no vertices.
    EmptyGraph,
    /// The input graph is disconnected (`num_components` reported).
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
    /// A vector length does not match the solver dimension.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// An iterative solve failed to converge: Richardson's residual
    /// kept growing (the preconditioner is worse than the assumed `δ`,
    /// typically an over-aggressive `α` split setting), or PCG or CG
    /// ran out of its iteration budget before its stop rule held.
    Diverged {
        /// Iteration at which the solve gave up.
        at_iteration: usize,
        /// Relative residual `‖b − Ax‖₂ / ‖b‖₂` at that iteration.
        growth: f64,
    },
    /// The right-hand side is inconsistent: `Lx = b` on a connected
    /// graph is solvable only for `b ⊥ 1`, and the caller asked for
    /// strict checking ([`SolverOptions::require_balanced_rhs`]) —
    /// by default the solver instead projects `b` onto `1⊥` and
    /// solves the consistent part.
    ///
    /// [`SolverOptions::require_balanced_rhs`]:
    /// crate::solver::SolverOptions::require_balanced_rhs
    InconsistentRhs {
        /// Fraction of `b`'s mass in the kernel:
        /// `|1ᵀb| / (√n · ‖b‖₂)`, in `[0, 1]`.
        imbalance: f64,
    },
    /// A serving-tier admission queue is at capacity and the request
    /// was shed instead of enqueued (load shedding / backpressure —
    /// see [`SolveService::submit`]). Retry later or against another
    /// replica; the request was **not** admitted and cost no solve
    /// work.
    ///
    /// [`SolveService::submit`]: crate::service::SolveService::submit
    Overloaded {
        /// The admission-queue capacity that was full.
        capacity: usize,
    },
    /// The request's deadline passed — either before its batch was
    /// formed (dropped without costing a solve, `progress: None`) or
    /// mid-solve via the per-iteration interrupt check
    /// (`progress: Some(..)` with the work completed so far). See
    /// [`SolveService::submit_with_deadline`].
    ///
    /// [`SolveService::submit_with_deadline`]:
    /// crate::service::SolveService::submit_with_deadline
    DeadlineExceeded {
        /// Partial progress when interrupted mid-solve; `None` when
        /// dropped before any solve work.
        progress: Option<SolveProgress>,
    },
    /// The request's [`SolveTicket`] was cancelled before its outcome
    /// was published — either before solve work started
    /// (`progress: None`) or mid-solve via the interrupt handle
    /// (`progress: Some(..)`). Cancellation never affects batch-mates.
    ///
    /// [`SolveTicket`]: crate::service::SolveTicket
    Cancelled {
        /// Partial progress when interrupted mid-solve; `None` when
        /// cancelled before any solve work.
        progress: Option<SolveProgress>,
    },
    /// An option value is outside its valid range.
    InvalidOption(String),
    /// An internal invariant was violated, at build or at solve time.
    /// At build: a backend's dense base Laplacian is not finite or has
    /// a pivot that is not positive (its summed edge weights overflowed),
    /// a chain level's 5-DD block has a vertex with no weight into
    /// `C`, or the chain ran past `max_rounds`. At solve: a solve
    /// panicked inside the serving tier. Apart from overflowing
    /// weights, this indicates a bug or a hand-constructed invalid
    /// chain.
    InvariantViolation(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::EmptyGraph => write!(f, "input graph has no vertices"),
            SolverError::Disconnected { components } => {
                write!(f, "input graph is disconnected ({components} components); Laplacian solve requires a connected graph")
            }
            SolverError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SolverError::Diverged { at_iteration, growth } => {
                write!(f, "iterative solve failed to converge by iteration {at_iteration} (relative residual {growth:.2e}): Richardson diverged or PCG/CG exhausted its iteration budget")
            }
            SolverError::InconsistentRhs { imbalance } => {
                write!(f, "right-hand side is not orthogonal to the all-ones kernel (relative imbalance {imbalance:.2e}); balance b or disable require_balanced_rhs to solve the projected system")
            }
            SolverError::Overloaded { capacity } => {
                write!(f, "service overloaded: admission queue at capacity ({capacity}); request shed, retry later")
            }
            SolverError::DeadlineExceeded { progress: None } => {
                write!(
                    f,
                    "request deadline passed before its batch was formed; dropped without solving"
                )
            }
            SolverError::DeadlineExceeded { progress: Some(p) } => {
                write!(f, "request deadline passed mid-solve after {} iterations", p.iterations)?;
                if let Some(e) = p.certified_error {
                    write!(f, " (last certified error {e:.2e})")?;
                }
                Ok(())
            }
            SolverError::Cancelled { progress: None } => {
                write!(f, "request ticket was cancelled before completion")
            }
            SolverError::Cancelled { progress: Some(p) } => {
                write!(
                    f,
                    "request ticket was cancelled mid-solve after {} iterations",
                    p.iterations
                )
            }
            SolverError::InvalidOption(msg) => write!(f, "invalid option: {msg}"),
            SolverError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl SolverError {
    /// The error an outer loop returns when its interrupt handle trips
    /// after `progress`.
    pub(crate) fn interrupted(reason: InterruptReason, progress: SolveProgress) -> Self {
        let progress = Some(progress);
        match reason {
            InterruptReason::Cancelled => SolverError::Cancelled { progress },
            InterruptReason::DeadlineExceeded => SolverError::DeadlineExceeded { progress },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SolverError::EmptyGraph.to_string().contains("no vertices"));
        assert!(SolverError::Disconnected { components: 3 }.to_string().contains("3 components"));
        assert!(SolverError::DimensionMismatch { expected: 5, got: 4 }
            .to_string()
            .contains("expected 5"));
        assert!(SolverError::Diverged { at_iteration: 7, growth: 2.5 }
            .to_string()
            .contains("iteration 7"));
        assert!(SolverError::InconsistentRhs { imbalance: 0.5 }
            .to_string()
            .contains("not orthogonal"));
        assert!(SolverError::Overloaded { capacity: 16 }.to_string().contains("capacity (16)"));
        assert!(SolverError::DeadlineExceeded { progress: None }.to_string().contains("deadline"));
        assert!(SolverError::Cancelled { progress: None }.to_string().contains("cancelled"));
        let mid = SolverError::DeadlineExceeded {
            progress: Some(SolveProgress { iterations: 12, certified_error: Some(3.0e-4) }),
        };
        assert!(mid.to_string().contains("mid-solve after 12 iterations"));
        assert!(mid.to_string().contains("3.00e-4"));
        let cancelled_mid = SolverError::Cancelled {
            progress: Some(SolveProgress { iterations: 3, certified_error: None }),
        };
        assert!(cancelled_mid.to_string().contains("after 3 iterations"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(SolverError::EmptyGraph);
    }
}
