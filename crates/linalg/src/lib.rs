//! Parallel dense and sparse linear algebra for the parlap solver.
//!
//! Everything here is built from scratch on top of rayon and the
//! parlap primitives — no external linear-algebra dependency:
//!
//! * [`vector`] — parallel dense vector kernels (dot, axpy, norms,
//!   projection onto `1⊥`).
//! * [`op`] — the [`op::LinOp`] operator abstraction every solver
//!   component implements.
//! * [`csr`] — compressed sparse row symmetric matrices with parallel
//!   matvec.
//! * [`dense`] — dense symmetric matrices, Cholesky, the exact
//!   grounded-Cholesky Laplacian pseudoinverse (the `O(1)`-size base
//!   case `G(d)` of both backends) and the eigen pseudoinverse (test
//!   oracles).
//! * [`eigen`] — cyclic Jacobi symmetric eigensolver.
//! * [`cg`] — conjugate gradient and preconditioned CG with `1⊥`
//!   projection (reference solver, baseline, and the solver's default
//!   certified outer loop).
//! * [`interrupt`] — cooperative cancellation/deadline tokens polled
//!   once per outer iteration by the interruptible solver loops.
//! * [`approx`] — verification of the paper's `≈_ε` (Loewner) relations,
//!   exactly on small matrices and via power iteration at scale.
//! * [`precond`] — classic Jacobi / SSOR / IC(0) preconditioners, the
//!   textbook baselines the experiments compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod cg;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod interrupt;
pub mod op;
pub mod precond;
pub mod vector;

pub use dense::DenseMatrix;
pub use interrupt::{InterruptHandle, InterruptReason};
pub use op::LinOp;
