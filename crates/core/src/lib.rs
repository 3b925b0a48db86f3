//! # parlap-core — the parallel Laplacian solver
//!
//! Implementation of Sachdeva & Zhao, *"A Simple and Efficient Parallel
//! Laplacian Solver"* (SPAA 2023, arXiv:2304.14345). The solver builds
//! a sparse approximate **block Cholesky factorization** of the graph
//! Laplacian using nothing but random sampling:
//!
//! * [`alpha`] — α-bounded edge splitting (Lemmas 3.2 / 3.3);
//! * [`five_dd`] — `5DDSubset`, large 5-diagonally-dominant vertex
//!   sets (Algorithm 3, Lemma 3.4);
//! * [`walks`] — `TerminalWalks`, unbiased Schur-complement sparsifiers
//!   from short random walks (Algorithm 4, Lemmas 5.1/5.2/5.4);
//! * [`jacobi`] — the polynomial inner solver for 5-DD blocks
//!   (Lemma 3.5);
//! * [`chain`] — `BlockCholesky`, the factorization chain
//!   (Algorithm 1, Theorem 3.9);
//! * [`apply`] — `ApplyCholesky`, the implied operator `W ≈₁ L⁺`
//!   (Algorithm 2, Theorem 3.10), packaged as the chain backend;
//! * [`backend`] — the [`backend::Preconditioner`] trait boundary and
//!   [`backend::BackendKind`] selection (`PARLAP_BACKEND`);
//! * [`multigrid`] — the second backend: deterministic
//!   unsmoothed-aggregation multigrid (Galerkin coarsening, symmetric
//!   V-cycles);
//! * [`richardson`] — `PreconRichardson` outer iteration
//!   (Algorithm 5, Theorem 3.8);
//! * [`solver`] — the public build-once / solve-many API delivering
//!   Theorems 1.1 and 1.2, with certified PCG as the default outer
//!   loop;
//! * [`pipeline`] — the explicit build pipeline behind
//!   [`solver::LaplacianSolver::build`]: ingest → (optional)
//!   sparsify → backend build;
//! * [`sparsify`](mod@sparsify) — Spielman–Srivastava spectral sparsification by
//!   effective-resistance sampling, deterministically chunked so
//!   samples are bit-identical for any worker count (the pipeline's
//!   optional stage, [`solver::SolverOptions::sparsify`]);
//! * [`service`] — the shared-solver serving front-end: one built
//!   solver behind a `Send + Sync` handle, coalescing concurrent
//!   per-request solves into batches with bit-identical outputs,
//!   with bounded admission, deadlines, and async [`SolveTicket`]s;
//! * [`registry`] — the keyed multi-solver tier: many graphs'
//!   factorizations behind one handle, built on demand and
//!   LRU-evicted under a memory budget;
//! * [`schur_approx`] — `ApproxSchur`, sparse ε-approximate Schur
//!   complements (Algorithm 6, Theorem 7.1);
//! * [`leverage`] — leverage-score overestimation by uniform
//!   sparsification + Johnson–Lindenstrauss (Section 6);
//! * [`ks16`] — the sequential Kyng–Sachdeva approximate Cholesky
//!   baseline the paper builds on;
//! * [`sdd`] — Gremban reduction solving general SDD systems (the
//!   matrix class of the cited related work) via the Laplacian solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod apply;
pub mod backend;
pub mod blocks;
pub mod chain;
pub mod dirichlet;
pub mod error;
pub mod five_dd;
pub mod jacobi;
pub mod ks16;
pub mod leverage;
pub mod multigrid;
pub mod pipeline;
pub mod registry;
pub mod resistance;
pub mod richardson;
pub mod schur_approx;
pub mod sdd;
pub mod service;
pub mod solver;
pub mod sparsify;
pub mod spectral;
pub mod walks;

pub use backend::{build_backend, BackendKind, Preconditioner};
pub use error::{SolveProgress, SolverError};
pub use multigrid::MultigridBackend;
pub use pipeline::SparsifyStage;
pub use registry::{RegistryConfig, RegistryStats, SolverRegistry};
pub use service::{ServiceConfig, ServiceStats, SolveService, SolveTicket};
pub use solver::{LaplacianSolver, SolveOutcome, SolverOptions, SparsifyMode};
pub use sparsify::{sparsify, sparsify_to_eps, Sparsifier, SparsifyOptions};
