//! End-to-end and per-layer benchmark of the parlap solver.
//!
//! Every number is taken from outside the library, by timing calls
//! into its public functions: DIMACS ingest, `LaplacianSolver::build`,
//! `SolveService` start, submit and wait, and in the traced run the
//! layer calls beneath them. See `perfbench/README.md` for the
//! workloads, the metrics and how to run it.

pub mod harness;
pub mod hostinfo;
pub mod stats;
pub mod trace;
pub mod workload;
