//! Weighted multigraphs for the parlap Laplacian solver.
//!
//! The paper is explicit that its algorithms are "written completely
//! with respect to the multi-graphs instead of matrices": the
//! α-bounded edge splitting creates parallel multi-edges, and
//! `TerminalWalks` keeps them. This crate provides:
//!
//! * [`multigraph`] — the [`multigraph::MultiGraph`] type (flat edge
//!   list) and its CSR incidence structure, built by a stable counting
//!   sort in `O(m + n)` (the Lemma 2.7 / Blelloch–Maggs conversion).
//! * [`laplacian`] — Laplacian operators: edge-list matvec, CSR and
//!   dense materializations, weighted degrees.
//! * [`generators`] — graph families used by the paper's motivating
//!   applications and by our experiments.
//! * [`connectivity`] — union-find connectivity (the solver's
//!   precondition).
//! * [`components`] — parallel connected components (FastSV hooking),
//!   the PRAM-model counterpart of the union-find check.
//! * [`dimacs`] — DIMACS-format graph I/O (benchmark instances).
//! * [`schur`] — exact dense Schur complements, the oracle against
//!   which `TerminalWalks` unbiasedness (Lemma 5.1) and `ApproxSchur`
//!   (Theorem 7.1) are tested.
//! * [`walk_sum`] — the Lemma 3.7 C-terminal walk identity, via both
//!   the algebraic Neumann series and literal walk enumeration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod connectivity;
pub mod dimacs;
pub mod generators;
pub mod io;
pub mod laplacian;
pub mod multigraph;
pub mod schur;
pub mod walk_sum;

pub use multigraph::{Edge, MultiGraph};
