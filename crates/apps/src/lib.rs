//! # parlap-apps — applications of the parallel Laplacian solver
//!
//! The paper's introduction motivates Laplacian solvers through the
//! problems they unlock: scientific computing, semi-supervised
//! learning on graphs, maximum flow via electrical flows, and random
//! spanning tree generation. This crate implements those downstream
//! applications on top of [`parlap_core`]:
//!
//! * [`electrical`] — electrical flows and potentials: `φ = L⁺b`,
//!   edge flows, dissipated energy, congestion, s–t effective
//!   resistance (the bridge between the solver and everything below).
//! * [`maxflow`] — approximate maximum flow by multiplicative-weights
//!   electrical flows (Christiano–Kelner–Mądry–Spielman–Teng '11),
//!   with an exact Dinic reference implementation as the oracle.
//! * [`spanning_tree`] — uniform/weighted random spanning tree
//!   sampling (Wilson's loop-erased walks and Aldous–Broder), with a
//!   Kirchhoff matrix-tree counting oracle — the application domain
//!   of the paper's Section 7 Schur machinery ([DKPRS17; Sch18]).
//! * [`labels`] — semi-supervised harmonic label propagation
//!   (Zhu–Ghahramani–Lafferty '03).
//! * [`pagerank`] — personalized PageRank as one SDDM solve through
//!   the Gremban front-end, with a power-iteration oracle.
//! * [`clustering`] — spectral (Cheeger sweep) and local
//!   (PPR / Andersen–Chung–Lang) graph partitioning.
//! * [`diffusion`] — the graph heat equation by implicit time
//!   stepping (every step one SDDM solve), with a dense `exp(−tL)`
//!   spectral oracle.
//! * [`centrality`] — current-flow closeness (Hutchinson `diag(L⁺)`
//!   sketch) and spanning-edge centrality.
//! * [`mincut`] — exact global minimum cut (Stoer–Wagner), grounding
//!   the cut-finding heuristics above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centrality;
pub mod clustering;
pub mod diffusion;
pub mod electrical;
pub mod labels;
pub mod maxflow;
pub mod mincut;
pub mod pagerank;
pub mod spanning_tree;
