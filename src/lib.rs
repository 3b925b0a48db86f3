//! # parlap — a simple and efficient parallel Laplacian solver
//!
//! Rust implementation of Sachdeva & Zhao, *"A Simple and Efficient
//! Parallel Laplacian Solver"* (SPAA 2023, arXiv:2304.14345): a solver
//! for Laplacian linear systems `Lx = b` built purely from random
//! sampling — short random walks approximate Schur complements inside a
//! parallel block Cholesky factorization, with no low-stretch trees,
//! sparsifiers, or expander constructions.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`primitives`] — counter-based RNG streams, parallel scans,
//!   alias-table sampling, work/depth cost accounting.
//! * [`linalg`] — parallel vectors, CSR matrices, dense factorizations,
//!   eigensolvers, CG/PCG.
//! * [`graph`] — weighted multigraphs, generators, exact Schur
//!   complements (test oracle).
//! * [`core`] — the paper's algorithms: `5DDSubset`, `TerminalWalks`,
//!   `BlockCholesky`, `ApplyCholesky`, `PreconRichardson`,
//!   `ApproxSchur`, plus the sequential Kyng–Sachdeva baseline, an
//!   SDD front-end (Gremban reduction) and spectral sparsification.
//! * [`apps`] — downstream applications: electrical flows, approximate
//!   max-flow, spanning-tree sampling, label propagation.
//!
//! ## Quickstart
//!
//! ```
//! use parlap::prelude::*;
//!
//! // 30x30 grid graph, solve a random demand vector to 1e-6.
//! let g = parlap::graph::generators::grid2d(30, 30);
//! let solver = LaplacianSolver::build(&g, SolverOptions::default()).unwrap();
//! let b = parlap::linalg::vector::random_demand(g.num_vertices(), 7);
//! let x = solver.solve(&b, 1e-6).unwrap();
//! let err = solver.relative_error(&b, &x.solution);
//! assert!(err < 1e-5);
//! ```

pub use parlap_apps as apps;
pub use parlap_core as core;
pub use parlap_graph as graph;
pub use parlap_linalg as linalg;
pub use parlap_primitives as primitives;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use parlap_apps::{
        clustering::{conductance, local_cluster, spectral_cluster, sweep_cut, SweepCut},
        electrical::{ElectricalFlow, ElectricalSolver},
        labels::propagate_labels,
        maxflow::{dinic_max_flow, ElectricalMaxFlow, FlowDecision, MaxFlowOptions},
        mincut::stoer_wagner,
        pagerank::{pagerank_power_iteration, PageRankSolver},
        spanning_tree::{aldous_broder_ust, tree_count, wilson_ust},
    };
    pub use parlap_core::{
        alpha::SplitStrategy,
        backend::{build_backend, BackendKind, Preconditioner},
        dirichlet::harmonic_extension,
        ks16::{Ks16Options, Ks16Solver},
        multigrid::MultigridBackend,
        registry::{RegistryConfig, RegistryStats, SolverRegistry},
        resistance::{ResistanceOptions, ResistanceOracle},
        richardson::preconditioned_richardson,
        schur_approx::{approx_schur, ApproxSchurOptions},
        sdd::{SddMatrix, SddSolver},
        service::{ServiceConfig, ServiceStats, SolveService, SolveTicket},
        solver::{LaplacianSolver, OuterMethod, SolveOutcome, SolverOptions},
        sparsify::{sparsify, sparsify_to_eps, SparsifyOptions},
        spectral::{fiedler_vector, spectral_bisection, FiedlerOptions},
        SolveProgress, SolverError,
    };
    pub use parlap_graph::{generators, multigraph::MultiGraph};
    pub use parlap_linalg::{
        cg::{cg_solve, pcg_solve},
        interrupt::{InterruptHandle, InterruptReason},
        vector,
    };
    pub use parlap_primitives::{Cost, CostMeter, StreamRng};
}
