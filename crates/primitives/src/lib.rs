//! Parallel primitives underpinning the parlap Laplacian solver.
//!
//! This crate supplies the building blocks the paper assumes as given
//! PRAM primitives:
//!
//! * [`prng`] — deterministic counter-based random streams, so that
//!   parallel sampling is reproducible independent of thread count.
//! * [`scan`] — parallel exclusive prefix sums (used by the edge-list
//!   ↔ adjacency conversions of Blelloch–Maggs).
//! * [`sample`] — Walker/Vose alias tables, the substitute for the
//!   Hübschle-Schneider–Sanders parallel weighted sampling primitive
//!   (Lemma 2.6 of the paper).
//! * [`cost`] — work/depth accounting in the CREW PRAM cost model, used
//!   by the experiment harness to verify the paper's asymptotic claims.
//! * [`reduce`] — deterministic fixed-chunk tree reductions: the
//!   floating-point `sum`/`dot` primitive every solver hot path goes
//!   through, bit-identical for any thread count.
//! * [`kernels`] — the hot-loop kernels: 8-lane chunk folds and CSR
//!   row products, plain `axpy`-family maps.
//! * [`util`] — small parallel helpers (parallel maps, the sweep-cut
//!   sort, dedicated pools).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod kernels;
pub mod prng;
pub mod reduce;
pub mod sample;
pub mod scan;
pub mod util;

pub use cost::{Cost, CostMeter};
pub use kernels::detected_simd_width;
pub use prng::{PhiloxStream, StreamRng};
pub use reduce::{det_dot, det_norm2_sq, det_reduce_f64, det_sum_f64};
pub use sample::AliasTable;
pub use scan::exclusive_scan;
