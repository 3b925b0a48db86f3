//! Experiment harness for the parlap reproduction.
//!
//! The paper (SPAA 2023 theory track) has no empirical tables; its
//! evaluation is the set of quantitative theorem statements. This
//! crate regenerates each of them as a measured table — the experiment
//! index is [`experiments::run`] (E1–E19, then
//! [`experiments_ext::run`] for E20–E25) and results are recorded in
//! EXPERIMENTS.md. Run via:
//!
//! ```text
//! cargo run --release -p parlap-bench --bin experiments -- <id>|all [--quick]
//! ```

pub mod experiments;
pub mod experiments_ext;
pub mod host;
pub mod table;
pub mod workloads;
