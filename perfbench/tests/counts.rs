//! The determinism contract, checked from outside the library on the
//! benchmark's own workloads: the exact counts of a build and its
//! solves (iterations, fallbacks, chain and multigrid structure,
//! sparsifier size, backend bytes, solution bits) repeat bit for bit
//! across two runs with one seed and across pool sizes 1 and 2. A later
//! change may rest a claim on one of these counts only because they
//! repeat.
//!
//! The builds are large; run in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::harness::Counts;
use perfbench::workload::Workload;

const SEED: u64 = 11;
const SOLVES: usize = 2;

fn counts_repeat(w: Workload) -> Counts {
    let first = Counts::measure(w, SEED, 2, SOLVES).expect("first run");
    let second = Counts::measure(w, SEED, 2, SOLVES).expect("second run");
    let one_worker = Counts::measure(w, SEED, 1, SOLVES).expect("1-worker run");
    assert_eq!(first, second, "{}: two runs with one seed", w.name());
    assert_eq!(first, one_worker, "{}: pool sizes 2 and 1", w.name());
    assert_eq!(first.iterations.len(), SOLVES);
    assert!(first.fallbacks.iter().all(|&f| !f), "{}: no solve needs the fallback", w.name());
    first
}

#[test]
fn mesh_stream_counts_repeat() {
    let c = counts_repeat(Workload::MeshStream);
    assert!(c.multigrid_levels.is_some() && c.chain.is_none() && c.sparsifier.is_none());
}

#[test]
fn dense_sparsify_counts_repeat() {
    let c = counts_repeat(Workload::DenseSparsify);
    let (edges_out, _) = c.sparsifier.expect("the sparsify stage engages");
    let m = Workload::DenseSparsify.graph(SEED).1.len();
    assert!(edges_out < m, "the sparsifier has fewer edges than the input");
    assert!(c.chain.is_some());
}
