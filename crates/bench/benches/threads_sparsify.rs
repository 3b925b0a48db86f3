//! Sparsify-stage bench: the build pipeline with
//! `SolverOptions::sparsify` on vs off, across dense graph families and
//! pool sizes.
//!
//! The stage only pays off where the paper's `m ≫ n·polylog(n)`
//! regime holds: sampling `q = ⌈4 n ln n / ε²⌉` edges must be cheaper
//! than building the preconditioner on all `m`. This bench measures
//! exactly that trade on the two dense families the heuristic
//! targets —
//!
//! * `dense_gnp` — Erdős–Rényi with `p = 40 ln n / n`, so
//!   `m ≈ 20 n ln n` comfortably exceeds the ε = 0.6 sample budget
//!   (`q ≈ 11 n ln n`);
//! * `pref_attach` — a hub-dominated degree distribution at the same
//!   density, where leverage scores are far from uniform and the
//!   sampler has to get the weighting right;
//!
//! recording build time, solve time to `eps`, outer iterations, the
//! backend's input edge count, and `estimated_bytes`, at pool sizes
//! 1/2/4 (and 8 when the host has it), each a best-of-3 median over
//! fixed seeds. The host fingerprint is printed first so recorded
//! numbers carry their provenance. Feeds EXPERIMENTS.md E29.
//!
//! Run: `cargo bench -p parlap-bench --bench threads_sparsify`
//! (`--quick` shrinks the instances for the CI smoke leg).

use parlap_bench::host;
use parlap_core::pipeline::SPARSIFY_EPS;
use parlap_core::solver::{LaplacianSolver, SolverOptions, SparsifyMode};
use parlap_graph::generators;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::vector::random_demand;
use parlap_primitives::util::with_threads;
use std::time::Instant;

const EPS: f64 = 1e-8;
const SEED: u64 = 7;

fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(2);
    let mut counts = vec![1, 2, 4];
    if avail >= 8 {
        counts.push(8);
    }
    counts
}

/// Median of 3 runs of `f` (seconds each), with the measured payload
/// from the median run.
fn median_of_3<T, F: FnMut() -> T>(mut f: F) -> (f64, T) {
    let mut runs: Vec<(f64, T)> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            (t0.elapsed().as_secs_f64(), out)
        })
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(1)
}

/// Dense G(n, p) with `p = 40 ln n / n`, i.e. `m ≈ 20 n ln n`.
fn dense_gnp(n: usize) -> MultiGraph {
    let p = 40.0 * (n as f64).ln() / (n as f64);
    generators::gnp_connected(n, p.min(0.9), SEED)
}

struct Row {
    family: &'static str,
    mode: &'static str,
    threads: usize,
    build_s: f64,
    solve_s: f64,
    iters: usize,
    backend_m: usize,
    mbytes: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fp = host::fingerprint();
    println!("threads_sparsify — build pipeline with the sparsify stage on vs off");
    println!("{}", fp.summary());
    println!("eps = {EPS:.0e}, seed = {SEED}, sparsify eps = {SPARSIFY_EPS}, median of 3");
    println!();

    let families: [(&'static str, MultiGraph); 2] = if quick {
        [
            ("dense_gnp", dense_gnp(500)),
            ("pref_attach", generators::preferential_attachment(400, 100, SEED)),
        ]
    } else {
        [
            ("dense_gnp", dense_gnp(1400)),
            ("pref_attach", generators::preferential_attachment(1000, 100, SEED)),
        ]
    };
    let modes = [("off", SparsifyMode::Off), ("on", SparsifyMode::On)];

    let mut rows = Vec::new();
    for (fname, g) in &families {
        let (n, m) = (g.num_vertices(), g.num_edges());
        let b = random_demand(n, SEED);
        let opts =
            |mode: SparsifyMode| SolverOptions { seed: SEED, sparsify: mode, ..Default::default() };
        assert!(
            SparsifyMode::On.engages(n, m),
            "{fname}: instance must be dense enough to engage the stage (n = {n}, m = {m})"
        );
        println!("{fname}: n = {n}, m = {m}");
        for (mname, mode) in modes {
            for threads in thread_counts() {
                let (build_s, solver) = with_threads(threads, || {
                    median_of_3(|| LaplacianSolver::build(g, opts(mode)).expect("build"))
                });
                let (solve_s, out) =
                    with_threads(threads, || median_of_3(|| solver.solve(&b, EPS).expect("solve")));
                let stage = solver.sparsify_stage();
                assert_eq!(
                    stage.is_some(),
                    mode == SparsifyMode::On,
                    "{fname}/{mname}: stage engagement must match the mode"
                );
                rows.push(Row {
                    family: fname,
                    mode: mname,
                    threads,
                    build_s,
                    solve_s,
                    iters: out.iterations,
                    backend_m: stage.map_or(m, |st| st.edges_after()),
                    mbytes: solver.estimated_bytes() as f64 / (1024.0 * 1024.0),
                });
            }
        }
        // The ε-guarantee is against the *original* Laplacian; check
        // once per family on the sparsified configuration.
        let on = LaplacianSolver::build(g, opts(SparsifyMode::On)).expect("build");
        let x = on.solve(&b, EPS).expect("solve");
        let err = on.relative_error(&b, &x.solution);
        assert!(err <= EPS * 1.05, "{fname}: sparsified solve missed eps (L-norm error {err:e})");
        println!("{fname}: sparsified L-norm error {err:.2e} (bar {EPS:.0e})");
    }

    println!();
    println!(
        "{:<12} {:<4} {:>3} {:>10} {:>10} {:>6} {:>9} {:>9}",
        "family", "mode", "T", "build s", "solve s", "iters", "backend m", "MiB"
    );
    for r in &rows {
        println!(
            "{:<12} {:<4} {:>3} {:>10.3} {:>10.3} {:>6} {:>9} {:>9.2}",
            r.family, r.mode, r.threads, r.build_s, r.solve_s, r.iters, r.backend_m, r.mbytes
        );
    }

    // The whole point of the stage: the backend's input must shrink,
    // and end-to-end (build + one solve) the sparsified pipeline must
    // win on the dense instances. Wall-time asserts are kept one-sided
    // and coarse (1.0×) so scheduler noise cannot flake the smoke leg;
    // the printed table carries the precise ratios.
    for threads in thread_counts() {
        for (fname, _) in &families {
            let find = |mode: &str| {
                rows.iter()
                    .find(|r| r.family == *fname && r.mode == mode && r.threads == threads)
                    .expect("row")
            };
            let (off, on) = (find("off"), find("on"));
            assert!(on.backend_m < off.backend_m, "{fname}: sparsifier must shrink the backend");
            let (off_total, on_total) = (off.build_s + off.solve_s, on.build_s + on.solve_s);
            println!(
                "{fname} T={threads}: off {off_total:.3}s vs on {on_total:.3}s  ({:.2}x)",
                off_total / on_total
            );
            assert!(
                on_total < off_total,
                "{fname} T={threads}: sparsify-on must beat off end-to-end \
                 ({on_total:.3}s vs {off_total:.3}s)"
            );
        }
    }
    assert!(rows.iter().all(|r| r.iters > 0), "every configuration must converge");
    println!();
    println!("ok: {} configurations converged", rows.len());
}
