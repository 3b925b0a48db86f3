//! E12 bench: the same kernels and the same build+solve under real
//! rayon pools of different sizes — the work-stealing realization of
//! the paper's depth claim. Six tiers:
//!
//! * `threads_matvec` — the `O(m)`-work Laplacian matvec, the flattest
//!   and most scalable kernel (pure element map over rows);
//! * `threads_dot` — the deterministic fixed-chunk tree reduction
//!   (`O(log n)` depth, bit-identical at every pool size);
//! * `threads_join_storm` — scheduler overhead in isolation: a binary
//!   `join` tree over trivial leaves, so nearly all time is deque
//!   push/pop/steal traffic (the Chase–Lev contention probe — this is
//!   the tier the `Mutex<VecDeque>` → lock-free migration targets);
//! * `threads_inject_storm` — external-submission overhead in
//!   isolation: several non-worker OS threads concurrently `install`
//!   trivial jobs, so nearly all time is injector enqueue/dequeue plus
//!   latch traffic;
//! * `threads_service_multiclient` — the serving front-end end to
//!   end: external client threads hammer one `SolveService`, whose
//!   batches fan out per-request solves over the pool;
//! * `threads_build_solve` — the full Theorem 1.1 pipeline.
//!
//! Pool sizes sweep 1, 2, 4, … up to `max(4, available_parallelism)`
//! so the 1 → 4 thread trend is recorded even on small CI hosts
//! (oversubscribed pools must not regress materially). CI's
//! bench-smoke job executes this file with `--quick` on every PR.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use parlap_bench::workloads::Family;
use parlap_core::solver::{LaplacianSolver, SolverOptions};
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::{dot, random_demand};
use parlap_primitives::util::with_threads;

fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(2);
    let max_threads = avail.max(4);
    let mut counts = Vec::new();
    let mut t = 1usize;
    while t <= max_threads {
        counts.push(t);
        t *= 2;
    }
    counts
}

fn bench_matvec_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_matvec");
    group.sample_size(20);
    let g = Family::Grid2d.build(250_000, 3);
    let csr = parlap_graph::laplacian::to_csr(&g);
    let x: Vec<f64> = (0..g.num_vertices()).map(|i| ((i * 31) % 17) as f64).collect();
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("grid2d_250k", threads),
            &threads,
            |bench, &threads| {
                let mut y = vec![0.0; x.len()];
                with_threads(threads, || bench.iter(|| csr.apply(&x, &mut y)))
            },
        );
    }
    group.finish();
}

fn bench_dot_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_dot");
    group.sample_size(30);
    let n = 1 << 21;
    let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    for threads in thread_counts() {
        group.bench_with_input(BenchmarkId::new("det_dot_2m", threads), &threads, |bench, &t| {
            with_threads(t, || bench.iter(|| dot(&a, &b)))
        });
    }
    group.finish();
}

/// Binary join tree with `leaves` trivial leaf tasks (leaf work is a
/// handful of adds). Wall-clock here is almost pure scheduler: one
/// deque push + pop (or steal) per internal node. The `Mutex` deques
/// of PR 2 paid two lock round-trips per node; the Chase–Lev deques
/// pay none on the owner path.
fn join_storm(leaves: usize) -> u64 {
    fn rec(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 1 {
            return black_box(lo * 2 + 1);
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = rayon::join(|| rec(lo, mid), || rec(mid, hi));
        a.wrapping_add(b)
    }
    rec(0, leaves as u64)
}

fn bench_join_storm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_join_storm");
    group.sample_size(20);
    const LEAVES: usize = 1 << 14;
    for threads in thread_counts() {
        group.bench_with_input(BenchmarkId::new("join_16k", threads), &threads, |bench, &t| {
            with_threads(t, || bench.iter(|| join_storm(LEAVES)))
        });
    }
    group.finish();
}

/// A burst of external submissions: `submitters` non-worker OS
/// threads each drive `per` trivial jobs through `pool.install`, so
/// the measured time is dominated by injector enqueue/dequeue and
/// latch signaling — the external-submission analogue of
/// `join_storm`. Thread spawn cost is amortized over the whole burst.
fn inject_storm(pool: &rayon::ThreadPool, submitters: usize, per: usize) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                scope.spawn(move || {
                    let mut acc = 0u64;
                    for i in 0..per {
                        acc =
                            acc.wrapping_add(pool.install(move || black_box((s * per + i) as u64)));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).fold(0u64, u64::wrapping_add)
    })
}

fn bench_inject_storm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_inject_storm");
    group.sample_size(10);
    const SUBMITTERS: usize = 4;
    const PER: usize = 512;
    for threads in thread_counts() {
        group.bench_with_input(BenchmarkId::new("submit_4x512", threads), &threads, |bench, &t| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            bench.iter(|| inject_storm(&pool, SUBMITTERS, PER));
        });
    }
    group.finish();
}

fn bench_service_multiclient(c: &mut Criterion) {
    use parlap_bench::workloads::multi_client_storm;
    use parlap_core::service::SolveService;
    let mut group = c.benchmark_group("threads_service_multiclient");
    group.sample_size(10);
    let g = Family::Grid2d.build(2_500, 3);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("grid2d_2k5_4x4", threads),
            &threads,
            |bench, &t| {
                let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
                let service = SolveService::with_threads(solver, t).expect("pool");
                bench.iter(|| {
                    let (requests, checksum) = multi_client_storm(&service, 4, 4, 1e-6);
                    black_box((requests, checksum))
                });
            },
        );
    }
    group.finish();
}

fn bench_build_solve_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_build_solve");
    group.sample_size(10);
    let g = Family::Grid2d.build(20_000, 3);
    let b = random_demand(g.num_vertices(), 7);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("grid2d_20k", threads),
            &threads,
            |bench, &threads| {
                with_threads(threads, || {
                    bench.iter(|| {
                        let solver =
                            LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
                        solver.solve(&b, 1e-6).expect("solve")
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matvec_threads,
    bench_dot_threads,
    bench_join_storm_threads,
    bench_inject_storm_threads,
    bench_service_multiclient,
    bench_build_solve_threads
);
criterion_main!(benches);
