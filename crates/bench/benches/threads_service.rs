//! E13 bench: serving tail latency under concurrent client storms —
//! the async admission tier end to end, per pool size. Four tiers:
//!
//! * `service_tail_latency` — external client threads drive requests
//!   through the ticket path (`submit` + `wait`) at one shared
//!   `SolveService`; per-request submit→outcome latency is recorded
//!   and the p50/p99 for each pool size is printed alongside the
//!   criterion throughput numbers (batching trades a little p50 for a
//!   lot of p99 under contention — this is where that shows);
//! * `service_bounded_admission` — the same storm against a
//!   deliberately tiny admission queue, so a fraction of requests is
//!   shed with `Overloaded` instead of queuing without bound; measures
//!   the overloaded path (shed requests cost no solve work);
//! * `registry_churn` — round-robin requests over three graph keys
//!   through a `SolverRegistry` whose budget fits only two entries, so
//!   every cycle pays one LRU eviction + rebuild — the worst-case
//!   serving pattern for the keyed tier;
//! * `deadline_shed_storm` — every request carries a deadline tight
//!   enough that most expire; the p99 over submit→resolution measures
//!   how quickly doomed work is shed (batch-formation drop or
//!   mid-solve interrupt) instead of hogging the driver.
//!
//! CI's bench-smoke job executes this file with `--quick` on every PR;
//! EXPERIMENTS.md records representative p50/p99 numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use parlap_bench::workloads::{deadline_storm, ticket_storm, Family};
use parlap_core::registry::SolverRegistry;
use parlap_core::service::{ServiceConfig, SolveService};
use parlap_core::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_linalg::vector::random_demand;

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

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 8;

fn bench_service_tail_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_tail_latency");
    group.sample_size(10);
    let g = Family::Grid2d.build(2_500, 3);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("grid2d_2k5_4x8", threads),
            &threads,
            |bench, &t| {
                let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
                let service = SolveService::with_threads(solver, t).expect("pool");
                let mut last = None;
                bench.iter(|| {
                    let out = ticket_storm(&service, CLIENTS, PER_CLIENT, 1e-6);
                    assert_eq!(out.completed, out.attempted, "default capacity must not shed");
                    last = Some(out);
                    black_box(out.checksum)
                });
                if let Some(out) = last {
                    println!(
                        "service_tail_latency/{t} threads: p50 = {:?}, p99 = {:?} ({} requests)",
                        out.p50, out.p99, out.completed
                    );
                }
            },
        );
    }
    group.finish();
}

fn bench_bounded_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_bounded_admission");
    group.sample_size(10);
    let g = Family::Grid2d.build(2_500, 3);
    for threads in thread_counts() {
        group.bench_with_input(BenchmarkId::new("capacity_2_4x8", threads), &threads, |bench, &t| {
            let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
            let config = ServiceConfig { queue_capacity: 2, num_threads: Some(t) };
            let service = SolveService::with_config(solver, config).expect("pool");
            let mut last = None;
            bench.iter(|| {
                let out = ticket_storm(&service, CLIENTS, PER_CLIENT, 1e-6);
                assert_eq!(out.completed + out.shed, out.attempted);
                last = Some(out);
                black_box(out.checksum)
            });
            if let Some(out) = last {
                println!(
                    "service_bounded_admission/{t} threads: {} shed of {}, p99 = {:?}, max queue = {}",
                    out.shed,
                    out.attempted,
                    out.p99,
                    service.stats().max_queue_len
                );
            }
        });
    }
    group.finish();
}

fn bench_registry_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_churn");
    group.sample_size(10);
    // Three grid keys of equal cost; the budget below fits ~2 entries,
    // so a round-robin over all three evicts on every miss.
    const KEYS: [usize; 3] = [40, 41, 42];
    let probe = SolverRegistry::new(usize::MAX, build_grid);
    probe.get(&KEYS[0]).expect("probe build");
    let one_entry = probe.stats().resident_bytes;
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("three_keys_fit_two", threads),
            &threads,
            |bench, &t| {
                let registry = SolverRegistry::with_config(
                    parlap_core::registry::RegistryConfig {
                        memory_budget_bytes: 5 * one_entry / 2,
                        service: ServiceConfig { num_threads: Some(t), ..ServiceConfig::default() },
                    },
                    build_grid,
                );
                bench.iter(|| {
                    let mut acc = 0u64;
                    for (i, key) in KEYS.iter().enumerate() {
                        let b = random_demand(key * key, i as u64);
                        let out = registry.solve(key, &b, 1e-6).expect("registry solve");
                        acc = acc.wrapping_add(out.solution[0].to_bits());
                    }
                    black_box(acc)
                });
                let stats = registry.stats();
                println!(
                    "registry_churn/{t} threads: {} hits, {} misses, {} evictions",
                    stats.hits, stats.misses, stats.evictions
                );
            },
        );
    }
    group.finish();
}

fn build_grid(side: &usize) -> Result<LaplacianSolver, parlap_core::SolverError> {
    let g = parlap_graph::generators::grid2d(*side, *side);
    LaplacianSolver::build(&g, SolverOptions { seed: *side as u64, ..SolverOptions::default() })
}

fn bench_deadline_shed_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("deadline_shed_storm");
    group.sample_size(10);
    let g = Family::Grid2d.build(2_500, 3);
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("budget_500us_4x8", threads),
            &threads,
            |bench, &t| {
                // Overestimated δ with Richardson's fixed iteration
                // count makes every solve slow and the same cost, so a
                // 500 µs budget dooms most requests — the measured p99
                // is the shed path, not solve throughput.
                let solver = LaplacianSolver::build(
                    &g,
                    SolverOptions {
                        delta: 2.0,
                        outer: OuterMethod::RichardsonFixed,
                        ..SolverOptions::default()
                    },
                )
                .expect("build");
                let service = SolveService::with_threads(solver, t).expect("pool");
                let mut last = None;
                bench.iter(|| {
                    let out = deadline_storm(
                        &service,
                        CLIENTS,
                        PER_CLIENT,
                        1e-6,
                        std::time::Duration::from_micros(500),
                    );
                    assert_eq!(out.completed + out.expired + out.shed, out.attempted);
                    last = Some(out);
                    black_box(out.checksum)
                });
                if let Some(out) = last {
                    println!(
                        "deadline_shed_storm/{t} threads: {} expired of {}, \
                         resolution p50 = {:?}, p99 = {:?}",
                        out.expired, out.attempted, out.p50, out.p99
                    );
                }
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_service_tail_latency,
    bench_bounded_admission,
    bench_registry_churn,
    bench_deadline_shed_storm
);
criterion_main!(benches);
