//! E16 bench: time-to-solution for one ε=1e-6 solve (build amortized
//! out) — parlap Richardson, parlap PCG, KS16-preconditioned PCG, and
//! unpreconditioned CG.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parlap_bench::workloads::Family;
use parlap_core::ks16::{Ks16Options, Ks16Solver};
use parlap_core::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_graph::laplacian::to_csr;
use parlap_linalg::cg::cg_solve;
use parlap_linalg::vector::random_demand;

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_eps1e6");
    group.sample_size(10);
    for fam in [Family::Grid2d, Family::WeightedGrid] {
        let g = fam.build(10_000, 3);
        let b = random_demand(g.num_vertices(), 7);
        let rich = LaplacianSolver::build(
            &g,
            SolverOptions { outer: OuterMethod::Richardson, ..Default::default() },
        )
        .expect("build");
        group.bench_with_input(
            BenchmarkId::new("parlap_richardson", fam.name()),
            &(&rich, &b),
            |bench, (solver, b)| bench.iter(|| solver.solve(b, 1e-6).expect("solve")),
        );
        let pcg = LaplacianSolver::build(
            &g,
            SolverOptions { outer: OuterMethod::Pcg, ..Default::default() },
        )
        .expect("build");
        group.bench_with_input(
            BenchmarkId::new("parlap_pcg", fam.name()),
            &(&pcg, &b),
            |bench, (solver, b)| bench.iter(|| solver.solve(b, 1e-6).expect("solve")),
        );
        let ks = Ks16Solver::build(&g, Ks16Options::default()).expect("ks16");
        group.bench_with_input(
            BenchmarkId::new("ks16_pcg", fam.name()),
            &(&ks, &b),
            |bench, (ks, b)| bench.iter(|| ks.solve(b, 1e-6, 100_000)),
        );
        let csr = to_csr(&g);
        group.bench_with_input(
            BenchmarkId::new("cg_plain", fam.name()),
            &(&csr, &b),
            |bench, (csr, b)| bench.iter(|| cg_solve(*csr, b, 1e-6, 200_000)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
