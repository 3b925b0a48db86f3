//! E6/E7 bench: one `TerminalWalks` round — Lemma 5.4 says O(m) work,
//! so per-edge throughput should be flat across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parlap_bench::workloads::Family;
use parlap_core::five_dd::{five_dd_subset, SAMPLE_FRACTION};
use parlap_core::walks::terminal_walks;
use parlap_primitives::prng::StreamRng;

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("terminal_walks");
    group.sample_size(10);
    for &n in &[10_000usize, 40_000, 160_000] {
        for fam in [Family::Grid2d, Family::Gnp] {
            let g = fam.build(n, 3);
            let inc = g.incidence();
            let wdeg = g.weighted_degrees();
            let mut rng = StreamRng::new(1, 0);
            let dd = five_dd_subset(&g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION);
            let in_c: Vec<bool> = dd.in_f.iter().map(|&x| !x).collect();
            group.throughput(Throughput::Elements(g.num_edges() as u64));
            group.bench_with_input(
                BenchmarkId::new(fam.name(), n),
                &(&g, &inc, &in_c),
                |bench, (g, inc, in_c)| {
                    let mut seed = 0u64;
                    bench.iter(|| {
                        seed += 1;
                        terminal_walks(g, inc, in_c, seed)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
