//! Kernel microbench: the library's 8-lane folds against a sequential
//! fold, in elements/s.
//!
//! `parlap_primitives::kernels` folds every reduction into 8
//! independent lane accumulators, which the compiler autovectorizes.
//! This bench pins the library kernels against a left-to-right fold
//! private to the bench, on identical inputs, for the two loop shapes
//! that dominate solver wall-clock:
//!
//! * `matvec` — CSR row gathers (`dot_gather`) over long 512-nonzero
//!   rows with a cache-resident operand. Long rows keep the sequential
//!   fold pinned to its add-latency chain (the out-of-order window
//!   cannot overlap across rows), and the cache-resident working set
//!   keeps the comparison about code shape, not DRAM bandwidth — this
//!   is where the 8 independent lane accumulators pay most;
//! * `dot` — the fixed-chunk reduction leaf, at `DET_CHUNK` = 4096
//!   elements (the exact slice length `det_dot` hands the kernel).
//!
//! Timing is deliberately simple — best-of-5 medians over fixed
//! repetition counts via `Instant` — because the quantity of interest
//! is a *ratio* on one host, not an absolute. The bench hard-fails if
//! the library matvec drops below 1.2× the sequential fold (the
//! acceptance bar is 1.5× on the CI host; 1.2 leaves noise margin so
//! bench-smoke stays stable). The host fingerprint is printed first so
//! recorded numbers carry their provenance.
//!
//! Run: `cargo bench -p parlap-bench --bench threads_kernels`
//! (criterion-style CLI flags like `--quick` are accepted and
//! ignored; this harness is already quick).

use parlap_bench::host;
use parlap_primitives::kernels;
use parlap_primitives::reduce::DET_CHUNK;
use std::hint::black_box;
use std::time::Instant;

/// CSR row block: `rows` rows of exactly `band` nonzeros each, column
/// indices scattered over an `nx`-element operand, returned as flat
/// (values, cols) plus the operand.
fn row_block(rows: usize, band: usize, nx: usize) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
    let mut values = Vec::with_capacity(rows * band);
    let mut cols = Vec::with_capacity(rows * band);
    for r in 0..rows {
        for k in 0..band {
            values.push(1.0 + ((r * 31 + k * 7) % 13) as f64 * 0.125);
            cols.push(((r * 37 + k * 193) % nx) as u32);
        }
    }
    let x: Vec<f64> = (0..nx).map(|i| ((i * 17) % 29) as f64 * 0.25 - 3.0).collect();
    (values, cols, x)
}

/// The reference: one running sum, left to right.
fn seq_fold(terms: impl Iterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for t in terms {
        acc += t;
    }
    acc
}

/// Best-of-5 wall-clock for `reps` executions of `f`, in seconds.
fn best_of_5<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Line {
    name: &'static str,
    seq_eps: f64,
    lane_eps: f64,
}

impl Line {
    fn ratio(&self) -> f64 {
        self.lane_eps / self.seq_eps
    }
}

fn bench_matvec() -> Line {
    // 4 rows x 512 nnz, operand 1024 doubles: ~32 KiB working set, so
    // the gather stays cache-resident and the sequential fold is
    // pinned to its add-latency chain — the regime the lane
    // accumulators target.
    const ROWS: usize = 4;
    const BAND: usize = 512;
    const NX: usize = 1024;
    const REPS: usize = 8192;
    let (values, cols, x) = row_block(ROWS, BAND, NX);
    let run = |row: &dyn Fn(&[f64], &[u32]) -> f64| {
        let mut y = vec![0.0f64; ROWS];
        let secs = best_of_5(REPS, || {
            for r in 0..ROWS {
                let lo = r * BAND;
                y[r] = row(&values[lo..lo + BAND], &cols[lo..lo + BAND]);
            }
            black_box(&y);
        });
        (ROWS * BAND * REPS) as f64 / secs
    };
    Line {
        name: "matvec (512-nnz rows)",
        seq_eps: run(&|v, c| seq_fold(v.iter().zip(c).map(|(v, &c)| v * x[c as usize]))),
        lane_eps: run(&|v, c| kernels::dot_gather(v, c, &x)),
    }
}

fn bench_dot() -> Line {
    // One DET_CHUNK-sized slice — exactly what `det_dot` hands the
    // kernel per chunk — repeated hot in cache.
    const N: usize = DET_CHUNK;
    const REPS: usize = 40_000;
    let a: Vec<f64> = (0..N).map(|i| (i as f64 * 0.13).sin()).collect();
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.31).cos()).collect();
    let run = |dot: &dyn Fn(&[f64], &[f64]) -> f64| {
        let secs = best_of_5(REPS, || {
            black_box(dot(black_box(&a), black_box(&b)));
        });
        (N * REPS) as f64 / secs
    };
    Line {
        name: "dot (4096 chunk)",
        seq_eps: run(&|a, b| seq_fold(a.iter().zip(b).map(|(x, y)| x * y))),
        lane_eps: run(&kernels::dot),
    }
}

fn main() {
    // Accept (and ignore) criterion-style flags from bench-smoke.
    let _ = std::env::args();
    let fp = host::fingerprint();
    println!("threads_kernels — 8-lane kernels vs a sequential fold");
    println!("{}", fp.summary());
    println!();
    println!("{:<22} {:>14} {:>14} {:>8}", "kernel", "seq elem/s", "8-lane elem/s", "ratio");
    let lines = [bench_matvec(), bench_dot()];
    for l in &lines {
        println!("{:<22} {:>14.3e} {:>14.3e} {:>7.2}x", l.name, l.seq_eps, l.lane_eps, l.ratio());
    }
    let matvec_ratio = lines[0].ratio();
    assert!(
        matvec_ratio >= 1.2,
        "8-lane matvec must beat the sequential fold by >= 1.2x (acceptance bar 1.5x), got {matvec_ratio:.2}x"
    );
    println!();
    println!("ok: 8-lane matvec {matvec_ratio:.2}x sequential (bar: 1.2x in-bench, 1.5x recorded)");
}
