//! Deterministic fixed-chunk tree reductions.
//!
//! Floating-point addition is not associative, so a reduction whose
//! grouping follows the scheduler (like rayon's `sum`) returns
//! different bits for different thread counts. This module fixes the
//! *shape* of the reduction instead: the input is cut into chunks of
//! exactly [`DET_CHUNK`] elements (a constant — never a function of
//! the thread count), each chunk is folded by a fixed 8-lane kernel
//! ([`crate::kernels`]), and the per-chunk partials are combined by a
//! balanced pairwise tree in index order. Only *which thread* computes each chunk varies with
//! the pool size; *what* is computed never does, so results are
//! bit-identical for any `RAYON_NUM_THREADS` — the property
//! `tests/determinism_apps.rs` enforces all the way down to whole
//! `solve()` outputs.
//!
//! The tree combine also improves accuracy over a running sum: error
//! grows like `O(log n)` rather than `O(n)` in the element count.
//!
//! Cost: `O(n)` work, `O(n / DET_CHUNK + log n)` depth — `O(log n)`
//! depth in the PRAM sense for the balanced combine once chunks are
//! parallel.

use std::ops::Range;

/// Fixed reduction chunk size. Must never depend on the thread count:
/// the chunk layout *is* the determinism guarantee. 4096 elements keep
/// per-chunk sequential work (a few µs) well above task overhead.
pub const DET_CHUNK: usize = 4096;

/// Sum the fixed-chunk partials produced by `chunk_fold` over `0..n`,
/// combining them with a balanced pairwise tree in index order.
///
/// `chunk_fold` receives each chunk's index range (always
/// `[k·DET_CHUNK, min((k+1)·DET_CHUNK, n))`) and must return the
/// chunk's partial sum. It is called concurrently, once per chunk, in
/// an order that may vary — but every invocation is a pure
/// function of its range, so the result never varies.
pub fn det_reduce_f64<F>(n: usize, chunk_fold: F) -> f64
where
    F: Fn(Range<usize>) -> f64 + Sync + Send,
{
    if n == 0 {
        return 0.0;
    }
    let chunks = n.div_ceil(DET_CHUNK);
    if chunks == 1 {
        return chunk_fold(0..n);
    }
    // Task granularity (how many chunks one stolen task computes) MAY
    // follow the thread count — only the chunk *values* must not, and
    // each partial is a pure function of its fixed range.
    let leaf = chunks.div_ceil(rayon::current_num_threads().max(1) * 4).max(1);
    let mut partials = vec![0.0f64; chunks];
    fill_partials(&chunk_fold, n, 0, leaf, &mut partials);
    tree_combine(partials)
}

/// Compute `partials[k] = chunk_fold(chunk k)` for the chunk range
/// starting at global chunk index `first`, splitting with
/// `rayon::join` down to `leaf`-sized runs of chunks.
fn fill_partials<F>(chunk_fold: &F, n: usize, first: usize, leaf: usize, out: &mut [f64])
where
    F: Fn(Range<usize>) -> f64 + Sync + Send,
{
    if out.len() <= leaf {
        for (k, slot) in out.iter_mut().enumerate() {
            let lo = (first + k) * DET_CHUNK;
            let hi = ((first + k + 1) * DET_CHUNK).min(n);
            *slot = chunk_fold(lo..hi);
        }
        return;
    }
    let mid = out.len() / 2;
    let (left, right) = out.split_at_mut(mid);
    rayon::join(
        || fill_partials(chunk_fold, n, first, leaf, left),
        || fill_partials(chunk_fold, n, first + mid, leaf, right),
    );
}

/// Balanced pairwise combine, sequential and in fixed index order (the
/// partial count is tiny — `n / DET_CHUNK` — so there is nothing to
/// parallelize).
fn tree_combine(mut partials: Vec<f64>) -> f64 {
    debug_assert!(!partials.is_empty());
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        for pair in partials.chunks(2) {
            next.push(if pair.len() == 2 { pair[0] + pair[1] } else { pair[0] });
        }
        partials = next;
    }
    partials[0]
}

/// Deterministic sum of `values` (fixed-chunk tree reduction).
///
/// Each chunk is folded by the 8-lane kernel of
/// [`kernels::sum`](crate::kernels::sum), a pure function of the chunk
/// range, and the chunk layout is fixed by [`det_reduce_f64`], so the
/// result is bit-identical across thread counts.
pub fn det_sum_f64(values: &[f64]) -> f64 {
    det_reduce_f64(values.len(), |r| crate::kernels::sum(&values[r]))
}

/// Deterministic dot product `xᵀy` (8-lane chunk folds, see
/// [`det_sum_f64`]).
///
/// # Panics
/// Panics if the lengths differ.
pub fn det_dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "det_dot: dimension mismatch");
    det_reduce_f64(x.len(), |r| crate::kernels::dot(&x[r.clone()], &y[r]))
}

/// Deterministic squared Euclidean norm (8-lane chunk folds, see
/// [`det_sum_f64`]).
pub fn det_norm2_sq(x: &[f64]) -> f64 {
    det_reduce_f64(x.len(), |r| crate::kernels::norm2_sq(&x[r]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::with_threads;

    #[test]
    fn empty_and_tiny() {
        assert_eq!(det_sum_f64(&[]), 0.0);
        assert_eq!(det_sum_f64(&[2.5]), 2.5);
        assert_eq!(det_dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
    }

    #[test]
    fn matches_sequential_to_rounding() {
        let v: Vec<f64> = (0..100_000).map(|i| ((i % 31) as f64 - 15.0) * 0.37).collect();
        let seq: f64 = v.iter().sum();
        let det = det_sum_f64(&v);
        assert!((det - seq).abs() <= 1e-9 * seq.abs().max(1.0), "{det} vs {seq}");
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let n = 3 * DET_CHUNK + 1234; // several chunks plus a ragged tail
        let v: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let base = with_threads(1, || {
            (det_sum_f64(&v).to_bits(), det_dot(&v, &w).to_bits(), det_norm2_sq(&v).to_bits())
        });
        for threads in [2, 4, 8] {
            let got = with_threads(threads, || {
                (det_sum_f64(&v).to_bits(), det_dot(&v, &w).to_bits(), det_norm2_sq(&v).to_bits())
            });
            assert_eq!(got, base, "reduction bits changed at {threads} threads");
        }
    }

    #[test]
    fn chunk_boundaries_are_fixed() {
        // The fold must always see [k·DET_CHUNK, (k+1)·DET_CHUNK) — a
        // direct probe of the determinism contract.
        use std::sync::Mutex;
        let n = 2 * DET_CHUNK + 17;
        let seen = Mutex::new(Vec::new());
        let _ = det_reduce_f64(n, |r| {
            seen.lock().unwrap().push((r.start, r.end));
            0.0
        });
        let mut ranges = seen.into_inner().unwrap();
        ranges.sort_unstable();
        assert_eq!(ranges, vec![(0, DET_CHUNK), (DET_CHUNK, 2 * DET_CHUNK), (2 * DET_CHUNK, n)]);
    }

    #[test]
    fn simd_chunk_folds_bit_identical_across_thread_counts() {
        // The 8-lane fold is a pure function of the chunk range, so
        // the fixed-chunk tree over it is thread-count independent.
        use crate::kernels::dot;
        let n = 5 * DET_CHUNK + 321;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let run = |threads: usize| {
            with_threads(threads, || det_reduce_f64(n, |r| dot(&x[r.clone()], &y[r])).to_bits())
        };
        let base = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), base, "simd fold bits changed at {t} threads");
        }
    }

    #[test]
    fn tree_is_more_accurate_than_it_needs_to_be() {
        // Kahan-style sanity: summing many small numbers against one
        // large one; the tree keeps the relative error tiny.
        let mut v = vec![1e-8f64; 4 * DET_CHUNK];
        v[0] = 1e8;
        let det = det_sum_f64(&v);
        let expect = 1e8 + (v.len() - 1) as f64 * 1e-8;
        assert!((det - expect).abs() / expect < 1e-12);
    }
}
