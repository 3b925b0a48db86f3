//! Parallel prefix sums (scans).
//!
//! The classic two-pass chunked scan: split the input into fixed-size
//! chunks, reduce each chunk in parallel, scan the chunk totals
//! sequentially (the total count is small), then fix up each chunk in
//! parallel. This is the `O(n)` work, `O(log n)` depth primitive the
//! paper's graph-format conversions (Lemma 2.7, \[BM10\]) are built
//! from.
//!
//! Determinism: integer sums are exact, so the output is identical
//! under any `RAYON_NUM_THREADS`; the chunk size is a constant anyway,
//! **never** a function of the thread count (the policy of
//! [`crate::reduce`]).

use rayon::prelude::*;

/// Minimum input size below which a sequential scan is faster than
/// spawning tasks (empirically ~couple of cache lines of u64 work).
const SEQ_CUTOFF: usize = 1 << 14;

/// Fixed scan chunk size, independent of the thread count.
const SCAN_CHUNK: usize = 1 << 13;

/// Exclusive prefix sum of `values`, returning a vector of length
/// `values.len() + 1`; entry `i` is the sum of `values[..i]` and the
/// last entry is the grand total.
///
/// ```
/// use parlap_primitives::scan::exclusive_scan;
/// assert_eq!(exclusive_scan(&[3, 1, 4]), vec![0, 3, 4, 8]);
/// ```
pub fn exclusive_scan(values: &[usize]) -> Vec<usize> {
    let n = values.len();
    let mut out = vec![0usize; n + 1];
    if n == 0 {
        return out;
    }
    if n <= SEQ_CUTOFF {
        let mut acc = 0usize;
        for (i, &v) in values.iter().enumerate() {
            out[i] = acc;
            acc += v;
        }
        out[n] = acc;
        return out;
    }
    let chunk = SCAN_CHUNK;
    // Pass 1: per-chunk totals.
    let mut totals: Vec<usize> =
        values.par_chunks(chunk).map(|c| c.iter().sum::<usize>()).collect();
    // Sequential scan over the (small) totals vector.
    let mut acc = 0usize;
    for t in totals.iter_mut() {
        let cur = *t;
        *t = acc;
        acc += cur;
    }
    let grand = acc;
    // Pass 2: per-chunk exclusive scan seeded with the chunk offset.
    out[..n].par_chunks_mut(chunk).zip(values.par_chunks(chunk)).zip(totals.par_iter()).for_each(
        |((o, v), &seed)| {
            let mut acc = seed;
            for (oi, &vi) in o.iter_mut().zip(v.iter()) {
                *oi = acc;
                acc += vi;
            }
        },
    );
    out[n] = grand;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(values: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(values.len() + 1);
        let mut acc = 0;
        out.push(0);
        for &v in values {
            acc += v;
            out.push(acc);
        }
        out
    }

    #[test]
    fn empty() {
        assert_eq!(exclusive_scan(&[]), vec![0]);
    }

    #[test]
    fn small_matches_reference() {
        let v = [5, 0, 2, 7, 1];
        assert_eq!(exclusive_scan(&v), reference(&v));
    }

    #[test]
    fn large_matches_reference() {
        let v: Vec<usize> = (0..100_000).map(|i| (i * 2654435761) % 17).collect();
        assert_eq!(exclusive_scan(&v), reference(&v));
    }

    #[test]
    fn scan_exactly_at_cutoff_boundary() {
        for n in [SEQ_CUTOFF - 1, SEQ_CUTOFF, SEQ_CUTOFF + 1] {
            let v: Vec<usize> = (0..n).map(|i| i % 3).collect();
            assert_eq!(exclusive_scan(&v), reference(&v));
        }
    }
}
