//! Small parallel helpers shared across crates.

use rayon::prelude::*;

/// Parallel threshold: below this, sequential loops win.
pub const PAR_CUTOFF: usize = 1 << 13;

/// Map `f` over `0..n` in parallel, collecting into a `Vec`.
pub fn par_tabulate<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync + Send,
{
    if n < PAR_CUTOFF {
        (0..n).map(f).collect()
    } else {
        (0..n).into_par_iter().map(f).collect()
    }
}

/// Leaf size for the chunked parallel maps below: big enough that a
/// task amortizes scheduling, small enough to load-balance.
const MAP_LEAF: usize = 1 << 12;

/// Apply `f` to contiguous sub-slices of `x` in parallel, splitting
/// with `rayon::join` down to ~`MAP_LEAF` (4096) elements. `f` must be
/// a pure element-wise map (each output element a function of the same
/// index's inputs only); the split points may vary, so anything whose
/// *result* depends on slice boundaries does not belong here. `f`
/// sees whole sub-slices because per-element `par_iter_mut` defeats
/// unrolled kernels.
pub fn par_apply_chunks<F>(x: &mut [f64], f: &F)
where
    F: Fn(&mut [f64]) + Sync,
{
    if x.len() <= MAP_LEAF {
        f(x);
        return;
    }
    let mid = x.len() / 2;
    let (lo, hi) = x.split_at_mut(mid);
    rayon::join(|| par_apply_chunks(lo, f), || par_apply_chunks(hi, f));
}

/// Zip variant of [`par_apply_chunks`]: applies `f(y_chunk, x_chunk)`
/// over aligned contiguous sub-slices of `y` and `x` in parallel. Same
/// pure element-wise-map contract.
///
/// # Panics
/// Panics if the lengths differ.
pub fn par_zip_apply_chunks<F>(y: &mut [f64], x: &[f64], f: &F)
where
    F: Fn(&mut [f64], &[f64]) + Sync,
{
    assert_eq!(y.len(), x.len(), "par_zip_apply_chunks: dimension mismatch");
    if y.len() <= MAP_LEAF {
        f(y, x);
        return;
    }
    let mid = y.len() / 2;
    let (ylo, yhi) = y.split_at_mut(mid);
    let (xlo, xhi) = x.split_at(mid);
    rayon::join(|| par_zip_apply_chunks(ylo, xlo, f), || par_zip_apply_chunks(yhi, xhi, f));
}

/// Stable sort of ids by a float score, highest first — the shared
/// sweep-cut ordering (clustering, max-flow), run by std's stable
/// `sort_by` on the calling thread.
///
/// NaN scores order deterministically *after* every number (and tie
/// with each other, so the stable sort keeps their input order). This
/// keeps the comparator a strict weak order even on NaN inputs — a
/// requirement, not a nicety: the sort algorithm is free to change per
/// machine or toolchain precisely because the stable permutation under
/// a well-defined order is unique, which a non-transitive
/// `unwrap_or(Equal)` comparator would break. On NaN-free scores the
/// ordering is bit-for-bit the old sequential `sort_by(partial_cmp)`
/// one, and the output permutation is identical at every thread count
/// either way.
pub fn sort_desc_by_score<I>(ids: &mut [I], score: impl Fn(&I) -> f64) {
    ids.sort_by(|a, b| {
        let (x, y) = (score(a), score(b));
        match y.partial_cmp(&x) {
            Some(ord) => ord,
            // At least one side is NaN: the NaN side sorts last;
            // NaN-vs-NaN compares Equal (true.cmp(true)).
            None => x.is_nan().cmp(&y.is_nan()),
        }
    });
}

/// Run `f` on a dedicated rayon pool with `threads` workers. The
/// closure runs *on* a pool worker thread, so every nested `join` and
/// parallel iterator inside it is scheduled across that pool. Used by
/// the thread-scaling experiments and the cross-thread-count
/// determinism suite; panics if the pool cannot be built.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_small_and_large() {
        let small = par_tabulate(10, |i| i * i);
        assert_eq!(small, (0..10).map(|i| i * i).collect::<Vec<_>>());
        let n = PAR_CUTOFF + 123;
        let large = par_tabulate(n, |i| i + 1);
        assert_eq!(large.len(), n);
        assert_eq!(large[0], 1);
        assert_eq!(large[n - 1], n);
    }

    #[test]
    fn sweep_sort_orders_desc_with_nans_last_at_any_pool_size() {
        // Long, with NaNs sprinkled in: the permutation must be
        // identical at 1 and 4 workers (strict-weak-order comparator →
        // unique stable permutation, whatever algorithm sorts it), with
        // every NaN-scored id after every number-scored one.
        let n = 10_000usize;
        let score: Vec<f64> =
            (0..n).map(|i| if i % 97 == 13 { f64::NAN } else { ((i * 31) % 503) as f64 }).collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                sort_desc_by_score(&mut ids, |&v| score[v as usize]);
                ids
            })
        };
        let ids = run(1);
        assert_eq!(ids, run(4), "sweep ordering must not depend on the pool size");
        let first_nan = ids.iter().position(|&v| score[v as usize].is_nan()).unwrap();
        assert!(ids[first_nan..].iter().all(|&v| score[v as usize].is_nan()), "NaNs sort last");
        let numbers: Vec<f64> = ids[..first_nan].iter().map(|&v| score[v as usize]).collect();
        assert!(numbers.windows(2).all(|w| w[0] >= w[1]), "descending before the NaN block");
    }

    #[test]
    fn chunked_maps_cover_every_element() {
        let n = MAP_LEAF * 3 + 17;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y = vec![1.0f64; n];
        par_zip_apply_chunks(&mut y, &x, &|yc, xc| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += 2.0 * xi;
            }
        });
        par_apply_chunks(&mut y, &|c| {
            for v in c.iter_mut() {
                *v *= 0.5;
            }
        });
        for i in (0..n).step_by(1111) {
            assert_eq!(y[i], (1.0 + 2.0 * i as f64) * 0.5);
        }
    }

    #[test]
    fn with_threads_runs() {
        let out = with_threads(2, || {
            use rayon::prelude::*;
            (0..1000usize).into_par_iter().sum::<usize>()
        });
        assert_eq!(out, 499_500);
    }
}
