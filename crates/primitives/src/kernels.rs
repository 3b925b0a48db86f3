//! Hot-loop kernels.
//!
//! Every floating-point hot loop in the solver (chunk folds inside the
//! deterministic tree reduce, CSR row products, dense `axpy`-family
//! maps) routes through this module, and each kernel has one body.
//!
//! * **Reductions** (`sum`, `dot`, `norm2_sq`, `dot_gather`,
//!   `gather_arcs`) fold into fixed [`LANES`]-wide independent lane
//!   accumulators, written in safe Rust so the autovectorizer can emit
//!   AVX2/AVX-512 and, even where it does not, the broken dependency
//!   chain gives instruction-level parallelism. The lane layout is a
//!   *constant* (never a function of the detected CPU or the thread
//!   count), so results are bit-identical across thread counts and
//!   across hosts.
//! * **Element-wise maps** (`axpy`, `xpby`, `scale`) are plain loops:
//!   each output element is one fused expression, so there is no
//!   grouping to choose.

/// Fixed unroll width (f64 lanes) of the reduction kernels. Part of
/// their numeric contract: independent of the host CPU, so the bits
/// are portable. Eight f64 lanes fill one AVX-512 register or two AVX2
/// registers.
pub const LANES: usize = 8;

/// Best SIMD f64 width the host advertises (8 = AVX-512, 4 = AVX2,
/// 2 = baseline SSE2 on x86-64, 1 = unknown arch). Informational only:
/// the kernels always use [`LANES`] accumulators so their results do
/// not depend on this probe.
pub fn detected_simd_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            8
        } else if std::arch::is_x86_feature_detected!("avx2") {
            4
        } else {
            2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        2 // NEON: 128-bit vectors, two f64 lanes.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        1
    }
}

/// Combine [`LANES`] lane accumulators plus a tail partial in a fixed
/// pairwise tree (tail added last). `#[inline(always)]` so it fuses
/// into each kernel's epilogue.
#[inline(always)]
fn combine_lanes(acc: [f64; LANES], tail: f64) -> f64 {
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// Sum of a slice (8-lane fold).
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in chunks.by_ref() {
        let c: &[f64; LANES] = c.try_into().expect("chunks_exact");
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    let tail: f64 = chunks.remainder().iter().sum();
    combine_lanes(acc, tail)
}

/// Dot product `xᵀy` (8-lane fold). Lengths must match.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; LANES];
    let mut xs = x.chunks_exact(LANES);
    let mut ys = y.chunks_exact(LANES);
    for (cx, cy) in xs.by_ref().zip(ys.by_ref()) {
        let cx: &[f64; LANES] = cx.try_into().expect("chunks_exact");
        let cy: &[f64; LANES] = cy.try_into().expect("chunks_exact");
        for l in 0..LANES {
            acc[l] += cx[l] * cy[l];
        }
    }
    let tail: f64 = xs.remainder().iter().zip(ys.remainder()).map(|(a, b)| a * b).sum();
    combine_lanes(acc, tail)
}

/// Squared Euclidean norm (8-lane fold).
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in chunks.by_ref() {
        let c: &[f64; LANES] = c.try_into().expect("chunks_exact");
        for l in 0..LANES {
            acc[l] += c[l] * c[l];
        }
    }
    let tail: f64 = chunks.remainder().iter().map(|v| v * v).sum();
    combine_lanes(acc, tail)
}

/// Sparse row product `Σₖ values[k] · x[cols[k]]` — the CSR matvec
/// inner loop, unrolled into [`LANES`] independent accumulators so the
/// gather+multiply chain pipelines.
#[inline]
pub fn dot_gather(values: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    debug_assert_eq!(values.len(), cols.len());
    let mut acc = [0.0f64; LANES];
    let mut vs = values.chunks_exact(LANES);
    let mut cs = cols.chunks_exact(LANES);
    for (cv, cc) in vs.by_ref().zip(cs.by_ref()) {
        let cv: &[f64; LANES] = cv.try_into().expect("chunks_exact");
        let cc: &[u32; LANES] = cc.try_into().expect("chunks_exact");
        // Split gather from multiply-accumulate: the loads fill a
        // fixed array (no FP dependencies), then the fused lane loop
        // vectorizes cleanly.
        let mut g = [0.0f64; LANES];
        for l in 0..LANES {
            g[l] = x[cc[l] as usize];
        }
        for l in 0..LANES {
            acc[l] += cv[l] * g[l];
        }
    }
    let mut tail = 0.0;
    for (v, c) in vs.remainder().iter().zip(cs.remainder()) {
        tail += v * x[*c as usize];
    }
    combine_lanes(acc, tail)
}

/// Weighted-arc row product `Σ w · x[t]` over `(target, weight)`
/// pairs — the chain's adjacency gather. Same fold as [`dot_gather`].
#[inline]
pub fn gather_arcs(arcs: &[(u32, f64)], x: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = arcs.chunks_exact(LANES);
    for c in chunks.by_ref() {
        let c: &[(u32, f64); LANES] = c.try_into().expect("chunks_exact");
        let mut g = [0.0f64; LANES];
        for l in 0..LANES {
            g[l] = x[c[l].0 as usize];
        }
        for l in 0..LANES {
            acc[l] += c[l].1 * g[l];
        }
    }
    let mut tail = 0.0;
    for &(t, w) in chunks.remainder() {
        tail += w * x[t as usize];
    }
    combine_lanes(acc, tail)
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y`.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() - 0.4).collect();
        (x, y)
    }

    /// Left-to-right sequential fold: the reference the lane folds are
    /// checked against.
    fn seq_fold(terms: impl Iterator<Item = f64>) -> f64 {
        terms.fold(0.0, |acc, t| acc + t)
    }

    #[test]
    fn simd_reductions_match_scalar_to_rounding() {
        for n in [0, 1, 7, 8, 9, 63, 64, 1000, 4096, 4099] {
            let (x, y) = vecs(n);
            let pairs = [
                (seq_fold(x.iter().copied()), sum(&x)),
                (seq_fold(x.iter().zip(&y).map(|(a, b)| a * b)), dot(&x, &y)),
                (seq_fold(x.iter().map(|v| v * v)), norm2_sq(&x)),
            ];
            for (s, v) in pairs {
                assert!((s - v).abs() <= 1e-10 * s.abs().max(1.0), "n={n}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn gathers_match_scalar_to_rounding() {
        let n = 500;
        let (x, vals) = vecs(n);
        for rows in [0, 1, 5, 8, 33, 499] {
            let cols: Vec<u32> = (0..rows).map(|k| ((k * 37) % n) as u32).collect();
            let vs = &vals[..rows];
            let s = seq_fold(vs.iter().zip(&cols).map(|(v, &c)| v * x[c as usize]));
            let v = dot_gather(vs, &cols, &x);
            assert!((s - v).abs() <= 1e-12 * s.abs().max(1.0), "rows={rows}: {s} vs {v}");
            let arcs: Vec<(u32, f64)> = cols.iter().zip(vs).map(|(&c, &w)| (c, w)).collect();
            let va = gather_arcs(&arcs, &x);
            assert_eq!(va.to_bits(), v.to_bits(), "arcs rows={rows}: same fold as dot_gather");
        }
    }

    #[test]
    fn tail_only_inputs_are_bit_identical_across_modes() {
        // Fewer than LANES elements never enter the lane loop, so even
        // the reductions agree bitwise with the sequential fold — this
        // keeps tiny exact-value tests meaningful.
        let (x, y) = vecs(LANES - 1);
        assert_eq!(seq_fold(x.iter().copied()).to_bits(), sum(&x).to_bits());
        assert_eq!(seq_fold(x.iter().zip(&y).map(|(a, b)| a * b)).to_bits(), dot(&x, &y).to_bits());
    }

    #[test]
    fn detected_width_is_sane() {
        let w = detected_simd_width();
        assert!(w == 1 || w == 2 || w == 4 || w == 8, "width {w}");
    }
}
