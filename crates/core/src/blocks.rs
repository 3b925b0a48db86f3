//! Block operators of the partitioned Laplacian.
//!
//! For a level of the block Cholesky chain with partition `F ⊔ C`, the
//! forward/backward substitutions of `ApplyCholesky` (Algorithm 2) need
//! fast application of two blocks of `L_{G(k)}`:
//!
//! * the Laplacian `Y` of the induced subgraph `G(k)[F]` (inside the
//!   Jacobi operator, Lemma 3.5) — [`LocalLap`];
//! * the off-diagonal coupling `L_CF` / `L_FC` built from the F–C
//!   crossing edges — [`CrossBlock`].
//!
//! Both are stored CSR-grouped so matvecs are per-vertex gathers:
//! `O(distinct pairs)` work, `O(log)` depth, rows in parallel. Parallel
//! edges are merged into one arc at build, so a level's apply reads
//! each `(u, v)` pair once however many multi-edges the sampler drew.
//! Once the chain is built, `CrossBlock::relabel_c` renames its C side
//! to the chain's elimination-order positions.

use parlap_graph::multigraph::Edge;
use parlap_primitives::scan::exclusive_scan;
use parlap_primitives::util::PAR_CUTOFF;
use rayon::prelude::*;

/// CSR adjacency over weighted directed arcs (each undirected vertex
/// pair stored twice, parallel edges summed), supporting Laplacian
/// and weighted-sum gathers.
#[derive(Clone, Debug)]
pub struct WeightedCsr {
    offsets: Vec<usize>,
    /// (target vertex, weight) per arc, grouped by source.
    arcs: Vec<(u32, f64)>,
}

impl WeightedCsr {
    /// Group arcs `(src, dst, w)` by `src` over `n` sources, summing
    /// repeated `(src, dst)` pairs into one arc.
    ///
    /// This is `CsrMatrix::from_triplets`' contract without its
    /// per-row sort: each row lists its distinct targets in order of
    /// first occurrence in `arcs_in`, and a merged arc's weight is the
    /// sum of its copies' weights in input order. One count pass, one
    /// scatter and one in-place merge pass: `O(arcs + n + max dst)`.
    pub fn from_arcs(n: usize, arcs_in: &[(u32, u32, f64)]) -> Self {
        let mut counts = vec![0usize; n];
        let mut n_dst = 0usize;
        for &(s, d, _) in arcs_in {
            counts[s as usize] += 1;
            n_dst = n_dst.max(d as usize + 1);
        }
        let mut offsets = exclusive_scan(&counts);
        let mut cursor = offsets.clone();
        let mut arcs = vec![(0u32, 0.0f64); arcs_in.len()];
        for &(s, d, w) in arcs_in {
            arcs[cursor[s as usize]] = (d, w);
            cursor[s as usize] += 1;
        }
        // Compact each row in place. `slot[d]` is the output index of
        // the latest arc to `d`; it is the current row's only if it lies
        // at or past the row's start.
        let mut slot = vec![usize::MAX; n_dst];
        let mut len = 0usize;
        for s in 0..n {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            let row = len;
            offsets[s] = row;
            for i in lo..hi {
                let (d, w) = arcs[i];
                let p = slot[d as usize];
                if (row..len).contains(&p) {
                    arcs[p].1 += w;
                } else {
                    slot[d as usize] = len;
                    arcs[len] = (d, w);
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        arcs.truncate(len);
        arcs.shrink_to_fit();
        WeightedCsr { offsets, arcs }
    }

    /// Number of source vertices.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Arcs out of `s`.
    #[inline]
    pub fn arcs_at(&self, s: usize) -> &[(u32, f64)] {
        &self.arcs[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Total stored arcs: distinct `(src, dst)` pairs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Row `s`'s weighted sum `Σ_{(s→t,w)} w · x[t]`.
    #[inline]
    fn row_sum(&self, s: usize, x: &[f64]) -> f64 {
        parlap_primitives::kernels::gather_arcs(self.arcs_at(s), x)
    }

    /// `out[s] = Σ_{(s→t,w)} w · x[t]` (pure weighted gather). Each
    /// row sum is the 8-lane fold of
    /// [`kernels::gather_arcs`](parlap_primitives::kernels::gather_arcs),
    /// a pure function of its row.
    pub fn gather(&self, x: &[f64], out: &mut [f64]) {
        for_each_row(out, |s, o| *o = self.row_sum(s, x));
    }

    /// `out[s] += Σ_{(s→t,w)} w · x[t]`: the same row sums as
    /// [`gather`](Self::gather), each added to its output entry.
    fn gather_add(&self, x: &[f64], out: &mut [f64]) {
        for_each_row(out, |s, o| *o += self.row_sum(s, x));
    }

    /// Move row `s` to row `new_of[s]` (a permutation of the sources),
    /// each row keeping its arcs in order.
    fn permute_rows(&mut self, new_of: &[u32]) {
        let n = self.num_sources();
        debug_assert_eq!(new_of.len(), n);
        let mut lens = vec![0usize; n];
        for s in 0..n {
            lens[new_of[s] as usize] = self.offsets[s + 1] - self.offsets[s];
        }
        let offsets = exclusive_scan(&lens);
        let mut arcs = vec![(0u32, 0.0f64); self.arcs.len()];
        for s in 0..n {
            let r = new_of[s] as usize;
            arcs[offsets[r]..offsets[r + 1]].copy_from_slice(self.arcs_at(s));
        }
        *self = WeightedCsr { offsets, arcs };
    }

    /// Rename every arc's target `t` to `new_of[t]`.
    fn rename_targets(&mut self, new_of: &[u32]) {
        for arc in &mut self.arcs {
            arc.0 = new_of[arc.0 as usize];
        }
    }
}

/// Run `kernel(i, &mut out[i])` over every entry: sequentially below
/// [`PAR_CUTOFF`], row-parallel above. Each entry is written by one
/// call, so for a kernel that is a pure function of its row the result
/// does not depend on the pool size.
pub(crate) fn for_each_row(out: &mut [f64], kernel: impl Fn(usize, &mut f64) + Sync + Send) {
    if out.len() < PAR_CUTOFF {
        out.iter_mut().enumerate().for_each(|(i, o)| kernel(i, o));
    } else {
        out.par_iter_mut().enumerate().for_each(|(i, o)| kernel(i, o));
    }
}

/// Laplacian of an induced subgraph, vertices in local indices.
#[derive(Clone, Debug)]
pub struct LocalLap {
    csr: WeightedCsr,
    /// Weighted degree within the subgraph (the Laplacian diagonal).
    diag: Vec<f64>,
}

impl LocalLap {
    /// Build from local-index edges on `n` vertices. Parallel edges
    /// become one arc pair (see [`WeightedCsr::from_arcs`]); the
    /// diagonal still sums every edge in input order.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut arcs = Vec::with_capacity(2 * edges.len());
        let mut diag = vec![0.0f64; n];
        for e in edges {
            arcs.push((e.u, e.v, e.w));
            arcs.push((e.v, e.u, e.w));
            diag[e.u as usize] += e.w;
            diag[e.v as usize] += e.w;
        }
        LocalLap { csr: WeightedCsr::from_arcs(n, &arcs), diag }
    }

    /// Dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Number of distinct (undirected) vertex pairs joined by an edge;
    /// parallel edges count once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr.num_arcs() / 2
    }

    /// Laplacian diagonal (within-subgraph weighted degrees).
    #[inline]
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// The underlying adjacency CSR (its merged arcs, for inspection
    /// and fingerprinting).
    #[inline]
    pub fn adjacency(&self) -> &WeightedCsr {
        &self.csr
    }

    /// `(Y·x)[i] = D_ii x_i − (A x)_i`, one row of the Laplacian.
    #[inline]
    pub(crate) fn row(&self, i: usize, x: &[f64]) -> f64 {
        self.diag[i] * x[i] - self.csr.row_sum(i, x)
    }

    /// `y = Y·x` where `Y = D - A` of the induced subgraph.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        for_each_row(y, |i, yi| *yi = self.row(i, x));
    }
}

/// The F–C coupling block, stored in both orientations.
///
/// For crossing edges `(c, f, w)` (both in local indices), `L_CF y`
/// is minus what [`add_into_c`](Self::add_into_c) adds, and
/// `L_FC x = −into_f(x)`.
#[derive(Clone, Debug)]
pub struct CrossBlock {
    by_c: WeightedCsr,
    by_f: WeightedCsr,
}

impl CrossBlock {
    /// Build from crossing records `(c_local, f_local, w)`. Repeated
    /// `(c, f)` pairs are summed into one arc in each orientation.
    pub fn from_crossings(nc: usize, nf: usize, crossings: &[(u32, u32, f64)]) -> Self {
        let by_c = WeightedCsr::from_arcs(nc, crossings);
        let flipped: Vec<(u32, u32, f64)> = crossings.iter().map(|&(c, f, w)| (f, c, w)).collect();
        let by_f = WeightedCsr::from_arcs(nf, &flipped);
        CrossBlock { by_c, by_f }
    }

    /// Number of distinct `(c, f)` pairs joined by a crossing edge.
    pub fn num_crossings(&self) -> usize {
        self.by_c.num_arcs()
    }

    /// The C-grouped orientation (its merged arcs, for inspection and
    /// fingerprinting).
    #[inline]
    pub fn grouped_by_c(&self) -> &WeightedCsr {
        &self.by_c
    }

    /// The F-grouped orientation (its merged arcs, for inspection and
    /// fingerprinting).
    #[inline]
    pub fn grouped_by_f(&self) -> &WeightedCsr {
        &self.by_f
    }

    /// `out[c] += Σ_{(c,f,w)} w · y[f]` — adds the weighted sum of
    /// F-values seen from each C vertex (that is, subtracts
    /// `(L_CF y)[c]`).
    pub fn add_into_c(&self, y_f: &[f64], out: &mut [f64]) {
        self.by_c.gather_add(y_f, out);
    }

    /// `out[f] = Σ_{(c,f,w)} w · x[c]` (equals `−(L_FC x)[f]`).
    pub fn into_f(&self, x_c: &[f64], out: &mut [f64]) {
        self.by_f.gather(x_c, out);
    }

    /// Rename C-local id `c` to `new_of[c]` on both sides: the
    /// C-grouped rows move (row `new_of[c]` holds `c`'s arcs) and the
    /// F-grouped arcs' targets are renamed. No arc is added, dropped or
    /// reordered within its row, and no weight changes.
    pub(crate) fn relabel_c(&mut self, new_of: &[u32]) {
        self.by_c.permute_rows(new_of);
        self.by_f.rename_targets(new_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_csr_gather() {
        // arcs: 0→2 (w 3), 0→1 (w 2), 2→0 (w 1), 0→1 again (w 4)
        let csr = WeightedCsr::from_arcs(3, &[(0, 2, 3.0), (0, 1, 2.0), (2, 0, 1.0), (0, 1, 4.0)]);
        let mut out = vec![0.0; 3];
        csr.gather(&[10.0, 20.0, 30.0], &mut out);
        assert_eq!(out, vec![3.0 * 30.0 + (2.0 + 4.0) * 20.0, 0.0, 10.0]);
        assert_eq!(csr.num_sources(), 3);
        assert_eq!(csr.num_arcs(), 3);
        // The repeat merges into the first 0→1 arc, and row 0 keeps
        // first-occurrence order rather than sorting its targets.
        assert_eq!(csr.arcs_at(0), &[(2, 3.0), (1, 6.0)]);
    }

    #[test]
    fn local_lap_matches_dense() {
        // Triangle with weights 1, 2, 3.
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(0, 2, 3.0)];
        let lap = LocalLap::from_edges(3, &edges);
        assert_eq!(lap.diag(), &[4.0, 3.0, 5.0]);
        let x = [1.0, -1.0, 0.5];
        let mut y = vec![0.0; 3];
        lap.apply(&x, &mut y);
        // Row 0: 4*1 - 1*(-1) - 3*0.5 = 3.5
        assert!((y[0] - 3.5).abs() < 1e-12);
        // Row 1: 3*(-1) - 1*1 - 2*0.5 = -5
        assert!((y[1] + 5.0).abs() < 1e-12);
        // Row 2: 5*0.5 - 2*(-1) - 3*1 = 1.5
        assert!((y[2] - 1.5).abs() < 1e-12);
        // Kernel.
        lap.apply(&[2.0, 2.0, 2.0], &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn local_lap_multi_edges_accumulate() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.5)];
        let lap = LocalLap::from_edges(2, &edges);
        assert_eq!(lap.diag(), &[3.5, 3.5]);
        let mut y = vec![0.0; 2];
        lap.apply(&[1.0, 0.0], &mut y);
        assert_eq!(y, vec![3.5, -3.5]);
        assert_eq!(lap.num_edges(), 1);
    }

    #[test]
    fn cross_block_both_directions() {
        // C = {0, 1}, F = {0, 1}; (c0, f0) appears three times.
        let raw = [(0, 0, 2.0), (1, 0, 5.0), (0, 0, 4.0), (1, 1, 3.0), (0, 0, 0.5)];
        let cb = CrossBlock::from_crossings(2, 2, &raw);
        assert_eq!(cb.num_crossings(), 3);
        let (y_f, x_c) = ([3.0, -1.0], [1.0, 2.0]);
        let (mut want_c, mut want_f) = (vec![0.0; 2], vec![0.0; 2]);
        for &(c, f, w) in &raw {
            want_c[c as usize] += w * y_f[f as usize];
            want_f[f as usize] += w * x_c[c as usize];
        }
        let mut out_c = vec![0.0; 2];
        cb.add_into_c(&y_f, &mut out_c);
        assert_eq!(out_c, want_c);
        let mut out_f = vec![0.0; 2];
        cb.into_f(&x_c, &mut out_f);
        assert_eq!(out_f, want_f);
    }

    #[test]
    fn cross_block_relabel_moves_rows_and_renames_targets() {
        // C = {0, 1, 2}, F = {0, 1}; relabel C as 0 → 2, 1 → 0, 2 → 1.
        let raw = [(0, 1, 2.0), (2, 0, 5.0), (0, 0, 4.0), (1, 1, 3.0)];
        let mut cb = CrossBlock::from_crossings(3, 2, &raw);
        let before = cb.clone();
        let new_of = [2u32, 0, 1];
        cb.relabel_c(&new_of);
        for c in 0..3 {
            assert_eq!(
                cb.grouped_by_c().arcs_at(new_of[c] as usize),
                before.grouped_by_c().arcs_at(c)
            );
        }
        for f in 0..2 {
            let renamed: Vec<(u32, f64)> = before
                .grouped_by_f()
                .arcs_at(f)
                .iter()
                .map(|&(c, w)| (new_of[c as usize], w))
                .collect();
            assert_eq!(cb.grouped_by_f().arcs_at(f), renamed.as_slice());
        }
        // The operator is the same one read through the renaming.
        let (y_f, x_c) = ([3.0, -1.0], [1.0, 2.0, -4.0]);
        let mut x_new = [0.0; 3];
        for c in 0..3 {
            x_new[new_of[c] as usize] = x_c[c];
        }
        let (mut f_old, mut f_new) = (vec![0.0; 2], vec![0.0; 2]);
        before.into_f(&x_c, &mut f_old);
        cb.into_f(&x_new, &mut f_new);
        assert_eq!(f_old, f_new);
        let (mut c_old, mut c_new) = (vec![0.5; 3], vec![0.5; 3]);
        before.add_into_c(&y_f, &mut c_old);
        cb.add_into_c(&y_f, &mut c_new);
        for c in 0..3 {
            assert_eq!(c_new[new_of[c] as usize], c_old[c]);
        }
    }

    #[test]
    fn empty_blocks() {
        let cb = CrossBlock::from_crossings(2, 2, &[]);
        let mut out = vec![1.0; 2];
        cb.add_into_c(&[0.0, 0.0], &mut out);
        assert_eq!(out, vec![1.0, 1.0], "an empty row adds nothing");
        let lap = LocalLap::from_edges(3, &[]);
        let mut y = vec![9.0; 3];
        lap.apply(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }
}
