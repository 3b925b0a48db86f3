//! The workloads and their inputs.
//!
//! Graphs and demand vectors come from the run's seed through the
//! benchmark's own generators, so a change to the library never changes
//! what is measured. The library receives only DIMACS text and demand
//! vectors. The residual check uses the benchmark's own Laplacian.

use parlap_core::solver::SparsifyMode;

/// Accuracy target of every solve.
pub const EPS: f64 = 1e-6;
/// Worker count of the build pool and of the service's compute pool.
pub const POOL_THREADS: usize = 2;
/// Distinct demand vectors per run; requests cycle through them, so
/// every later answer must repeat the first answer's bits.
pub const DEMANDS: usize = 8;
/// Demand vectors whose first answer is also checked in the L-norm
/// against a 1e-13 CG reference.
pub const LNORM_CHECKS: usize = 3;
/// Ceiling on `‖b − Lx‖₂ / ‖b‖₂`. The solver certifies the L-norm
/// error to `EPS`; the 2-norm residual may exceed it by up to
/// `√κ(L)`, which is below 100 on both graphs (≈58 on the 64×64 grid,
/// so the ceiling is less than 2× above the worst case there; ≈1 on the
/// dense G(n, p)).
pub const RESIDUAL_TOL: f64 = 100.0 * EPS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64×64 grid served to two closed-loop clients: solve- and
    /// service-heavy on the multigrid backend, with negligible build.
    MeshStream,
    /// Dense Erdős–Rényi, n = 500, with the sparsify stage on, one
    /// client: the only workload that runs the sparsify stage.
    DenseSparsify,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::MeshStream, Workload::DenseSparsify];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshStream => "mesh_stream",
            Workload::DenseSparsify => "dense_sparsify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads sharing the service.
    pub fn clients(self) -> usize {
        match self {
            Workload::MeshStream => 2,
            Workload::DenseSparsify => 1,
        }
    }

    pub fn sparsify(self) -> SparsifyMode {
        match self {
            Workload::DenseSparsify => SparsifyMode::On,
            Workload::MeshStream => SparsifyMode::Off,
        }
    }

    /// Set-ups per run as (discarded warm-ups, serving rounds, timed
    /// set-ups before each round). Each round's set-ups form one sample.
    /// A mesh set-up takes 10–15 ms, so its burst has 20 of them, long
    /// enough to span the host's speed flips (400 in all, about 5 s).
    pub fn setups(self) -> (usize, usize, usize) {
        match self {
            Workload::MeshStream => (5, 20, 20),
            Workload::DenseSparsify => (1, 5, 2),
        }
    }

    /// Requests per client excluded from latency and throughput.
    pub fn warmup_requests(self) -> usize {
        match self {
            Workload::MeshStream => 1,
            Workload::DenseSparsify => 2,
        }
    }

    /// The workload's graph: `(n, edges)` with unit weights.
    pub fn graph(self, seed: u64) -> (usize, Vec<(u32, u32)>) {
        let mut rng = Rng::new(seed, 0x6772_6170);
        match self {
            Workload::MeshStream => (64 * 64, grid(64, 64)),
            Workload::DenseSparsify => {
                let n = 500;
                let p = 40.0 * (n as f64).ln() / n as f64;
                (n, erdos_renyi(n, p, &mut rng))
            }
        }
    }
}

/// SplitMix64: a small, fixed generator owned by the benchmark.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn grid(rows: usize, cols: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as u32;
            if c + 1 < cols {
                edges.push((v, v + 1));
            }
            if r + 1 < rows {
                edges.push((v, v + cols as u32));
            }
        }
    }
    edges
}

/// `G(n, p)` by one coin per vertex pair, plus an edge `(v − 1, v)`
/// wherever it joins two components (at the benchmark's density the
/// graph is already connected).
fn erdos_renyi(n: usize, p: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if rng.next_f64() < p {
                edges.push((u, v));
            }
        }
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in &edges {
        let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        parent[a] = b;
    }
    for v in 1..n {
        let (a, b) = (find(&mut parent, v - 1), find(&mut parent, v));
        if a != b {
            parent[a] = b;
            edges.push((v as u32 - 1, v as u32));
        }
    }
    edges
}

/// The graph as DIMACS text (1-based endpoints, default unit weight).
pub(crate) fn dimacs_text(n: usize, edges: &[(u32, u32)]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(16 * edges.len() + 32);
    writeln!(s, "p edge {n} {}", edges.len()).expect("writing to a String");
    for &(u, v) in edges {
        writeln!(s, "e {} {}", u + 1, v + 1).expect("writing to a String");
    }
    s
}

/// Seeded demand vectors: uniform entries in `[-1, 1)`, made to sum to
/// zero so `Lx = b` is consistent.
pub(crate) fn demands(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 0x6465_6d61);
    (0..DEMANDS)
        .map(|_| {
            let mut b: Vec<f64> = (0..n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            b.iter_mut().for_each(|x| *x -= mean);
            b
        })
        .collect()
}

/// The unit-weight graph Laplacian in adjacency form, for checking
/// answers independently of the library.
pub(crate) struct Laplacian {
    offsets: Vec<usize>,
    neighbours: Vec<u32>,
}

impl Laplacian {
    pub(crate) fn new(n: usize, edges: &[(u32, u32)]) -> Laplacian {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbours = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            neighbours[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbours[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Laplacian { offsets, neighbours }
    }

    /// `‖b − Lx‖₂ / ‖b‖₂`.
    pub(crate) fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        let mut r2 = 0.0;
        let mut b2 = 0.0;
        for (i, w) in self.offsets.windows(2).enumerate() {
            let adj = &self.neighbours[w[0]..w[1]];
            let lx = adj.len() as f64 * x[i] - adj.iter().map(|&j| x[j as usize]).sum::<f64>();
            r2 += (b[i] - lx) * (b[i] - lx);
            b2 += b[i] * b[i];
        }
        (r2 / b2).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_have_the_specified_sizes() {
        let (n, e) = Workload::MeshStream.graph(1);
        assert_eq!((n, e.len()), (4096, 8064));
        let (n, e) = Workload::DenseSparsify.graph(1);
        assert_eq!(n, 500);
        assert!((55_000..69_000).contains(&e.len()), "m = {}", e.len());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(Workload::DenseSparsify.graph(7), Workload::DenseSparsify.graph(7));
        assert_ne!(Workload::DenseSparsify.graph(7), Workload::DenseSparsify.graph(8));
        assert_eq!(demands(50, 3), demands(50, 3));
        assert_ne!(demands(50, 3), demands(50, 4));
    }

    #[test]
    fn residual_of_the_exact_path_solution_is_zero() {
        // Path 0-1-2: L·(0, 1, 2)ᵀ = (−1, 0, 1)ᵀ.
        let lap = Laplacian::new(3, &[(0, 1), (1, 2)]);
        assert_eq!(lap.relative_residual(&[-1.0, 0.0, 1.0], &[0.0, 1.0, 2.0]), 0.0);
        assert!(lap.relative_residual(&[-1.0, 0.0, 1.0], &[0.0, 0.0, 0.0]) == 1.0);
    }

    #[test]
    fn dimacs_text_is_one_based() {
        assert_eq!(dimacs_text(3, &[(0, 2)]), "p edge 3 1\ne 1 3\n");
    }
}
