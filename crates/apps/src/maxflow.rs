//! Maximum flow: exact Dinic and approximate electrical flows.
//!
//! The paper motivates Laplacian solvers through interior-point and
//! multiplicative-weights methods for max-flow ([CKMST11; Mad13;
//! LS14]). This module implements, for *undirected* capacitated
//! graphs (the \[CKMST11\] setting, capacities = the multigraph's edge
//! weights):
//!
//! * [`dinic_max_flow`] — the exact combinatorial reference (Dinic's
//!   blocking-flow algorithm) with a min-cut certificate;
//! * [`ElectricalMaxFlow`] — the Christiano–Kelner–Mądry–Spielman–Teng
//!   multiplicative-weights scheme: each iteration routes the target
//!   flow *electrically* with resistances `r_e = (w_e + εW/3m)/c_e²`,
//!   penalizing congested edges. The energy test `E > (1+ε/3)W`
//!   certifies infeasibility of the target value; otherwise the
//!   running average flow, rescaled by its congestion, converges to a
//!   feasible flow of value `≥ (1−ε)·F*`;
//! * a potential-sweep cut — the dual certificate: a sweep over the
//!   electrical potentials yields a cut whose capacity upper-bounds
//!   the max flow (reported inside [`FlowDecision::Infeasible`]).

use parlap_core::error::SolverError;
use parlap_core::solver::{LaplacianSolver, SolverOptions};
use parlap_graph::multigraph::{Edge, MultiGraph};
use parlap_linalg::cg::cg_solve;
use parlap_linalg::vector::pair_demand;

/// Residual threshold for the exact solver: arcs with less residual
/// capacity than `EPS`×(max capacity) are saturated.
const EPS_REL: f64 = 1e-11;

/// Result of an exact max-flow computation.
#[derive(Clone, Debug)]
pub struct MaxFlowResult {
    /// The maximum flow value.
    pub value: f64,
    /// Per-multigraph-edge signed flow (oriented from each edge's
    /// stored `u` to `v`).
    pub edge_flows: Vec<f64>,
    /// Source-side vertex set of a minimum cut (`true` = reachable
    /// from `s` in the final residual network).
    pub min_cut: Vec<bool>,
    /// Capacity of that cut — equals `value` by strong duality.
    pub cut_capacity: f64,
}

/// Exact maximum `s`–`t` flow on an undirected capacitated multigraph
/// (Dinic's algorithm; capacities are the edge weights).
///
/// # Panics
/// Panics if `s == t` or either terminal is out of range.
pub fn dinic_max_flow(g: &MultiGraph, s: usize, t: usize) -> MaxFlowResult {
    let n = g.num_vertices();
    assert!(s < n && t < n && s != t, "invalid terminals ({s}, {t}) for n={n}");
    let m = g.num_edges();
    // Arc storage: arc 2i is u→v of edge i, arc 2i+1 is v→u; each
    // starts with the full undirected capacity and acts as the
    // other's residual partner.
    let mut cap: Vec<f64> = Vec::with_capacity(2 * m);
    let mut to: Vec<u32> = Vec::with_capacity(2 * m);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut max_cap = 0.0f64;
    for (i, e) in g.edges().iter().enumerate() {
        cap.push(e.w);
        to.push(e.v);
        cap.push(e.w);
        to.push(e.u);
        adj[e.u as usize].push(2 * i as u32);
        adj[e.v as usize].push(2 * i as u32 + 1);
        max_cap = max_cap.max(e.w);
    }
    let eps = EPS_REL * max_cap.max(1.0);
    let mut level = vec![-1i32; n];
    let mut iter_ptr = vec![0usize; n];
    let mut queue = Vec::with_capacity(n);
    let mut value = 0.0f64;

    loop {
        // BFS levels on the residual graph.
        level.iter_mut().for_each(|l| *l = -1);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &a in &adj[u] {
                let v = to[a as usize] as usize;
                if cap[a as usize] > eps && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push(v as u32);
                }
            }
        }
        if level[t] < 0 {
            break;
        }
        iter_ptr.iter_mut().for_each(|p| *p = 0);
        // Iterative DFS blocking flow.
        loop {
            let pushed =
                dfs_push(s, t, f64::INFINITY, &adj, &to, &mut cap, &level, &mut iter_ptr, eps);
            if pushed <= eps {
                break;
            }
            value += pushed;
        }
    }

    // Min cut: residual-reachable set from s.
    let mut reach = vec![false; n];
    reach[s] = true;
    queue.clear();
    queue.push(s as u32);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &a in &adj[u] {
            let v = to[a as usize] as usize;
            if cap[a as usize] > eps && !reach[v] {
                reach[v] = true;
                queue.push(v as u32);
            }
        }
    }
    let mut cut_capacity = 0.0;
    let mut edge_flows = Vec::with_capacity(m);
    for (i, e) in g.edges().iter().enumerate() {
        if reach[e.u as usize] != reach[e.v as usize] {
            cut_capacity += e.w;
        }
        // Net signed flow u→v: original capacity minus final residual.
        edge_flows.push(e.w - cap[2 * i]);
    }
    MaxFlowResult { value, edge_flows, min_cut: reach, cut_capacity }
}

/// One DFS augmentation along the level graph (recursive with
/// current-arc memoization).
#[allow(clippy::too_many_arguments)]
fn dfs_push(
    u: usize,
    t: usize,
    limit: f64,
    adj: &[Vec<u32>],
    to: &[u32],
    cap: &mut [f64],
    level: &[i32],
    iter_ptr: &mut [usize],
    eps: f64,
) -> f64 {
    if u == t {
        return limit;
    }
    while iter_ptr[u] < adj[u].len() {
        let a = adj[u][iter_ptr[u]] as usize;
        let v = to[a] as usize;
        if cap[a] > eps && level[v] == level[u] + 1 {
            let d = dfs_push(v, t, limit.min(cap[a]), adj, to, cap, level, iter_ptr, eps);
            if d > eps {
                cap[a] -= d;
                cap[a ^ 1] += d;
                return d;
            }
        }
        iter_ptr[u] += 1;
    }
    0.0
}

/// Inner linear solver for the electrical subproblems of the MWU
/// scheme.
#[derive(Clone, Debug)]
pub enum InnerSolver {
    /// Plain conjugate gradient on the reweighted Laplacian (fast for
    /// the small/medium systems of an MWU loop; no build phase).
    Cg {
        /// Relative residual tolerance per electrical solve.
        tol: f64,
    },
    /// The paper's parallel solver, rebuilt each iteration on the
    /// reweighted graph (exercises the full pipeline; pays the build
    /// cost every step).
    Parlap {
        /// Build/solve options for the inner solver.
        options: SolverOptions,
        /// Accuracy per electrical solve.
        eps: f64,
    },
}

/// Options for [`ElectricalMaxFlow`].
#[derive(Clone, Debug)]
pub struct MaxFlowOptions {
    /// Approximation parameter `ε ∈ (0, 1/2)`: the returned flow has
    /// value `≥ (1−ε)·F` when the target `F` is feasible.
    pub eps: f64,
    /// Iteration cap for the MWU loop (safety valve; the theory wants
    /// `Õ(√(m)/ε^{2.5})`, far beyond what the tests need).
    pub max_iters: usize,
    /// Inner electrical solver.
    pub inner: InnerSolver,
}

impl Default for MaxFlowOptions {
    fn default() -> Self {
        MaxFlowOptions { eps: 0.1, max_iters: 600, inner: InnerSolver::Cg { tol: 1e-10 } }
    }
}

/// Outcome of the MWU decision procedure at a target value `F`.
#[derive(Clone, Debug)]
pub enum FlowDecision {
    /// A feasible flow of value `≥ (1−ε)F` was constructed.
    Feasible(ApproxFlow),
    /// The energy test certified that no flow of value `F` exists
    /// (the final electrical potentials embed a sparse cut).
    Infeasible {
        /// Energy of the certifying electrical flow.
        energy: f64,
        /// The MWU weight total at certification time.
        weight_total: f64,
        /// Capacity of the best potential-sweep cut (an upper bound on
        /// the max flow, `< F`).
        cut_capacity: f64,
    },
}

/// An approximately optimal feasible flow.
#[derive(Clone, Debug)]
pub struct ApproxFlow {
    /// Flow value after rescaling to feasibility.
    pub value: f64,
    /// Per-edge signed flows (oriented `u → v` per the edge list),
    /// congestion ≤ 1.
    pub flows: Vec<f64>,
    /// MWU iterations used.
    pub iterations: usize,
    /// Maximum congestion of the *unscaled* average flow (≤ 1/(1−ε)
    /// at termination).
    pub raw_congestion: f64,
}

/// The multiplicative-weights electrical max-flow scheme of
/// \[CKMST11\].
#[derive(Clone, Debug)]
pub struct ElectricalMaxFlow {
    graph: MultiGraph,
    s: usize,
    t: usize,
    opts: MaxFlowOptions,
}

impl ElectricalMaxFlow {
    /// Set up for a graph (weights = capacities) and terminal pair.
    pub fn new(
        g: &MultiGraph,
        s: usize,
        t: usize,
        opts: MaxFlowOptions,
    ) -> Result<Self, SolverError> {
        let n = g.num_vertices();
        if s >= n || t >= n || s == t {
            return Err(SolverError::InvalidOption(format!(
                "invalid terminals ({s}, {t}) for n={n}"
            )));
        }
        if !(0.0..0.5).contains(&opts.eps) || opts.eps == 0.0 {
            return Err(SolverError::InvalidOption(format!(
                "eps must be in (0, 1/2), got {}",
                opts.eps
            )));
        }
        Ok(ElectricalMaxFlow { graph: g.clone(), s, t, opts })
    }

    /// Solve one electrical subproblem on conductances `g_e = 1/r_e`.
    fn electrical(&self, conductance: &[f64], value: f64) -> Result<Vec<f64>, SolverError> {
        let n = self.graph.num_vertices();
        let edges = self.graph.edges();
        let reweighted: Vec<Edge> =
            edges.iter().zip(conductance).map(|(e, &c)| Edge::new(e.u, e.v, c)).collect();
        let h = MultiGraph::from_edges(n, reweighted);
        let mut b = pair_demand(n, self.s, self.t);
        for v in b.iter_mut() {
            *v *= value;
        }
        let phi = match &self.opts.inner {
            InnerSolver::Cg { tol } => {
                let csr = parlap_graph::laplacian::to_csr(&h);
                let out = cg_solve(&csr, &b, *tol, 40 * n + 2000);
                if !out.converged {
                    return Err(SolverError::Diverged {
                        at_iteration: out.iterations,
                        growth: out.relative_residual,
                    });
                }
                out.solution
            }
            InnerSolver::Parlap { options, eps } => {
                let solver = LaplacianSolver::build(&h, options.clone())?;
                solver.solve(&b, *eps)?.solution
            }
        };
        Ok(edges
            .iter()
            .zip(conductance)
            .map(|(e, &c)| c * (phi[e.u as usize] - phi[e.v as usize]))
            .collect())
    }

    /// Decide whether a flow of value `target` exists, constructing
    /// either an approximately feasible flow or an infeasibility
    /// certificate.
    pub fn decide(&self, target: f64) -> Result<FlowDecision, SolverError> {
        let m = self.graph.num_edges();
        let caps: Vec<f64> = self.graph.edges().iter().map(|e| e.w).collect();
        let eps = self.opts.eps;
        let mut weights = vec![1.0f64; m];
        let mut avg_flow = vec![0.0f64; m];
        let mut iters = 0usize;
        while iters < self.opts.max_iters {
            iters += 1;
            let wtot: f64 = weights.iter().sum();
            // Resistances r_e = (w_e + εW/3m)/c_e².
            let floor = eps * wtot / (3.0 * m as f64);
            let conductance: Vec<f64> =
                weights.iter().zip(&caps).map(|(w, c)| c * c / (w + floor)).collect();
            let flows = self.electrical(&conductance, target)?;
            let energy: f64 = flows.iter().zip(&conductance).map(|(f, g)| f * f / g).sum();
            if energy > (1.0 + eps / 3.0) * (1.0 + eps / 3.0) * wtot {
                // Infeasibility certificate (with a sweep cut from the
                // final potentials for the caller to inspect).
                let cut = self.sweep_cut_capacity(&flows, &conductance);
                return Ok(FlowDecision::Infeasible {
                    energy,
                    weight_total: wtot,
                    cut_capacity: cut,
                });
            }
            // Congestion and weight update.
            let mut rho = 0.0f64;
            let congestion: Vec<f64> =
                flows.iter().zip(&caps).map(|(f, c)| (f / c).abs()).collect();
            for &c in &congestion {
                rho = rho.max(c);
            }
            let rho = rho.max(1.0);
            for (w, &c) in weights.iter_mut().zip(&congestion) {
                *w *= 1.0 + eps * c / rho;
            }
            for (a, &f) in avg_flow.iter_mut().zip(&flows) {
                *a += f;
            }
            // Check the running average: once its congestion is below
            // 1/(1−ε) the rescaled flow is good enough.
            let scale = 1.0 / iters as f64;
            let max_cong =
                avg_flow.iter().zip(&caps).map(|(f, c)| (f * scale / c).abs()).fold(0.0, f64::max);
            if max_cong <= 1.0 / (1.0 - eps) && iters >= 3 {
                // The average routes `target` with congestion
                // `max_cong`; dividing by max(cong, 1) makes it
                // feasible without overclaiming value.
                let denom = max_cong.max(1.0);
                let rescale = scale / denom;
                let flows: Vec<f64> = avg_flow.iter().map(|f| f * rescale).collect();
                return Ok(FlowDecision::Feasible(ApproxFlow {
                    value: target / denom,
                    flows,
                    iterations: iters,
                    raw_congestion: max_cong,
                }));
            }
        }
        // Iteration budget exhausted: return the best rescaled average.
        let scale = 1.0 / iters.max(1) as f64;
        let max_cong = avg_flow
            .iter()
            .zip(&caps)
            .map(|(f, c)| (f * scale / c).abs())
            .fold(0.0, f64::max)
            .max(1e-300);
        let denom = max_cong.max(1.0);
        let rescale = scale / denom;
        let flows: Vec<f64> = avg_flow.iter().map(|f| f * rescale).collect();
        Ok(FlowDecision::Feasible(ApproxFlow {
            value: target / denom,
            flows,
            iterations: iters,
            raw_congestion: max_cong,
        }))
    }

    /// Best potential-sweep cut capacity for a set of edge flows (uses
    /// the implied potentials via conductances).
    fn sweep_cut_capacity(&self, flows: &[f64], conductance: &[f64]) -> f64 {
        // Recover potential differences; integrate by BFS from s over
        // the spanning structure — simpler: recompute potentials from
        // scratch is overkill, so sweep on the vertex potential order
        // derived from solving once more is avoided. Instead use the
        // cut induced by s's residual-style reachability on
        // uncongested edges.
        let caps: Vec<f64> = self.graph.edges().iter().map(|e| e.w).collect();
        potential_sweep_cut_from_flows(&self.graph, self.s, self.t, flows, conductance, &caps)
    }

    /// Maximize the flow value by bisection on `decide`, between 0 and
    /// the trivial degree bound. Returns the best feasible flow found.
    pub fn maximize(&self) -> Result<ApproxFlow, SolverError> {
        let deg = self.graph.weighted_degrees();
        let mut lo = 0.0f64;
        let mut hi = deg[self.s].min(deg[self.t]);
        let mut best: Option<ApproxFlow> = None;
        // log₂((hi−lo)/(ε·hi)) bisection rounds reach relative ε.
        let rounds = ((1.0 / self.opts.eps).log2().ceil() as usize + 3).max(6);
        for _ in 0..rounds {
            let mid = 0.5 * (lo + hi);
            if mid <= 0.0 {
                break;
            }
            match self.decide(mid)? {
                FlowDecision::Feasible(f) => {
                    // Keep the *achieved* value, which may exceed mid·(1−ε).
                    lo = f.value.max(lo);
                    if best.as_ref().is_none_or(|b| f.value > b.value) {
                        best = Some(f);
                    }
                }
                FlowDecision::Infeasible { .. } => {
                    hi = mid;
                }
            }
            if hi - lo <= self.opts.eps * hi {
                break;
            }
        }
        best.ok_or_else(|| {
            SolverError::InvalidOption("bisection found no feasible flow above zero".into())
        })
    }
}

/// Sweep-cut certificate: order vertices by electrical potential
/// (recovered from the flows on a BFS tree), then take the best
/// prefix cut containing `s`. Returns its capacity — an upper bound
/// on the max-flow value.
fn potential_sweep_cut_from_flows(
    g: &MultiGraph,
    s: usize,
    t: usize,
    flows: &[f64],
    conductance: &[f64],
    caps: &[f64],
) -> f64 {
    let n = g.num_vertices();
    // Recover potentials by integrating φ_u − φ_v = f_e/g_e along a
    // BFS tree from s.
    let inc = g.incidence();
    let edges = g.edges();
    let mut phi = vec![f64::NAN; n];
    phi[s] = 0.0;
    let mut queue = vec![s as u32];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &ei in inc.edges_at(u) {
            let e = &edges[ei as usize];
            let v = e.other(u as u32) as usize;
            if phi[v].is_nan() {
                let drop = flows[ei as usize] / conductance[ei as usize];
                // Flow is oriented from stored u to v: φ_u − φ_v = drop.
                phi[v] = if e.u as usize == u { phi[u] - drop } else { phi[u] + drop };
                queue.push(v as u32);
            }
        }
    }
    // Sweep: vertices sorted by potential, descending from s's side.
    let mut order: Vec<u32> = (0..n as u32).collect();
    parlap_primitives::util::sort_desc_by_score(&mut order, |&v| phi[v as usize]);
    let mut side = vec![false; n];
    let mut best = f64::INFINITY;
    let mut crossing = 0.0f64;
    for (k, &v) in order.iter().enumerate() {
        side[v as usize] = true;
        for &ei in inc.edges_at(v as usize) {
            let e = &edges[ei as usize];
            let o = e.other(v) as usize;
            if side[o] {
                crossing -= caps[ei as usize];
            } else {
                crossing += caps[ei as usize];
            }
        }
        if k + 1 < n && side[s] && !side[t] && crossing < best {
            best = crossing;
        }
    }
    if best.is_finite() {
        best
    } else {
        // Degenerate sweep (e.g. s last in the order): fall back to
        // the trivial degree cut at s.
        g.weighted_degrees()[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlap_graph::generators;

    #[test]
    fn dinic_on_single_path() {
        // Bottleneck in the middle: value = 0.5.
        let g = MultiGraph::from_edges(
            4,
            vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 0.5), Edge::new(2, 3, 3.0)],
        );
        let out = dinic_max_flow(&g, 0, 3);
        assert!((out.value - 0.5).abs() < 1e-9);
        assert!((out.cut_capacity - out.value).abs() < 1e-9, "strong duality");
    }

    #[test]
    fn dinic_parallel_edges_sum() {
        let g = MultiGraph::from_edges(
            2,
            vec![Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.5), Edge::new(0, 1, 0.5)],
        );
        let out = dinic_max_flow(&g, 0, 1);
        assert!((out.value - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dinic_diamond() {
        // Two disjoint unit paths: value 2.
        let g = MultiGraph::from_edges(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 3, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(2, 3, 1.0),
            ],
        );
        let out = dinic_max_flow(&g, 0, 3);
        assert!((out.value - 2.0).abs() < 1e-9);
        assert!((out.cut_capacity - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dinic_flow_conservation() {
        let g = generators::grid2d(5, 5);
        let out = dinic_max_flow(&g, 0, 24);
        let mut div = [0.0f64; 25];
        for (e, f) in g.edges().iter().zip(&out.edge_flows) {
            div[e.u as usize] += f;
            div[e.v as usize] -= f;
        }
        assert!((div[0] - out.value).abs() < 1e-9);
        assert!((div[24] + out.value).abs() < 1e-9);
        for v in 1..24 {
            assert!(div[v].abs() < 1e-9, "conservation at {v}");
        }
    }

    #[test]
    fn dinic_respects_capacities() {
        let g = generators::gnp_connected(30, 0.15, 7);
        let out = dinic_max_flow(&g, 0, 29);
        for (e, f) in g.edges().iter().zip(&out.edge_flows) {
            assert!(f.abs() <= e.w + 1e-9, "edge over capacity");
        }
    }

    #[test]
    fn dinic_grid_cut_matches_value() {
        // Corner-to-corner on a grid: min cut is the 2 edges at a
        // corner.
        let g = generators::grid2d(4, 4);
        let out = dinic_max_flow(&g, 0, 15);
        assert!((out.value - 2.0).abs() < 1e-9);
        let cut_size = out.min_cut.iter().filter(|&&b| b).count();
        assert!(cut_size == 1 || cut_size == 15, "corner cut: got {cut_size}");
    }

    #[test]
    fn mwu_feasible_at_half_optimum() {
        let g = generators::grid2d(5, 5);
        let exact = dinic_max_flow(&g, 0, 24).value;
        let mf = ElectricalMaxFlow::new(&g, 0, 24, MaxFlowOptions::default()).unwrap();
        match mf.decide(0.5 * exact).unwrap() {
            FlowDecision::Feasible(f) => {
                assert!(f.value >= 0.45 * exact, "value {} vs exact {exact}", f.value);
                // The returned flow must be feasible.
                for (e, fl) in g.edges().iter().zip(&f.flows) {
                    assert!(fl.abs() <= e.w * (1.0 + 1e-9));
                }
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn mwu_rejects_impossible_target() {
        let g = generators::grid2d(5, 5);
        let exact = dinic_max_flow(&g, 0, 24).value;
        let mf = ElectricalMaxFlow::new(&g, 0, 24, MaxFlowOptions::default()).unwrap();
        match mf.decide(3.0 * exact).unwrap() {
            FlowDecision::Infeasible { cut_capacity, .. } => {
                assert!(
                    cut_capacity < 3.0 * exact,
                    "sweep cut {cut_capacity} must certify infeasibility"
                );
            }
            FlowDecision::Feasible(f) => {
                panic!("3×optimum cannot be feasible (claimed {})", f.value)
            }
        }
    }

    #[test]
    fn mwu_maximize_close_to_dinic() {
        let g = generators::grid2d(4, 6);
        let exact = dinic_max_flow(&g, 0, 23).value;
        let opts = MaxFlowOptions { eps: 0.1, ..MaxFlowOptions::default() };
        let mf = ElectricalMaxFlow::new(&g, 0, 23, opts).unwrap();
        let approx = mf.maximize().unwrap();
        assert!(approx.value >= 0.75 * exact, "approx {} vs exact {exact}", approx.value);
        assert!(approx.value <= exact * 1.001, "cannot exceed the true max flow");
    }

    #[test]
    fn mwu_flow_conservation() {
        let g = generators::grid2d(4, 4);
        let mf = ElectricalMaxFlow::new(&g, 0, 15, MaxFlowOptions::default()).unwrap();
        if let FlowDecision::Feasible(f) = mf.decide(1.0).unwrap() {
            let mut div = [0.0f64; 16];
            for (e, fl) in g.edges().iter().zip(&f.flows) {
                div[e.u as usize] += fl;
                div[e.v as usize] -= fl;
            }
            for v in 1..15 {
                assert!(div[v].abs() < 1e-6, "leak at {v}: {}", div[v]);
            }
            assert!((div[0] - f.value).abs() < 1e-6);
        } else {
            panic!("unit flow is feasible on the 4x4 grid");
        }
    }

    #[test]
    fn mwu_with_parlap_inner_solver() {
        // Full-pipeline integration: the MWU loop driven by the
        // paper's solver instead of CG.
        let g = generators::grid2d(4, 4);
        let exact = dinic_max_flow(&g, 0, 15).value;
        let opts = MaxFlowOptions {
            eps: 0.15,
            max_iters: 200,
            inner: InnerSolver::Parlap {
                options: SolverOptions { seed: 3, ..SolverOptions::default() },
                eps: 1e-8,
            },
        };
        let mf = ElectricalMaxFlow::new(&g, 0, 15, opts).unwrap();
        match mf.decide(0.5 * exact).unwrap() {
            FlowDecision::Feasible(f) => assert!(f.value >= 0.4 * exact),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_setup() {
        let g = generators::path(4);
        assert!(ElectricalMaxFlow::new(&g, 1, 1, MaxFlowOptions::default()).is_err());
        assert!(ElectricalMaxFlow::new(&g, 0, 9, MaxFlowOptions::default()).is_err());
        let opts = MaxFlowOptions { eps: 0.9, ..MaxFlowOptions::default() };
        assert!(ElectricalMaxFlow::new(&g, 0, 3, opts).is_err());
    }
}
