//! Extension experiments E20–E25: the Lemma 3.7 walk identity, the
//! classic-preconditioner comparison, and the application layer
//! (max-flow, spanning trees, SDD systems, diffusion and centrality).
//!
//! These extend the core suite in [`crate::experiments`] with the
//! substrates added on top of the paper; [`run`] maps their ids to
//! functions, as [`crate::experiments::run`] does for E1–E19.

use crate::table::{f, Table};
use parlap_apps::maxflow::{dinic_max_flow, ElectricalMaxFlow, FlowDecision, MaxFlowOptions};
use parlap_apps::spanning_tree::{tree_count, tree_weight, wilson_ust};
use parlap_core::sdd::{SddMatrix, SddSolver};
use parlap_core::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_graph::generators;
use parlap_graph::laplacian::to_csr;
use parlap_graph::multigraph::MultiGraph;
use parlap_graph::schur::schur_complement_dense;
use parlap_graph::walk_sum::{enumerate_walk_sum, schur_walk_series};
use parlap_linalg::cg::{cg_solve, pcg_solve};
use parlap_linalg::precond::{IncompleteCholesky, JacobiPrecond, SsorPrecond};
use parlap_linalg::vector::random_demand;
use parlap_primitives::prng::StreamRng;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// E20 — Lemma 3.7: the C-terminal walk identity, two independent
/// routes (DFS enumeration vs Neumann series) against the dense
/// oracle.
pub fn e20_walk_identity(quick: bool) {
    println!("## E20 — C-terminal walk identity (Lemma 3.7)\n");
    println!("Two independent evaluations of the walk sum — literal DFS");
    println!("enumeration of every directed C-terminal walk, and the");
    println!("algebraic series L_CC − Σ B_CF(D⁻¹A)ⁱD⁻¹B_FC — must agree");
    println!("EXACTLY at equal truncation, and converge geometrically to");
    println!("the dense Schur complement.\n");
    let g = generators::randomize_weights(&generators::gnp_connected(14, 0.3, 5), 0.5, 2.0, 7);
    let c: Vec<u32> = vec![0, 3, 7, 11];
    let exact = schur_complement_dense(&g, &c);
    let mut t = Table::new(&[
        "max walk edges",
        "dfs vs series (exact)",
        "series vs dense SC",
        "last term norm",
    ]);
    let lens: &[usize] = if quick { &[2, 4, 6] } else { &[2, 3, 4, 5, 6, 8] };
    for &len in lens {
        let dfs = enumerate_walk_sum(&g, &c, len);
        let series = schur_walk_series(&g, &c, len - 1);
        let agree = dfs.subtract(&series.schur).max_abs();
        let err = series.schur.subtract(&exact).max_abs();
        t.row(vec![
            len.to_string(),
            format!("{agree:.1e}"),
            format!("{err:.3e}"),
            format!("{:.3e}", series.last_term_norm),
        ]);
    }
    t.print();
    let series = schur_walk_series(&g, &c, 400);
    println!(
        "\nfully converged series (400 terms): max|Σ − SC| = {:.2e}",
        series.schur.subtract(&exact).max_abs()
    );
}

/// E21 — classic preconditioners vs the paper's: PCG iterations and
/// time-to-ε as conditioning degrades.
pub fn e21_preconditioners(quick: bool) {
    println!("## E21 — classic preconditioners vs the random-walk chain\n");
    println!("PCG to 1e-8 on weighted grids of growing weight spread.");
    println!("Classic preconditioners (Jacobi/SSOR/IC(0)) see iterations");
    println!("grow with conditioning; the parlap chain holds them ~flat");
    println!("at the price of its build phase.\n");
    let side = if quick { 32 } else { 56 };
    let tol = 1e-8;
    let mut t =
        Table::new(&["weight ratio", "method", "build ms", "solve ms", "iterations", "converged"]);
    for ratio in [1e0, 1e3, 1e6] {
        let base = generators::grid2d(side, side);
        let g = if ratio > 1.0 { generators::exponential_weights(&base, ratio, 11) } else { base };
        let n = g.num_vertices();
        let a = to_csr(&g);
        let b = random_demand(n, 23);
        let maxit = 200 * ((n as f64).sqrt() as usize + 10);

        let t0 = Instant::now();
        let out = cg_solve(&a, &b, tol, maxit);
        t.row(vec![
            format!("{ratio:.0e}"),
            "cg (none)".into(),
            "0".into(),
            f(ms(t0)),
            out.iterations.to_string(),
            out.converged.to_string(),
        ]);

        let t0 = Instant::now();
        let jac = JacobiPrecond::new(&a);
        let build_j = ms(t0);
        let t0 = Instant::now();
        let out = pcg_solve(&a, &jac, &b, tol, maxit);
        t.row(vec![
            format!("{ratio:.0e}"),
            "pcg jacobi".into(),
            f(build_j),
            f(ms(t0)),
            out.iterations.to_string(),
            out.converged.to_string(),
        ]);

        let t0 = Instant::now();
        let ssor = SsorPrecond::new(&a, 1.5);
        let build_s = ms(t0);
        let t0 = Instant::now();
        let out = pcg_solve(&a, &ssor, &b, tol, maxit);
        t.row(vec![
            format!("{ratio:.0e}"),
            "pcg ssor(1.5)".into(),
            f(build_s),
            f(ms(t0)),
            out.iterations.to_string(),
            out.converged.to_string(),
        ]);

        let t0 = Instant::now();
        let ic = IncompleteCholesky::new(&a).expect("IC(0)");
        let build_i = ms(t0);
        let t0 = Instant::now();
        let out = pcg_solve(&a, &ic, &b, tol, maxit);
        t.row(vec![
            format!("{ratio:.0e}"),
            "pcg ic(0)".into(),
            f(build_i),
            f(ms(t0)),
            out.iterations.to_string(),
            out.converged.to_string(),
        ]);

        let t0 = Instant::now();
        let solver = LaplacianSolver::build(
            &g,
            SolverOptions { seed: 5, outer: OuterMethod::Pcg, ..SolverOptions::default() },
        )
        .expect("build");
        let build_p = ms(t0);
        let t0 = Instant::now();
        let out = solver.solve(&b, tol).expect("solve");
        t.row(vec![
            format!("{ratio:.0e}"),
            "pcg parlap".into(),
            f(build_p),
            f(ms(t0)),
            out.iterations.to_string(),
            "true".into(),
        ]);
    }
    t.print();
}

/// E22 — approximate max-flow by electrical flows vs exact Dinic.
pub fn e22_maxflow(quick: bool) {
    println!("## E22 — electrical max-flow (CKMST11) vs exact Dinic\n");
    println!("MWU with electrical-flow oracles: achieved value ≥ (1−ε)F*,");
    println!("feasible (congestion ≤ 1); infeasible targets rejected by");
    println!("the energy test with a potential-sweep cut certificate.\n");
    let mut t = Table::new(&[
        "graph",
        "n",
        "F* (dinic)",
        "mwu value",
        "ratio",
        "mwu iters",
        "infeasible 2F* cut",
    ]);
    let side = if quick { 8 } else { 12 };
    let cases: Vec<(&str, MultiGraph, usize, usize)> = vec![
        {
            let g = generators::grid2d(side, side);
            let n = g.num_vertices();
            ("grid", g, 0, n - 1)
        },
        {
            let g = generators::randomize_weights(&generators::grid2d(side, side), 0.5, 4.0, 3);
            let n = g.num_vertices();
            ("weighted grid", g, 0, n - 1)
        },
        {
            let g = generators::gnp_connected(6 * side, 2.5 / side as f64, 17);
            let n = g.num_vertices();
            ("gnp", g, 0, n - 1)
        },
    ];
    for (name, g, s, tt) in cases {
        let exact = dinic_max_flow(&g, s, tt);
        let mf = ElectricalMaxFlow::new(&g, s, tt, MaxFlowOptions::default()).expect("setup");
        let approx = mf.maximize().expect("maximize");
        let cut = match mf.decide(2.0 * exact.value).expect("decide") {
            FlowDecision::Infeasible { cut_capacity, .. } => format!("{cut_capacity:.3}"),
            FlowDecision::Feasible(flow) => format!("NOT REJECTED ({:.3})", flow.value),
        };
        t.row(vec![
            name.into(),
            g.num_vertices().to_string(),
            format!("{:.3}", exact.value),
            format!("{:.3}", approx.value),
            format!("{:.3}", approx.value / exact.value),
            approx.iterations.to_string(),
            cut,
        ]);
    }
    t.print();
}

/// E23 — spanning-tree samplers: distribution χ² against the
/// matrix-tree oracle, and throughput.
pub fn e23_spanning_trees(quick: bool) {
    println!("## E23 — random spanning trees: Wilson vs matrix-tree oracle\n");
    println!("χ² of sampled tree frequencies against P(T) = w(T)/Σw(T)");
    println!("on small graphs (df = #trees − 1), plus sampler throughput");
    println!("at scale.\n");
    let samples = if quick { 4000 } else { 12000 };
    let mut t = Table::new(&["graph", "#trees", "samples", "chi2", "df", "ok (χ²₀.₉₉₉)"]);
    let cases: Vec<(&str, MultiGraph, f64)> = vec![
        ("K4", generators::complete(4), 37.7),
        ("C6", generators::cycle(6), 20.5),
        (
            "weighted triangle",
            MultiGraph::from_edges(
                3,
                vec![
                    parlap_graph::multigraph::Edge::new(0, 1, 1.0),
                    parlap_graph::multigraph::Edge::new(1, 2, 2.0),
                    parlap_graph::multigraph::Edge::new(0, 2, 3.0),
                ],
            ),
            13.8,
        ),
    ];
    for (name, g, chi_crit) in cases {
        let total = tree_count(&g);
        let mut counts: std::collections::HashMap<Vec<u32>, usize> = Default::default();
        for s in 0..samples as u64 {
            let mut tree = wilson_ust(&g, 10_000 + s).expect("connected");
            tree.sort_unstable();
            *counts.entry(tree).or_insert(0) += 1;
        }
        let mut chi2 = 0.0;
        for (tree, obs) in &counts {
            let expect = tree_weight(&g, tree) / total * samples as f64;
            chi2 += (*obs as f64 - expect).powi(2) / expect;
        }
        let df = counts.len() - 1;
        t.row(vec![
            name.into(),
            counts.len().to_string(),
            samples.to_string(),
            format!("{chi2:.2}"),
            df.to_string(),
            (chi2 < chi_crit * 1.3).to_string(),
        ]);
    }
    t.print();

    println!();
    let mut t = Table::new(&["graph", "n", "wilson ms/tree", "aldous-broder ms/tree"]);
    let n = if quick { 2_000 } else { 20_000 };
    let g = generators::gnp_connected(n, 8.0 / n as f64, 3);
    let reps = if quick { 3 } else { 5 };
    let t0 = Instant::now();
    for s in 0..reps {
        wilson_ust(&g, s as u64).expect("tree");
    }
    let wil = ms(t0) / reps as f64;
    let t0 = Instant::now();
    for s in 0..reps {
        parlap_apps::spanning_tree::aldous_broder_ust(&g, s as u64).expect("tree");
    }
    let ab = ms(t0) / reps as f64;
    t.row(vec![format!("gnp avg deg 8"), n.to_string(), f(wil), f(ab)]);
    t.print();
}

/// E24 — SDD systems via Gremban reduction: correctness and overhead.
pub fn e24_sdd(quick: bool) {
    println!("## E24 — SDD solving via the Gremban double cover\n");
    println!("General SDD systems reduce to Laplacians of ≤ 2n+1 vertices");
    println!("and 2m+2n edges; accuracy carries over and the overhead is");
    println!("the cover's constant factor.\n");
    let side = if quick { 24 } else { 40 };
    let n = side * side;
    let mut t = Table::new(&[
        "class",
        "n",
        "reduced n",
        "reduced m",
        "build ms",
        "solve ms",
        "iters",
        "residual",
    ]);
    for (name, pos_frac, slack) in
        [("Laplacian", 0.0, 0.0), ("SDDM (grounded)", 0.0, 0.05), ("general (cover)", 0.3, 0.05)]
    {
        let g = generators::grid2d(side, side);
        let mut rng = StreamRng::new(31, 0);
        let mut off = Vec::new();
        let mut rowabs = vec![0.0f64; n];
        for e in g.edges() {
            let mag = 0.2 + rng.next_f64();
            let v = if rng.next_f64() < pos_frac { mag } else { -mag };
            off.push((e.u, e.v, v));
            rowabs[e.u as usize] += mag;
            rowabs[e.v as usize] += mag;
        }
        let diag: Vec<f64> = rowabs.iter().map(|r| r * (1.0 + slack)).collect();
        let m = SddMatrix::from_triplets(n, diag, &off).expect("SDD");
        let t0 = Instant::now();
        // The chain-stats column below reads chain-specific state; pin
        // the backend so PARLAP_BACKEND overrides don't break it.
        let solver = SddSolver::build(
            &m,
            SolverOptions {
                seed: 7,
                backend: parlap_core::backend::BackendKind::Chain,
                ..SolverOptions::default()
            },
        )
        .expect("build");
        let build = ms(t0);
        let b: Vec<f64> = if slack == 0.0 {
            random_demand(n, 3) // Laplacian: b ⊥ 1 required
        } else {
            (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect()
        };
        let t0 = Instant::now();
        let out = solver.solve(&b, 1e-8).expect("solve");
        t.row(vec![
            name.into(),
            n.to_string(),
            solver.reduced_dim().to_string(),
            solver.inner().chain().stats.level_edges.first().copied().unwrap_or(0).to_string(),
            f(build),
            f(ms(t0)),
            out.iterations.to_string(),
            format!("{:.2e}", out.relative_residual),
        ]);
    }
    t.print();
}

/// E25 — scientific-computing motivation: heat diffusion and
/// current-flow centrality against dense spectral oracles.
pub fn e25_diffusion_centrality(quick: bool) {
    use parlap_apps::centrality::{
        current_flow_closeness, current_flow_closeness_dense, ClosenessOptions,
    };
    use parlap_apps::diffusion::{heat_kernel_dense, HeatSolver, Scheme};

    println!("## E25 — heat diffusion + current-flow centrality\n");
    println!("Implicit heat stepping (one SDDM solve per step) against the");
    println!("dense exp(−tL) oracle: Euler converges at order 1, Crank–");
    println!("Nicolson at order 2. Closeness from the Hutchinson diag(L⁺)");
    println!("sketch against the dense pseudoinverse.\n");

    let side = if quick { 5 } else { 7 };
    let g = generators::grid2d(side, side);
    let n = g.num_vertices();
    let mut u0 = vec![0.0f64; n];
    u0[n / 2] = 1.0;
    let t_end = 0.5;
    let exact = heat_kernel_dense(&g, &u0, t_end);
    let mut t = Table::new(&["scheme", "steps", "dt", "l2 error vs exp(−tL)", "order est"]);
    for scheme in [Scheme::BackwardEuler, Scheme::CrankNicolson] {
        let mut prev: Option<f64> = None;
        for steps in [4usize, 16, 64] {
            let hs = HeatSolver::build(
                &g,
                t_end / steps as f64,
                scheme,
                SolverOptions { seed: 3, ..SolverOptions::default() },
            )
            .expect("build");
            let out = hs.evolve(&u0, steps, 1e-12).expect("evolve");
            let err: f64 =
                out.state.iter().zip(&exact).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            let order = prev.map(|p: f64| (p / err).log2() / 2.0); // steps ×4 per row
            t.row(vec![
                format!("{scheme:?}"),
                steps.to_string(),
                format!("{:.4}", t_end / steps as f64),
                format!("{err:.3e}"),
                order.map_or("-".into(), |o| format!("{o:.2}")),
            ]);
            prev = Some(err);
        }
    }
    t.print();

    println!();
    let g = generators::randomize_weights(&generators::grid2d(5, 6), 0.5, 2.0, 3);
    let probes = if quick { 200 } else { 800 };
    let fast = current_flow_closeness(
        &g,
        &ClosenessOptions { probes, inner_eps: 1e-10, ..Default::default() },
    )
    .expect("closeness");
    let exact = current_flow_closeness_dense(&g);
    let worst =
        fast.scores.iter().zip(&exact).map(|(a, b)| (a - b).abs() / b).fold(0.0f64, f64::max);
    let mut t = Table::new(&["n", "probes", "worst rel err vs dense", "rank agreement"]);
    let rank = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx
    };
    let agree =
        rank(&fast.scores).iter().zip(rank(&exact).iter()).take(5).filter(|(a, b)| a == b).count();
    t.row(vec![
        g.num_vertices().to_string(),
        probes.to_string(),
        format!("{worst:.3}"),
        format!("{agree}/5 top-5 positions"),
    ]);
    t.print();
}

/// Dispatch for the extension experiments; returns `false` on an
/// unknown id.
pub fn run(id: &str, quick: bool) -> bool {
    match id {
        "e20" => e20_walk_identity(quick),
        "e21" => e21_preconditioners(quick),
        "e22" => e22_maxflow(quick),
        "e23" => e23_spanning_trees(quick),
        "e24" => e24_sdd(quick),
        "e25" => e25_diffusion_centrality(quick),
        _ => return false,
    }
    true
}
