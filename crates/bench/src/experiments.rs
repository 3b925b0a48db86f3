//! The experiment suite: one function per paper claim, E1–E19, looked
//! up by id in [`run`].
//!
//! Each experiment prints a self-contained markdown table plus a short
//! note on the paper claim it instantiates. Results are archived in
//! EXPERIMENTS.md.

use crate::table::{f, Table};
use crate::workloads::Family;
use parlap_core::alpha::{split_uniform, SplitStrategy};
use parlap_core::apply::ChainApply;
use parlap_core::backend::BackendKind;
use parlap_core::chain::{block_cholesky, ChainOptions};
use parlap_core::five_dd::{five_dd_subset, verify_five_dd, SAMPLE_FRACTION};
use parlap_core::ks16::{Ks16Options, Ks16Solver};
use parlap_core::leverage::{leverage_split, LeverageOptions};
use parlap_core::richardson::{preconditioned_richardson, RichardsonOptions};
use parlap_core::schur_approx::{approx_schur, ApproxSchurOptions};
use parlap_core::solver::{LaplacianSolver, OuterMethod, SolverOptions};
use parlap_core::walks::terminal_walks;
use parlap_graph::generators;
use parlap_graph::laplacian::{to_csr, to_dense, LaplacianOp};
use parlap_graph::schur::schur_complement_dense;
use parlap_linalg::approx::{loewner_eps, precond_spectrum};
use parlap_linalg::cg::cg_solve;
use parlap_linalg::dense::DenseMatrix;
use parlap_linalg::op::LinOp;
use parlap_linalg::vector::random_demand;
use parlap_primitives::prng::StreamRng;
use parlap_primitives::util::with_threads;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// E1 — Theorem 1.1: ε-approximate solves across families.
pub fn e01_solve_accuracy(quick: bool) {
    println!("## E1 — solve accuracy (Theorem 1.1)\n");
    println!("Claim: ‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L for every requested ε.\n");
    let n = if quick { 900 } else { 2500 };
    let mut t = Table::new(&["family", "n", "m", "eps", "iterations", "L-norm error", "ok"]);
    // The paper's own outer loop, Algorithm 5, on the paper's chain
    // (candidate fraction 1/20).
    let opts = SolverOptions {
        outer: OuterMethod::Richardson,
        sample_fraction: SAMPLE_FRACTION,
        ..SolverOptions::default()
    };
    for fam in Family::ALL {
        let g = fam.build(n, 3);
        let solver = LaplacianSolver::build(&g, opts.clone()).expect("build");
        let b = random_demand(g.num_vertices(), 17);
        for eps in [1e-2, 1e-4, 1e-6, 1e-8] {
            let out = solver.solve(&b, eps).expect("solve");
            let err = solver.relative_error(&b, &out.solution);
            t.row(vec![
                fam.name().into(),
                g.num_vertices().to_string(),
                g.num_edges().to_string(),
                format!("{eps:.0e}"),
                out.iterations.to_string(),
                format!("{err:.2e}"),
                (err <= eps).to_string(),
            ]);
        }
    }
    t.print();
}

/// E2 — Theorem 1.1 work bound: measured PRAM work vs `m log³ n`.
pub fn e02_work_scaling(quick: bool) {
    println!("## E2 — work scaling (Theorem 1.1: O(m log³ n log log n))\n");
    println!("Build work should track m·log n; one W-apply m·log n·log log n;");
    println!("a full ε=1e-6 solve adds the Richardson factor. Normalized");
    println!("columns should stay ~flat if the bound is tight.\n");
    let sizes: &[usize] =
        if quick { &[1_000, 4_000, 16_000] } else { &[1_000, 4_000, 16_000, 64_000] };
    let mut t = Table::new(&[
        "family",
        "n",
        "m",
        "d",
        "build work/m",
        "norm b/(m ln n)",
        "apply work/m",
        "norm a/(m ln n lnln n)",
    ]);
    for fam in [Family::Grid2d, Family::RandomRegular] {
        for &n in sizes {
            let g = fam.build(n, 5);
            let multi = split_uniform(&g, 4);
            let chain = block_cholesky(&multi, &ChainOptions { seed: 7, ..Default::default() })
                .expect("build");
            let m = multi.num_edges() as f64;
            let nn = g.num_vertices() as f64;
            let build_w = chain.stats.meter.total().work as f64;
            let apply_w = chain.apply_cost().work as f64;
            t.row(vec![
                fam.name().into(),
                g.num_vertices().to_string(),
                multi.num_edges().to_string(),
                chain.depth().to_string(),
                f(build_w / m),
                f(build_w / (m * nn.ln())),
                f(apply_w / m),
                f(apply_w / (m * nn.ln() * nn.ln().ln())),
            ]);
        }
    }
    t.print();
}

/// E3 — Theorem 1.1 depth bound: measured critical path vs `log² n`.
pub fn e03_depth_scaling(quick: bool) {
    println!("## E3 — depth scaling (Theorem 1.1: O(log² n log log n))\n");
    println!("The normalized column should stay ~flat; raw work grows ~40x");
    println!("over the sweep while depth grows only polylogarithmically.\n");
    let sizes: &[usize] =
        if quick { &[1_000, 4_000, 16_000] } else { &[1_000, 4_000, 16_000, 64_000] };
    let mut t = Table::new(&["family", "n", "apply depth", "ln²n·lnln n", "normalized"]);
    for fam in [Family::Grid2d, Family::RandomRegular] {
        for &n in sizes {
            let g = fam.build(n, 5);
            let multi = split_uniform(&g, 4);
            let chain = block_cholesky(&multi, &ChainOptions { seed: 7, ..Default::default() })
                .expect("build");
            let nn = g.num_vertices() as f64;
            let model = nn.ln().powi(2) * nn.ln().ln();
            let depth = chain.apply_cost().depth as f64;
            t.row(vec![
                fam.name().into(),
                g.num_vertices().to_string(),
                f(depth),
                f(model),
                f(depth / model),
            ]);
        }
    }
    t.print();
}

/// E4 — Theorem 3.9 invariants: edge budget and round count.
pub fn e04_chain_invariants(quick: bool) {
    println!("## E4 — chain invariants (Theorem 3.9-(1),(3),(4))\n");
    println!("max_k m_k must be ≤ m₀; d ≤ log_40/39 n; base ≤ 100 vertices.\n");
    let n = if quick { 2_000 } else { 10_000 };
    let mut t = Table::new(&["family", "n", "m0 (split)", "max_k m_k", "d", "bound", "base_n"]);
    for fam in Family::ALL {
        let g = fam.build(n, 9);
        let multi = split_uniform(&g, 4);
        let chain =
            block_cholesky(&multi, &ChainOptions { seed: 3, ..Default::default() }).expect("build");
        let m0 = chain.stats.level_edges[0];
        let mmax = *chain.stats.level_edges.iter().max().expect("nonempty");
        let bound = ((g.num_vertices() as f64).ln() / (40.0f64 / 39.0).ln()).ceil();
        t.row(vec![
            fam.name().into(),
            g.num_vertices().to_string(),
            m0.to_string(),
            format!("{mmax} ({})", if mmax <= m0 { "ok" } else { "VIOLATION" }),
            chain.depth().to_string(),
            f(bound),
            chain.base_n.to_string(),
        ]);
    }
    t.print();
}

/// E5 — Lemma 3.4: `5DDSubset` size, validity, and round count.
pub fn e05_five_dd(quick: bool) {
    println!("## E5 — 5DDSubset (Lemma 3.4)\n");
    println!("|F| ≥ n/40 with O(1) expected sampling rounds; F always 5-DD.\n");
    let n = if quick { 2_000 } else { 20_000 };
    let trials = if quick { 20 } else { 50 };
    let mut t =
        Table::new(&["family", "n", "mean |F|/n", "mean rounds", "max rounds", "always 5-DD"]);
    for fam in Family::ALL {
        let g = fam.build(n, 11);
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut frac_sum = 0.0;
        let mut rounds_sum = 0usize;
        let mut rounds_max = 0usize;
        let mut all_valid = true;
        for s in 0..trials {
            let mut rng = StreamRng::new(s as u64, 0);
            let r = five_dd_subset(&g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION);
            frac_sum += r.f_set.len() as f64 / g.num_vertices() as f64;
            rounds_sum += r.rounds;
            rounds_max = rounds_max.max(r.rounds);
            all_valid &= verify_five_dd(&g, &r.in_f);
        }
        t.row(vec![
            fam.name().into(),
            g.num_vertices().to_string(),
            f(frac_sum / trials as f64),
            f(rounds_sum as f64 / trials as f64),
            rounds_max.to_string(),
            all_valid.to_string(),
        ]);
    }
    t.print();
}

/// E6 — Lemma 5.1: unbiasedness, error vs sample count.
pub fn e06_walks_unbiased(quick: bool) {
    println!("## E6 — TerminalWalks unbiasedness (Lemma 5.1)\n");
    println!("‖mean(L_H) − SC‖_F / ‖SC‖_F should decay like 1/√samples.\n");
    let g = generators::randomize_weights(&generators::gnp_connected(14, 0.35, 3), 0.5, 2.0, 4);
    let c_list: Vec<u32> = (0..5).collect();
    let mut in_c = vec![false; 14];
    for &c in &c_list {
        in_c[c as usize] = true;
    }
    let exact = schur_complement_dense(&g, &c_list);
    let exact_norm = exact.frobenius();
    let max_s = if quick { 10_000 } else { 100_000 };
    let mut t = Table::new(&["samples", "rel Frobenius error", "err·√samples"]);
    let mut mean = DenseMatrix::zeros(5);
    let inc = g.incidence();
    let mut done = 0u64;
    for target in [100u64, 1_000, 10_000, max_s as u64] {
        while done < target {
            let out = terminal_walks(&g, &inc, &in_c, 900_000 + done);
            let lh = to_dense(&out.graph);
            for i in 0..5 {
                for j in 0..5 {
                    mean.add(i, j, lh.get(i, j));
                }
            }
            done += 1;
        }
        let mut scaled = DenseMatrix::zeros(5);
        for i in 0..5 {
            for j in 0..5 {
                scaled.set(i, j, mean.get(i, j) / done as f64);
            }
        }
        let err = scaled.subtract(&exact).frobenius() / exact_norm;
        t.row(vec![done.to_string(), format!("{err:.4}"), f(err * (done as f64).sqrt())]);
        if done >= max_s as u64 {
            break;
        }
    }
    t.print();
}

/// E7 — Lemma 5.4: walk length distribution under 5-DD complements.
pub fn e07_walk_lengths(quick: bool) {
    println!("## E7 — walk lengths (Lemma 5.4)\n");
    println!("Expected steps per edge O(1); max walk O(log m).\n");
    let n = if quick { 4_000 } else { 40_000 };
    let mut t = Table::new(&["family", "m", "mean steps/edge", "max walk", "ln m"]);
    for fam in Family::ALL {
        let g = fam.build(n, 13);
        let inc = g.incidence();
        let wdeg = g.weighted_degrees();
        let mut rng = StreamRng::new(5, 0);
        let dd = five_dd_subset(&g, &inc, &wdeg, &mut rng, SAMPLE_FRACTION);
        let in_c: Vec<bool> = dd.in_f.iter().map(|&x| !x).collect();
        let out = terminal_walks(&g, &inc, &in_c, 77);
        let m = g.num_edges() as f64;
        t.row(vec![
            fam.name().into(),
            g.num_edges().to_string(),
            f(out.stats.total_steps as f64 / m),
            out.stats.max_walk_len.to_string(),
            f(m.ln()),
        ]);
    }
    t.print();
}

/// E8 — Lemma 3.5: Jacobi operator Loewner bounds.
pub fn e08_jacobi_bounds(quick: bool) {
    println!("## E8 — Jacobi bounds (Lemma 3.5: M ≼ Z⁻¹ ≼ M + εY)\n");
    println!("Dense eigenchecks: λmax(ZM) ≤ 1 and λmin(Z(M+εY)) ≥ 1.\n");
    use parlap_core::blocks::LocalLap;
    use parlap_core::jacobi::{sweeps_for, JacobiOp};
    use parlap_graph::multigraph::Edge;
    use parlap_linalg::eigen::eigen_sym;
    let trials = if quick { 3 } else { 8 };
    let mut t = Table::new(&["n", "eps", "sweeps l", "λmax(ZM)", "λmin(Z(M+εY))", "ok"]);
    for seed in 0..trials {
        let n = 12 + 4 * (seed as usize % 3);
        let mut rng = StreamRng::new(seed, 1);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.next_f64() < 0.35 {
                    edges.push(Edge::new(u, v, 0.5 + rng.next_f64()));
                }
            }
        }
        let y = LocalLap::from_edges(n, &edges);
        let x: Vec<f64> = y.diag().iter().map(|&d| 4.0 * d + 0.5 + rng.next_f64()).collect();
        let mut ydense = DenseMatrix::zeros(n);
        for e in &edges {
            let (u, v) = (e.u as usize, e.v as usize);
            ydense.add(u, u, e.w);
            ydense.add(v, v, e.w);
            ydense.add(u, v, -e.w);
            ydense.add(v, u, -e.w);
        }
        let mut m = ydense.clone();
        for i in 0..n {
            m.add(i, i, x[i]);
        }
        for eps in [0.5, 0.05] {
            let op = JacobiOp::new(x.clone(), y.clone(), sweeps_for(eps));
            // Materialize Z.
            let mut z = DenseMatrix::zeros(n);
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let col = op.apply_vec(&e);
                for i in 0..n {
                    z.set(i, j, col[i]);
                }
            }
            let ez = eigen_sym(&z);
            let zh = ez.spectral_map(|l| l.max(0.0).sqrt());
            let lmax = *eigen_sym(&zh.matmul(&m).matmul(&zh)).values.last().expect("ne");
            let mut me = m.clone();
            for i in 0..n {
                for j in 0..n {
                    me.add(i, j, eps * ydense.get(i, j));
                }
            }
            let lmin = *eigen_sym(&zh.matmul(&me).matmul(&zh)).values.first().expect("ne");
            t.row(vec![
                n.to_string(),
                f(eps),
                sweeps_for(eps).to_string(),
                format!("{lmax:.6}"),
                format!("{lmin:.6}"),
                (lmax <= 1.0 + 1e-9 && lmin >= 1.0 - 1e-9).to_string(),
            ]);
        }
    }
    t.print();
}

/// E9 — Theorem 3.8: Richardson iteration counts vs the formula.
pub fn e09_richardson_iters(_quick: bool) {
    println!("## E9 — Richardson iterations (Theorem 3.8: ⌈e^{{2δ}} log 1/ε⌉)\n");
    println!("B = e^δ·L⁺ is an exactly-δ preconditioner; fixed-count mode");
    println!("must deliver ε and the count matches the formula.\n");
    let g = generators::gnp_connected(60, 0.15, 3);
    let l = to_dense(&g);
    let pinv = l.pseudoinverse(1e-12);
    let lop = LaplacianOp::new(&g);
    let b = random_demand(60, 7);
    let reference = pinv.apply_vec(&b);
    let mut t = Table::new(&["delta", "eps", "formula iters", "measured err", "ok"]);
    for delta in [0.25f64, 0.5, 1.0] {
        let mut scaled = DenseMatrix::zeros(60);
        for i in 0..60 {
            for j in 0..60 {
                scaled.set(i, j, delta.exp() * pinv.get(i, j));
            }
        }
        for eps in [1e-2, 1e-4, 1e-6] {
            let opts = RichardsonOptions { delta, certify_error: false, ..Default::default() };
            let out = preconditioned_richardson(&lop, &scaled, &b, eps, &opts).expect("solve");
            let formula = ((2.0 * delta).exp() * (1.0f64 / eps).ln()).ceil() as usize;
            let d: Vec<f64> = out.solution.iter().zip(&reference).map(|(a, b)| a - b).collect();
            let ld = lop.apply_vec(&d);
            let num = parlap_linalg::vector::dot(&d, &ld).max(0.0).sqrt();
            let lx = lop.apply_vec(&reference);
            let den = parlap_linalg::vector::dot(&reference, &lx).sqrt();
            let err = num / den;
            t.row(vec![
                f(delta),
                format!("{eps:.0e}"),
                format!("{} (ran {})", formula, out.iterations),
                format!("{err:.2e}"),
                (err <= eps).to_string(),
            ]);
        }
    }
    t.print();
}

/// E10 — Theorem 3.9-(5): chain quality vs α⁻¹ (split factor).
pub fn e10_chain_quality(quick: bool) {
    println!("## E10 — chain quality vs α (Theorem 3.9-(5))\n");
    println!("W⁺ ≈_ε L with ε → small as α⁻¹ grows toward Θ(log²n);");
    println!("spectrum of W·L via power iteration; log²n ≈ {:.0} here.\n", (900f64).log2().powi(2));
    let n = if quick { 400 } else { 900 };
    let mut t = Table::new(&["family", "split α⁻¹", "λmin(WL)", "λmax(WL)", "eps"]);
    for fam in [Family::Grid2d, Family::Gnp, Family::WeightedGrid] {
        let g = fam.build(n, 15);
        let lop = LaplacianOp::new(&g);
        for split in [1usize, 4, 16, 64] {
            let multi = split_uniform(&g, split);
            let chain = block_cholesky(&multi, &ChainOptions { seed: 5, ..Default::default() })
                .expect("build");
            let w = ChainApply::new(&chain);
            let (lo, hi) = precond_spectrum(&lop, &w, 80, 23);
            let eps = hi.ln().max(-(lo.max(1e-300).ln()));
            t.row(vec![fam.name().into(), split.to_string(), f(lo), f(hi), f(eps)]);
        }
    }
    t.print();
}

/// E11 — Theorem 7.1: ApproxSchur quality and edge budget.
pub fn e11_approx_schur(quick: bool) {
    println!("## E11 — ApproxSchur (Theorem 7.1)\n");
    println!("L_GS ≈_ε SC(L,C) with ε improving in the split; |E(GS)| ≤ m.\n");
    let side = if quick { 10 } else { 14 };
    let g = generators::grid2d(side, side);
    let terminals: Vec<u32> = (0..(side * side) as u32)
        .filter(|&v| {
            let (r, c) = (v as usize / side, v as usize % side);
            r == 0 || c == 0 || r == side - 1 || c == side - 1
        })
        .collect();
    let mut tt = Table::new(&["split α⁻¹", "edges (≤ m·split)", "rounds", "eps (dense oracle)"]);
    let exact = {
        let mut sorted = terminals.clone();
        sorted.sort_unstable();
        schur_complement_dense(&g, &sorted)
    };
    for split in [1usize, 4, 16, 64] {
        let opts = ApproxSchurOptions { split, seed: 3, ..Default::default() };
        let r = approx_schur(&g, &terminals, &opts).expect("schur");
        let eps = loewner_eps(&to_dense(&r.graph), &exact, 1e-8);
        tt.row(vec![
            split.to_string(),
            format!("{} (≤ {})", r.graph.num_edges(), g.num_edges() * split),
            r.rounds.to_string(),
            f(eps),
        ]);
    }
    tt.print();
}

/// E12 — parallel speedup and comparison with the sequential KS16.
pub fn e12_speedup_threads(quick: bool) {
    println!("## E12 — thread scaling (figure: build+solve time vs threads)\n");
    println!("Wall-clock for build + one ε=1e-6 solve under rayon pools of");
    println!("increasing size, vs the sequential KS16 baseline.\n");
    let n = if quick { 40_000 } else { 120_000 };
    let g = Family::Grid2d.build(n, 17);
    let b = random_demand(g.num_vertices(), 3);
    let max_threads = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(2);
    let mut t = Table::new(&["threads", "build ms", "solve ms", "total ms", "speedup"]);
    let mut base_total = 0.0;
    let mut threads = 1usize;
    while threads <= max_threads {
        let (build_ms, solve_ms) = with_threads(threads, || {
            let t0 = Instant::now();
            let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
            let bms = ms(t0);
            let t1 = Instant::now();
            let out = solver.solve(&b, 1e-6).expect("solve");
            assert!(out.relative_residual.is_finite());
            (bms, ms(t1))
        });
        let total = build_ms + solve_ms;
        if threads == 1 {
            base_total = total;
        }
        t.row(vec![threads.to_string(), f(build_ms), f(solve_ms), f(total), f(base_total / total)]);
        threads *= 2;
    }
    // Sequential baseline (reported as-is; unsplit KS16 quality can
    // degrade at scale — that degradation is itself a finding).
    // `--quick` caps its solve at 200 iterations: on this grid it does
    // not converge within 2000 either, and those take longer than the
    // rest of the quick suite.
    let t0 = Instant::now();
    let ks = Ks16Solver::build(&g, Ks16Options::default()).expect("ks16");
    let ks_build = ms(t0);
    let t1 = Instant::now();
    let out = ks.solve(&b, 1e-6, if quick { 200 } else { 2_000 });
    let ks_solve = ms(t1);
    let total = f(ks_build + ks_solve);
    let note = if out.converged {
        total
    } else {
        format!("{total} (res {:.1e} @ {} iters)", out.relative_residual, out.iterations)
    };
    t.row(vec!["KS16 (seq)".into(), f(ks_build), f(ks_solve), note, "-".into()]);
    t.print();
}

/// E13 — Theorem 1.2 regime: naive vs leverage splitting by density.
pub fn e13_density_crossover(quick: bool) {
    println!("## E13 — density crossover (Theorem 1.1 vs 1.2 work)\n");
    println!("Naive splitting costs O(m·α⁻¹) multi-edges; leverage-based");
    println!("splitting O(m + nKα⁻¹). The denser the graph, the bigger the");
    println!("leverage win — the paper's 'better work for dense graphs'.\n");
    let n = if quick { 600 } else { 1_500 };
    let alpha_inv = 8.0;
    let mut t =
        Table::new(&["avg degree", "m", "naive multi-edges", "leverage multi-edges", "ratio"]);
    for deg in [6usize, 16, 48, 128] {
        let g = generators::gnp_connected(n, deg as f64 / n as f64, 21);
        let naive = g.num_edges() * alpha_inv as usize;
        let lev =
            leverage_split(&g, &LeverageOptions { alpha_inv, k: 8, seed: 5, ..Default::default() })
                .expect("leverage split");
        t.row(vec![
            format!("{:.1}", 2.0 * g.num_edges() as f64 / n as f64),
            g.num_edges().to_string(),
            naive.to_string(),
            lev.num_edges().to_string(),
            f(naive as f64 / lev.num_edges() as f64),
        ]);
    }
    t.print();
}

/// E14 — Lemmas 3.2 / 3.3: split sizes match the stated bounds.
pub fn e14_alpha_split(quick: bool) {
    println!("## E14 — α-split sizes (Lemma 3.2: O(mα⁻¹); Lemma 3.3: O(m + nKα⁻¹))\n");
    let n = if quick { 800 } else { 2_000 };
    let mut t = Table::new(&[
        "family",
        "m",
        "naive (α⁻¹=4)",
        "naive (α⁻¹=log²n)",
        "leverage (K=8, α⁻¹=4)",
        "m + nKα⁻¹ bound",
    ]);
    for fam in [Family::Grid2d, Family::Gnp, Family::PrefAttach] {
        let g = fam.build(n, 23);
        let log2n = (g.num_vertices() as f64).log2().powi(2).ceil() as usize;
        let lev = leverage_split(
            &g,
            &LeverageOptions { alpha_inv: 4.0, k: 8, seed: 9, ..Default::default() },
        )
        .expect("split");
        t.row(vec![
            fam.name().into(),
            g.num_edges().to_string(),
            (4 * g.num_edges()).to_string(),
            (log2n * g.num_edges()).to_string(),
            lev.num_edges().to_string(),
            (g.num_edges() + g.num_vertices() * 8 * 4).to_string(),
        ]);
    }
    t.print();
}

/// E15 — Lemma 5.2: α-boundedness closed under TerminalWalks.
pub fn e15_alpha_closure(quick: bool) {
    println!("## E15 — α-boundedness closure (Lemma 5.2)\n");
    println!("Max leverage (w.r.t. the ORIGINAL L) of sampled multi-edges");
    println!("never exceeds the input bound α, exactly, per round.\n");
    let trials = if quick { 40 } else { 200 };
    let base = generators::randomize_weights(&generators::gnp_connected(16, 0.3, 5), 0.5, 2.0, 6);
    let mut t = Table::new(&["split α⁻¹", "α", "max sampled leverage", "ok"]);
    for split in [2usize, 4, 8] {
        let g = split_uniform(&base, split);
        let alpha = 1.0 / split as f64;
        let pinv = to_dense(&base).pseudoinverse(1e-12);
        let c_list: Vec<u32> = (0..6).collect();
        let mut in_c = vec![false; 16];
        for &c in &c_list {
            in_c[c as usize] = true;
        }
        let mut max_tau: f64 = 0.0;
        let inc = g.incidence();
        for s in 0..trials {
            let out = terminal_walks(&g, &inc, &in_c, 4_000 + s as u64);
            for e in out.graph.edges() {
                let (u, v) = (c_list[e.u as usize] as usize, c_list[e.v as usize] as usize);
                let r = pinv.get(u, u) + pinv.get(v, v) - 2.0 * pinv.get(u, v);
                max_tau = max_tau.max(e.w * r);
            }
        }
        t.row(vec![split.to_string(), f(alpha), f(max_tau), (max_tau <= alpha + 1e-9).to_string()]);
    }
    t.print();
}

/// E16 — end-to-end comparison: parlap vs KS16 vs CG vs PCG.
pub fn e16_end_to_end(quick: bool) {
    println!("## E16 — end-to-end time-to-solution (figure)\n");
    println!("Build + solve to ε=1e-8, wall-clock. CG has no build phase;");
    println!("its iteration count explodes with condition number, which is");
    println!("where the nearly-linear solvers win.\n");
    let n = if quick { 10_000 } else { 60_000 };
    let mut t =
        Table::new(&["family", "method", "build ms", "solve ms", "iterations", "rel residual"]);
    for fam in [Family::Grid2d, Family::WeightedGrid, Family::PrefAttach] {
        let g = fam.build(n, 29);
        let b = random_demand(g.num_vertices(), 31);
        // parlap Richardson: the paper's Algorithm 5 on its chain
        // (candidate fraction 1/20).
        {
            let t0 = Instant::now();
            let solver = LaplacianSolver::build(
                &g,
                SolverOptions {
                    outer: OuterMethod::Richardson,
                    sample_fraction: SAMPLE_FRACTION,
                    ..Default::default()
                },
            )
            .expect("build");
            let bms = ms(t0);
            let t1 = Instant::now();
            let out = solver.solve(&b, 1e-8).expect("solve");
            t.row(vec![
                fam.name().into(),
                if out.used_fallback {
                    "parlap (rich→pcg)".into()
                } else {
                    "parlap richardson".into()
                },
                f(bms),
                f(ms(t1)),
                out.iterations.to_string(),
                format!("{:.1e}", out.relative_residual),
            ]);
        }
        // parlap PCG.
        {
            let t0 = Instant::now();
            let solver = LaplacianSolver::build(
                &g,
                SolverOptions { outer: OuterMethod::Pcg, ..Default::default() },
            )
            .expect("build");
            let bms = ms(t0);
            let t1 = Instant::now();
            let out = solver.solve(&b, 1e-8).expect("solve");
            t.row(vec![
                fam.name().into(),
                "parlap pcg".into(),
                f(bms),
                f(ms(t1)),
                out.iterations.to_string(),
                format!("{:.1e}", out.relative_residual),
            ]);
        }
        // KS16.
        {
            let t0 = Instant::now();
            let ks = Ks16Solver::build(&g, Ks16Options::default()).expect("ks16");
            let bms = ms(t0);
            let t1 = Instant::now();
            let out = ks.solve(&b, 1e-8, 2_000);
            t.row(vec![
                fam.name().into(),
                "ks16 (sequential)".into(),
                f(bms),
                f(ms(t1)),
                out.iterations.to_string(),
                format!("{:.1e}", out.relative_residual),
            ]);
        }
        // Plain CG.
        {
            let csr = to_csr(&g);
            let t1 = Instant::now();
            let out = cg_solve(&csr, &b, 1e-8, 50_000);
            t.row(vec![
                fam.name().into(),
                "cg (no precond)".into(),
                "0".into(),
                f(ms(t1)),
                out.iterations.to_string(),
                format!("{:.1e}", out.relative_residual),
            ]);
        }
    }
    t.print();
}

/// E17 (ablation) — `5DDSubset` sample fraction: the paper's 1/20 vs
/// alternatives. Larger fractions eliminate more per round (smaller d);
/// past 1/5 of a dense graph's degree the filter starves, and
/// `five_dd_subset` halves the fraction back toward 1/20.
///
/// `ok`: every round keeps at least `⌈n_k/40⌉` vertices (Lemma 3.4,
/// which needs a candidate set of `n/20`, so rows below 1/20 skip this
/// part; the `min |F|` column still prints), and a PCG solve with the
/// chain meets ε = 1e-6 in the L-norm (Theorem 1.1).
pub fn e17_ablation_sample_fraction(quick: bool) {
    println!("## E17 — ablation: 5DDSubset sample fraction (paper: 1/20)\n");
    println!("Trade-off: rounds d and total build work vs the fraction.\n");
    let (n_grid, n_dense) = if quick { (4_000, 300) } else { (20_000, 500) };
    let eps = 1e-6;
    let default = SolverOptions::default().sample_fraction;
    let mut t = Table::new(&[
        "family",
        "fraction",
        "d",
        "mean |F|/n per round",
        "min |F|/⌈n/40⌉",
        "build work/m",
        "quality eps",
        "L-norm error",
        "ok",
    ]);
    for (name, g) in [
        ("grid2d", Family::Grid2d.build(n_grid, 3)),
        ("dense gnp", generators::gnp_connected(n_dense, 0.5, 3)),
    ] {
        let lop = LaplacianOp::new(&g);
        let b = random_demand(g.num_vertices(), 5);
        for frac in [0.025, SAMPLE_FRACTION, 0.1, 0.15, 0.2, 0.3] {
            let label = match frac {
                x if x == SAMPLE_FRACTION => format!("{} (paper)", f(x)),
                x if x == default => format!("{} (default)", f(x)),
                x => f(x),
            };
            // The chain on the 4-way split, as `block_cholesky` on
            // `split_uniform(g, 4)` with seed 7 builds it.
            let opts = SolverOptions {
                seed: 7,
                split: SplitStrategy::Fixed(4),
                sample_fraction: frac,
                backend: BackendKind::Chain,
                ..Default::default()
            };
            let solver = LaplacianSolver::build(&g, opts).expect("build");
            let chain = solver.chain();
            let (mut shrink, mut min_kept) = (0.0, f64::INFINITY);
            for w in chain.stats.level_vertices.windows(2) {
                shrink += (w[0] - w[1]) as f64 / w[0] as f64;
                min_kept = min_kept.min((w[0] - w[1]) as f64 / w[0].div_ceil(40) as f64);
            }
            shrink /= chain.depth().max(1) as f64;
            let (lo, hi) = precond_spectrum(&lop, &ChainApply::new(chain), 40, 11);
            let out = solver.solve(&b, eps).expect("solve");
            let err = solver.relative_error(&b, &out.solution);
            let lemma_3_4 = frac < SAMPLE_FRACTION || min_kept >= 1.0;
            t.row(vec![
                name.into(),
                label,
                chain.depth().to_string(),
                f(shrink),
                f(min_kept),
                f(chain.stats.meter.total().work as f64 / chain.stats.level_edges[0] as f64),
                f(hi.ln().max(-(lo.max(1e-300).ln()))),
                format!("{err:.2e}"),
                (lemma_3_4 && err <= eps).to_string(),
            ]);
        }
    }
    t.print();
}

/// E18 (ablation) — base-case size (paper: 100).
pub fn e18_ablation_base_size(quick: bool) {
    println!("## E18 — ablation: base-case size (paper: 100 vertices)\n");
    println!("Smaller bases add rounds; larger bases pay the O(base³) dense");
    println!("grounded-Cholesky factorization and O(base²) per apply.\n");
    let n = if quick { 4_000 } else { 20_000 };
    let g = Family::Gnp.build(n, 5);
    let b = random_demand(g.num_vertices(), 3);
    let eps = 1e-6;
    // The exact base is a grounded Cholesky, about base³ flops with no
    // iterative eigensolve, so the sweep shows no factorization cliff
    // up to 400: fewer rounds keep paying off in build time, and the
    // trade left is depth against the base² dense work of each apply.
    let mut t =
        Table::new(&["base_size", "d", "build ms", "solve ms", "iterations", "L-norm error", "ok"]);
    for base in [25usize, 50, 100, 200, 400] {
        let t0 = Instant::now();
        // Chain ablation: pin the backend so the depth column stays
        // meaningful under a PARLAP_BACKEND override.
        let solver = LaplacianSolver::build(
            &g,
            SolverOptions {
                base_size: base,
                backend: parlap_core::backend::BackendKind::Chain,
                ..Default::default()
            },
        )
        .expect("build");
        let bms = ms(t0);
        let t1 = Instant::now();
        let out = solver.solve(&b, eps).expect("solve");
        let sms = ms(t1);
        let err = solver.relative_error(&b, &out.solution);
        t.row(vec![
            base.to_string(),
            solver.chain().depth().to_string(),
            f(bms),
            f(sms),
            out.iterations.to_string(),
            format!("{err:.2e}"),
            (err <= eps).to_string(),
        ]);
    }
    t.print();
}

/// E19 (ablation) — Jacobi sweeps: the paper's ε = 1/(2d) choice vs
/// fixed sweep counts (must stay odd per Lemma 3.5).
pub fn e19_ablation_jacobi_sweeps(quick: bool) {
    println!("## E19 — ablation: Jacobi sweep count (paper: l = ⌈log₂ 6d⌉, odd)\n");
    println!("Too few sweeps degrade the chain's quality; extra sweeps buy");
    println!("little once the 1/(2d) budget is met.\n");
    let n = if quick { 2_000 } else { 8_000 };
    let g = Family::Grid2d.build(n, 9);
    let multi = split_uniform(&g, 4);
    let chain =
        block_cholesky(&multi, &ChainOptions { seed: 3, ..Default::default() }).expect("build");
    let paper_sweeps = chain.jacobi_sweeps;
    let lop = LaplacianOp::new(&g);
    let mut t = Table::new(&["sweeps l", "is paper choice", "λmin(WL)", "λmax(WL)", "eps"]);
    for sweeps in [1usize, 3, 5, paper_sweeps, paper_sweeps + 4] {
        let mut c = chain.clone();
        c.jacobi_sweeps = if sweeps % 2 == 1 { sweeps } else { sweeps + 1 };
        let w = ChainApply::new(&c);
        let (lo, hi) = precond_spectrum(&lop, &w, 40, 17);
        t.row(vec![
            c.jacobi_sweeps.to_string(),
            if c.jacobi_sweeps == paper_sweeps { "yes" } else { "no" }.into(),
            f(lo),
            f(hi),
            f(hi.ln().max(-(lo.max(1e-300).ln()))),
        ]);
    }
    t.print();
}

/// Run an experiment by id; `all` runs the full suite.
pub fn run(id: &str, quick: bool) -> bool {
    match id {
        "e1" => e01_solve_accuracy(quick),
        "e2" => e02_work_scaling(quick),
        "e3" => e03_depth_scaling(quick),
        "e4" => e04_chain_invariants(quick),
        "e5" => e05_five_dd(quick),
        "e6" => e06_walks_unbiased(quick),
        "e7" => e07_walk_lengths(quick),
        "e8" => e08_jacobi_bounds(quick),
        "e9" => e09_richardson_iters(quick),
        "e10" => e10_chain_quality(quick),
        "e11" => e11_approx_schur(quick),
        "e12" => e12_speedup_threads(quick),
        "e13" => e13_density_crossover(quick),
        "e14" => e14_alpha_split(quick),
        "e15" => e15_alpha_closure(quick),
        "e16" => e16_end_to_end(quick),
        "e17" => e17_ablation_sample_fraction(quick),
        "e18" => e18_ablation_base_size(quick),
        "e19" => e19_ablation_jacobi_sweeps(quick),
        "all" => {
            for i in 1..=25 {
                run(&format!("e{i}"), quick);
                println!();
            }
        }
        other => return crate::experiments_ext::run(other, quick),
    }
    true
}
