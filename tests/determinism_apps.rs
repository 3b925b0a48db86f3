//! Thread-count independence of the application layer: every
//! randomized component is keyed by counter-based streams, so results
//! must be bit-identical under different rayon pool sizes.

use parlap::prelude::*;
use parlap_apps::electrical::ElectricalSolver;
use parlap_apps::pagerank::PageRankSolver;
use parlap_graph::components::parallel_components;
use parlap_primitives::util::with_threads;

#[test]
fn wilson_trees_identical_across_threads() {
    let g = generators::gnp_connected(300, 0.03, 9);
    let run = |threads: usize| {
        with_threads(threads, || (0..5).map(|s| wilson_ust(&g, s).unwrap()).collect::<Vec<_>>())
    };
    assert_eq!(run(1), run(4), "Wilson samples must not depend on the pool size");
}

#[test]
fn sparsifier_identical_across_threads() {
    let g = generators::complete(40);
    let run = |threads: usize| {
        with_threads(threads, || {
            let s = sparsify(&g, 500, &SparsifyOptions::default()).unwrap();
            s.graph.edges().iter().map(|e| (e.u, e.v, e.w.to_bits())).collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4), "sparsifier must be deterministic");
}

/// The eps-driven entry point — the one the build pipeline's sparsify
/// stage calls — must be bit-identical at 1, 2, and 8 workers: the
/// leverage-score sums go through the fixed-chunk deterministic
/// reduction and the q draws are taken in fixed 4096-sample chunks
/// with per-chunk counter-based substreams, so the sampled multiset
/// never depends on the schedule.
#[test]
fn sparsify_to_eps_identical_across_1_2_8_threads() {
    let g = generators::complete(60);
    let run = |threads: usize| {
        with_threads(threads, || {
            let s = sparsify_to_eps(&g, 0.5, &SparsifyOptions::default()).unwrap();
            s.graph.edges().iter().map(|e| (e.u, e.v, e.w.to_bits())).collect::<Vec<_>>()
        })
    };
    let base = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), base, "sparsify_to_eps output changed at {threads} threads");
    }
}

/// Whole-solve bit-identity with the sparsify stage *engaged*: on a
/// dense graph the backend is built on the sampled sparsifier, and
/// every stage — leverage sketch, chunked alias sampling, backend
/// build, outer iteration — must still be a pure function of
/// (graph, options), so solutions stay bit-identical at 1, 2, and 8
/// workers.
#[test]
fn whole_solve_with_sparsify_identical_across_1_2_8_threads() {
    use parlap_core::solver::SparsifyMode;
    let g = generators::complete(200); // m = 19900 > q(200, 0.6): the stage engages
    let b = parlap_linalg::vector::random_demand(200, 61);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = LaplacianSolver::build(
                &g,
                SolverOptions { seed: 13, sparsify: SparsifyMode::On, ..SolverOptions::default() },
            )
            .unwrap();
            assert!(solver.sparsify_stage().is_some(), "stage must engage on K_200");
            let out = solver.solve(&b, 1e-7).unwrap();
            (out.iterations, out.solution.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        })
    };
    let base = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), base, "sparsified solve output changed at {threads} threads");
    }
}

#[test]
fn electrical_flow_identical_across_threads() {
    let g = generators::grid2d(12, 12);
    let run = |threads: usize| {
        with_threads(threads, || {
            let es =
                ElectricalSolver::build(&g, SolverOptions { seed: 3, ..SolverOptions::default() })
                    .unwrap();
            es.st_flow(0, 143, 1e-8).unwrap().flows.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn pagerank_identical_across_threads() {
    let g = generators::preferential_attachment(200, 3, 5);
    let run = |threads: usize| {
        with_threads(threads, || {
            let pr = PageRankSolver::build(
                &g,
                0.15,
                SolverOptions { seed: 3, ..SolverOptions::default() },
            )
            .unwrap();
            pr.rank(&[(0, 1.0)], 1e-9)
                .unwrap()
                .scores
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn components_labels_deterministic_despite_races() {
    // FastSV's execution is racy but its fixed point (min id per
    // component) is unique: labels must agree across pool sizes.
    let g = generators::gnp_connected(2000, 0.002, 7);
    let run = |threads: usize| with_threads(threads, || parallel_components(&g).labels);
    assert_eq!(run(1), run(4), "component labels are schedule-independent");
}

#[test]
fn solve_many_identical_across_threads() {
    let g = generators::grid2d(15, 15);
    let systems: Vec<Vec<f64>> =
        (0..4).map(|s| parlap_linalg::vector::random_demand(225, s)).collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver =
                LaplacianSolver::build(&g, SolverOptions { seed: 1, ..SolverOptions::default() })
                    .unwrap();
            solver
                .solve_many(&systems, 1e-8)
                .unwrap()
                .into_iter()
                .map(|o| o.solution.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4));
}

/// Thread-count independence of the *core* factorization chain: the
/// 5-DD partitions, Jacobi diagonals, merged block arcs, and base
/// pseudoinverse produced by `block_cholesky` must be bit-identical
/// across pool sizes — the chunked parallel primitives may decompose
/// work differently per thread count, but every random choice is keyed
/// by counter-based streams, never by scheduling.
#[test]
fn block_cholesky_chain_identical_across_threads() {
    use parlap_core::chain::{block_cholesky, ChainOptions};
    let g = generators::gnp_connected(500, 0.01, 11);
    let fingerprint = |threads: usize| {
        with_threads(threads, || {
            let chain =
                block_cholesky(&g, &ChainOptions { seed: 77, ..ChainOptions::default() }).unwrap();
            let mut fp: Vec<u64> = Vec::new();
            fp.push(chain.depth() as u64);
            // The elimination order and the F sizes pin every level's
            // partition.
            fp.extend(chain.order.iter().map(|&v| v as u64));
            for level in &chain.levels {
                fp.push(level.n as u64);
                fp.push(level.nf() as u64);
                fp.extend(level.x_diag.iter().map(|x| x.to_bits()));
                // The merged block arcs, so a parallel level build
                // cannot let pool size reorder or regroup the merge.
                let blocks =
                    [level.ff.adjacency(), level.cross.grouped_by_c(), level.cross.grouped_by_f()];
                for csr in blocks {
                    for s in 0..csr.num_sources() {
                        for &(t, w) in csr.arcs_at(s) {
                            fp.push(t as u64);
                            fp.push(w.to_bits());
                        }
                    }
                }
            }
            for i in 0..chain.base_n {
                for j in 0..chain.base_n {
                    fp.push(chain.base_pinv.get(i, j).to_bits());
                }
            }
            fp
        })
    };
    assert_eq!(fingerprint(1), fingerprint(4), "chain structure must not depend on pool size");
}

/// End-to-end at a size that *crosses* the parallel cutoff: a 10 000-
/// vertex grid (> `PAR_CUTOFF` = 8192) drives every chunked kernel —
/// deterministic tree reductions for dots/norms, element-mapped
/// matvecs, fixed-chunk scans, counter-seeded walks — through the real
/// work-stealing pool at 1/2/4/8 workers. Build + solve must return
/// bit-identical solution vectors and iteration counts at every pool
/// size; this is the paper-facing guarantee that parallelism changes
/// wall-clock only, never the answer.
#[test]
fn whole_solve_identical_across_1_2_4_8_threads() {
    let g = generators::grid2d(100, 100);
    let b = parlap_linalg::vector::random_demand(10_000, 33);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver =
                LaplacianSolver::build(&g, SolverOptions { seed: 13, ..SolverOptions::default() })
                    .unwrap();
            // eps 1e-6 keeps the bit-identity guarantee (every output
            // bit is compared) while holding debug-mode CI cost down;
            // tighter eps only adds more identical Richardson steps.
            let out = solver.solve(&b, 1e-6).unwrap();
            (out.iterations, out.solution.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        })
    };
    let base = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), base, "solve output changed at {threads} threads");
    }
}

/// The CSR incidence structure (a counting sort over a chunked
/// parallel scan) must not depend on the pool size.
#[test]
fn incidence_identical_across_threads() {
    let g = generators::gnp_connected(3000, 0.004, 17);
    let run = |threads: usize| {
        with_threads(threads, || {
            let inc = g.incidence();
            (0..g.num_vertices()).map(|v| inc.edges_at(v).to_vec()).collect::<Vec<_>>()
        })
    };
    assert_eq!(run(1), run(4), "incidence layout must be schedule-independent");
}

/// Cross-thread AND cross-client determinism: M external OS threads
/// hammering one `SolveService` concurrently must produce outputs
/// bit-identical to the same requests issued sequentially against the
/// bare solver — and identical again at every pool size. This extends
/// the determinism guarantee from "inside one solve" to "across
/// concurrent solves": request interleaving, batch composition, and
/// worker count may change wall-clock, never an output bit. (CI runs
/// this whole file under `RAYON_NUM_THREADS` ∈ {1, 2, 8} as well,
/// covering the ambient-global-pool path with the same sweep.)
#[test]
fn solve_service_identical_across_concurrent_clients_and_1_2_8_threads() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 2;
    let g = generators::grid2d(15, 15);
    let n = g.num_vertices();
    let build = || {
        LaplacianSolver::build(&g, SolverOptions { seed: 5, ..SolverOptions::default() }).unwrap()
    };
    let demand = |client: usize, req: usize| {
        parlap_linalg::vector::random_demand(n, (client * PER_CLIENT + req) as u64)
    };
    // Reference: sequential solves on the bare solver.
    let reference: Vec<Vec<u64>> = {
        let solver = build();
        (0..CLIENTS * PER_CLIENT)
            .map(|k| {
                let b = demand(k / PER_CLIENT, k % PER_CLIENT);
                solver.solve(&b, 1e-7).unwrap().solution.iter().map(|f| f.to_bits()).collect()
            })
            .collect()
    };
    for threads in [1usize, 2, 8] {
        let service = SolveService::with_threads(build(), threads).unwrap();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let svc = service.clone();
                let bs: Vec<Vec<f64>> = (0..PER_CLIENT).map(|r| demand(client, r)).collect();
                std::thread::spawn(move || {
                    bs.into_iter()
                        .map(|b| {
                            svc.solve(&b, 1e-7)
                                .unwrap()
                                .solution
                                .iter()
                                .map(|f| f.to_bits())
                                .collect::<Vec<u64>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (client, h) in handles.into_iter().enumerate() {
            for (req, bits) in h.join().unwrap().into_iter().enumerate() {
                assert_eq!(
                    bits,
                    reference[client * PER_CLIENT + req],
                    "service output diverged: client {client}, request {req}, {threads} threads"
                );
            }
        }
        let stats = service.stats();
        assert_eq!(stats.requests, (CLIENTS * PER_CLIENT) as u64, "{threads} threads");
    }
}

/// The async ticket path and the keyed registry path must both honor
/// the same contract: responses bit-identical to sequential solves on
/// the bare solver, at every pool size. Tickets are submitted all at
/// once (maximizing batching/interleaving freedom) and collected out
/// of order; the registry path additionally crosses an eviction +
/// rebuild between the two halves of the request set.
#[test]
fn ticket_and_registry_paths_identical_to_direct_solve_at_1_2_8_threads() {
    const REQUESTS: usize = 6;
    let g = generators::grid2d(15, 15);
    let n = g.num_vertices();
    let build = || {
        LaplacianSolver::build(&g, SolverOptions { seed: 5, ..SolverOptions::default() }).unwrap()
    };
    let demand = |k: usize| parlap_linalg::vector::random_demand(n, k as u64);
    let reference: Vec<Vec<u64>> = {
        let solver = build();
        (0..REQUESTS)
            .map(|k| {
                solver
                    .solve(&demand(k), 1e-7)
                    .unwrap()
                    .solution
                    .iter()
                    .map(|f| f.to_bits())
                    .collect()
            })
            .collect()
    };
    for threads in [1usize, 2, 8] {
        // Ticket path: submit everything first, then collect.
        let service = SolveService::with_threads(build(), threads).unwrap();
        let tickets: Vec<_> =
            (0..REQUESTS).map(|k| service.submit(&demand(k), 1e-7).unwrap()).collect();
        for (k, t) in tickets.into_iter().enumerate().rev() {
            let bits: Vec<u64> = t.wait().unwrap().solution.iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits, reference[k], "ticket path diverged: request {k}, {threads} threads");
        }
        // Registry path, with a forced eviction + rebuild mid-stream.
        let registry = SolverRegistry::with_config(
            RegistryConfig {
                memory_budget_bytes: usize::MAX,
                service: ServiceConfig { num_threads: Some(threads), ..Default::default() },
            },
            move |seed: &u64| {
                LaplacianSolver::build(
                    &generators::grid2d(15, 15),
                    SolverOptions { seed: *seed, ..SolverOptions::default() },
                )
            },
        );
        for k in 0..REQUESTS {
            if k == REQUESTS / 2 {
                registry.evict(&5); // rebuild must not change a bit
            }
            let bits: Vec<u64> = registry
                .solve(&5, &demand(k), 1e-7)
                .unwrap()
                .solution
                .iter()
                .map(|f| f.to_bits())
                .collect();
            assert_eq!(
                bits, reference[k],
                "registry path diverged: request {k}, {threads} threads"
            );
        }
        assert_eq!(registry.stats().misses, 2, "exactly one rebuild after the eviction");
    }
}

/// End-to-end: same seed, same demand, `RAYON_NUM_THREADS`-style pool
/// sizes 1 vs 4 — the returned solution vector must be bit-identical,
/// not merely close.
#[test]
fn solver_output_identical_across_threads() {
    let g = generators::gnp_connected(400, 0.015, 5);
    let b = parlap_linalg::vector::random_demand(400, 21);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver =
                LaplacianSolver::build(&g, SolverOptions { seed: 9, ..SolverOptions::default() })
                    .unwrap();
            let out = solver.solve(&b, 1e-8).unwrap();
            (out.iterations, out.solution.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        })
    };
    assert_eq!(run(1), run(4), "solver output must be bit-identical across pool sizes");
}

/// The multigrid backend must meet the same whole-solve bit-identity
/// contract as the chain: the greedy matching, Galerkin coarsening,
/// and V-cycle smoothing are all sequential-or-fixed-chunk, so the
/// built hierarchy and every apply are pure functions of the graph —
/// the pool size can only change wall-clock, never a bit.
#[test]
fn multigrid_whole_solve_identical_across_1_2_8_threads() {
    let g = generators::grid2d(40, 40);
    let b = parlap_linalg::vector::random_demand(1600, 23);
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = LaplacianSolver::build(
                &g,
                SolverOptions { seed: 13, backend: BackendKind::Multigrid, ..Default::default() },
            )
            .unwrap();
            let out = solver.solve(&b, 1e-7).unwrap();
            (out.iterations, out.solution.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        })
    };
    let base = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), base, "multigrid solve output changed at {threads} threads");
    }
}
