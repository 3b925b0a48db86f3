//! Integration tests for the async serving tier: bounded admission
//! under a client storm, deadline enforcement at batch formation *and*
//! mid-solve, ticket cancellation (including cancelling a solve
//! already in flight), concurrent dispatch across the service's
//! drivers, and the keyed registry's LRU behavior — including the
//! 1-worker dedicated-pool configuration CI exercises explicitly (a
//! single compute worker must never deadlock the driver).
//!
//! Pool sizes default to small fixed values but honor
//! `PARLAP_SERVICE_POOL_THREADS` so the CI matrix can pin every
//! dedicated pool in this file to one worker.

use parlap::prelude::*;
use std::time::{Duration, Instant};

/// Dedicated-pool size for services in this file: the CI matrix sets
/// `PARLAP_SERVICE_POOL_THREADS=1` on one leg to prove a single-worker
/// pool cannot deadlock the driver loop; locally it defaults to 2.
fn pool_threads() -> usize {
    std::env::var("PARLAP_SERVICE_POOL_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

fn build_solver(side: usize, seed: u64) -> LaplacianSolver {
    let g = generators::grid2d(side, side);
    LaplacianSolver::build(&g, SolverOptions { seed, ..SolverOptions::default() }).unwrap()
}

/// A solver whose solve is deliberately long:
/// `OuterMethod::RichardsonFixed` runs the paper's fixed `⌈e^{2δ} ln(1/ε)⌉`
/// outer iterations, and overestimating `δ` inflates that count — the
/// work is real, the iteration count is known in advance, and the bits
/// stay deterministic. The interruption tests below need a solve that
/// takes measurable wall time.
fn build_slow_solver(side: usize, seed: u64) -> LaplacianSolver {
    let g = generators::grid2d(side, side);
    LaplacianSolver::build(
        &g,
        SolverOptions {
            seed,
            delta: 2.5,
            outer: OuterMethod::RichardsonFixed,
            ..SolverOptions::default()
        },
    )
    .unwrap()
}

/// Storm a capacity-4 service from 8 clients × 4 requests each. The
/// bounded-admission contract: the queue's high-water mark never
/// exceeds capacity, every attempt either completes or is shed with
/// `Overloaded` (nothing lost, nothing double-counted), and every
/// completed answer is bit-identical to the bare solver's.
#[test]
fn storm_against_full_queue_sheds_with_overloaded_and_stays_bounded() {
    const CAPACITY: usize = 4;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    let reference = build_solver(12, 5);
    let n = reference.dim();
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { queue_capacity: CAPACITY, num_threads: Some(pool_threads()) },
    )
    .unwrap();
    let results: Vec<(usize, Result<Vec<u64>, SolverError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = service.clone();
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|r| {
                            let k = c * PER_CLIENT + r;
                            let b = parlap::linalg::vector::random_demand(n, k as u64);
                            let out = svc.solve(&b, 1e-6).map(|o| {
                                o.solution.iter().map(|f| f.to_bits()).collect::<Vec<u64>>()
                            });
                            (k, out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut completed = 0u64;
    let mut shed = 0u64;
    for (k, res) in results {
        match res {
            Ok(bits) => {
                completed += 1;
                let b = parlap::linalg::vector::random_demand(n, k as u64);
                let want: Vec<u64> = reference
                    .solve(&b, 1e-6)
                    .unwrap()
                    .solution
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                assert_eq!(bits, want, "completed request {k} diverged from the bare solver");
            }
            Err(SolverError::Overloaded { capacity }) => {
                shed += 1;
                assert_eq!(capacity, CAPACITY, "error must report the configured capacity");
            }
            Err(e) => panic!("request {k}: unexpected error {e}"),
        }
    }
    let stats = service.stats();
    assert_eq!(completed + shed, (CLIENTS * PER_CLIENT) as u64, "every attempt accounted for");
    assert_eq!(stats.requests, completed, "admitted = completed (none lost)");
    assert_eq!(stats.shed, shed);
    assert!(
        stats.max_queue_len <= CAPACITY,
        "queue high-water mark {} exceeded capacity {CAPACITY}",
        stats.max_queue_len
    );
    assert!(completed >= 1, "at least the first request must complete");
}

/// A request whose deadline has already passed when the driver forms
/// its batch resolves to `DeadlineExceeded` without costing a solve,
/// and never poisons fresh batch-mates.
#[test]
fn expired_deadline_is_dropped_at_batch_formation() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let b = parlap::linalg::vector::random_demand(n, 1);
    // Deadline in the past: guaranteed expired at formation time.
    let expired =
        service.submit_with_deadline(&b, 1e-6, Some(Instant::now() - Duration::from_secs(1)));
    let fresh = service.submit(&b, 1e-6).unwrap();
    assert!(matches!(expired.unwrap().wait().unwrap_err(), SolverError::DeadlineExceeded { .. }));
    assert!(fresh.wait().is_ok(), "a fresh batch-mate must still be answered");
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.requests, 2, "expired requests were admitted, so they count");
}

/// A generous deadline behaves like no deadline at all.
#[test]
fn future_deadline_completes_normally() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let b = parlap::linalg::vector::random_demand(n, 2);
    let ticket = service
        .submit_with_deadline(&b, 1e-6, Some(Instant::now() + Duration::from_secs(600)))
        .unwrap();
    assert!(ticket.wait().unwrap().relative_residual.is_finite());
    assert_eq!(service.stats().expired, 0);
}

/// Cancelling one in-flight ticket must not orphan its batch-mates:
/// everyone else still gets a published outcome, and the cancelled
/// ticket resolves to `Cancelled` (or, if the race was lost and the
/// outcome was already published, to its real result — both are legal).
#[test]
fn cancellation_never_orphans_batch_mates() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    for round in 0..4u64 {
        let mates: Vec<_> = (0..3)
            .map(|r| {
                let b = parlap::linalg::vector::random_demand(n, round * 10 + r);
                service.submit(&b, 1e-6).unwrap()
            })
            .collect();
        let victim = service
            .submit(&parlap::linalg::vector::random_demand(n, round * 10 + 9), 1e-6)
            .unwrap();
        let won = victim.cancel();
        match victim.wait() {
            Err(SolverError::Cancelled { .. }) => {
                assert!(won, "Cancelled outcome implies cancel won")
            }
            Ok(out) => assert!(out.relative_residual.is_finite(), "late cancel: real outcome"),
            Err(e) => panic!("unexpected victim outcome: {e}"),
        }
        for (i, mate) in mates.into_iter().enumerate() {
            assert!(
                mate.wait().expect("batch-mate orphaned").relative_residual.is_finite(),
                "round {round}, mate {i}"
            );
        }
    }
}

/// Polling API: `try_recv` returns `None` while pending, the outcome
/// exactly once, then `None` forever; `wait_timeout` with a tiny
/// budget returns `None` instead of blocking.
#[test]
fn polling_consumes_outcome_exactly_once() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let mut ticket = service.submit(&parlap::linalg::vector::random_demand(n, 3), 1e-6).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(out) = ticket.try_recv() {
            assert!(out.unwrap().relative_residual.is_finite());
            break;
        }
        assert!(Instant::now() < deadline, "outcome never published");
        std::thread::yield_now();
    }
    assert!(ticket.try_recv().is_none(), "outcome must be consumed exactly once");
    assert!(ticket.wait_timeout(Duration::from_millis(1)).is_none());
}

/// Admission-time validation: a wrong-dimension request is rejected
/// before the O(n) copy and leaves `batches` untouched; a correct
/// follow-up is served by a fresh first batch.
#[test]
fn invalid_request_rejected_at_admission_without_forming_a_batch() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let wrong = vec![1.0; n + 1];
    assert!(matches!(
        service.submit(&wrong, 1e-6).unwrap_err(),
        SolverError::DimensionMismatch { .. }
    ));
    assert!(matches!(
        service.submit(&vec![1.0; n], 2.0).unwrap_err(),
        SolverError::InvalidOption(_)
    ));
    let stats = service.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.batches, 0, "rejected requests must not form batches");
    assert_eq!(stats.requests, 0, "rejected requests are never admitted");
    let ok = service.solve(&parlap::linalg::vector::random_demand(n, 4), 1e-6);
    assert!(ok.is_ok());
}

/// The registry's LRU eviction keeps residency under the configured
/// budget while every key stays serviceable (evicted keys rebuild).
#[test]
fn registry_keeps_residency_under_budget_across_key_churn() {
    let builder = |side: &usize| {
        let g = generators::grid2d(*side, *side);
        LaplacianSolver::build(&g, SolverOptions { seed: *side as u64, ..SolverOptions::default() })
    };
    // Calibrate against the actual per-key entry sizes (they differ
    // across backends: a chain at n = 100 and a multigrid hierarchy
    // at n = 144 are nowhere near the same bytes). The budget below
    // always fits the two largest entries but never all three, so
    // churn over the three keys must evict under any backend.
    let probe = SolverRegistry::new(usize::MAX, builder);
    let mut entry_bytes = Vec::new();
    let mut seen = 0usize;
    for side in [10usize, 11, 12] {
        probe.get(&side).unwrap();
        let now = probe.stats().resident_bytes;
        entry_bytes.push(now - seen);
        seen = now;
    }
    let total: usize = entry_bytes.iter().sum();
    let min_entry = *entry_bytes.iter().min().unwrap();
    let budget = total - min_entry / 2;
    let registry = SolverRegistry::with_config(
        RegistryConfig {
            memory_budget_bytes: budget,
            service: ServiceConfig { num_threads: Some(pool_threads()), ..Default::default() },
        },
        builder,
    );
    for round in 0..2 {
        for side in [10usize, 11, 12] {
            let b = parlap::linalg::vector::random_demand(side * side, round);
            assert!(registry.solve(&side, &b, 1e-6).is_ok(), "side {side}, round {round}");
            assert!(
                registry.stats().resident_bytes <= budget,
                "resident bytes exceeded the budget after side {side}, round {round}"
            );
        }
    }
    let stats = registry.stats();
    assert!(stats.evictions >= 1, "churn over 3 keys with room for 2 must evict");
    assert!(stats.entries <= 2);
}

/// One dedicated compute worker per entry, many concurrent clients
/// across many keys: the driver must keep forming batches and the
/// single-worker pools must drain them — no deadlock, no lost request.
/// (CI pins `PARLAP_SERVICE_POOL_THREADS=1`; this test forces 1
/// regardless, so the property is covered on every leg.)
#[test]
fn registry_one_worker_pool_no_deadlock() {
    let registry = SolverRegistry::with_config(
        RegistryConfig {
            memory_budget_bytes: usize::MAX,
            service: ServiceConfig { num_threads: Some(1), ..Default::default() },
        },
        |side: &usize| {
            let g = generators::grid2d(*side, *side);
            LaplacianSolver::build(
                &g,
                SolverOptions { seed: *side as u64, ..SolverOptions::default() },
            )
        },
    );
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let reg = registry.clone();
                scope.spawn(move || {
                    let mut served = 0usize;
                    for r in 0..3usize {
                        let side = 10 + (c + r) % 2; // keys 10 and 11
                        let b =
                            parlap::linalg::vector::random_demand(side * side, (c * 3 + r) as u64);
                        reg.solve(&side, &b, 1e-6).expect("registry solve");
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(served, 12, "every request across both keys must be answered");
    assert_eq!(registry.stats().misses, 2, "two keys, each built once");
}

/// Acceptance gate for in-solve deadline enforcement: a request whose
/// deadline expires within the first couple of outer iterations must
/// resolve `DeadlineExceeded` in under 10% of the uninterrupted
/// solve's wall time — whether it is dropped at batch formation or
/// interrupted mid-solve.
#[test]
fn expired_deadline_resolves_in_fraction_of_solve_time() {
    const EPS: f64 = 1e-8;
    let solver = build_slow_solver(12, 7);
    let n = solver.dim();
    let b = parlap::linalg::vector::random_demand(n, 1);
    let t0 = Instant::now();
    let full = solver.solve(&b, EPS).expect("uninterrupted solve");
    let uninterrupted = t0.elapsed();
    assert!(full.iterations > 100, "solve must be slow enough to measure");
    let service = SolveService::with_config(
        build_slow_solver(12, 7),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    // A deadline roughly two iterations out: long expired before the
    // fixed iteration count could complete.
    let two_iters = uninterrupted / (full.iterations as u32) * 2;
    let t0 = Instant::now();
    let ticket = service.submit_with_deadline(&b, EPS, Some(Instant::now() + two_iters)).unwrap();
    let err = ticket.wait().unwrap_err();
    let elapsed = t0.elapsed();
    assert!(matches!(err, SolverError::DeadlineExceeded { .. }), "unexpected outcome: {err}");
    assert!(
        elapsed < uninterrupted / 10,
        "deadline shed took {elapsed:?}; uninterrupted solve took {uninterrupted:?}"
    );
    assert_eq!(service.stats().expired, 1);
}

/// Give each of the service's drivers (one per pool worker) its own
/// batch of one slow request: submit one at a time and wait for each
/// to start a new batch while every earlier one is still solving.
/// Returns the tickets, all still pending.
fn occupy_every_driver(service: &SolveService, workers: usize, eps: f64) -> Vec<SolveTicket> {
    let n = service.solver().dim();
    let spin_deadline = Instant::now() + Duration::from_secs(60);
    let mut tickets = Vec::with_capacity(workers);
    for k in 0..workers {
        let b = parlap::linalg::vector::random_demand(n, 100 + k as u64);
        tickets.push(service.submit(&b, eps).unwrap());
        // A driver counts a batch before it solves it.
        while service.stats().batches < tickets.len() as u64 {
            assert!(Instant::now() < spin_deadline, "batch {k} never formed");
            std::thread::yield_now();
        }
        assert!(
            tickets.iter().all(|t| !t.is_finished()),
            "batch {k} started only after an earlier solve had finished"
        );
    }
    tickets
}

/// A request that arrives while a batch is solving starts at once on
/// an idle worker instead of queueing behind the busy one: with two
/// workers, two slow requests are both in flight together. Requests
/// that arrive while both are busy wait and coalesce into one batch.
#[test]
fn second_request_starts_while_the_first_is_solving() {
    let service = SolveService::with_config(
        build_slow_solver(12, 9),
        ServiceConfig { num_threads: Some(2), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let slow = occupy_every_driver(&service, 2, 1e-10);
    assert_eq!(service.stats().batches, 2);
    let queued: Vec<_> = (0..2)
        .map(|k| service.submit(&parlap::linalg::vector::random_demand(n, 200 + k), 0.5).unwrap())
        .collect();
    for t in &slow {
        assert!(t.cancel(), "both slow requests must still be in flight");
    }
    for t in queued {
        assert!(t.wait().is_ok());
    }
    let stats = service.stats();
    assert_eq!((stats.batches, stats.largest_batch), (3, 2), "queued requests must coalesce");
}

/// Regression: a ticket cancelled *after* its batch is in flight used
/// to be ignored until the whole eps-group finished. Cancellation now
/// trips the in-solve interrupt flag, so the drivers are free again
/// long before the uninterrupted solves would have completed — bounded
/// here by how quickly a follow-up request is answered. Every driver
/// holds a cancelled solve, so only a driver the cancel freed can
/// answer the follow-up.
#[test]
fn mid_solve_cancel_frees_the_driver_promptly() {
    const EPS: f64 = 1e-10;
    let solver = build_slow_solver(12, 9);
    let n = solver.dim();
    let b = parlap::linalg::vector::random_demand(n, 100);
    let t0 = Instant::now();
    solver.solve(&b, EPS).expect("uninterrupted solve");
    let uninterrupted = t0.elapsed();
    let service = SolveService::with_config(
        build_slow_solver(12, 9),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let tickets = occupy_every_driver(&service, pool_threads(), EPS);
    let t0 = Instant::now();
    for t in &tickets {
        assert!(t.cancel(), "cancel must win while the solve is in flight");
    }
    // A follow-up request is only answered once a driver is free: its
    // completion time bounds how long the cancelled solves kept
    // running. The follow-up's own cost is small (coarse eps).
    let follow_up =
        service.solve(&parlap::linalg::vector::random_demand(n, 3), 0.5).expect("follow-up");
    let freed_after = t0.elapsed();
    assert!(follow_up.relative_residual.is_finite());
    assert!(
        freed_after < uninterrupted / 2,
        "drivers still busy {freed_after:?} after a mid-solve cancel; \
         the uninterrupted solve takes {uninterrupted:?}"
    );
    for t in tickets {
        assert!(matches!(t.wait().unwrap_err(), SolverError::Cancelled { .. }));
    }
    assert_eq!(service.stats().cancelled, pool_threads() as u64);
}

/// `wait_deadline` at the exact boundary: a deadline of "now" on a
/// ticket whose outcome is already published must return the outcome,
/// not `None` — the boundary counts as one last chance to take.
#[test]
fn wait_deadline_exactly_at_deadline_returns_published_outcome() {
    let service = SolveService::with_config(
        build_solver(12, 5),
        ServiceConfig { num_threads: Some(pool_threads()), ..ServiceConfig::default() },
    )
    .unwrap();
    let n = service.solver().dim();
    let mut ticket = service.submit(&parlap::linalg::vector::random_demand(n, 4), 1e-6).unwrap();
    let spin_deadline = Instant::now() + Duration::from_secs(60);
    while !ticket.is_finished() {
        assert!(Instant::now() < spin_deadline, "outcome never published");
        std::thread::yield_now();
    }
    let out = ticket.wait_deadline(Instant::now());
    assert!(
        out.expect("outcome published at the boundary must be returned").is_ok(),
        "published outcome must come back intact"
    );
    // The outcome is consumed exactly once: the same expired wait on a
    // consumed ticket cleanly reports `None`.
    assert!(ticket.wait_deadline(Instant::now()).is_none());
}
