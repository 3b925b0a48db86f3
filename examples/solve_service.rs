//! Serving front-end: build the solver once, then serve concurrent
//! solve requests from many client threads through a `SolveService`.
//!
//! The service admits requests into a bounded queue and background
//! driver threads, one per compute-pool worker, coalesce whatever has
//! accumulated into batches (group commit), fanning each batch out
//! over the pool.
//! Clients hold `SolveTicket`s — future-style handles they can wait
//! on, poll, or cancel — so a waiting client costs no OS thread on the
//! service side. Outputs are bit-identical to sequential `solve` calls
//! no matter how requests interleave — concurrency changes wall-clock
//! only, never an answer.
//!
//! Run with: `cargo run --release --example solve_service`

use parlap::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;
    const EPS: f64 = 1e-6;

    // One expensive build, amortized over every request that follows.
    let g = generators::grid2d(60, 60);
    let n = g.num_vertices();
    let t0 = Instant::now();
    let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build solver");
    println!("built once: n = {n}, {}, {:.2?}", solver.descriptor(), t0.elapsed());

    // Reference answers, computed sequentially before serving starts.
    let reference: Vec<Vec<f64>> = (0..CLIENTS * PER_CLIENT)
        .map(|k| solver.solve(&vector::random_demand(n, k as u64), EPS).expect("solve").solution)
        .collect();

    // Wrap the solver in a Send + Sync serving handle and hammer it
    // from CLIENTS OS threads at once, through the async ticket path:
    // each client submits its whole burst first, then collects.
    let service = SolveService::new(solver);
    let t1 = Instant::now();
    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = service.clone();
                let reference = &reference;
                scope.spawn(move || {
                    let tickets: Vec<(usize, SolveTicket)> = (0..PER_CLIENT)
                        .map(|r| {
                            let k = c * PER_CLIENT + r;
                            let b = vector::random_demand(n, k as u64);
                            (k, svc.submit(&b, EPS).expect("admit"))
                        })
                        .collect();
                    let mut bad = 0usize;
                    for (k, t) in tickets {
                        let out = t.wait().expect("serve");
                        // Bit-identical, not merely close.
                        if out.solution != reference[k] {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = t1.elapsed();
    let stats = service.stats();
    println!(
        "served {} requests from {CLIENTS} clients in {elapsed:.2?} ({:.1} req/s)",
        stats.requests,
        stats.requests as f64 / elapsed.as_secs_f64()
    );
    println!(
        "coalescing: {} batches, largest batch {} requests, queue high-water {}",
        stats.batches, stats.largest_batch, stats.max_queue_len
    );
    assert_eq!(mismatches, 0, "every concurrent answer must match its sequential reference");
    println!("all {} concurrent answers bit-identical to sequential solves", stats.requests);

    // Admission control: a deadline already in the past is dropped at
    // batch formation (no solve work) — or, if it slips into a batch,
    // interrupted at the first outer iteration — and a cancelled
    // ticket's request never poisons anyone else.
    let b = vector::random_demand(n, 99);
    let late = service
        .submit_with_deadline(&b, EPS, Some(Instant::now() - Duration::from_millis(1)))
        .expect("admit");
    let cancelled = service.submit(&b, EPS).expect("admit");
    cancelled.cancel();
    match late.wait() {
        Err(SolverError::DeadlineExceeded { progress: None }) => {
            println!("expired request dropped unsolved")
        }
        Err(SolverError::DeadlineExceeded { progress: Some(p) }) => {
            println!("expired request interrupted mid-solve after {} iterations", p.iterations)
        }
        other => println!("expired request raced the driver: {:?}", other.map(|o| o.iterations)),
    }
    let stats = service.stats();
    println!("final stats: {} expired, {} cancelled", stats.expired, stats.cancelled);
}
