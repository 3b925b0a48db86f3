//! The measured runs: cold set-ups, the closed-loop serving phase, the
//! correctness checks, and the traced run's per-layer probes.

use crate::hostinfo;
use crate::stats::{after_warmup, burst_means, median, quantile, window_rates};
use crate::trace::{durations_ms, span, Tracer};
use crate::workload::{
    demands, dimacs_text, Laplacian, Workload, DEMANDS, EPS, LNORM_CHECKS, POOL_THREADS,
    RESIDUAL_TOL,
};
use parlap_core::backend::{build_backend, BackendKind};
use parlap_core::multigrid::MultigridBackend;
use parlap_core::service::SolveService;
use parlap_core::solver::{LaplacianSolver, SolveOutcome, SolverOptions};
use parlap_graph::dimacs::parse_dimacs_chunked;
use parlap_graph::io::DEFAULT_CHUNK_EDGES;
use parlap_graph::multigraph::MultiGraph;
use parlap_linalg::op::LinOp;
use rayon::ThreadPool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Throughput is the median rate over windows of consecutive
/// completions within a serving round, sized so a run has about this
/// many windows (windows hold at least 2 completions).
const THROUGHPUT_WINDOWS: usize = 64;
/// Timed calls per layer probe in the traced run, after 3 warm-ups.
const APPLY_CALLS: usize = 30;

/// One run's result: the final JSON line's fields plus the lines
/// printed before it.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub spans: Option<Vec<crate::trace::Span>>,
}

/// The generated inputs of one run.
struct Input {
    n: usize,
    m: usize,
    text: String,
    lap: Laplacian,
    demands: Vec<Vec<f64>>,
}

impl Input {
    fn generate(w: Workload, seed: u64) -> Input {
        let (n, edges) = w.graph(seed);
        Input {
            n,
            m: edges.len(),
            text: dimacs_text(n, &edges),
            lap: Laplacian::new(n, &edges),
            demands: demands(n, seed),
        }
    }
}

/// The options every workload builds with: `Auto` backend, the
/// workload's sparsify mode, everything else at its default.
fn options(w: Workload) -> SolverOptions {
    SolverOptions { backend: BackendKind::Auto, sparsify: w.sparsify(), ..SolverOptions::default() }
}

fn pool(threads: usize) -> Result<ThreadPool, String> {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().map_err(|e| e.to_string())
}

fn ingest(text: &str) -> Result<MultiGraph, String> {
    parse_dimacs_chunked(text.as_bytes(), DEFAULT_CHUNK_EDGES).map_err(|e| format!("ingest: {e}"))
}

/// One cold set-up, ingest → `LaplacianSolver::build` → service start
/// on a `threads`-worker pool, timed end to end in seconds.
fn setup(
    input: &Input,
    opts: &SolverOptions,
    threads: usize,
    build_pool: &ThreadPool,
    tracer: Option<&Tracer>,
    root: &'static str,
    req: u64,
) -> Result<(SolveService, f64), String> {
    let t0 = Instant::now();
    let service = span(tracer, root, None, req, |id| {
        let g = span(tracer, "graph.ingest", id, req, |_| ingest(&input.text))?;
        let solver = span(tracer, "pipeline.build", id, req, |_| {
            build_pool.install(|| LaplacianSolver::build(&g, opts.clone()))
        })
        .map_err(|e| format!("build: {e}"))?;
        span(tracer, "service.start", id, req, |_| SolveService::with_threads(solver, threads))
            .map_err(|e| format!("service start: {e}"))
    })?;
    Ok((service, t0.elapsed().as_secs_f64()))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The first answer seen for each demand vector, shared by every
/// client, serving round and rebuild of one run: the solve path is
/// deterministic, so every later answer must repeat its bits.
struct Answers(Mutex<Vec<Option<Vec<f64>>>>);

impl Default for Answers {
    fn default() -> Self {
        Answers(Mutex::new(vec![None; DEMANDS]))
    }
}

impl Answers {
    /// Record `x` as the answer for demand `d` if it is the first one;
    /// otherwise report whether it repeats the first answer's bits.
    fn repeats(&self, d: usize, x: &[f64]) -> bool {
        let mut first = self.0.lock().expect("a client panicked");
        match &first[d] {
            Some(f) => same_bits(f, x),
            None => {
                first[d] = Some(x.to_vec());
                true
            }
        }
    }

    fn first(&self, d: usize) -> Option<Vec<f64>> {
        self.0.lock().expect("a client panicked")[d].clone()
    }
}

/// Everything the serving phase observed.
struct Served {
    /// Submit → outcome per request after each client's warm-ups.
    latencies_ms: Vec<f64>,
    /// Completion times (s from round start) of the same requests, one
    /// sorted list per serving round.
    completions_s: Vec<Vec<f64>>,
    attempted: usize,
    /// Requests answered `Ok` whose answer passed the residual check
    /// and repeated the first answer's bits for its demand vector.
    ok: usize,
    /// `ok` split by demand vector.
    ok_per_demand: Vec<usize>,
    /// `Ok` answers whose bits differ from the first answer for their
    /// demand vector.
    mismatches: usize,
    errors: Vec<String>,
}

impl Default for Served {
    fn default() -> Self {
        Served {
            latencies_ms: Vec::new(),
            completions_s: Vec::new(),
            attempted: 0,
            ok: 0,
            ok_per_demand: vec![0; DEMANDS],
            mismatches: 0,
            errors: Vec::new(),
        }
    }
}

impl Served {
    fn merge(&mut self, other: Served) {
        self.latencies_ms.extend(other.latencies_ms);
        self.completions_s.extend(other.completions_s);
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (a, b) in self.ok_per_demand.iter_mut().zip(other.ok_per_demand) {
            *a += b;
        }
        self.mismatches += other.mismatches;
        self.errors.extend(other.errors);
    }

    /// Median completion rate over windows of consecutive completions,
    /// taken within each serving round.
    fn throughput(&self) -> f64 {
        let rates: Vec<f64> =
            self.completions_s.iter().flat_map(|c| window_rates(c, self.window())).collect();
        median(&rates)
    }

    fn window(&self) -> usize {
        let total: usize = self.completions_s.iter().map(Vec::len).sum();
        (total / THROUGHPUT_WINDOWS).max(2)
    }
}

/// One closed-loop serving round: each of the workload's clients
/// submits a demand vector, waits for the answer, checks it (outside
/// the latency timer) and submits the next, until `duration` is over.
fn serve(
    service: &SolveService,
    input: &Input,
    w: Workload,
    duration: Duration,
    answers: &Answers,
    tracer: Option<&Tracer>,
    req_base: u64,
) -> Served {
    let clients = w.clients();
    let start = Instant::now();
    // Each client returns its record and its completion times.
    let per_client: Vec<(Served, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut rec = Served::default();
                    let mut completions = Vec::new();
                    let mut i = 0;
                    while start.elapsed() < duration {
                        let d = (c + i * clients) % DEMANDS;
                        let b = &input.demands[d];
                        let req = req_base + (i * clients + c) as u64;
                        span(tracer, "request", None, req, |id| {
                            let t0 = Instant::now();
                            let result = span(tracer, "service.submit", id, req, |_| {
                                service.submit(b, EPS)
                            })
                            .and_then(|t| span(tracer, "service.wait", id, req, |_| t.wait()));
                            let t1 = Instant::now();
                            if i >= w.warmup_requests() {
                                rec.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
                                completions.push((t1 - start).as_secs_f64());
                            }
                            rec.attempted += 1;
                            span(tracer, "check.residual", id, req, |_| match result {
                                Ok(out) => {
                                    let residual_ok =
                                        input.lap.relative_residual(b, &out.solution)
                                            <= RESIDUAL_TOL;
                                    let repeats = answers.repeats(d, &out.solution);
                                    rec.mismatches += usize::from(!repeats);
                                    if residual_ok && repeats {
                                        rec.ok += 1;
                                        rec.ok_per_demand[d] += 1;
                                    } else {
                                        rec.errors.push(format!(
                                            "demand {d}: residual ok {residual_ok}, bits repeat {repeats}"
                                        ));
                                    }
                                }
                                Err(e) => rec.errors.push(format!("demand {d}: {e}")),
                            });
                        });
                        i += 1;
                    }
                    (rec, completions)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut served = Served::default();
    let mut completions = Vec::new();
    for (rec, c) in per_client {
        served.merge(rec);
        completions.extend(c);
    }
    completions.sort_by(f64::total_cmp);
    served.completions_s.push(completions);
    served
}

/// Check the first answer of the first [`LNORM_CHECKS`] demand vectors
/// in the paper's metric, `‖x̃ − L⁺b‖_L / ‖L⁺b‖_L ≤ ε`, against the
/// library's 1e-13 CG reference. Returns how many counted-ok requests
/// a failure invalidates (all answers for one demand share its bits).
fn lnorm_check(
    solver: &LaplacianSolver,
    input: &Input,
    answers: &Answers,
    served: &Served,
    pool: &ThreadPool,
    tracer: Option<&Tracer>,
    notes: &mut Vec<String>,
) -> usize {
    let mut invalid = 0;
    for d in 0..LNORM_CHECKS {
        let Some(x) = answers.first(d) else { continue };
        let err = span(tracer, "check.lnorm", None, d as u64, |_| {
            pool.install(|| solver.relative_error(&input.demands[d], &x))
        });
        notes.push(format!("check: demand {d} L-norm error {err:.3e} (target {EPS:e})"));
        if err.is_nan() || err > EPS {
            invalid += served.ok_per_demand[d];
        }
    }
    invalid
}

fn provenance(w: Workload, seed: u64, input: &Input, solver: &LaplacianSolver) -> Vec<String> {
    vec![
        format!(
            "provenance: workload={} seed={seed} pool_threads={POOL_THREADS} clients={} eps={EPS:e}",
            w.name(),
            w.clients()
        ),
        format!("provenance: graph n={} m={}", input.n, input.m),
        format!(
            "provenance: backend={:?} descriptor={}",
            solver.backend_kind(),
            solver.descriptor()
        ),
        format!("provenance: {}", parlap_bench::host::fingerprint().summary()),
    ]
}

/// Calibration-loop and steal readings at the start of a run.
struct HostWatch {
    calib_start_ms: f64,
    steal_start: Option<u64>,
}

impl HostWatch {
    fn start() -> HostWatch {
        HostWatch { calib_start_ms: hostinfo::calib_ms(), steal_start: hostinfo::steal_ticks() }
    }

    /// (mean calibration ms, steal ticks during the run), noted.
    fn finish(self, notes: &mut Vec<String>) -> (f64, f64) {
        let calib_end_ms = hostinfo::calib_ms();
        let steal = match (self.steal_start, hostinfo::steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => 0.0,
        };
        notes.push(format!(
            "provenance: calib_ms start={:.3} end={calib_end_ms:.3} steal_ticks={steal}",
            self.calib_start_ms
        ));
        ((self.calib_start_ms + calib_end_ms) / 2.0, steal)
    }
}

fn finish_report(
    correct: bool,
    attempted: usize,
    ok: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    mut notes: Vec<String>,
    spans: Option<Vec<crate::trace::Span>>,
) -> Report {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        notes.push("error: a metric is not finite".into());
    }
    Report {
        correct: correct && finite && ok == attempted && attempted > 0,
        attempted: attempted.max(1),
        failed: attempted.max(1) - ok.min(attempted.max(1)),
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect(),
        notes,
        spans,
    }
}

/// The untraced run: the end-to-end metrics. After the warm-up
/// set-ups it alternates rounds of cold set-ups with rounds of serving
/// on the newest service, so both kinds of sample spread over the whole
/// run and a slow stretch on the host lands on a minority of each.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let host = HostWatch::start();
    let input = Input::generate(w, seed);
    let opts = options(w);
    let (warm, rounds, per_round) = w.setups();
    let build_pool = pool(POOL_THREADS)?;
    let round_time = Duration::from_secs_f64(seconds / rounds as f64);
    let answers = Answers::default();
    let mut service = None;
    let mut setup_s = Vec::new();
    let mut served = Served::default();
    let mut round_p50 = Vec::new();
    for i in 0..warm + rounds * per_round {
        drop(service.take());
        let (svc, dt) = setup(&input, &opts, POOL_THREADS, &build_pool, None, "setup", i as u64)?;
        setup_s.push(dt);
        if i >= warm && (i + 1 - warm) % per_round == 0 {
            let round = serve(&svc, &input, w, round_time, &answers, None, (i as u64) << 32);
            round_p50.push(format!("{:.1}", median(&round.latencies_ms)));
            served.merge(round);
        }
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");

    let mut notes = provenance(w, seed, &input, service.solver());
    let invalid =
        lnorm_check(service.solver(), &input, &answers, &served, &build_pool, None, &mut notes);
    let ok = served.ok - invalid;
    notes.extend(served.errors.iter().take(5).map(|e| format!("error: {e}")));
    notes.push(format!(
        "samples: setups={} (+{warm} warm-up) rounds={rounds} requests={} timed={} windows of {}",
        rounds * per_round,
        served.attempted,
        served.latencies_ms.len(),
        served.window()
    ));
    notes.push(format!("samples: p50 ms per round {}", round_p50.join(" ")));
    // One set-up sample per round: the mean of the round's burst.
    let bursts = burst_means(after_warmup(&setup_s, warm), per_round);
    notes.push(format!(
        "samples: setup s per burst of {per_round} {}",
        bursts.iter().map(|s| format!("{s:.5}")).collect::<Vec<_>>().join(" ")
    ));
    drop(service);
    let _ = host.finish(&mut notes);
    let metrics = vec![
        ("setup_s", median(&bursts), "s"),
        ("latency_ms_p50", median(&served.latencies_ms), "ms"),
        ("throughput_per_s", served.throughput(), "1/s"),
        ("peak_rss_mib", hostinfo::peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        ("ok_share", ok as f64 / served.attempted.max(1) as f64, "ratio"),
    ];
    Ok(finish_report(true, served.attempted, ok, metrics, notes, None))
}

/// The exact counts a build and its solves must repeat bit for bit
/// across runs and pool sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    pub descriptor: String,
    pub backend_bytes: usize,
    /// `None` on the multigrid backend.
    pub chain: Option<ChainCounts>,
    pub multigrid_levels: Option<usize>,
    /// Sparsifier (edges after, samples drawn), when the stage engaged.
    pub sparsifier: Option<(usize, usize)>,
    pub iterations: Vec<usize>,
    pub fallbacks: Vec<bool>,
    pub solution_bits: Vec<Vec<u64>>,
}

/// The chain's structure and the PRAM work of each build phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChainCounts {
    pub rounds: usize,
    pub walk_steps: u64,
    pub connectivity_retries: usize,
    /// Work per `CostMeter` label, in first-recorded order.
    pub work: Vec<(String, u64)>,
}

impl Counts {
    pub fn of(solver: &LaplacianSolver, outcomes: &[SolveOutcome]) -> Counts {
        let chain = (solver.backend_kind() == BackendKind::Chain).then(|| {
            let st = &solver.chain().stats;
            ChainCounts {
                rounds: st.rounds,
                walk_steps: st.walk_total_steps.iter().sum(),
                connectivity_retries: st.connectivity_retries_used,
                work: st.meter.by_label().into_iter().map(|(l, c)| (l, c.work)).collect(),
            }
        });
        Counts {
            descriptor: solver.descriptor(),
            backend_bytes: solver.backend().estimated_bytes(),
            chain,
            multigrid_levels: solver
                .backend()
                .as_any()
                .downcast_ref::<MultigridBackend>()
                .map(MultigridBackend::num_levels),
            sparsifier: solver.sparsify_stage().map(|st| (st.edges_after(), st.samples)),
            iterations: outcomes.iter().map(|o| o.iterations).collect(),
            fallbacks: outcomes.iter().map(|o| o.used_fallback).collect(),
            solution_bits: outcomes
                .iter()
                .map(|o| o.solution.iter().map(|x| x.to_bits()).collect())
                .collect(),
        }
    }

    /// Build the workload's solver on a `threads`-worker pool and solve
    /// its first `solves` demand vectors there.
    pub fn measure(
        w: Workload,
        seed: u64,
        threads: usize,
        solves: usize,
    ) -> Result<Counts, String> {
        let input = Input::generate(w, seed);
        let pool = pool(threads)?;
        let g = ingest(&input.text)?;
        pool.install(|| {
            let solver = LaplacianSolver::build(&g, options(w)).map_err(|e| e.to_string())?;
            let outs: Result<Vec<_>, _> =
                input.demands[..solves].iter().map(|b| solver.solve(b, EPS)).collect();
            Ok(Counts::of(&solver, &outs.map_err(|e| e.to_string())?))
        })
    }
}

/// Direct `LaplacianSolver::solve` calls (no service) over every
/// demand vector, `passes` times, each checked; returns the first
/// pass's outcomes by demand vector, how many calls passed their
/// checks, and the failures.
fn direct_solves(
    solver: &LaplacianSolver,
    input: &Input,
    pool: &ThreadPool,
    tracer: &Tracer,
    name: &'static str,
    passes: usize,
) -> (Vec<Option<SolveOutcome>>, usize, Vec<String>) {
    let mut first = vec![None; DEMANDS];
    let mut ok = 0;
    let mut errors = Vec::new();
    for pass in 0..passes {
        for (d, b) in input.demands.iter().enumerate() {
            let out =
                span(Some(tracer), name, None, d as u64, |_| pool.install(|| solver.solve(b, EPS)));
            match out {
                Ok(out) => {
                    if input.lap.relative_residual(b, &out.solution) <= RESIDUAL_TOL {
                        ok += 1;
                    } else {
                        errors.push(format!("{name} demand {d}: residual above tolerance"));
                    }
                    if pass == 0 {
                        first[d] = Some(out);
                    }
                }
                Err(e) => errors.push(format!("{name} demand {d}: {e}")),
            }
        }
    }
    (first, ok, errors)
}

/// The traced run: spans around every layer call, the per-layer
/// metrics derived from them, and the determinism and fidelity checks.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let host = HostWatch::start();
    let input = Input::generate(w, seed);
    let opts = options(w);
    let tracer = Tracer::default();
    let t = Some(&tracer);
    let pool2 = pool(POOL_THREADS)?;
    let pool1 = pool(1)?;
    let mut notes = Vec::new();
    let mut correct = true;
    let (mut attempted, mut ok) = (0, 0);

    // Set-ups on the 2-worker pool; after each timed one, the backend
    // build alone on the backend's input graph (outside the set-up).
    let (warm, rounds, per_round) = w.setups();
    let timed = rounds * per_round;
    let g_input = ingest(&input.text)?;
    let mut service = None;
    for i in 0..warm + timed {
        drop(service.take());
        let root = if i < warm { "warmup@2" } else { "setup@2" };
        let (svc, _) = setup(&input, &opts, POOL_THREADS, &pool2, t, root, i as u64)?;
        if i >= warm {
            let solver = svc.solver();
            let g = solver.sparsify_stage().map_or(&g_input, |st| &st.graph);
            span(t, "backend.build", None, i as u64, |_| pool2.install(|| build_backend(g, &opts)))
                .map_err(|e| format!("backend build: {e}"))?;
        }
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");
    let solver = service.solver();
    notes.extend(provenance(w, seed, &input, solver));

    // The same set-ups on a 1-worker pool: the build must not change.
    let mut t1_service = None;
    for i in 0..timed {
        drop(t1_service.take());
        t1_service = Some(setup(&input, &opts, 1, &pool1, t, "setup@1", i as u64)?.0);
    }
    let t1_counts = t1_service.map(|svc| {
        let out = pool1.install(|| svc.solver().solve(&input.demands[0], EPS));
        out.map(|o| Counts::of(svc.solver(), &[o])).map_err(|e| e.to_string())
    });

    // Direct solves at both pool sizes; bits must agree.
    let (outs2, ok2, err2) = direct_solves(solver, &input, &pool2, &tracer, "solve.direct@2", 2);
    let (outs1, ok1, err1) = direct_solves(solver, &input, &pool1, &tracer, "solve.direct@1", 1);
    attempted += 3 * DEMANDS;
    ok += ok2 + ok1;
    notes.extend(err2.into_iter().chain(err1).take(5).map(|e| format!("error: {e}")));
    let done = |outs: &[Option<SolveOutcome>]| -> Vec<SolveOutcome> {
        outs.iter().flatten().cloned().collect()
    };
    let counts2 = Counts::of(solver, &done(&outs2));
    let counts1 = Counts::of(solver, &done(&outs1));
    let t2_first = Counts::of(solver, &done(&outs2[..1]));
    if counts1 != counts2 || t1_counts != Some(Ok(t2_first)) {
        correct = false;
        notes.push("error: counts or bits differ between pool sizes 1 and 2".into());
    } else {
        notes.push(format!(
            "check: counts and bits identical at pool sizes 1 and 2 ({} solves)",
            counts2.iterations.len()
        ));
    }

    // Per-call preconditioner apply and Laplacian matvec.
    let csr = parlap_graph::laplacian::to_csr(&g_input);
    let b = &input.demands[0];
    let mut out = vec![0.0; input.n];
    pool2.install(|| {
        for k in 0..3 + APPLY_CALLS {
            let tk = if k < 3 { None } else { t };
            span(tk, "solve.precond_apply", None, k as u64, |_| {
                solver.backend().apply(b, &mut out)
            });
        }
        for k in 0..3 + APPLY_CALLS {
            let tk = if k < 3 { None } else { t };
            span(tk, "solve.matvec", None, k as u64, |_| csr.apply(b, &mut out));
        }
    });
    drop(csr);

    // Serving, first untraced and then traced, for the tracing overhead.
    // The direct answers are registered first, so every service answer
    // is checked against the direct answer's bits.
    let answers = Answers::default();
    for (d, o) in outs2.iter().enumerate() {
        if let Some(o) = o {
            answers.repeats(d, &o.solution);
        }
    }
    let part = Duration::from_secs_f64(seconds / 4.0);
    let plain = serve(&service, &input, w, part, &answers, None, 0);
    let traced = serve(&service, &input, w, part, &answers, t, 1 << 32);
    attempted += plain.attempted + traced.attempted;
    ok += plain.ok + traced.ok;
    let plain_p50 = median(&plain.latencies_ms);
    let traced_ms = traced.latencies_ms.clone();
    let mut both = Served::default();
    both.merge(plain);
    both.merge(traced);
    ok -= lnorm_check(solver, &input, &answers, &both, &pool2, t, &mut notes);
    notes.extend(both.errors.iter().take(5).map(|e| format!("error: {e}")));
    if both.mismatches == 0 {
        notes.push("check: the service's answers repeat the direct solves' bits".into());
    } else {
        correct = false;
        notes.push(format!("error: {} service answers differ from direct solves", both.mismatches));
    }

    let stats = service.stats();
    drop(service);
    let (calib_ms, steal) = host.finish(&mut notes);

    let spans = tracer.spans();
    let med = |name: &str, parent: Option<&str>| median(&durations_ms(&spans, name, parent));
    let build_ms = med("pipeline.build", Some("setup@2"));
    let backend_ms = med("backend.build", None);
    let direct_ms = med("solve.direct@2", None);
    let iterations: Vec<f64> = counts2.iterations.iter().map(|&i| i as f64).collect();
    let iters = median(&iterations);
    let precond_ms = med("solve.precond_apply", None);
    let matvec_ms = med("solve.matvec", None);
    let service_p50 = median(&traced_ms);
    let chain = counts2.chain.clone().unwrap_or_default();
    let work_of =
        |label: &str| chain.work.iter().find(|(l, _)| l == label).map_or(0.0, |(_, wk)| *wk as f64);
    if counts2.chain.is_none() {
        notes.push("absent: chain.* are 0 because the backend is multigrid".into());
    }
    if counts2.multigrid_levels.is_none() {
        notes.push("absent: multigrid.levels is 0 because the backend is the chain".into());
    }
    if counts2.sparsifier.is_none() {
        notes.push("absent: sparsify.* are 0 because the sparsify stage is off".into());
    }
    let (edges_out, samples) = counts2.sparsifier.unwrap_or_default();
    let metrics = vec![
        ("graph.ingest_ms", med("graph.ingest", Some("setup@2")), "ms"),
        ("pipeline.build_ms", build_ms, "ms"),
        ("pipeline.non_backend_ms", build_ms - backend_ms, "ms"),
        ("sparsify.edges_out", edges_out as f64, "count"),
        ("sparsify.samples", samples as f64, "count"),
        ("backend.build_ms", backend_ms, "ms"),
        ("backend.bytes", counts2.backend_bytes as f64, "bytes"),
        ("chain.rounds", chain.rounds as f64, "count"),
        ("chain.walk_steps", chain.walk_steps as f64, "count"),
        ("chain.connectivity_retries", chain.connectivity_retries as f64, "count"),
        ("chain.work.five_dd", work_of("five_dd"), "ops"),
        ("chain.work.terminal_walks", work_of("terminal_walks"), "ops"),
        ("chain.work.level_build", work_of("level_build"), "ops"),
        ("chain.work.base_pinv", work_of("base_pinv"), "ops"),
        ("multigrid.levels", counts2.multigrid_levels.unwrap_or(0) as f64, "count"),
        ("solve.direct_ms_p50", direct_ms, "ms"),
        ("solve.iterations_p50", iters, "count"),
        (
            "solve.fallback_share",
            counts2.fallbacks.iter().filter(|&&f| f).count() as f64
                / counts2.fallbacks.len().max(1) as f64,
            "ratio",
        ),
        ("solve.precond_ms", precond_ms, "ms"),
        ("solve.matvec_ms", matvec_ms, "ms"),
        ("solve.precond_share", iters * precond_ms / direct_ms, "ratio"),
        ("solve.matvec_share", iters * matvec_ms / direct_ms, "ratio"),
        ("service.admit_us_p50", 1e3 * med("service.submit", Some("request")), "us"),
        ("service.overhead_ms_p50", service_p50 - direct_ms, "ms"),
        ("service.mean_batch", stats.requests as f64 / stats.batches.max(1) as f64, "count"),
        ("service.max_queue_len", stats.max_queue_len as f64, "count"),
        ("service.latency_ms_p90", quantile(&traced_ms, 0.9), "ms"),
        ("service.latency_ms_p99", quantile(&traced_ms, 0.99), "ms"),
        ("service.latency_samples", traced_ms.len() as f64, "count"),
        ("scaling.setup_t1_over_t2", med("setup@1", None) / med("setup@2", None), "ratio"),
        ("scaling.solve_t1_over_t2", med("solve.direct@1", None) / direct_ms, "ratio"),
        ("host.calib_ms", calib_ms, "ms"),
        ("host.steal_ticks", steal, "count"),
        ("trace.overhead_share", service_p50 / plain_p50 - 1.0, "ratio"),
    ];
    Ok(finish_report(correct, attempted, ok, metrics, notes, Some(spans)))
}
