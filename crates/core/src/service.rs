//! An async serving tier over one built [`LaplacianSolver`]: bounded
//! admission, ticket-based completion, per-request deadlines, and a
//! background group-commit loop.
//!
//! The paper's usage pattern — and the pattern of the related parallel
//! SDD/Laplacian solvers (Peng–Spielman; Konolige's parallel Laplacian
//! solver) — is **build once, solve many**: the preconditioner chain
//! is expensive, each solve against it cheap, so a service amortizes
//! one build across every right-hand side it will ever see.
//! [`SolveService`] is the concurrency-safe realization of that shape:
//! a cloneable `Send + Sync` handle accepting requests from arbitrary
//! external threads, through two front doors:
//!
//! * [`SolveService::solve`] — blocking, returns the outcome in place;
//! * [`SolveService::submit`] — asynchronous, returns a
//!   [`SolveTicket`] immediately. The caller polls
//!   ([`SolveTicket::try_recv`]), blocks ([`SolveTicket::wait`]),
//!   blocks with a deadline ([`SolveTicket::wait_deadline`] /
//!   [`SolveTicket::wait_timeout`]), or abandons the request
//!   ([`SolveTicket::cancel`]). A thousand in-flight tickets cost a
//!   thousand queue slots, **not** a thousand parked OS threads.
//!
//! # Admission control
//!
//! Every request is validated at admission
//! ([`LaplacianSolver::validate_request`]): a wrong-dimension,
//! bad-`eps`, or non-finite request is rejected *before* it is copied
//! or enqueued — it never occupies a batch slot or perturbs the
//! batching counters. Admission is **bounded**: at most
//! [`ServiceConfig::queue_capacity`] requests may wait for a batch;
//! beyond that, requests are shed with [`SolverError::Overloaded`]
//! (backpressure by load shedding — the caller retries or routes to a
//! replica). A request may carry a deadline
//! ([`SolveService::submit_with_deadline`]); deadlines are enforced
//! **twice**: at batch-formation time (an already-expired request is
//! dropped with [`SolverError::DeadlineExceeded`] before it costs any
//! solve work) and *mid-solve* through a cooperative
//! [`InterruptHandle`] polled once per outer iteration, so a request
//! whose deadline passes while it is being solved stops within one
//! outer iteration instead of burning its full iteration budget.
//! [`SolveTicket::cancel`] is wired to the same handle, so a cancelled
//! in-flight request stops paying for work just as promptly.
//!
//! # Interruption semantics
//!
//! The interrupt flag is checked at exactly one place: the top of
//! each outer PCG/Richardson iteration, between
//! preconditioner applications (see
//! [`Preconditioner`](crate::backend::Preconditioner) for why the
//! apply itself is the unit of non-interruptible work). The check
//! decides only *whether* the loop continues — never an operand — so
//! every iteration that did run is bit-identical to the uninterrupted
//! solve, and uninterrupted solves keep the full determinism contract
//! below. Mid-solve interruptions resolve the ticket with
//! [`SolverError::DeadlineExceeded`] / [`SolverError::Cancelled`]
//! carrying [`SolveProgress`](crate::error::SolveProgress) metadata
//! (iterations completed, last certified residual). Each request gets
//! its **own** handle — a batch-mate with a later (or no) deadline is
//! never interrupted by its neighbors.
//!
//! # Group commit
//!
//! Each service runs one background driver thread per worker of the
//! pool its batches run on (see [`ServiceConfig::num_threads`]). All
//! drivers share the one admission queue and run the same batch loop:
//! an idle driver drains every admitted request, drops the expired and
//! the cancelled, groups the rest by `eps`, and drives one
//! [`LaplacianSolver::solve_batch`] call per group — each request
//! solved in parallel across the pool, each solve internally parallel;
//! the scheduler composes the two levels. A request that arrives while
//! a batch is solving starts at once on an idle driver, so concurrent
//! solves too small to fan out (below the kernels' parallel cutoff)
//! run side by side on separate workers; requests that arrive while
//! every driver is busy coalesce into the next batch. Outcomes are
//! published per-request: a request that fails, fails alone. A panic inside a
//! solve (a bug, not bad input) is caught by the driver and published
//! as [`SolverError::InvariantViolation`] to **every** request of the
//! affected group — the same outcome for all batch-mates, whichever
//! thread submitted first — and the driver survives to serve the next
//! batch.
//!
//! # Determinism contract
//!
//! The solve path is deterministic: for a given built solver, the
//! response to `(b, eps)` is **bit-identical** no matter how many
//! threads the pool has, how requests interleave, which batch a
//! request lands in, or whether it arrived through `solve` or a
//! ticket. Concurrency changes wall-clock only, never an output bit —
//! the same guarantee the solver gives inside one solve, extended
//! across concurrent solves (asserted by the cross-thread determinism
//! suite at 1/2/8 workers). Admission control never changes an
//! answer: it only decides *whether* a request is answered.

use crate::error::SolverError;
use crate::solver::{LaplacianSolver, SolveOutcome};
use parlap_linalg::interrupt::InterruptHandle;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission and compute configuration for a [`SolveService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum number of admitted-but-unbatched requests. A `submit`
    /// that would exceed it is shed with [`SolverError::Overloaded`].
    /// Bounds waiting requests only — an in-flight batch no longer
    /// counts against the queue.
    pub queue_capacity: usize,
    /// Dedicated compute pool size: `Some(t)` builds a pool of `t`
    /// workers (`Some(0)` = automatic sizing) and `install`s every
    /// batch on it; `None` solves on the drivers' ambient pool (the
    /// global pool). The pool's worker count also sets the number of
    /// driver threads, one per worker — for `None`, the
    /// [`rayon::current_num_threads`] of the constructing thread,
    /// which is the global pool's size outside any pool.
    pub num_threads: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_capacity: 4096, num_threads: None }
    }
}

/// Completion slot shared between one ticket and the driver.
enum TicketState {
    /// Queued or in flight; the driver will publish here.
    Pending,
    /// Cancelled by the ticket holder; any late outcome is discarded.
    Cancelled,
    /// Outcome published, not yet consumed.
    Done(Result<SolveOutcome, SolverError>),
    /// Outcome consumed by `try_recv`/`wait`.
    Taken,
}

/// Everything behind the slot's mutex: the completion state plus the
/// waker of the most recent [`std::future::Future::poll`], if the
/// ticket is being awaited rather than blocked on.
struct SlotInner {
    ticket: TicketState,
    waker: Option<std::task::Waker>,
}

struct Slot {
    state: Mutex<SlotInner>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotInner { ticket: TicketState::Pending, waker: None }),
            ready: Condvar::new(),
        })
    }

    /// Publish `result` unless the ticket was cancelled (late outcomes
    /// of cancelled requests are discarded, never resurrected). Wakes
    /// both kinds of waiters: blocked threads via the condvar, an
    /// awaiting task via its registered waker.
    fn publish(&self, result: Result<SolveOutcome, SolverError>) {
        let mut st = self.state.lock().unwrap();
        if matches!(st.ticket, TicketState::Pending) {
            st.ticket = TicketState::Done(result);
            let waker = st.waker.take();
            drop(st);
            self.ready.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

/// One queued request: the right-hand side, its accuracy target, an
/// optional deadline, the slot its outcome is published into, and the
/// interrupt handle its solve polls (armed with the deadline at
/// submission; tripped by [`SolveTicket::cancel`]).
struct Pending {
    b: Vec<f64>,
    eps: f64,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
    interrupt: InterruptHandle,
}

/// Admission queue, guarded by one mutex held only to enqueue or
/// drain — never while solving.
struct QueueState {
    queue: Vec<Pending>,
    /// Set by the last dropping handle; each driver exits once the
    /// queue is also drained.
    shutdown: bool,
}

/// Counters for observability and tests (monotone, relaxed).
struct ServiceCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicUsize,
    max_queue_len: AtomicUsize,
    rejected: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
}

/// State shared by every handle, every ticket, and the driver threads.
struct Shared {
    solver: LaplacianSolver,
    /// Dedicated compute pool; `None` uses the drivers' ambient pool.
    pool: Option<rayon::ThreadPool>,
    state: Mutex<QueueState>,
    /// Idle drivers wait here. An enqueue wakes one of them (a busy
    /// driver rechecks the queue before it waits again, so no request
    /// is stranded); shutdown wakes them all.
    work: Condvar,
    counters: ServiceCounters,
    capacity: usize,
}

/// Snapshot of a service's lifetime counters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Requests **admitted** (counted at enqueue, before any batch is
    /// formed — a mid-flight snapshot never under-reports).
    pub requests: u64,
    /// Batches driven through the solver so far (batches that turned
    /// out entirely expired/cancelled are not counted).
    pub batches: u64,
    /// Size of the largest batch coalesced so far.
    pub largest_batch: usize,
    /// High-water mark of the admission queue; never exceeds
    /// [`ServiceConfig::queue_capacity`].
    pub max_queue_len: usize,
    /// Requests rejected at admission by validation (wrong dimension,
    /// bad `eps`, non-finite entries). Never admitted, never batched.
    pub rejected: u64,
    /// Requests shed with [`SolverError::Overloaded`] (queue full).
    pub shed: u64,
    /// Requests resolved with [`SolverError::DeadlineExceeded`] —
    /// dropped at batch formation or interrupted mid-solve.
    pub expired: u64,
    /// Tickets cancelled before their outcome was published.
    pub cancelled: u64,
    /// Solve panics caught by the driver (each published as
    /// [`SolverError::InvariantViolation`] to its whole group).
    pub panics: u64,
}

/// Owns the driver threads; all are joined when the last handle drops.
struct ServiceInner {
    shared: Arc<Shared>,
    drivers: Vec<JoinHandle<()>>,
}

impl ServiceInner {
    /// Start `count` drivers through `spawn`. If a spawn fails, the
    /// partly built `ServiceInner` drops on the way out, which signals
    /// shutdown and joins the drivers already started.
    fn start(
        shared: Arc<Shared>,
        count: usize,
        mut spawn: impl FnMut(usize, Arc<Shared>) -> std::io::Result<JoinHandle<()>>,
    ) -> Result<Self, SolverError> {
        let mut inner = ServiceInner { shared, drivers: Vec::with_capacity(count) };
        for i in 0..count {
            let driver = spawn(i, Arc::clone(&inner.shared)).map_err(|e| {
                SolverError::InvalidOption(format!("failed to spawn service driver: {e}"))
            })?;
            inner.drivers.push(driver);
        }
        Ok(inner)
    }
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.drivers.drain(..) {
            // Drivers never panic (solve panics are caught and
            // published), so join errors are unreachable in practice.
            let _ = handle.join();
        }
    }
}

/// A `Send + Sync + Clone` serving handle over one built
/// [`LaplacianSolver`]. See the [module docs](self) for admission
/// control, the batching protocol, and the determinism contract.
///
/// ```
/// use parlap_core::service::SolveService;
/// use parlap_core::solver::{LaplacianSolver, SolverOptions};
/// use parlap_graph::generators;
/// use parlap_linalg::vector::random_demand;
///
/// let g = generators::grid2d(12, 12);
/// let solver = LaplacianSolver::build(&g, SolverOptions::default()).unwrap();
/// let service = SolveService::new(solver);
/// // Fire-and-poll: tickets instead of parked threads.
/// let tickets: Vec<_> = (0..4)
///     .map(|s| service.submit(&random_demand(144, s), 1e-6).unwrap())
///     .collect();
/// for t in tickets {
///     assert!(t.wait().unwrap().relative_residual < 1e-3);
/// }
/// ```
#[derive(Clone)]
pub struct SolveService {
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveService")
            .field("dim", &self.inner.shared.solver.dim())
            .field("backend", &self.inner.shared.solver.descriptor())
            .field("queue_capacity", &self.inner.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl SolveService {
    /// Wrap a built solver with the default [`ServiceConfig`]: solves
    /// run on the drivers' ambient rayon pool (the global pool, sized
    /// by `RAYON_NUM_THREADS` / the machine's parallelism).
    pub fn new(solver: LaplacianSolver) -> Self {
        Self::with_config(solver, ServiceConfig::default())
            .expect("default service config cannot fail")
    }

    /// Wrap a built solver with a dedicated compute pool of
    /// `num_threads` workers (`0` means automatic sizing, as in
    /// [`rayon::ThreadPoolBuilder`]). Batches are `install`ed on this
    /// pool, isolating the service's compute from the global pool.
    pub fn with_threads(solver: LaplacianSolver, num_threads: usize) -> Result<Self, SolverError> {
        Self::with_config(
            solver,
            ServiceConfig { num_threads: Some(num_threads), ..ServiceConfig::default() },
        )
    }

    /// Wrap a built solver with explicit admission and pool settings.
    pub fn with_config(
        solver: LaplacianSolver,
        config: ServiceConfig,
    ) -> Result<Self, SolverError> {
        let pool = match config.num_threads {
            Some(t) => {
                Some(rayon::ThreadPoolBuilder::new().num_threads(t).build().map_err(|e| {
                    SolverError::InvalidOption(format!("failed to build service pool: {e}"))
                })?)
            }
            None => None,
        };
        let drivers =
            pool.as_ref().map_or_else(rayon::current_num_threads, |p| p.current_num_threads());
        let shared = Shared::new(solver, pool, config.queue_capacity);
        let inner = ServiceInner::start(shared, drivers, |i, shared| {
            std::thread::Builder::new()
                .name(format!("parlap-service-driver-{i}"))
                .spawn(move || driver_loop(shared))
        })?;
        Ok(SolveService { inner: Arc::new(inner) })
    }

    /// The wrapped solver (read-only: chain stats, cost model,
    /// [`LaplacianSolver::relative_error`]).
    pub fn solver(&self) -> &LaplacianSolver {
        &self.inner.shared.solver
    }

    /// Number of admitted requests currently waiting for a batch (an
    /// in-flight batch no longer counts) — a load signal for callers
    /// that route between services.
    pub fn queue_len(&self) -> usize {
        self.inner.shared.state.lock().unwrap().queue.len()
    }

    /// Lifetime counters. Relaxed snapshots — exact once quiescent,
    /// and `requests` never under-reports mid-flight (it is counted
    /// at admission, not at batch time).
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.shared.counters;
        ServiceStats {
            requests: c.requests.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
            max_queue_len: c.max_queue_len.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
        }
    }

    /// Submit `Lx = b` at accuracy `eps` and return immediately with a
    /// [`SolveTicket`]. Validation runs here, at admission: a bad
    /// request is rejected before it is copied or enqueued
    /// ([`LaplacianSolver::validate_request`]), and a full queue sheds
    /// with [`SolverError::Overloaded`].
    ///
    /// ```
    /// use parlap_core::service::SolveService;
    /// use parlap_core::solver::{LaplacianSolver, SolverOptions};
    /// use parlap_graph::generators;
    /// use parlap_linalg::vector::random_demand;
    ///
    /// let g = generators::grid2d(10, 10);
    /// let solver = LaplacianSolver::build(&g, SolverOptions::default()).unwrap();
    /// let service = SolveService::new(solver);
    /// let ticket = service.submit(&random_demand(100, 1), 1e-6).unwrap();
    /// let outcome = ticket.wait().unwrap();
    /// assert_eq!(outcome.solution.len(), 100);
    /// // Bad requests fail at admission, before any queueing:
    /// assert!(service.submit(&[1.0; 7], 1e-6).is_err()); // wrong dimension
    /// assert!(service.submit(&random_demand(100, 2), 2.0).is_err()); // eps ≥ 1
    /// ```
    pub fn submit(&self, b: &[f64], eps: f64) -> Result<SolveTicket, SolverError> {
        self.submit_with_deadline(b, eps, None)
    }

    /// Like [`SolveService::submit`], with a completion deadline,
    /// enforced at both boundaries: a request already expired when the
    /// driver forms its batch is dropped — its ticket resolves to
    /// [`SolverError::DeadlineExceeded`] with no progress — **before**
    /// it costs any solve work, and a request whose deadline passes
    /// *mid-solve* is interrupted at the next outer iteration (within
    /// one iteration's worth of work), resolving to the same error
    /// with [`SolveProgress`](crate::error::SolveProgress) metadata.
    /// Batch-mates are unaffected either way.
    pub fn submit_with_deadline(
        &self,
        b: &[f64],
        eps: f64,
        deadline: Option<Instant>,
    ) -> Result<SolveTicket, SolverError> {
        let shared = &*self.inner.shared;
        if let Err(e) = shared.solver.validate_request(b, eps) {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let slot = Slot::new();
        // One handle per request, armed with this request's deadline
        // and shared with the ticket so `cancel` can trip it mid-solve.
        let interrupt = InterruptHandle::with_deadline(deadline);
        // The O(n) copy happens only for requests that passed
        // validation, and before the queue lock — the critical section
        // is one length check plus one Vec::push.
        let request = Pending {
            b: b.to_vec(),
            eps,
            deadline,
            slot: Arc::clone(&slot),
            interrupt: interrupt.clone(),
        };
        {
            let mut st = shared.state.lock().unwrap();
            if st.queue.len() >= shared.capacity {
                drop(st);
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SolverError::Overloaded { capacity: shared.capacity });
            }
            st.queue.push(request);
            let len = st.queue.len();
            shared.counters.requests.fetch_add(1, Ordering::Relaxed);
            shared.counters.max_queue_len.fetch_max(len, Ordering::Relaxed);
        }
        shared.work.notify_one();
        Ok(SolveTicket { service: self.clone(), slot, interrupt })
    }

    /// Solve `Lx = b` to accuracy `eps`, possibly batched with
    /// concurrent requests. Blocks until this request's outcome is
    /// ready and returns exactly what [`LaplacianSolver::solve`] would
    /// return for the same `(b, eps)` — bit-identical, including the
    /// per-request error cases (a bad request never poisons its
    /// batch-mates). Equivalent to `submit(b, eps)?.wait()`, so it is
    /// subject to the same admission control (a full queue returns
    /// [`SolverError::Overloaded`]).
    pub fn solve(&self, b: &[f64], eps: f64) -> Result<SolveOutcome, SolverError> {
        self.submit(b, eps)?.wait()
    }
}

/// A future-style handle for one submitted request. The outcome is
/// consumed exactly once, by whichever of [`SolveTicket::try_recv`],
/// [`SolveTicket::wait`], [`SolveTicket::wait_deadline`], or
/// [`SolveTicket::wait_timeout`] first observes it. Dropping a ticket
/// without waiting is allowed (the request still runs and its outcome
/// is discarded); call [`SolveTicket::cancel`] to also drop the
/// request from the queue before it costs a solve. A live ticket
/// keeps its service (and its driver threads) alive.
pub struct SolveTicket {
    service: SolveService,
    slot: Arc<Slot>,
    interrupt: InterruptHandle,
}

impl fmt::Debug for SolveTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveTicket").field("finished", &self.is_finished()).finish_non_exhaustive()
    }
}

impl SolveTicket {
    /// Non-blocking poll: `Some(outcome)` once the driver has
    /// published (or the ticket was cancelled), `None` while the
    /// request is still queued or in flight — and `None` again after
    /// the outcome has already been consumed.
    pub fn try_recv(&mut self) -> Option<Result<SolveOutcome, SolverError>> {
        let mut st = self.slot.state.lock().unwrap();
        Self::take(&mut st.ticket)
    }

    /// Block until the outcome is ready and return it. Returns
    /// [`SolverError::Cancelled`] if the ticket was cancelled first.
    pub fn wait(mut self) -> Result<SolveOutcome, SolverError> {
        // The outcome is always published (drivers survive panics and
        // drain the queue before exiting), so this take cannot miss.
        self.wait_inner(None).expect("service driver always publishes an outcome")
    }

    /// Block until the outcome is ready or `deadline` passes. `None`
    /// on timeout — the request stays in flight and the ticket stays
    /// usable (poll again, wait again, or cancel).
    pub fn wait_deadline(
        &mut self,
        deadline: Instant,
    ) -> Option<Result<SolveOutcome, SolverError>> {
        self.wait_inner(Some(deadline))
    }

    /// [`SolveTicket::wait_deadline`] with a relative timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<SolveOutcome, SolverError>> {
        self.wait_inner(Instant::now().checked_add(timeout))
    }

    fn wait_inner(
        &mut self,
        deadline: Option<Instant>,
    ) -> Option<Result<SolveOutcome, SolverError>> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            if let Some(out) = Self::take(&mut st.ticket) {
                return Some(out);
            }
            match deadline {
                None => st = self.slot.ready.wait(st).unwrap(),
                Some(d) => {
                    // `saturating_duration_since` treats the exact
                    // boundary (`now == d`) as a zero wait: take once
                    // more under the lock rather than dropping an
                    // outcome that was published right at the deadline.
                    let wait = d.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        return Self::take(&mut st.ticket);
                    }
                    let (next, timed_out) = self.slot.ready.wait_timeout(st, wait).unwrap();
                    st = next;
                    if timed_out.timed_out() {
                        // Re-check once more under the lock, then give
                        // up until the caller retries.
                        return Self::take(&mut st.ticket);
                    }
                }
            }
        }
    }

    fn take(st: &mut TicketState) -> Option<Result<SolveOutcome, SolverError>> {
        match std::mem::replace(st, TicketState::Taken) {
            TicketState::Done(out) => Some(out),
            TicketState::Cancelled => {
                *st = TicketState::Cancelled;
                Some(Err(SolverError::Cancelled { progress: None }))
            }
            TicketState::Pending => {
                *st = TicketState::Pending;
                None
            }
            TicketState::Taken => None,
        }
    }

    /// Cancel the request. Returns `true` if the cancellation won the
    /// race (the outcome had not been published): a still-queued
    /// request is then dropped at batch formation without costing a
    /// solve, and an in-flight one is interrupted at its next outer
    /// iteration (stopping within one iteration's worth of work) with
    /// any late outcome discarded — its batch-mates are unaffected
    /// either way. Returns `false` if the outcome was already
    /// published (it remains consumable).
    pub fn cancel(&self) -> bool {
        let mut st = self.slot.state.lock().unwrap();
        if matches!(st.ticket, TicketState::Pending) {
            st.ticket = TicketState::Cancelled;
            let waker = st.waker.take();
            drop(st);
            if let Some(w) = waker {
                w.wake();
            }
            // Trip the in-solve flag so an in-flight solve stops
            // paying for this request instead of publishing into a
            // slot that will discard the outcome anyway.
            self.interrupt.cancel();
            self.service.inner.shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            self.slot.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// `true` once an outcome is published, the ticket is cancelled,
    /// or the outcome was already consumed — i.e. `wait` would not
    /// block.
    pub fn is_finished(&self) -> bool {
        !matches!(self.slot.state.lock().unwrap().ticket, TicketState::Pending)
    }

    /// The service this ticket was submitted to.
    pub fn service(&self) -> &SolveService {
        &self.service
    }
}

/// A [`SolveTicket`] is also a [`std::future::Future`], so it can be
/// `.await`ed on any executor (and, via the standard library's blanket
/// `impl IntoFuture for F: Future`, used directly in `.await`
/// position or through [`std::future::IntoFuture::into_future`]).
/// Completion is waker-based, not poll-loop-based: `poll` registers
/// the task's waker in the slot and the driver wakes it exactly when
/// the outcome is published (or the ticket is cancelled), so an
/// executor polls a ticket O(1) times. The future resolves to exactly
/// what [`SolveTicket::wait`] would return; like any future, it must
/// not be polled again after yielding `Ready`.
impl std::future::Future for SolveTicket {
    type Output = Result<SolveOutcome, SolverError>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        // All fields are Unpin, so the ticket is Unpin and get_mut is
        // safe structural access.
        let this = self.get_mut();
        let mut st = this.slot.state.lock().unwrap();
        if let Some(out) = Self::take(&mut st.ticket) {
            return std::task::Poll::Ready(out);
        }
        // Keep only the newest waker; `will_wake` skips a clone when
        // the same task polls again.
        if !st.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
            st.waker = Some(cx.waker().clone());
        }
        std::task::Poll::Pending
    }
}

/// One driver's group-commit loop: drain, filter, batch, publish.
/// Exits only at shutdown, once the queue is drained.
fn driver_loop(shared: Arc<Shared>) {
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if !st.queue.is_empty() {
                    break std::mem::take(&mut st.queue);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        shared.process_batch(batch);
    }
}

impl Shared {
    fn new(solver: LaplacianSolver, pool: Option<rayon::ThreadPool>, capacity: usize) -> Arc<Self> {
        Arc::new(Shared {
            solver,
            pool,
            state: Mutex::new(QueueState { queue: Vec::new(), shutdown: false }),
            work: Condvar::new(),
            counters: ServiceCounters {
                requests: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                largest_batch: AtomicUsize::new(0),
                max_queue_len: AtomicUsize::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                expired: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                panics: AtomicU64::new(0),
            },
            capacity,
        })
    }

    /// Drive one coalesced batch: drop the cancelled and the expired
    /// (before they cost anything), group the rest by `eps` (requests
    /// in a `solve_batch` call share one accuracy target), solve each
    /// group across the pool, publish per-request outcomes.
    fn process_batch(&self, batch: Vec<Pending>) {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for p in batch {
            if matches!(p.slot.state.lock().unwrap().ticket, TicketState::Cancelled) {
                continue; // dropped before costing a solve
            }
            if p.deadline.is_some_and(|d| d <= now) {
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
                p.slot.publish(Err(SolverError::DeadlineExceeded { progress: None }));
                continue;
            }
            live.push(p);
        }
        if live.is_empty() {
            return;
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.largest_batch.fetch_max(live.len(), Ordering::Relaxed);
        // Group by eps bit pattern, preserving arrival order within
        // each group (requests were validated at admission, so every
        // eps here is a finite value in (0, 1)).
        let mut groups: Vec<(u64, Vec<Pending>)> = Vec::new();
        for p in live {
            let key = p.eps.to_bits();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push(p),
                None => groups.push((key, vec![p])),
            }
        }
        for (_, group) in groups {
            let eps = group[0].eps;
            let mut slots = Vec::with_capacity(group.len());
            let mut systems = Vec::with_capacity(group.len());
            let mut handles = Vec::with_capacity(group.len());
            for p in group {
                slots.push(p.slot);
                systems.push(p.b);
                handles.push(p.interrupt);
            }
            // A panic on a pool worker resumes on the installing
            // thread (the driver). Catch it so every slot in the group
            // receives the same InvariantViolation outcome — no caller
            // is singled out with a panic, no parked waiter is
            // orphaned — and the driver survives for the next batch.
            let solve =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &self.pool {
                    Some(pool) => {
                        pool.install(|| self.solver.solve_batch_with(&systems, eps, &handles))
                    }
                    None => self.solver.solve_batch_with(&systems, eps, &handles),
                }));
            match solve {
                Ok(outcomes) => {
                    for (slot, outcome) in slots.iter().zip(outcomes) {
                        // A mid-solve expiry is still an expired
                        // request; mid-solve cancellation is already
                        // counted by the `cancel` call that tripped the
                        // handle (the slot discards this late publish).
                        if matches!(outcome, Err(SolverError::DeadlineExceeded { .. })) {
                            self.counters.expired.fetch_add(1, Ordering::Relaxed);
                        }
                        slot.publish(outcome);
                    }
                }
                Err(_payload) => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
                    for slot in &slots {
                        slot.publish(Err(SolverError::InvariantViolation(
                            "panic while solving a service batch".into(),
                        )));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{OuterMethod, SolverOptions};
    use parlap_graph::generators;
    use parlap_linalg::vector::random_demand;
    use std::thread;

    fn grid_service(threads: Option<usize>) -> (SolveService, usize) {
        let g = generators::grid2d(14, 14);
        let n = g.num_vertices();
        let solver =
            LaplacianSolver::build(&g, SolverOptions { seed: 7, ..SolverOptions::default() })
                .expect("build");
        let svc = match threads {
            Some(t) => SolveService::with_threads(solver, t).expect("pool"),
            None => SolveService::new(solver),
        };
        (svc, n)
    }

    #[test]
    fn handle_and_ticket_are_send() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SolveService>();
        assert_send::<SolveTicket>();
    }

    #[test]
    fn single_request_matches_direct_solve() {
        let (svc, n) = grid_service(Some(2));
        let b = random_demand(n, 3);
        let served = svc.solve(&b, 1e-7).expect("serve");
        let direct = svc.solver().solve(&b, 1e-7).expect("direct");
        assert_eq!(served.iterations, direct.iterations);
        assert_eq!(served.solution, direct.solution, "bit-identical to a direct solve");
        let stats = svc.stats();
        assert_eq!(stats.requests, 1);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn ticket_path_matches_direct_solve() {
        let (svc, n) = grid_service(Some(2));
        let b = random_demand(n, 9);
        let direct = svc.solver().solve(&b, 1e-7).expect("direct");
        // Poll until done, then consume; a second consume is None.
        let mut ticket = svc.submit(&b, 1e-7).expect("submit");
        let out = loop {
            if let Some(out) = ticket.try_recv() {
                break out.expect("serve");
            }
            thread::yield_now();
        };
        assert_eq!(out.solution, direct.solution, "ticket outcome bit-identical");
        assert!(ticket.try_recv().is_none(), "outcome is consumed exactly once");
        assert!(ticket.is_finished());
        // wait_timeout path delivers the same bits.
        let mut t2 = svc.submit(&b, 1e-7).expect("submit");
        let out2 = loop {
            if let Some(out) = t2.wait_timeout(Duration::from_millis(50)) {
                break out.expect("serve");
            }
        };
        assert_eq!(out2.solution, direct.solution);
    }

    /// Satellite regression: `requests` counts at **admission**, so a
    /// mid-flight snapshot (tickets submitted, none awaited) never
    /// under-reports.
    #[test]
    fn stats_requests_counted_at_admission() {
        const K: usize = 10;
        let (svc, n) = grid_service(Some(1));
        let tickets: Vec<_> = (0..K)
            .map(|s| svc.submit(&random_demand(n, s as u64), 1e-6).expect("submit"))
            .collect();
        // Snapshot before waiting on anything: every admitted request
        // must already be visible, batched or not.
        assert_eq!(svc.stats().requests, K as u64, "mid-flight snapshot under-reports");
        for t in tickets {
            t.wait().expect("serve");
        }
        assert_eq!(svc.stats().requests, K as u64);
    }

    /// Satellite regression: a request rejected by validation is
    /// turned away at admission — no batch slot, no counter movement,
    /// no O(n) copy (the queue never sees it).
    #[test]
    fn rejected_request_never_occupies_a_batch_slot() {
        let (svc, n) = grid_service(Some(1));
        assert!(matches!(
            svc.solve(&vec![1.0; n + 5], 1e-6).unwrap_err(),
            SolverError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            svc.solve(&vec![1.0; n], 2.0).unwrap_err(),
            SolverError::InvalidOption(_)
        ));
        let mut nan = vec![0.0; n];
        nan[0] = f64::NAN;
        assert!(matches!(svc.solve(&nan, 1e-6).unwrap_err(), SolverError::InvalidOption(_)));
        let stats = svc.stats();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.requests, 0, "rejected requests must not be admitted");
        assert_eq!(stats.batches, 0, "rejected requests must not drive batches");
        assert_eq!(stats.largest_batch, 0, "rejected requests must not occupy batch slots");
    }

    #[test]
    fn concurrent_clients_each_get_their_own_answer() {
        const CLIENTS: usize = 6;
        const PER_CLIENT: usize = 3;
        let (svc, n) = grid_service(Some(2));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = svc.clone();
                thread::spawn(move || {
                    (0..PER_CLIENT)
                        .map(|r| {
                            let seed = (c * PER_CLIENT + r) as u64;
                            let b = random_demand(n, seed);
                            (seed, svc.solve(&b, 1e-7).expect("serve").solution)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut served: Vec<(u64, Vec<f64>)> = Vec::new();
        for h in handles {
            served.extend(h.join().unwrap());
        }
        // Every response must equal the sequential solve of *its own*
        // seed — no cross-request mixups under concurrency.
        for (seed, solution) in served {
            let b = random_demand(n, seed);
            let direct = svc.solver().solve(&b, 1e-7).expect("direct");
            assert_eq!(solution, direct.solution, "response for seed {seed}");
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, (CLIENTS * PER_CLIENT) as u64);
        assert!(stats.batches >= 1 && stats.batches <= stats.requests);
        assert!(stats.largest_batch >= 1 && stats.largest_batch <= CLIENTS * PER_CLIENT);
    }

    #[test]
    fn bad_request_fails_alone_not_its_batchmates() {
        const GOOD: usize = 4;
        let (svc, n) = grid_service(Some(2));
        let good: Vec<_> = (0..GOOD)
            .map(|c| {
                let svc = svc.clone();
                thread::spawn(move || svc.solve(&random_demand(n, c as u64), 1e-6))
            })
            .collect();
        let bad = {
            let svc = svc.clone();
            thread::spawn(move || svc.solve(&vec![1.0; n + 5], 1e-6))
        };
        assert!(matches!(bad.join().unwrap().unwrap_err(), SolverError::DimensionMismatch { .. }));
        for h in good {
            assert!(h.join().unwrap().is_ok(), "good requests must not be poisoned");
        }
    }

    #[test]
    fn mixed_eps_requests_grouped_and_correct() {
        let (svc, n) = grid_service(Some(2));
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let svc = svc.clone();
                let eps = if c % 2 == 0 { 1e-4 } else { 1e-8 };
                thread::spawn(move || {
                    let b = random_demand(n, c as u64);
                    (c, eps, svc.solve(&b, eps).expect("serve"))
                })
            })
            .collect();
        for h in handles {
            let (c, eps, out) = h.join().unwrap();
            let b = random_demand(n, c as u64);
            let direct = svc.solver().solve(&b, eps).expect("direct");
            assert_eq!(out.solution, direct.solution, "client {c} at eps {eps}");
        }
    }

    #[test]
    fn ambient_pool_service_works_from_external_threads() {
        // No dedicated pool: the drivers route batch compute through
        // the global pool's injector.
        let (svc, n) = grid_service(None);
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let svc = svc.clone();
                thread::spawn(move || svc.solve(&random_demand(n, c as u64), 1e-6).expect("serve"))
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().relative_residual.is_finite());
        }
    }

    #[test]
    fn zero_capacity_queue_sheds_every_submit() {
        let g = generators::grid2d(10, 10);
        let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
        let config = ServiceConfig { queue_capacity: 0, num_threads: Some(1) };
        let svc = SolveService::with_config(solver, config).expect("service");
        let b = random_demand(100, 1);
        assert!(matches!(
            svc.submit(&b, 1e-6).unwrap_err(),
            SolverError::Overloaded { capacity: 0 }
        ));
        assert!(matches!(svc.solve(&b, 1e-6).unwrap_err(), SolverError::Overloaded { .. }));
        let stats = svc.stats();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.requests, 0, "shed requests are not admitted");
    }

    #[test]
    fn expired_deadline_dropped_at_batch_formation() {
        let (svc, n) = grid_service(Some(1));
        let b = random_demand(n, 2);
        // Deadline already in the past when the driver forms the
        // batch — the request must resolve without costing a solve.
        let deadline = Some(Instant::now());
        let ticket = svc.submit_with_deadline(&b, 1e-6, deadline).expect("submit");
        assert!(matches!(
            ticket.wait().unwrap_err(),
            SolverError::DeadlineExceeded { progress: None }
        ));
        let stats = svc.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.requests, 1, "expired requests were still admitted");
        assert_eq!(stats.batches, 0, "an expired request must not drive a batch");
    }

    #[test]
    fn cancel_wins_only_before_publication() {
        let (svc, n) = grid_service(Some(1));
        let b = random_demand(n, 4);
        let mut ticket = svc.submit(&b, 1e-6).expect("submit");
        let won = ticket.cancel();
        if won {
            // Cancelled before publication: the outcome is Cancelled,
            // now and on every later poll.
            assert!(matches!(ticket.try_recv(), Some(Err(SolverError::Cancelled { .. }))));
            assert_eq!(svc.stats().cancelled, 1);
        } else {
            // The driver published first: the real outcome survives.
            assert!(ticket.wait().is_ok());
        }
        // Cancelling a finished ticket never wins.
        let done = svc.submit(&b, 1e-6).expect("submit");
        let out = done.wait().expect("serve");
        assert!(out.relative_residual.is_finite());
    }

    /// Satellite regression: a panic inside a batch solve must surface
    /// as the same `InvariantViolation` for **every** request of the
    /// group — the submitting thread is not singled out with a panic —
    /// and the driver must survive to serve later requests.
    #[test]
    fn panicking_preconditioner_fails_whole_group_consistently() {
        let g = generators::grid2d(14, 14);
        let n = g.num_vertices();
        // Chain-specific corruption: pin the backend so the injection
        // keeps working under a PARLAP_BACKEND override.
        let mut solver = LaplacianSolver::build(
            &g,
            SolverOptions {
                seed: 7,
                backend: crate::backend::BackendKind::Chain,
                ..SolverOptions::default()
            },
        )
        .expect("build");
        assert!(solver.chain().depth() >= 1, "need a level to corrupt");
        // Truncate a level's Jacobi diagonal: `ChainApply::new` asserts
        // that it covers the level's F slice, so every apply now panics
        // deterministically — a stand-in for any preconditioner bug.
        solver.chain_mut_for_tests().levels[0].x_diag.clear();
        let svc = SolveService::with_threads(solver, 2).expect("service");
        // Quiet the global panic hook while the injected panics fire
        // (they are caught and published; the default hook would still
        // print a backtrace per batch).
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results: Vec<_> = {
            let handles: Vec<_> = (0..3)
                .map(|c| {
                    let svc = svc.clone();
                    thread::spawn(move || svc.solve(&random_demand(n, c as u64), 1e-6))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        // A later request still gets a clean error: the driver is alive.
        let after = svc.solve(&random_demand(n, 9), 1e-6);
        std::panic::set_hook(prev_hook);
        for r in results {
            assert!(
                matches!(r.unwrap_err(), SolverError::InvariantViolation(_)),
                "every batch-mate of a panicking solve sees InvariantViolation"
            );
        }
        assert!(matches!(after.unwrap_err(), SolverError::InvariantViolation(_)));
        let stats = svc.stats();
        assert!(stats.panics >= 1, "caught panics must be counted");
        assert_eq!(stats.requests, 4);
    }

    #[test]
    fn pending_tickets_survive_dropping_the_last_service_handle() {
        for threads in [1, 2] {
            drop_last_handle_while_every_driver_holds_a_batch(threads);
        }
    }

    /// Drop the user's handle and then every ticket — the last handles
    /// — while each driver is solving its own batch and one more
    /// request waits in the queue. The drop must still publish every
    /// outcome and join every driver before it returns.
    fn drop_last_handle_while_every_driver_holds_a_batch(threads: usize) {
        let g = generators::grid2d(14, 14);
        let n = g.num_vertices();
        // Overestimating δ without the error certificate runs the
        // paper's fixed ⌈e^{2δ} ln(1/ε)⌉ Richardson iterations: a solve
        // slow enough to still be running when the handles drop.
        let options = SolverOptions {
            seed: 7,
            delta: 2.5,
            outer: OuterMethod::RichardsonFixed,
            ..SolverOptions::default()
        };
        let solver = LaplacianSolver::build(&g, options).expect("build");
        let svc = SolveService::with_threads(solver, threads).expect("service");
        let shared = Arc::clone(&svc.inner.shared);
        let mut tickets = Vec::new();
        for k in 0..threads {
            tickets.push(svc.submit(&random_demand(n, k as u64), 1e-6).expect("submit"));
            // A driver counts a batch before it solves it.
            while svc.stats().batches < tickets.len() as u64 {
                thread::yield_now();
            }
        }
        tickets.push(svc.submit(&random_demand(n, 99), 1e-6).expect("submit"));
        assert!(tickets.iter().all(|t| !t.is_finished()), "a driver finished before the drop");
        let slots: Vec<_> = tickets.iter().map(|t| Arc::clone(&t.slot)).collect();
        drop(svc);
        drop(tickets);
        assert_eq!(Arc::strong_count(&shared), 1, "a driver outlived the last handle");
        for slot in &slots {
            assert!(
                matches!(&slot.state.lock().unwrap().ticket, TicketState::Done(Ok(_))),
                "an outcome was lost at shutdown ({threads} workers)"
            );
        }
    }

    /// A driver that fails to spawn fails the constructor, and the
    /// drivers already started are joined before it returns.
    #[test]
    fn failed_driver_spawn_joins_the_started_drivers() {
        use std::sync::atomic::AtomicBool;
        let g = generators::grid2d(6, 6);
        let solver = LaplacianSolver::build(&g, SolverOptions::default()).expect("build");
        let shared = Shared::new(solver, None, 1);
        let exited = Arc::new(AtomicBool::new(false));
        let result = ServiceInner::start(Arc::clone(&shared), 3, |i, shared| {
            if i == 1 {
                return Err(std::io::Error::other("injected spawn failure"));
            }
            let exited = Arc::clone(&exited);
            thread::Builder::new().spawn(move || {
                driver_loop(shared);
                exited.store(true, Ordering::SeqCst);
            })
        });
        assert!(matches!(result, Err(SolverError::InvalidOption(_))));
        assert!(exited.load(Ordering::SeqCst), "the started driver was not joined");
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    /// A minimal block-on executor: park the thread between polls, let
    /// the future's waker unpark it. Counts polls so the test can
    /// assert completion is waker-driven, not poll-spun.
    fn block_on<F: std::future::Future + Unpin>(mut fut: F) -> (F::Output, usize) {
        use std::sync::Arc;
        use std::task::{Context, Poll, Wake, Waker};
        struct ThreadWaker(std::thread::Thread);
        impl Wake for ThreadWaker {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut polls = 0;
        loop {
            polls += 1;
            match std::pin::Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(out) => return (out, polls),
                Poll::Pending => std::thread::park(),
            }
        }
    }

    /// The Future impl resolves to exactly what `wait` returns, and
    /// the executor is woken rather than left polling: a solve taking
    /// many iterations completes within a handful of polls (one to
    /// register the waker + one after the wake, plus a bounded number
    /// of spurious unparks the platform is allowed).
    #[test]
    fn ticket_future_resolves_via_waker() {
        let (svc, n) = grid_service(Some(1));
        let b = random_demand(n, 3);
        let ticket = svc.submit(&b, 1e-8).expect("submit");
        let (out, polls) = block_on(ticket);
        let x = out.expect("solve");
        assert!(x.relative_residual <= 1e-8);
        // Bit-identical to the blocking front door.
        let direct = svc.solve(&b, 1e-8).expect("solve");
        assert_eq!(x.solution, direct.solution);
        assert!(polls <= 10, "waker-based future should not poll-spin (polled {polls} times)");
    }

    /// `.await` position works through the std `IntoFuture` blanket
    /// impl, and a cancelled ticket's future resolves to `Cancelled`.
    #[test]
    fn ticket_into_future_and_cancelled_future() {
        use std::future::IntoFuture;
        let (svc, n) = grid_service(Some(1));
        let fut = svc.submit(&random_demand(n, 5), 1e-6).expect("submit").into_future();
        let (out, _) = block_on(fut);
        assert!(out.expect("solve").relative_residual.is_finite());
        // Saturate the driver so the next ticket is still pending when
        // we cancel it.
        let hold: Vec<_> =
            (0..8).map(|s| svc.submit(&random_demand(n, 40 + s), 1e-9).expect("submit")).collect();
        let victim = svc.submit(&random_demand(n, 99), 1e-9).expect("submit");
        victim.cancel();
        let (out, polls) = block_on(victim);
        assert!(matches!(out, Err(SolverError::Cancelled { .. })));
        assert_eq!(polls, 1, "already-cancelled ticket resolves on the first poll");
        drop(hold);
    }
}
