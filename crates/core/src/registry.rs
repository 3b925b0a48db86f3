//! A keyed multi-solver registry: many graphs' factorizations behind
//! one `Send + Sync` handle, LRU-evicted under a memory budget.
//!
//! [`SolveService`] serves one graph; a real serving deployment holds
//! **many** — one factorization per tenant, per region, per mesh — and
//! cannot keep them all resident. [`SolverRegistry`] is that tier: a
//! map from caller-chosen keys to built [`LaplacianSolver`]s, each
//! fronted by its own [`SolveService`] (its own admission queue and
//! group-commit loop). Entries are built on demand by a
//! caller-supplied builder, deduplicated while in flight (concurrent
//! `get`s of a missing key build **once**; the laggards wait), and
//! evicted least-recently-used when the resident-byte estimate
//! ([`LaplacianSolver::estimated_bytes`], which delegates to the
//! entry's [`Preconditioner::estimated_bytes`]) exceeds the configured
//! budget. The registry is backend-aware for free: the builder picks
//! any [`crate::backend::BackendKind`] per key, entries of different
//! backends coexist under one budget, and each entry records its
//! backend [`descriptor`](SolverRegistry::descriptor) for logging.
//!
//! [`Preconditioner::estimated_bytes`]: crate::backend::Preconditioner::estimated_bytes
//!
//! Eviction drops the registry's handle only: a client still holding
//! the entry's [`SolveService`] — or a [`SolveTicket`] from it — keeps
//! that solver (and its drivers) alive until it is done, so eviction
//! never orphans an in-flight request. A later `get` of the same key
//! simply rebuilds.
//!
//! A hot key needs no replicas: its one service runs a driver per
//! pool worker, so concurrent requests for the key already solve side
//! by side (see the [service's group commit](crate::service#group-commit)).
//!
//! # Determinism
//!
//! The registry adds no randomness: if the builder is deterministic
//! (fixed [`crate::solver::SolverOptions::seed`] per key), a
//! registry-served response is bit-identical to a direct
//! `solver.solve(b, eps)` against a solver built the same way —
//! rebuilds included, at every pool size (gated by the cross-thread
//! determinism suite).
//!
//! [`SolveTicket`]: crate::service::SolveTicket

use crate::error::SolverError;
use crate::service::{ServiceConfig, ServiceStats, SolveService, SolveTicket};
use crate::solver::{LaplacianSolver, SolveOutcome};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration for a [`SolverRegistry`].
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Resident-memory budget in bytes (estimated via
    /// [`LaplacianSolver::estimated_bytes`]). When an insertion pushes
    /// the estimate past the budget, least-recently-used entries are
    /// evicted until it fits — but the entry just built always stays,
    /// even if it alone exceeds the budget (the caller asked for it;
    /// evicting it immediately would livelock rebuilds).
    pub memory_budget_bytes: usize,
    /// Service settings applied to every entry (admission capacity,
    /// dedicated pool size).
    pub service: ServiceConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            memory_budget_bytes: 1 << 30, // 1 GiB of factorizations
            service: ServiceConfig::default(),
        }
    }
}

/// Snapshot of a registry's lifetime counters.
#[derive(Clone, Copy, Debug)]
pub struct RegistryStats {
    /// Resident entries right now.
    pub entries: usize,
    /// Estimated resident bytes right now.
    pub resident_bytes: usize,
    /// `get`s answered from a resident entry.
    pub hits: u64,
    /// `get`s that had to build (includes rebuilds after eviction).
    pub misses: u64,
    /// Entries evicted under the memory budget.
    pub evictions: u64,
    /// Builds that failed (the error was returned to the caller; the
    /// key stays absent).
    pub build_failures: u64,
}

type Builder<K> = dyn Fn(&K) -> Result<LaplacianSolver, SolverError> + Send + Sync;

struct Entry {
    service: SolveService,
    bytes: usize,
    /// The built backend's stable descriptor
    /// ([`crate::backend::Preconditioner::descriptor`]) — recorded at
    /// build time for logging and introspection.
    descriptor: String,
    /// Logical timestamp of the last `get`; the eviction victim is the
    /// minimum.
    last_used: u64,
}

struct RegistryState<K> {
    entries: HashMap<K, Entry>,
    /// Keys with a build in flight; concurrent `get`s of these wait on
    /// `built` instead of building twice.
    building: HashSet<K>,
    resident_bytes: usize,
    tick: u64,
}

struct RegistryCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    build_failures: AtomicU64,
}

struct RegistryInner<K> {
    builder: Box<Builder<K>>,
    config: RegistryConfig,
    state: Mutex<RegistryState<K>>,
    /// Signaled whenever a build finishes (successfully or not).
    built: Condvar,
    counters: RegistryCounters,
}

/// A `Send + Sync + Clone` handle over many keyed solvers. See the
/// [module docs](self).
///
/// ```
/// use parlap_core::registry::SolverRegistry;
/// use parlap_core::solver::{LaplacianSolver, SolverOptions};
/// use parlap_graph::generators;
/// use parlap_linalg::vector::random_demand;
///
/// // Key = grid side; the builder is deterministic per key.
/// let registry = SolverRegistry::new(1 << 28, |side: &usize| {
///     let g = generators::grid2d(*side, *side);
///     LaplacianSolver::build(&g, SolverOptions { seed: *side as u64, ..Default::default() })
/// });
/// let out = registry.solve(&12, &random_demand(144, 1), 1e-6).unwrap();
/// assert!(out.relative_residual < 1e-3);
/// assert_eq!(registry.stats().misses, 1);
/// ```
pub struct SolverRegistry<K> {
    inner: Arc<RegistryInner<K>>,
}

impl<K> Clone for SolverRegistry<K> {
    fn clone(&self) -> Self {
        SolverRegistry { inner: Arc::clone(&self.inner) }
    }
}

impl<K: Eq + Hash + Clone> SolverRegistry<K> {
    /// Create a registry with the given memory budget (bytes) and
    /// default per-entry [`ServiceConfig`]. `builder` is called once
    /// per missing key; make it deterministic (fixed seed per key) to
    /// extend the solver's determinism contract across rebuilds.
    pub fn new<F>(memory_budget_bytes: usize, builder: F) -> Self
    where
        F: Fn(&K) -> Result<LaplacianSolver, SolverError> + Send + Sync + 'static,
    {
        Self::with_config(
            RegistryConfig { memory_budget_bytes, ..RegistryConfig::default() },
            builder,
        )
    }

    /// Create a registry with explicit budget and per-entry service
    /// settings.
    pub fn with_config<F>(config: RegistryConfig, builder: F) -> Self
    where
        F: Fn(&K) -> Result<LaplacianSolver, SolverError> + Send + Sync + 'static,
    {
        SolverRegistry {
            inner: Arc::new(RegistryInner {
                builder: Box::new(builder),
                config,
                state: Mutex::new(RegistryState {
                    entries: HashMap::new(),
                    building: HashSet::new(),
                    resident_bytes: 0,
                    tick: 0,
                }),
                built: Condvar::new(),
                counters: RegistryCounters {
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                    build_failures: AtomicU64::new(0),
                },
            }),
        }
    }

    /// The serving handle for `key`: resident → returned immediately
    /// (the entry is marked most-recently-used); missing → built by the
    /// caller-supplied builder, outside the registry lock, with
    /// concurrent `get`s of the same key waiting for that one build.
    /// Insertion may LRU-evict other entries to fit the budget. A
    /// failed build returns the builder's error and leaves the key
    /// absent.
    pub fn get(&self, key: &K) -> Result<SolveService, SolverError> {
        let inner = &*self.inner;
        let mut st = inner.state.lock().unwrap();
        loop {
            if st.entries.contains_key(key) {
                st.tick += 1;
                let tick = st.tick;
                let entry = st.entries.get_mut(key).expect("entry resident");
                entry.last_used = tick;
                inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.service.clone());
            }
            if st.building.contains(key) {
                st = inner.built.wait(st).unwrap();
                continue;
            }
            // This thread builds; laggards for the same key wait above.
            st.building.insert(key.clone());
            inner.counters.misses.fetch_add(1, Ordering::Relaxed);
            drop(st);
            let outcome = (inner.builder)(key).and_then(|solver| {
                let bytes = solver.estimated_bytes();
                let descriptor = solver.descriptor();
                let service = SolveService::with_config(solver, inner.config.service.clone())?;
                Ok((service, bytes, descriptor))
            });
            st = inner.state.lock().unwrap();
            st.building.remove(key);
            let result = match outcome {
                Err(e) => {
                    inner.counters.build_failures.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
                Ok((service, bytes, descriptor)) => {
                    st.tick += 1;
                    let tick = st.tick;
                    let entry =
                        Entry { service: service.clone(), bytes, descriptor, last_used: tick };
                    st.entries.insert(key.clone(), entry);
                    st.resident_bytes += bytes;
                    self.evict_over_budget(&mut st, Some(key));
                    Ok(service)
                }
            };
            drop(st);
            inner.built.notify_all();
            return result;
        }
    }

    /// Explicitly-named alias of [`SolverRegistry::get`]: return the
    /// resident entry for `key` or build it on demand. Use whichever
    /// name reads better at the call site; they are the same method.
    ///
    /// Entries of different [`crate::backend::BackendKind`]s coexist —
    /// the builder decides per key, and the memory budget accounts
    /// each entry by its own backend's byte estimate:
    ///
    /// ```
    /// use parlap_core::backend::BackendKind;
    /// use parlap_core::registry::SolverRegistry;
    /// use parlap_core::solver::{LaplacianSolver, SolverOptions};
    /// use parlap_graph::generators;
    /// use parlap_linalg::vector::random_demand;
    ///
    /// // Key = (grid side, backend): a mixed-backend registry.
    /// let registry = SolverRegistry::new(1 << 28, |key: &(usize, BackendKind)| {
    ///     let (side, backend) = *key;
    ///     let g = generators::grid2d(side, side);
    ///     LaplacianSolver::build(&g, SolverOptions { backend, seed: 1, ..Default::default() })
    /// });
    /// let chain = registry.get_or_build(&(10, BackendKind::Chain)).unwrap();
    /// let mg = registry.get_or_build(&(10, BackendKind::Multigrid)).unwrap();
    /// assert!(registry.descriptor(&(10, BackendKind::Chain)).unwrap().starts_with("chain("));
    /// assert!(registry.descriptor(&(10, BackendKind::Multigrid)).unwrap().starts_with("multigrid("));
    /// // Both entries serve the same system to the same accuracy.
    /// let b = random_demand(100, 3);
    /// let xc = chain.solve(&b, 1e-8).unwrap().solution;
    /// let xm = mg.solve(&b, 1e-8).unwrap().solution;
    /// let diff: f64 = xc.iter().zip(&xm).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    /// let norm: f64 = xc.iter().map(|x| x * x).sum::<f64>().sqrt();
    /// assert!(diff / norm < 1e-6);
    /// ```
    pub fn get_or_build(&self, key: &K) -> Result<SolveService, SolverError> {
        self.get(key)
    }

    /// The backend descriptor recorded for `key`'s resident entry
    /// (`None` when absent). Does not touch LRU order and never
    /// builds.
    pub fn descriptor(&self, key: &K) -> Option<String> {
        self.inner.state.lock().unwrap().entries.get(key).map(|e| e.descriptor.clone())
    }

    /// The [`ServiceStats`] of `key`'s resident entry (`None` when
    /// absent). Does not touch LRU order and never builds.
    pub fn key_stats(&self, key: &K) -> Option<ServiceStats> {
        self.inner.state.lock().unwrap().entries.get(key).map(|e| e.service.stats())
    }

    /// Blocking solve against `key`'s solver (building it on demand):
    /// `get(key)?.solve(b, eps)`.
    pub fn solve(&self, key: &K, b: &[f64], eps: f64) -> Result<SolveOutcome, SolverError> {
        self.get(key)?.solve(b, eps)
    }

    /// Asynchronous submit against `key`'s solver (building it on
    /// demand): `get(key)?.submit(b, eps)`.
    pub fn submit(&self, key: &K, b: &[f64], eps: f64) -> Result<SolveTicket, SolverError> {
        self.get(key)?.submit(b, eps)
    }

    /// Whether `key` is resident right now (does not touch LRU order
    /// and never builds).
    pub fn contains(&self, key: &K) -> bool {
        self.inner.state.lock().unwrap().entries.contains_key(key)
    }

    /// Drop `key`'s entry if resident; returns whether it was.
    /// In-flight requests against the entry's service finish normally.
    pub fn evict(&self, key: &K) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        match st.entries.remove(key) {
            Some(entry) => {
                st.resident_bytes -= entry.bytes;
                self.inner.counters.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters plus a snapshot of residency.
    pub fn stats(&self) -> RegistryStats {
        let (entries, resident_bytes) = {
            let st = self.inner.state.lock().unwrap();
            (st.entries.len(), st.resident_bytes)
        };
        let c = &self.inner.counters;
        RegistryStats {
            entries,
            resident_bytes,
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            build_failures: c.build_failures.load(Ordering::Relaxed),
        }
    }

    /// Evict LRU entries until the estimate fits the budget, always
    /// keeping `protect` (the entry just built) and at least one entry.
    fn evict_over_budget(&self, st: &mut RegistryState<K>, protect: Option<&K>) {
        while st.resident_bytes > self.inner.config.memory_budget_bytes && st.entries.len() > 1 {
            let victim = st
                .entries
                .iter()
                .filter(|(k, _)| protect != Some(*k))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let entry = st.entries.remove(&k).expect("victim resident");
                    st.resident_bytes -= entry.bytes;
                    self.inner.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // only the protected entry remains
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverOptions;
    use parlap_graph::generators;
    use parlap_linalg::vector::random_demand;
    use std::sync::atomic::AtomicUsize;

    // Budgets below are calibrated against chain entry sizes, so the
    // backend is pinned (the `PARLAP_BACKEND=multigrid` CI leg would
    // otherwise change every entry's bytes); backend-agnostic churn is
    // covered by `tests/service_async.rs` and the mixed-backend
    // doc-test on [`SolverRegistry::get_or_build`].
    fn grid_registry(budget: usize) -> SolverRegistry<usize> {
        SolverRegistry::new(budget, |side: &usize| {
            let g = generators::grid2d(*side, *side);
            LaplacianSolver::build(
                &g,
                SolverOptions {
                    seed: *side as u64,
                    backend: crate::backend::BackendKind::Chain,
                    ..SolverOptions::default()
                },
            )
        })
    }

    #[test]
    fn handle_is_send_sync_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SolverRegistry<String>>();
    }

    #[test]
    fn builds_once_then_hits() {
        let reg = grid_registry(usize::MAX);
        let b = random_demand(100, 1);
        let first = reg.solve(&10, &b, 1e-6).expect("solve");
        let second = reg.solve(&10, &b, 1e-6).expect("solve");
        assert_eq!(first.solution, second.solution, "same resident solver, same bits");
        let stats = reg.stats();
        assert_eq!(stats.misses, 1, "one build");
        assert_eq!(stats.hits, 1, "one hit");
        assert_eq!(stats.entries, 1);
        assert!(stats.resident_bytes > 0, "estimate must be positive");
        assert_eq!(reg.key_stats(&10).expect("resident").requests, 2, "the entry's own service");
        assert!(reg.key_stats(&11).is_none(), "absent key");
    }

    #[test]
    fn concurrent_gets_of_missing_key_build_once() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let reg = SolverRegistry::new(usize::MAX, |side: &usize| {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            let g = generators::grid2d(*side, *side);
            LaplacianSolver::build(&g, SolverOptions::default())
        });
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let reg = reg.clone();
                scope.spawn(move || reg.get(&12).expect("get"));
            }
        });
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1, "in-flight builds must be deduplicated");
        assert_eq!(reg.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget fits roughly one 12x12-grid solver, so a second key
        // evicts the first and a re-get of the first rebuilds.
        let probe = grid_registry(usize::MAX);
        probe.get(&12).expect("probe build");
        let one_entry = probe.stats().resident_bytes;
        let reg = grid_registry(one_entry + one_entry / 2);
        reg.get(&12).expect("A");
        reg.get(&14).expect("B evicts A");
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1, "A must be evicted");
        assert!(!reg.contains(&12) && reg.contains(&14));
        assert!(
            stats.resident_bytes <= reg.inner.config.memory_budget_bytes,
            "resident {} over budget {}",
            stats.resident_bytes,
            reg.inner.config.memory_budget_bytes
        );
        reg.get(&12).expect("A rebuilds");
        assert_eq!(reg.stats().misses, 3, "re-get after eviction is a rebuild");
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let probe = grid_registry(usize::MAX);
        probe.get(&10).expect("probe");
        let one = probe.stats().resident_bytes;
        // Budget for two small entries.
        let reg = grid_registry(5 * one / 2);
        reg.get(&10).expect("A");
        reg.get(&11).expect("B");
        reg.get(&10).expect("touch A");
        reg.get(&12).expect("C evicts B (A was touched)");
        assert!(reg.contains(&10), "recently-touched entry must survive");
        assert!(!reg.contains(&11), "LRU entry must be the victim");
        assert!(reg.contains(&12));
    }

    #[test]
    fn single_oversized_entry_stays_resident() {
        let reg = grid_registry(1); // everything is over budget
        reg.get(&10).expect("build");
        assert_eq!(reg.len(), 1, "the only entry must not self-evict");
        let b = random_demand(100, 2);
        assert!(reg.solve(&10, &b, 1e-6).is_ok());
    }

    #[test]
    fn builder_error_propagates_and_key_stays_absent() {
        let reg = SolverRegistry::new(usize::MAX, |ok: &bool| {
            if *ok {
                LaplacianSolver::build(&generators::grid2d(10, 10), SolverOptions::default())
            } else {
                Err(SolverError::EmptyGraph)
            }
        });
        assert!(matches!(reg.get(&false).unwrap_err(), SolverError::EmptyGraph));
        assert!(!reg.contains(&false));
        assert_eq!(reg.stats().build_failures, 1);
        // The registry is still serviceable.
        assert!(reg.get(&true).is_ok());
    }

    #[test]
    fn eviction_does_not_orphan_inflight_clients() {
        let reg = grid_registry(usize::MAX);
        let service = reg.get(&12).expect("build");
        let ticket = service.submit(&random_demand(144, 3), 1e-6).expect("submit");
        assert!(reg.evict(&12), "manual evict");
        assert!(!reg.contains(&12));
        // The evicted entry's service (held by the client) still
        // answers; only the registry's handle is gone.
        assert!(ticket.wait().expect("serve").relative_residual.is_finite());
        assert!(service.solve(&random_demand(144, 4), 1e-6).is_ok());
    }
}
