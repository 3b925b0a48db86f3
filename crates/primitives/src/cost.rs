//! Work/depth accounting in the CREW PRAM cost model.
//!
//! The paper's guarantees (Theorems 1.1, 1.2, 3.9, 3.10) are stated as
//! *work* (total operations) and *depth* (longest chain of dependent
//! operations). Wall-clock time on a work-stealing runtime only bounds
//! these indirectly (Brent: `T_p = O(W/p + D)`), so the experiment
//! harness measures the model quantities themselves: each algorithm
//! phase reports a [`Cost`], composed with the usual series/parallel
//! rules, and a [`CostMeter`] aggregates per-phase entries.
//!
//! Composition rules:
//! * sequential composition adds work and adds depth;
//! * parallel composition adds work and takes the max depth;
//! * a parallel map over `n` items followed by a reduction contributes
//!   `Σ workᵢ` work and `max depthᵢ + ⌈log₂ n⌉` depth.

use std::time::Duration;

/// A (work, depth) pair in the PRAM cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Cost {
    /// Total number of primitive operations.
    pub work: u64,
    /// Length of the critical path.
    pub depth: u64,
}

impl Cost {
    /// Zero cost (identity for both compositions).
    pub const ZERO: Cost = Cost { work: 0, depth: 0 };

    /// A cost with the given work and depth.
    #[inline]
    pub const fn new(work: u64, depth: u64) -> Self {
        Cost { work, depth }
    }

    /// A single sequential block of `work` operations (depth = work).
    #[inline]
    pub const fn sequential(work: u64) -> Self {
        Cost { work, depth: work }
    }

    /// Sequential composition: `self` then `next`.
    #[inline]
    pub fn then(self, next: Cost) -> Self {
        Cost { work: self.work + next.work, depth: self.depth + next.depth }
    }

    /// Parallel composition: `self` alongside `other`.
    #[inline]
    pub fn beside(self, other: Cost) -> Self {
        Cost { work: self.work + other.work, depth: self.depth.max(other.depth) }
    }

    /// Cost of a parallel reduction over `n` scalars.
    #[inline]
    pub fn reduction(n: u64) -> Self {
        Cost { work: n, depth: log2_ceil(n) }
    }

    /// Cost of a parallel scan over `n` scalars (two passes).
    #[inline]
    pub fn scan(n: u64) -> Self {
        Cost { work: 2 * n, depth: 2 * log2_ceil(n) }
    }

    /// Repeat this cost `k` times sequentially (e.g. Jacobi sweeps).
    #[inline]
    pub fn repeat(self, k: u64) -> Self {
        Cost { work: self.work * k, depth: self.depth * k }
    }
}

/// `⌈log₂ n⌉` with `log2_ceil(0) = 0`, `log2_ceil(1) = 0`.
#[inline]
pub fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// Aggregates per-phase costs for an algorithm run.
///
/// Phases recorded with the same label accumulate sequentially (work
/// adds, depth adds), matching how the solver's rounds compose. An
/// entry may also carry the wall-clock time the phase took
/// ([`CostMeter::record_timed`]), reported by
/// [`CostMeter::wall_by_label`]; nothing in the PRAM accounting reads
/// it.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    entries: Vec<(String, Cost, Duration)>,
}

impl CostMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Record a phase (sequentially composed with everything so far).
    pub fn record(&mut self, label: impl Into<String>, cost: Cost) {
        self.record_timed(label, cost, Duration::ZERO);
    }

    /// Record a phase together with the wall-clock time it took.
    pub fn record_timed(&mut self, label: impl Into<String>, cost: Cost, wall: Duration) {
        self.entries.push((label.into(), cost, wall));
    }

    /// All recorded (label, cost, wall time) entries in order.
    pub fn entries(&self) -> &[(String, Cost, Duration)] {
        &self.entries
    }

    /// Total cost assuming all phases run in sequence.
    pub fn total(&self) -> Cost {
        self.entries.iter().fold(Cost::ZERO, |acc, (_, c, _)| acc.then(*c))
    }

    /// Sum of costs grouped by label, in first-appearance order.
    pub fn by_label(&self) -> Vec<(String, Cost)> {
        self.group(Cost::ZERO, |acc, &(_, c, _)| acc.then(c))
    }

    /// Sum of wall-clock times grouped by label, in first-appearance
    /// order (labels recorded untimed read zero).
    pub fn wall_by_label(&self) -> Vec<(String, Duration)> {
        self.group(Duration::ZERO, |acc, &(_, _, t)| acc + t)
    }

    fn group<T: Copy>(
        &self,
        zero: T,
        add: impl Fn(T, &(String, Cost, Duration)) -> T,
    ) -> Vec<(String, T)> {
        let mut grouped: Vec<(String, T)> = Vec::new();
        for entry in &self.entries {
            match grouped.iter_mut().find(|(l, _)| *l == entry.0) {
                Some((_, acc)) => *acc = add(*acc, entry),
                None => grouped.push((entry.0.clone(), add(zero, entry))),
            }
        }
        grouped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn composition_rules() {
        let a = Cost::new(10, 3);
        let b = Cost::new(20, 5);
        assert_eq!(a.then(b), Cost::new(30, 8));
        assert_eq!(a.beside(b), Cost::new(30, 5));
        assert_eq!(a.repeat(3), Cost::new(30, 9));
    }

    #[test]
    fn meter_totals_and_grouping() {
        let mut m = CostMeter::new();
        m.record("walks", Cost::new(100, 10));
        m.record("5dd", Cost::new(50, 5));
        m.record("walks", Cost::new(100, 10));
        assert_eq!(m.total(), Cost::new(250, 25));
        let grouped = m.by_label();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0], ("walks".to_string(), Cost::new(200, 20)));
        assert_eq!(grouped[1], ("5dd".to_string(), Cost::new(50, 5)));
    }

    #[test]
    fn meter_groups_wall_time_beside_cost() {
        let ms = Duration::from_millis;
        let mut m = CostMeter::new();
        m.record_timed("walks", Cost::new(100, 10), ms(3));
        m.record("5dd", Cost::new(50, 5));
        m.record_timed("walks", Cost::new(100, 10), ms(4));
        m.record_timed("check", Cost::ZERO, ms(1));
        assert_eq!(m.total(), Cost::new(250, 25));
        assert_eq!(
            m.wall_by_label(),
            vec![
                ("walks".to_string(), ms(7)),
                ("5dd".to_string(), ms(0)),
                ("check".to_string(), ms(1))
            ]
        );
        assert_eq!(m.by_label()[2], ("check".to_string(), Cost::ZERO));
    }
}
