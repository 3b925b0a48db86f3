//! Weighted random sampling: Walker/Vose alias tables.
//!
//! The paper (Lemma 2.6, citing Hübschle-Schneider & Sanders) assumes a
//! weighted-sampling primitive with `O(n)` work / `O(log n)` depth
//! preprocessing and `O(1)` work per query. The Walker/Vose alias
//! method delivers exactly this query cost; parlap builds one alias
//! table per vertex (for random-walk transition sampling), with all
//! vertices processed in parallel, matching the primitive's bounds.

use crate::prng::StreamRng;

/// Walker/Vose alias table over `n` items with given nonnegative weights.
///
/// Sampling draws one uniform index and one uniform real: `O(1)` per
/// query. Construction is `O(n)`.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance probability of column `i` (scaled to [0,1]).
    prob: Vec<f64>,
    /// Alias partner of column `i`.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build the table. Weights must be nonnegative with a positive sum.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table over empty weight set");
        let mut sum = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            sum += w;
        }
        assert!(sum > 0.0, "weights sum to zero");
        let scale = n as f64 / sum;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        // Vose's stable two-stack construction.
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // Large column donates (1 - prob[s]) of its mass.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no items (never: construction forbids it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw an index with probability proportional to its weight.
    #[inline]
    pub fn sample(&self, rng: &mut StreamRng) -> usize {
        let i = rng.next_index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chi2_ok(observed: &[usize], weights: &[f64], draws: usize) -> bool {
        let total: f64 = weights.iter().sum();
        let mut chi2 = 0.0;
        let mut dof = 0usize;
        for (o, w) in observed.iter().zip(weights.iter()) {
            let e = draws as f64 * w / total;
            if e > 0.0 {
                chi2 += (*o as f64 - e).powi(2) / e;
                dof += 1;
            } else if *o > 0 {
                return false; // sampled an impossible item
            }
        }
        // Very loose bound: P(chi2 > dof + 6*sqrt(2 dof)) is tiny.
        chi2 < dof as f64 + 6.0 * (2.0 * dof as f64).sqrt() + 10.0
    }

    #[test]
    fn alias_matches_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0, 0.0, 10.0];
        let table = AliasTable::new(&weights);
        let mut rng = StreamRng::new(17, 0);
        let draws = 200_000;
        let mut hist = vec![0usize; weights.len()];
        for _ in 0..draws {
            hist[table.sample(&mut rng)] += 1;
        }
        assert_eq!(hist[4], 0, "zero-weight item must never be drawn");
        assert!(chi2_ok(&hist, &weights, draws), "hist={hist:?}");
    }

    /// The alias table's frequencies agree with the exact probabilities
    /// `w_i / Σw`, the distribution a prefix-sum (CDF) sampler draws
    /// from, to within 0.01 per item.
    #[test]
    fn alias_and_prefix_agree_statistically() {
        let weights: Vec<f64> = (1..=50).map(|i| (i as f64).sqrt()).collect();
        let total: f64 = weights.iter().sum();
        let a = AliasTable::new(&weights);
        let draws = 300_000;
        let mut ha = vec![0usize; weights.len()];
        let mut r1 = StreamRng::new(19, 0);
        for _ in 0..draws {
            ha[a.sample(&mut r1)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let pa = ha[i] as f64 / draws as f64;
            let pp = w / total;
            assert!((pa - pp).abs() < 0.01, "item {i}: {pa} vs {pp}");
        }
    }

    #[test]
    fn singleton() {
        let a = AliasTable::new(&[3.0]);
        let mut rng = StreamRng::new(1, 2);
        for _ in 0..10 {
            assert_eq!(a.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn alias_empty_panics() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn alias_zero_sum_panics() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn alias_negative_panics() {
        AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    fn extreme_weight_ratio() {
        let weights = [1e-12, 1.0, 1e12];
        let table = AliasTable::new(&weights);
        let mut rng = StreamRng::new(20, 0);
        let mut hist = [0usize; 3];
        for _ in 0..100_000 {
            hist[table.sample(&mut rng)] += 1;
        }
        // Dominant item takes essentially everything.
        assert!(hist[2] > 99_000, "hist={hist:?}");
    }
}
