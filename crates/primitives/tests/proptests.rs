//! Property-based tests for the parallel primitives.

use parlap_primitives::prng::{sample_distinct, StreamRng};
use parlap_primitives::sample::AliasTable;
use parlap_primitives::scan::exclusive_scan;
use proptest::prelude::*;

proptest! {
    /// Exclusive scan equals the sequential reference for any input.
    #[test]
    fn scan_matches_reference(values in proptest::collection::vec(0usize..1000, 0..5000)) {
        let got = exclusive_scan(&values);
        let mut acc = 0usize;
        prop_assert_eq!(got.len(), values.len() + 1);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(got[i], acc);
            acc += v;
        }
        prop_assert_eq!(*got.last().unwrap(), acc);
    }

    /// Alias tables only ever emit valid indices with nonzero weight.
    #[test]
    fn samplers_respect_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..200),
        seed in 0u64..10_000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let alias = AliasTable::new(&weights);
        let mut rng = StreamRng::new(seed, 0);
        for _ in 0..64 {
            let a = alias.sample(&mut rng);
            prop_assert!(weights[a] > 0.0, "alias emitted zero-weight item {a}");
        }
    }

    /// StreamRng::next_below is always in range and deterministic.
    #[test]
    fn rng_below_in_range(seed in 0u64..10_000, n in 1u64..1_000_000) {
        let mut a = StreamRng::new(seed, 1);
        let mut b = StreamRng::new(seed, 1);
        for _ in 0..32 {
            let x = a.next_below(n);
            prop_assert!(x < n);
            prop_assert_eq!(x, b.next_below(n));
        }
    }

    /// Floyd sampling yields exactly k distinct in-range values.
    #[test]
    fn distinct_sampling_valid(seed in 0u64..10_000, n in 1usize..500, frac in 0.0f64..1.0) {
        let k = ((n as f64 * frac) as usize).min(n);
        let mut rng = StreamRng::new(seed, 2);
        let s = sample_distinct(&mut rng, n, k);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(s.iter().all(|&x| x < n));
    }
}
