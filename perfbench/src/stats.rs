//! Robust summary statistics.
//!
//! A shared machine's speed drifts for seconds at a time, so every
//! reported timing is a median over many short samples taken within
//! one run: never a single sample and never a mean over the whole run.
//! A slow stretch then moves the samples it covers, not the statistic.

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between
/// order statistics; NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The samples left after discarding the first `warmup` (caches,
/// allocator and page tables fill during the first calls).
pub fn after_warmup(xs: &[f64], warmup: usize) -> &[f64] {
    &xs[warmup.min(xs.len())..]
}

/// The mean of each run of `burst` consecutive samples (a shorter last
/// run keeps its own mean). On a host whose speed flips between two
/// levels every tenth of a second or so, samples much shorter than that
/// fall in two clusters, and their median jumps from one cluster to the
/// other as the slow share crosses one half. A burst long enough to see
/// several flips has a mean that moves in proportion to the slow share,
/// so the median over bursts moves smoothly.
pub fn burst_means(xs: &[f64], burst: usize) -> Vec<f64> {
    xs.chunks(burst.max(1)).map(|b| b.iter().sum::<f64>() / b.len() as f64).collect()
}

/// Completion rates over consecutive, non-overlapping windows of
/// `window` completions: `window / (t[(j+1)·window] − t[j·window])` for
/// sorted completion times `t` in seconds. A slow period on the host
/// lowers the windows it overlaps and leaves the others alone, so the
/// median window rate is the steady throughput.
pub fn window_rates(sorted_times: &[f64], window: usize) -> Vec<f64> {
    let window = window.max(1);
    let mut rates = Vec::new();
    let mut start = 0;
    while start + window < sorted_times.len() {
        let span = sorted_times[start + window] - sorted_times[start];
        if span > 0.0 {
            rates.push(window as f64 / span);
        }
        start += window;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latency-like samples around 100 with a deterministic ±2% jitter.
    fn clean(n: usize) -> Vec<f64> {
        (0..n).map(|i| 100.0 * (1.0 + 0.02 * (i as f64 * 0.7).sin())).collect()
    }

    /// Slow a contiguous 30% of the samples by 1.7×, as a noisy
    /// neighbour on the host would.
    fn with_slow_stretch(xs: &[f64]) -> Vec<f64> {
        let (from, to) = (xs.len() * 2 / 5, xs.len() * 2 / 5 + xs.len() * 3 / 10);
        xs.iter()
            .enumerate()
            .map(|(i, &x)| if (from..to).contains(&i) { 1.7 * x } else { x })
            .collect()
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_latency_stays_put_under_a_slow_stretch() {
        let base = clean(600);
        let noisy = with_slow_stretch(&base);
        let (m0, m1) = (median(&base), median(&noisy));
        // The mean moves by about 21%; the median by well under 3%.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&noisy) / mean(&base) > 1.18);
        assert!((m1 / m0 - 1.0).abs() < 0.03, "median moved {m0} -> {m1}");
    }

    #[test]
    fn window_throughput_stays_put_under_a_slow_stretch() {
        // One completion per 10 ms; 30% of the gaps stretched 1.7×.
        let gaps = with_slow_stretch(&vec![0.010; 400]);
        let times: Vec<f64> = gaps
            .iter()
            .scan(0.0, |t, g| {
                *t += g;
                Some(*t)
            })
            .collect();
        let rates = window_rates(&times, 10);
        assert_eq!(rates.len(), 39);
        let whole_run = (times.len() - 1) as f64 / (times[times.len() - 1] - times[0]);
        assert!(whole_run < 85.0, "whole-run rate {whole_run} should show the stretch");
        let m = median(&rates);
        assert!((m / 100.0 - 1.0).abs() < 1e-6, "median window rate {m}");
    }

    #[test]
    fn discarded_warmups_do_not_reach_the_median() {
        // Set-up times (ms) of a few repeated builds: the first two are
        // cold, as in a probe where early builds took 11–16 ms and later
        // ones 8 ms.
        let setups = [16.0, 11.0, 8.2, 8.0, 8.1];
        assert_eq!(median(&setups), 8.2);
        assert_eq!(median(after_warmup(&setups, 2)), 8.1);
        assert!(after_warmup(&setups, 100).is_empty());
    }

    #[test]
    fn burst_medians_move_smoothly_when_samples_fall_in_two_clusters() {
        // 20 bursts of 20 set-ups at 10 ms (fast) or 15 ms (slow), with
        // `slow` of each burst's samples slow: 45% of them in one run,
        // 55% in the next.
        let run = |slow: usize| -> Vec<f64> {
            (0..400).map(|i| if i % 20 < slow { 15.0 } else { 10.0 }).collect()
        };
        let (a, b) = (run(9), run(11));
        // The median of the samples jumps by half; that of the bursts
        // moves by 4%, as the mean does.
        assert_eq!((median(&a), median(&b)), (10.0, 15.0));
        let (ma, mb) = (median(&burst_means(&a, 20)), median(&burst_means(&b, 20)));
        assert_eq!((ma, mb), (12.25, 12.75));
        assert_eq!(burst_means(&[1.0, 3.0, 5.0], 2), vec![2.0, 5.0]);
    }
}
