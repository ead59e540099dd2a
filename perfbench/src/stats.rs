//! Order statistics with the sample-count rule: a percentile is reported
//! only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in percent) of `samples`; `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it. Infinite samples (refused or
/// failed requests) count as beyond any finite limit.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = rank(n, p)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples, if at
/// least [`MIN_TAIL`] samples lie beyond it.
pub fn rank(n: usize, p: f64) -> Option<usize> {
    assert!((0.0..100.0).contains(&p), "percentile {p} outside [0, 100)");
    if n == 0 {
        return None;
    }
    // Round before the ceiling so 99% of 1000 is rank 990, not 991.
    let rank = ((p / 100.0 * n as f64 * 1e9).round() / 1e9).ceil().max(1.0) as usize;
    (n - rank >= MIN_TAIL).then_some(rank)
}

/// Nearest-rank low percentile `p` (in percent) of a non-empty `samples`.
/// It has no sample-count rule: its tail is the fast side, and its use is
/// to read the code's speed on the calls the host did not slow.
pub fn low_percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=50.0).contains(&p),
        "low percentile {p} outside [0, 50]"
    );
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64 * 1e9).round() / 1e9).ceil() as usize;
    v[rank.max(1) - 1]
}

/// The median (always reportable for a non-empty sample).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Two-sided Hoeffding radius: `Pr[|p̂ − p| ≥ ε] ≤ δ` over `n` draws.
pub fn hoeffding_radius(n: u64, delta: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(rank(1000, 99.0), Some(990));
        assert_eq!(rank(999, 99.0), None);
        assert_eq!(rank(10, 50.0), None);
        assert_eq!(rank(20, 50.0), Some(10));
        assert_eq!(rank(0, 50.0), None);
    }

    #[test]
    fn nearest_rank_picks_the_right_sample() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
    }

    #[test]
    fn refused_requests_sit_in_the_tail() {
        let mut v = vec![1.0; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(percentile(&v, 99.0), Some(1.0));
        v[0] = f64::INFINITY;
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn low_percentile_takes_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(low_percentile(&v, 5.0), 10.0);
        assert_eq!(low_percentile(&v[..60], 5.0), 143.0);
        assert_eq!(low_percentile(&[4.0, 2.0, 3.0], 5.0), 2.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn hoeffding_radius_shrinks_with_n() {
        let r = hoeffding_radius(1_000_000, 1e-9);
        assert!((r - 0.003_273).abs() < 1e-5, "{r}");
        assert!(hoeffding_radius(4, 1e-9) > hoeffding_radius(400, 1e-9));
    }
}
