//! Sample statistics: nearest-rank percentiles under the "ten samples
//! beyond" rule, medians and means.

/// A percentile is reported only when at least this many samples lie
/// above its rank; with fewer it describes a handful of outliers, not
/// a tail.
pub const MIN_BEYOND: usize = 10;

/// `values` in ascending order (times are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank `q`-quantile of ascending `sorted` — the sample at rank
/// ⌈q·n⌉ — or `None` when fewer than [`MIN_BEYOND`] samples lie above
/// that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // the epsilon keeps an exact product such as 0.99 · 1000 from
    // rounding up a rank
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median rate over `stretches` consecutive stretches of equal event
/// count. `events` are `(seconds since the window opened, weight)` in
/// time order. A stretch's rate is its total weight over the time from
/// the previous stretch's last event (or the window's opening) to its
/// own last event. Events past the last whole stretch are left out; an
/// empty sample has rate 0.
pub fn stretch_median_rate(events: &[(f64, f64)], stretches: usize) -> f64 {
    let stretches = stretches.min(events.len());
    if stretches == 0 {
        return 0.0;
    }
    let len = events.len() / stretches;
    let mut opened = 0.0;
    let rates: Vec<f64> = events
        .chunks_exact(len)
        .take(stretches)
        .map(|stretch| {
            let closed = stretch[len - 1].0;
            let weight: f64 = stretch.iter().map(|e| e.1).sum();
            let rate = weight / (closed - opened).max(f64::MIN_POSITIVE);
            opened = closed;
            rate
        })
        .collect();
    median(&rates)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = one_to(1000);
        assert_eq!(percentile(&s, 0.50), Some(500.0));
        assert_eq!(percentile(&s, 0.95), Some(950.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&one_to(7 + MIN_BEYOND), 0.0), Some(1.0), "rank clamps to 1");
        let shuffled = sorted(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(shuffled, one_to(5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 has exactly ten above it; of 999, nine
        assert!(percentile(&one_to(1000), 0.99).is_some());
        assert_eq!(percentile(&one_to(999), 0.99), None);
        // p95 needs 200 samples, p50 needs 20
        assert!(percentile(&one_to(200), 0.95).is_some());
        assert_eq!(percentile(&one_to(199), 0.95), None);
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
        assert_eq!(percentile(&one_to(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn stretch_median_rate_sets_stalls_aside() {
        // 10 events per second for 10 s, then a 5 s stall before the
        // last stretch's events
        let mut events: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64 / 10.0, 2.0)).collect();
        for e in &mut events[90..] {
            e.0 += 5.0;
        }
        let rate = stretch_median_rate(&events, 10);
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
        let whole = events.iter().map(|e| e.1).sum::<f64>() / events[99].0;
        assert!(whole < 14.0, "the whole window counts the stall: {whole}");
        // fewer events than stretches, and none
        assert!((stretch_median_rate(&events[..3], 10) - 20.0).abs() < 1e-9);
        assert_eq!(stretch_median_rate(&[], 10), 0.0);
    }
}
