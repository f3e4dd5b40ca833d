//! Exact percentiles over raw samples.
//!
//! Every timing the benchmark reports is a nearest-rank percentile of the
//! full sample set, not a bucketed histogram estimate: a log-bucketed
//! histogram steps by several percent near a few hundred microseconds,
//! which alone would eat most of a regression bound.

/// Nearest-rank percentile of `samples` (any order). `pct` is a percent in
/// `[1, 100]`, so the median is `percentile(s, 50.0)`; a fraction such as
/// `0.5` is refused rather than silently read as the 0.5th percentile.
pub fn percentile(samples: &[u64], pct: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!(
        (1.0..=100.0).contains(&pct),
        "percentile takes a percent in [1, 100], got {pct}"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(ns: &[u64]) -> f64 {
    percentile(ns, 50.0) as f64 / 1e3
}

/// 99th percentile of nanosecond samples, in microseconds.
pub fn p99_us(ns: &[u64]) -> f64 {
    percentile(ns, 99.0) as f64 / 1e3
}

/// Median of plain (non-time) samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 1.0), 1);
    }

    #[test]
    fn median_and_tail_differ_on_spread_samples() {
        let s: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&s, 50.0) < percentile(&s, 99.0));
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn a_fraction_is_refused() {
        percentile(&[1, 2, 3], 0.5);
    }

    #[test]
    fn small_sets() {
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2], 50.0), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn microsecond_helpers() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(p50_us(&ns), 50.0);
        assert_eq!(p99_us(&ns), 99.0);
    }
}
