//! Exact order statistics over kept samples.
//!
//! The service's own load harness records into a log2 histogram, whose
//! percentiles are only factor-of-two accurate. The ledger keeps every
//! latency as a `u64` of nanoseconds and reads percentiles off the sorted
//! vector, so two runs can be compared to within a few percent.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, capped at `cap`, that still has at least
/// [`TAIL_SUPPORT`] samples beyond it among `n`; `None` when `n` is too
/// small to support any tail at all.
pub fn supported_tail(n: usize, cap: f64) -> Option<f64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    Some(cap.min(1.0 - TAIL_SUPPORT as f64 / n as f64))
}

/// The tail latency of an ascending slice: the p99, or the highest
/// percentile the sample count supports when that is lower. Falls back to
/// the maximum when the sample is too small for any supported tail.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    match supported_tail(sorted.len(), 0.99) {
        Some(p) => (p, percentile(sorted, p)),
        None => (1.0, *sorted.last().expect("tail of no samples")),
    }
}

/// Median of unsorted values (mean of the two middle ones when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the acceptance check is stated in.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or fewer than two values exist).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 10 000 samples: p99 leaves 100 beyond, so p99 stands.
        assert_eq!(supported_tail(10_000, 0.99), Some(0.99));
        // 200 samples: only p95 leaves ten beyond.
        assert_eq!(supported_tail(200, 0.99), Some(0.95));
        // Exactly 1 000: p99 leaves exactly ten.
        assert_eq!(supported_tail(1_000, 0.99), Some(0.99));
        assert_eq!(supported_tail(10, 0.99), None);
        let s: Vec<u64> = (1..=200).collect();
        let (p, v) = tail(&s);
        assert!((p - 0.95).abs() < 1e-12);
        assert_eq!(v, 190);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_SUPPORT);
        assert_eq!(tail(&[3, 9]), (1.0, 9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
