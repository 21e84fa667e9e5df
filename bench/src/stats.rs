//! Order statistics: the median, quartile spread, and the percentile
//! ladder that picks a workload's tail rung.

/// The tail ladder in per-mille (p75, p90, p99, p99.9): `tail_ms` is read
/// at the highest rung that still has [`MIN_BEYOND`] samples beyond it.
/// Per-mille keeps the rank arithmetic in integers, so 10,000 samples sit
/// exactly on the p99.9 threshold instead of a rounding error below it.
pub const LADDER: [u32; 4] = [750, 900, 990, 999];
/// A percentile needs this many samples above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pm` per-mille point among `len` samples.
fn rank(len: usize, pm: u32) -> usize {
    (len * pm as usize).div_ceil(1000).clamp(1, len.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pm: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pm) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pm`.
pub fn beyond(len: usize, pm: u32) -> usize {
    len.saturating_sub(rank(len, pm))
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples; 0 for none (a layer that did no work).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest ladder rung with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even p75 has too few.
pub fn highest_rung(len: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|pm| beyond(len, *pm) >= MIN_BEYOND)
}

/// A workload's tail latency: its frozen rung when the run has enough
/// samples for it, else the highest rung the run does support (short
/// smoke runs), else the maximum. Returns `(value, per-mille rung used)`.
pub fn tail(sorted: &[f64], frozen_rung: u32) -> (f64, u32) {
    let rung = match highest_rung(sorted.len()) {
        Some(supported) => supported.min(frozen_rung),
        None => 1000,
    };
    (percentile(sorted, rung), rung)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so `compare` prints the spread the acceptance driver will see.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos - j * 4) as f64 / 4.0;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 750), 75.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 999), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn a_rung_needs_ten_samples_beyond_it() {
        // p75 of 40 samples has exactly 10 beyond it; of 39 only 9.
        assert_eq!(beyond(40, 750), 10);
        assert_eq!(beyond(0, 750), 0);
        assert_eq!(highest_rung(40), Some(750));
        assert_eq!(highest_rung(39), None);
        assert_eq!(highest_rung(100), Some(900));
        assert_eq!(highest_rung(999), Some(900));
        assert_eq!(highest_rung(1000), Some(990));
        assert_eq!(highest_rung(9_999), Some(990));
        assert_eq!(highest_rung(10_000), Some(999));
    }

    #[test]
    fn tail_never_climbs_above_the_frozen_rung() {
        let s = ramp(20_000);
        assert_eq!(tail(&s, 990), (19_800.0, 990));
        // Too few samples for the frozen rung: fall to what the run supports.
        let s = ramp(200);
        assert_eq!(tail(&s, 990), (180.0, 900));
        let s = ramp(5);
        assert_eq!(tail(&s, 990), (5.0, 1000));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
