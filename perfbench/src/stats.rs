//! Order statistics and span arithmetic shared by every workload.

/// Samples that must lie strictly beyond a percentile before it may be
/// reported: a tail read from fewer points is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen rank, so p50 needs at least 20 samples and p90 at
/// least 100.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(0.0..1.0).contains(&q) {
        return Err(format!("percentile {q} is outside [0, 1)"));
    }
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it, as a 0-based index.
    let rank = ((q * n as f64).ceil() as usize).saturating_sub(1);
    let beyond = n.saturating_sub(rank + 1);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank])
}

/// Median of a non-empty sample, averaging the middle pair. Used for
/// repeated measurements of one quantity (set-up times, microbenchmark
/// calls), not for latency distributions, which go through
/// [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Length of the union of `intervals` clipped to `window`, all as
/// `(start, end)` nanosecond pairs. Overlapping intervals count once.
pub fn covered_ns(window: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let (lo, hi) = window;
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span: its duration minus the part of it that its
/// child spans cover.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    span.1.saturating_sub(span.0) - covered_ns(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_needs_ten_samples_above_it() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert!(percentile(&ramp(200), 0.99).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Ok(20.0));
    }

    #[test]
    fn empty_or_out_of_range_is_refused() {
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&ramp(500), 1.0).is_err());
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Children overlap each other and one pokes out of the parent.
        let children = [(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered_ns((0, 100), &children), 30 + 10);
        assert_eq!(self_time_ns((0, 100), &children), 60);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns((5, 25), &[]), 20);
        assert_eq!(self_time_ns((5, 25), &[(30, 40)]), 20);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        assert_eq!(self_time_ns((0, 50), &[(10, 40), (15, 20)]), 20);
    }

    #[test]
    fn median_of_even_sample_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
