//! Order statistics over per-job latencies.

/// A tail percentile is reported only where at least this many samples
/// lie beyond it; with fewer, the estimate rests on one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice: every run times at least one job.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `p` among `n` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_rank(n: usize, p: f64) -> Option<usize> {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then_some(rank)
}

/// The tail percentile `p` by [`tail_rank`], falling back to the median
/// where the run holds too few samples to resolve the tail.
pub fn tail_or_median(values: &[f64], p: f64) -> f64 {
    match tail_rank(values.len(), p) {
        Some(rank) => sorted(values)[rank - 1],
        None => median(values),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: nearest rank 90 leaves exactly 10 beyond.
        assert_eq!(tail_rank(100, 0.9), Some(90));
        // 120 samples: rank 108, 12 beyond.
        assert_eq!(tail_rank(120, 0.9), Some(108));
        // 99 samples: rank 90 would leave 9 beyond.
        assert_eq!(tail_rank(99, 0.9), None);
        for n in [100, 101, 160, 500] {
            let rank = tail_rank(n, 0.9).unwrap();
            assert!(n - rank >= MIN_BEYOND, "n = {n}");
        }
        // The median's rank needs 20 samples.
        assert_eq!(tail_rank(20, 0.5), Some(10));
        assert_eq!(tail_rank(19, 0.5), None);
    }

    #[test]
    fn short_runs_fall_back_to_the_median() {
        assert_eq!(tail_rank(40, 0.9), None);
        assert_eq!(tail_rank(0, 0.9), None);
        let values: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tail_or_median(&values, 0.9), 8.5);
    }

    #[test]
    fn tail_value_comes_from_the_sorted_samples() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_or_median(&values, 0.9), 90.0);
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
