//! Order statistics used by every metric: nearest-rank percentiles and
//! the rule that a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of samples that are
/// already sorted ascending: the smallest value with at least `p`% of
/// the samples at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    sorted.get(rank(n, p) - 1).copied()
}

/// 1-based nearest rank of the `p` percentile among `n >= 1` samples.
/// `p * n` is formed before dividing so whole-number percentiles of
/// whole sample counts stay exact.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Number of samples ranked above the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`] samples
/// lie beyond it; otherwise the sample cannot support it and `None` is
/// returned.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    if beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Smallest sample count whose nearest-rank `p` percentile has
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Sorts a copy of the samples ascending (NaNs last).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted samples.
pub fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    nearest_rank(&sorted(values), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // 5 samples: p50 is the 3rd, p90 the 5th (ceil(4.5) = 5).
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&s, 50.0), Some(3.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(1.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), None, "999 samples leave only 9 beyond p99");
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), Some(990.0));
        assert_eq!(tail(&s[..15], 50.0), None);
    }

    #[test]
    fn median_of_unsorted_samples() {
        assert_eq!(median([3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median([]), None);
    }
}
