//! Medians and the percentile rule used for every reported timing.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a report may quote, ascending.
const LADDER: [u32; 4] = [50, 90, 95, 99];
/// A percentile is only quoted with at least this many samples beyond it.
const MIN_SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that `samples` observations
/// justify: at least [`MIN_SAMPLES_BEYOND`] of them lie beyond it. `None`
/// when even the median is not justified.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples * (100 - p as usize) >= MIN_SAMPLES_BEYOND * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 2 000 served requests: 20 samples beyond p99.
        assert_eq!(highest_supported_percentile(2000), Some(99));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        // 999 samples leave 9.99 beyond p99, 49.95 beyond p95.
        assert_eq!(highest_supported_percentile(999), Some(95));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(50));
        assert_eq!(highest_supported_percentile(20), Some(50));
        // Five timed reps justify no percentile at all: report the median
        // with min and max.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }
}
