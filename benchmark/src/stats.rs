//! The statistics the benchmark reports: percentiles that carry enough
//! samples, the least-disturbed repetition, medians and quartile spread.

/// Whether `better` values are the small ones or the large ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The percentiles a tail metric may fall back to, highest first.
const TAILS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile not above `wanted` that has at least ten of the
/// `n` samples beyond it (the median when even that fails).
pub fn admissible_percentile(wanted: f64, n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|p| *p <= wanted && (n as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(0.50)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value of the least-disturbed repetition: a disturbance only ever
/// makes a repetition slower, so the best value is the closest to what the
/// code costs. Printed beside the median, which is what is reported: between
/// runs the best of a dozen repetitions moved twice as much as their median.
pub fn least_disturbed(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one repetition")
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's spread uses the same.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len();
    let at = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(admissible_percentile(0.99, 1000), 0.99);
        assert_eq!(admissible_percentile(0.99, 999), 0.95);
        assert_eq!(admissible_percentile(0.99, 200), 0.95);
        assert_eq!(admissible_percentile(0.99, 199), 0.90);
        assert_eq!(admissible_percentile(0.99, 40), 0.75);
        assert_eq!(admissible_percentile(0.99, 12), 0.50);
        assert_eq!(admissible_percentile(0.50, 100_000), 0.50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f32> = (1..=100).map(|x| x as f32).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn least_disturbed_follows_the_direction() {
        let v = [3.0, 1.5, 2.0];
        assert_eq!(least_disturbed(&v, Better::Lower), 1.5);
        assert_eq!(least_disturbed(&v, Better::Higher), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(median(&v), 5.5);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
