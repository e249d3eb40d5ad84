//! Order statistics for the reported timings.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` ∈ (0, 1] of `values`, with the number of
/// samples that lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (
        v.get(rank - 1).copied().unwrap_or(f64::NAN),
        n - rank.min(n),
    )
}

/// The tail percentile `p` of `values`, refused unless at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    let (value, beyond) = percentile(values, p);
    if beyond < TAIL_MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {TAIL_MIN_BEYOND})",
            p * 100.0,
            values.len()
        ));
    }
    Ok(value)
}

/// Smallest sample count for which [`tail`] accepts percentile `p`.
pub fn tail_min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).1 >= TAIL_MIN_BEYOND)
        .expect("some sample count leaves enough beyond any p < 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.9), (90.0, 10));
        assert_eq!(percentile(&ramp(1000), 0.99), (990.0, 10));
        assert_eq!(percentile(&ramp(1), 0.5), (1.0, 0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(1000), 0.99), Ok(990.0));
        assert!(tail(&ramp(999), 0.99).is_err());
        assert_eq!(tail(&ramp(100), 0.9), Ok(90.0));
        assert!(tail(&ramp(99), 0.9).is_err());
        assert!(tail(&ramp(5000), 1.0).is_err());
    }

    #[test]
    fn tail_min_samples_matches_the_rule() {
        for p in [0.9, 0.99] {
            let n = tail_min_samples(p);
            assert!(tail(&ramp(n), p).is_ok());
            assert!(tail(&ramp(n - 1), p).is_err());
        }
        assert_eq!(tail_min_samples(0.99), 1000);
        assert_eq!(tail_min_samples(0.9), 100);
    }
}
