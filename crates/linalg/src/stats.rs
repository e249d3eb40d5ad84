//! Small statistics helpers shared by the evaluation harnesses.

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(cps_linalg::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(cps_linalg::mean(&[]), 0.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Summary statistics of a sample.
///
/// # Example
///
/// ```
/// use cps_linalg::Summary;
///
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.mean, 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum value (`+∞` for an empty sample).
    pub min: f64,
    /// Maximum value (`−∞` for an empty sample).
    pub max: f64,
    /// Arithmetic mean (`0` for an empty sample).
    pub mean: f64,
    /// Population standard deviation (`0` for an empty sample).
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics over `values`.
    pub fn from_values(values: &[f64]) -> Self {
        let count = values.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        let mean = mean(values);
        let var = if count == 0 {
            0.0
        } else {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64
        };
        Summary {
            count,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Value range `max − min` (`−∞` for an empty sample).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::from_values(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.range(), 7.0);
    }

    #[test]
    fn summary_empty_sample() {
        let s = Summary::default();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert!(s.min.is_infinite());
    }
}
