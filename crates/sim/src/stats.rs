//! Streaming summary statistics (Welford's algorithm).
//!
//! Used by the multi-seed robustness experiments to report means and
//! confidence half-widths without storing samples.

/// A running mean/variance accumulator (numerically stable Welford
/// updates).
///
/// # Example
///
/// ```
/// use proteus_sim::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// // Sample variance 32/7, so the half-width is 2·√(32/7 / 8).
/// assert!((w.ci95_half_width() - 2.0 * (32.0f64 / 7.0 / 8.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "samples must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (0 before any samples).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divides by `n − 1`; 0 before two samples).
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// An approximate 95% confidence half-width for the mean
    /// (`t ≈ 2` times the standard error; exact-enough for the
    /// robustness reports, which use ≥5 replicates).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        2.0 * self.sample_variance().sqrt() / (self.count as f64).sqrt()
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.sample_variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn empty_and_single_sample() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.ci95_half_width(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small: Welford = (0..10).map(|i| f64::from(i % 5)).collect();
        let mut large: Welford = (0..1000).map(|i| f64::from(i % 5)).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
        // Keep the accumulators usable after reading.
        small.push(1.0);
        large.push(1.0);
    }

    #[test]
    fn numerical_stability_with_offset_data() {
        // Classic catastrophic-cancellation case: huge offset, small spread.
        // 999 samples → exactly 333 of each residue: m2 is exactly 666,
        // so the sample variance is 666 / 998.
        let w: Welford = (0..999).map(|i| 1e9 + f64::from(i % 3)).collect();
        assert!(
            (w.sample_variance() - 666.0 / 998.0).abs() < 1e-6,
            "variance {}",
            w.sample_variance()
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Welford::new().push(f64::NAN);
    }
}
