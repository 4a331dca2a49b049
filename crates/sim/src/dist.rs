//! Latency and workload distributions.
//!
//! Implemented from first principles (inverse-CDF, Box–Muller) over
//! [`SimRng`]'s uniform draws. Every distribution
//! samples a *duration*; parameters are expressed in seconds for
//! readability at construction sites.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A duration-valued probability distribution used for service and
/// network latencies.
///
/// # Example
///
/// ```
/// use proteus_sim::{dist::Distribution, SimRng};
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let d = Distribution::exponential(0.010); // mean 10 ms
/// let sample = d.sample(&mut rng);
/// assert!(sample.as_secs_f64() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Always the same duration.
    Constant {
        /// The fixed value in seconds.
        secs: f64,
    },
    /// Exponential with the given mean (seconds).
    Exponential {
        /// Mean in seconds.
        mean: f64,
    },
    /// Log-normal parameterized by the mean and standard deviation of
    /// the *resulting* distribution (not of the underlying normal),
    /// which is the natural way to express "DB lookups take ~40 ms
    /// give or take".
    LogNormal {
        /// Mean of the log-normal in seconds.
        mean: f64,
        /// Standard deviation of the log-normal in seconds.
        std_dev: f64,
    },
}

impl Distribution {
    /// A distribution that always returns `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn constant(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid constant {secs}");
        Distribution::Constant { secs }
    }

    /// Exponential with mean `mean` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    #[must_use]
    pub fn exponential(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "invalid exponential mean {mean}"
        );
        Distribution::Exponential { mean }
    }

    /// Log-normal with the given mean and standard deviation (seconds).
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive and finite.
    #[must_use]
    pub fn log_normal(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0 && std_dev.is_finite() && std_dev > 0.0,
            "invalid log-normal parameters mean={mean} std_dev={std_dev}"
        );
        Distribution::LogNormal { mean, std_dev }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let secs = self.sample_secs(rng);
        SimDuration::from_secs_f64(secs)
    }

    /// Draws one sample as fractional seconds.
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Distribution::Constant { secs } => secs,
            Distribution::Exponential { mean } => {
                // Inverse CDF: -mean * ln(U), U in (0, 1].
                -mean * rng.positive_uniform_f64().ln()
            }
            Distribution::LogNormal { mean, std_dev } => {
                // Convert the target (mean, std_dev) of the log-normal
                // into the (mu, sigma) of the underlying normal.
                let variance = std_dev * std_dev;
                let m2 = mean * mean;
                let sigma2 = (1.0 + variance / m2).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                let z = standard_normal(rng);
                (mu + sigma2.sqrt() * z).exp()
            }
        }
    }
}

/// One standard-normal sample via Box–Muller.
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.positive_uniform_f64();
    let u2 = rng.uniform_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample_secs(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SimRng::seed_from_u64(1);
        let d = Distribution::constant(0.005);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Distribution::exponential(0.040);
        let m = mean_of(d, 100_000, 4);
        assert!((m - 0.040).abs() < 0.001, "mean {m}");
    }

    #[test]
    fn log_normal_mean_and_positivity() {
        let d = Distribution::log_normal(0.040, 0.020);
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(d.sample_secs(&mut rng) > 0.0);
        }
        let m = mean_of(d, 200_000, 6);
        assert!((m - 0.040).abs() < 0.001, "mean {m}");
    }

    #[test]
    fn exponential_is_memoryless_in_shape() {
        // P(X > 2m) should be about e^-2 when the mean is m.
        let d = Distribution::exponential(1.0);
        let mut rng = SimRng::seed_from_u64(7);
        let n = 100_000;
        let tail = (0..n).filter(|_| d.sample_secs(&mut rng) > 2.0).count();
        let p = tail as f64 / n as f64;
        assert!((p - (-2.0f64).exp()).abs() < 0.01, "tail prob {p}");
    }

    #[test]
    #[should_panic(expected = "invalid exponential mean")]
    fn exponential_rejects_zero_mean() {
        let _ = Distribution::exponential(0.0);
    }
}
