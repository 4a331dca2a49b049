//! Diurnal load curves.

use proteus_sim::{SimDuration, SimTime};

/// A smooth daily request-rate curve with a configurable peak-to-nadir
/// ratio.
///
/// Section II assumes "the load of requests have temporal behavior, and
/// the gap between the peak and the nadir load is huge"; the paper's
/// Fig. 4 shows the Wikipedia trace's volume with a peak roughly twice
/// the valley. The curve is a fundamental sinusoid plus a second
/// harmonic (Wikipedia's day has an asymmetric shoulder), centered so
/// the configured mean holds and scaled so the configured ratio holds.
///
/// # Example
///
/// ```
/// use proteus_sim::{SimDuration, SimTime};
/// use proteus_workload::DiurnalCurve;
///
/// let day = SimDuration::from_secs(1440);
/// let curve = DiurnalCurve::new(1000.0, 2.0, day);
/// let peak = curve.peak_rate();
/// let nadir = curve.nadir_rate();
/// assert!((peak / nadir - 2.0).abs() < 1e-3);
/// let r = curve.rate_at(SimTime::from_secs(100));
/// assert!(r >= nadir - 1e-9 && r <= peak + 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    mean_rate: f64,
    period: SimDuration,
    /// Second-harmonic strength relative to the fundamental.
    shoulder: f64,
    /// Mean of the raw shape over one period (precomputed).
    shape_mean: f64,
    /// Scale factor applied to the centered shape (precomputed so that
    /// max/min of the rate equals `peak_to_nadir`).
    amplitude: f64,
}

const SHAPE_SAMPLES: usize = 4096;

impl DiurnalCurve {
    /// Creates a curve with the given mean rate (requests/second),
    /// peak-to-nadir ratio, and period (one simulated "day").
    ///
    /// # Panics
    ///
    /// Panics unless `mean_rate > 0`, `peak_to_nadir >= 1`, and the
    /// period is positive.
    #[must_use]
    pub fn new(mean_rate: f64, peak_to_nadir: f64, period: SimDuration) -> Self {
        assert!(mean_rate > 0.0, "mean rate must be positive");
        assert!(peak_to_nadir >= 1.0, "peak/nadir ratio must be >= 1");
        assert!(period > SimDuration::ZERO, "period must be positive");
        let shoulder = 0.18;
        let raw = |phase: f64| raw_shape(phase, shoulder);
        let mut sum = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..SHAPE_SAMPLES {
            let v = raw(i as f64 / SHAPE_SAMPLES as f64);
            sum += v;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let shape_mean = sum / SHAPE_SAMPLES as f64;
        // Centered extrema.
        let hi_c = hi - shape_mean;
        let lo_c = lo - shape_mean;
        // Solve (1 + a·hi_c) / (1 + a·lo_c) = r for a; centering keeps
        // the mean exact because the centered shape integrates to zero.
        let r = peak_to_nadir;
        let amplitude = if r == 1.0 {
            0.0
        } else {
            (r - 1.0) / (hi_c - r * lo_c)
        };
        DiurnalCurve {
            mean_rate,
            period,
            shoulder,
            shape_mean,
            amplitude,
        }
    }

    /// The period (simulated day length).
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The instantaneous rate (requests/second) at time `t`; the curve
    /// repeats every period.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let phase = (t.as_nanos() % self.period.as_nanos()) as f64 / self.period.as_nanos() as f64;
        let centered = raw_shape(phase, self.shoulder) - self.shape_mean;
        self.mean_rate * (1.0 + self.amplitude * centered)
    }

    /// The maximum rate over one period.
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        self.scan().1
    }

    /// The minimum rate over one period.
    #[must_use]
    pub fn nadir_rate(&self) -> f64 {
        self.scan().0
    }

    fn scan(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..SHAPE_SAMPLES as u64 {
            let t = SimTime::from_nanos(self.period.as_nanos() / SHAPE_SAMPLES as u64 * i);
            let v = self.rate_at(t);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// Trough in the early morning, peak in the evening, plus a shoulder
/// from the second harmonic.
fn raw_shape(phase: f64, shoulder: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    (tau * (phase - 0.375)).sin() + shoulder * (2.0 * tau * phase).sin()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day() -> SimDuration {
        SimDuration::from_secs(86_400)
    }

    #[test]
    fn ratio_is_respected() {
        for ratio in [1.5, 2.0, 3.0] {
            let c = DiurnalCurve::new(500.0, ratio, day());
            let measured = c.peak_rate() / c.nadir_rate();
            assert!(
                (measured - ratio).abs() < 0.01,
                "ratio {ratio}: measured {measured}"
            );
        }
    }

    #[test]
    fn mean_is_preserved() {
        let c = DiurnalCurve::new(800.0, 2.0, day());
        let samples = 10_000u64;
        let mean: f64 = (0..samples)
            .map(|i| c.rate_at(SimTime::from_nanos(day().as_nanos() / samples * i)))
            .sum::<f64>()
            / samples as f64;
        assert!((mean - 800.0).abs() / 800.0 < 0.01, "mean {mean}");
    }

    #[test]
    fn rate_is_always_positive_and_periodic() {
        let c = DiurnalCurve::new(100.0, 2.5, day());
        for i in 0..1000u64 {
            let t = SimTime::from_secs(i * 200);
            assert!(c.rate_at(t) > 0.0);
        }
        let t = SimTime::from_secs(3600);
        let t_next_day = SimTime::from_secs(3600 + 86_400);
        assert!((c.rate_at(t) - c.rate_at(t_next_day)).abs() < 1e-9);
    }

    #[test]
    fn flat_curve_when_ratio_is_one() {
        let c = DiurnalCurve::new(100.0, 1.0, day());
        for i in 0..100u64 {
            let r = c.rate_at(SimTime::from_secs(i * 864));
            assert!((r - 100.0).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn accessors_report_configuration() {
        let c = DiurnalCurve::new(250.0, 2.0, day());
        assert_eq!(c.mean_rate, 250.0);
        assert_eq!(c.period(), day());
    }

    #[test]
    #[should_panic(expected = "ratio must be >= 1")]
    fn sub_unity_ratio_rejected() {
        let _ = DiurnalCurve::new(100.0, 0.5, day());
    }
}
