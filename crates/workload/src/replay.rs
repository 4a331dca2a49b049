//! Wall-clock replay of a diurnal day at a time-compression factor.
//!
//! The paper's Figs. 10–11 run a full 24-hour day; a test cannot. This
//! module replays a [`DiurnalCurve`] over real sockets with **time
//! compressed and load levels kept real**: a [`CompressedDay`] maps
//! wall-clock elapsed time onto curve time (one simulated day passes in
//! `period / compression` of wall time), and the curve's rate values
//! are issued verbatim — so the cluster sees the same ops/s the curve
//! describes, just with morning arriving in seconds instead of hours.
//! A controller steering by measured ops/s and p99 therefore faces the
//! exact load levels of the uncompressed experiment.
//!
//! [`ReplayPacer`] turns the compressed curve into a request schedule:
//! each call to [`due`](ReplayPacer::due) integrates the rate since the
//! previous call (trapezoidal, with fractional carry) and says how many
//! requests to issue now, so an open-loop driver stays on the curve
//! regardless of its own loop jitter.

use std::time::Duration;

use proteus_sim::SimTime;

use crate::DiurnalCurve;

/// A [`DiurnalCurve`] bound to a wall-clock compression factor.
///
/// `compression = 7200` replays a 24 h curve in 12 s of wall time.
/// Rates are **not** scaled: the point of compression is to walk the
/// controller through a whole day's load shape quickly, not to
/// multiply the load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedDay {
    curve: DiurnalCurve,
    compression: f64,
}

impl CompressedDay {
    /// Binds `curve` to a compression factor.
    ///
    /// # Panics
    ///
    /// Panics unless `compression >= 1` and finite (an expansion would
    /// make "a day in minutes" read as "a day in weeks").
    #[must_use]
    pub fn new(curve: DiurnalCurve, compression: f64) -> Self {
        assert!(
            compression >= 1.0 && compression.is_finite(),
            "compression factor must be a finite value >= 1"
        );
        CompressedDay { curve, compression }
    }

    /// How long one simulated day takes on the wall clock.
    #[must_use]
    pub fn wall_day(&self) -> Duration {
        Duration::from_secs_f64(self.curve.period().as_secs_f64() / self.compression)
    }

    /// Maps wall-clock time since replay start onto curve ("simulated
    /// day") time — the axis for comparing a measured `n(t)` against
    /// the paper's oracle schedule.
    fn sim_time_at(&self, elapsed: Duration) -> SimTime {
        SimTime::from_nanos((elapsed.as_secs_f64() * self.compression * 1e9) as u64)
    }

    /// The request rate (requests per wall-clock second) the replay
    /// should be issuing `elapsed` into the run.
    #[must_use]
    pub fn rate_at_wall(&self, elapsed: Duration) -> f64 {
        self.curve.rate_at(self.sim_time_at(elapsed))
    }
}

/// Open-loop pacer for a [`CompressedDay`]: tells a driver how many
/// requests are due at each visit, independent of the driver's loop
/// cadence.
///
/// The integral of the rate between visits is computed trapezoidally
/// and the fractional remainder carried forward, so the issued total
/// tracks `∫rate` exactly even when the rate swings within one visit
/// interval — no drift from polling at 1 ms vs 50 ms.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPacer {
    day: CompressedDay,
    last: Duration,
    carry: f64,
    issued: u64,
}

impl ReplayPacer {
    /// A pacer starting at wall-clock zero of the replay.
    #[must_use]
    pub fn new(day: CompressedDay) -> Self {
        ReplayPacer {
            day,
            last: Duration::ZERO,
            carry: 0.0,
            issued: 0,
        }
    }

    /// How many requests to issue now, given that `elapsed` wall time
    /// has passed since replay start. Time moving backwards (or not at
    /// all) yields zero; the pacer never re-issues an interval.
    pub fn due(&mut self, elapsed: Duration) -> u64 {
        if elapsed <= self.last {
            return 0;
        }
        let dt = (elapsed - self.last).as_secs_f64();
        let avg = 0.5 * (self.day.rate_at_wall(self.last) + self.day.rate_at_wall(elapsed));
        let owed = self.carry + avg * dt;
        let n = owed.floor();
        self.carry = owed - n;
        self.last = elapsed;
        let n = n as u64;
        self.issued += n;
        n
    }

    /// Requests issued so far across all [`due`](Self::due) calls.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_sim::SimDuration;

    fn curve() -> DiurnalCurve {
        DiurnalCurve::new(400.0, 3.0, SimDuration::from_secs(86_400))
    }

    #[test]
    fn wall_day_and_sim_mapping_agree_with_compression() {
        let day = CompressedDay::new(curve(), 7200.0);
        assert_eq!(day.wall_day(), Duration::from_secs(12));
        let end = day.sim_time_at(day.wall_day());
        let err = (end.as_secs_f64() - 86_400.0).abs();
        assert!(err < 1e-3, "wall day must map onto one full period");
        // Rates are replayed verbatim, not scaled by compression.
        let r = day.rate_at_wall(Duration::from_secs(6));
        let direct = curve().rate_at(SimTime::from_secs(6 * 7200));
        assert!((r - direct).abs() < 1e-9);
    }

    #[test]
    fn paced_total_matches_the_curve_integral() {
        let day = CompressedDay::new(curve(), 7200.0);
        let mut pacer = ReplayPacer::new(day);
        // Visit every 5 ms across the whole compressed day.
        let step = Duration::from_millis(5);
        let mut elapsed = Duration::ZERO;
        while elapsed < day.wall_day() {
            elapsed += step;
            pacer.due(elapsed);
        }
        let total = pacer.issued() as f64;
        // One compressed day issues mean_rate × wall_day requests.
        let expected = 400.0 * day.wall_day().as_secs_f64();
        let rel = (total - expected).abs() / expected;
        assert!(
            rel < 0.01,
            "issued {total} vs expected {expected} (rel err {rel})"
        );
    }

    #[test]
    fn pacing_is_cadence_independent() {
        let day = CompressedDay::new(curve(), 7200.0);
        let mut fine = ReplayPacer::new(day);
        let mut coarse = ReplayPacer::new(day);
        let end = day.wall_day();
        let mut t = Duration::ZERO;
        while t < end {
            t += Duration::from_millis(2);
            fine.due(t);
        }
        let mut t = Duration::ZERO;
        while t < end {
            t += Duration::from_millis(40);
            coarse.due(t);
        }
        let (a, b) = (fine.issued() as f64, coarse.issued() as f64);
        assert!(
            (a - b).abs() / a < 0.01,
            "2 ms pacing issued {a}, 40 ms pacing issued {b}"
        );
    }

    #[test]
    fn peak_window_issues_more_than_nadir_window() {
        let day = CompressedDay::new(curve(), 7200.0);
        let wall = day.wall_day();
        // Find the busiest and quietest wall instants by scanning.
        let mut peak_at = Duration::ZERO;
        let mut nadir_at = Duration::ZERO;
        for i in 0..1000u32 {
            let t = wall.mul_f64(f64::from(i) / 1000.0);
            if day.rate_at_wall(t) > day.rate_at_wall(peak_at) {
                peak_at = t;
            }
            if day.rate_at_wall(t) < day.rate_at_wall(nadir_at) {
                nadir_at = t;
            }
        }
        let count_around = |at: Duration| {
            let mut p = ReplayPacer::new(day);
            p.due(at); // swallow everything before the window
            p.due(at + Duration::from_millis(500))
        };
        let peak = count_around(peak_at) as f64;
        let nadir = count_around(nadir_at) as f64;
        let ratio = peak / nadir;
        assert!(
            (ratio - 3.0).abs() < 0.35,
            "peak/nadir issue ratio {ratio} should be near the curve's 3.0"
        );
    }

    #[test]
    fn non_advancing_time_issues_nothing() {
        let mut pacer = ReplayPacer::new(CompressedDay::new(curve(), 7200.0));
        let issued = pacer.due(Duration::from_secs(1));
        assert!(issued > 0);
        assert_eq!(pacer.due(Duration::from_secs(1)), 0);
        assert_eq!(pacer.due(Duration::from_millis(900)), 0);
        assert_eq!(pacer.issued(), issued);
    }

    #[test]
    #[should_panic(expected = "compression factor")]
    fn sub_unity_compression_rejected() {
        let _ = CompressedDay::new(curve(), 0.5);
    }
}
