//! Materialized request traces.

use proteus_sim::{SimDuration, SimRng, SimTime};

use crate::diurnal::DiurnalCurve;
use crate::session::{SessionConfig, SessionWorkload};

/// A page identity (the 1-based Zipf rank doubles as the page ID).
pub type PageId = u64;

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time of the request at the web tier.
    pub at: SimTime,
    /// The requested page.
    pub page: PageId,
}

/// Parameters for synthesizing a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Total trace duration (one simulated "day").
    pub duration: SimDuration,
    /// Mean request rate (requests/second).
    pub mean_rate: f64,
    /// Peak-to-nadir ratio of the diurnal curve (the paper's trace has
    /// ≈ 2).
    pub peak_to_nadir: f64,
    /// Page catalog size.
    pub pages: u64,
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Session behaviour (think time, pages per user, session length).
    pub session: SessionConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            duration: SimDuration::from_secs(1440),
            mean_rate: 1000.0,
            peak_to_nadir: 2.0,
            pages: 200_000,
            zipf_exponent: 0.8,
            session: SessionConfig::default(),
        }
    }
}

/// A time-ordered sequence of page requests.
///
/// Traces are materialized so that all four Table II scenarios replay
/// the *identical* request sequence — the paper applies "the same
/// cluster provisioning result, Wikipedia data and Wikipedia workload
/// to all 4 different scenarios" so routing is the only difference.
///
/// # Example
///
/// ```
/// use proteus_sim::SimDuration;
/// use proteus_workload::{Trace, TraceConfig};
///
/// let cfg = TraceConfig {
///     duration: SimDuration::from_secs(30),
///     mean_rate: 50.0,
///     pages: 1000,
///     ..TraceConfig::default()
/// };
/// let trace = Trace::synthesize(&cfg, 12);
/// // Short horizons truncate sessions, so expect well below 30 s × 50/s,
/// // but clearly nonempty.
/// assert!(trace.len() > 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Builds a trace from raw records (sorted by time internally).
    #[must_use]
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.at);
        Trace { records }
    }

    /// Synthesizes a session-driven trace: user sessions arrive as a
    /// non-homogeneous Poisson process whose rate tracks the diurnal
    /// curve, and each session contributes think-time-spaced requests
    /// to its personal page set.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see
    /// [`SessionWorkload::new`] and [`DiurnalCurve::new`]).
    #[must_use]
    pub fn synthesize(config: &TraceConfig, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let session_cfg = SessionConfig {
            catalog_pages: config.pages,
            zipf_exponent: config.zipf_exponent,
            ..config.session
        };
        let workload = SessionWorkload::new(session_cfg);
        // Requests per session ≈ mean_session / think_time, so the
        // session arrival rate that realises `mean_rate` is:
        let requests_per_session = (session_cfg.mean_session.as_secs_f64()
            / session_cfg.think_time.as_secs_f64())
        .max(1.0);
        let session_rate_mean = config.mean_rate / requests_per_session;
        let curve = DiurnalCurve::new(session_rate_mean, config.peak_to_nadir, config.duration);
        let peak = curve.peak_rate();
        // Thinning: generate candidate arrivals at the peak rate and
        // accept with probability rate(t)/peak.
        let mut records = Vec::new();
        let mut t = SimTime::ZERO;
        let horizon = SimTime::ZERO + config.duration;
        loop {
            let gap = -1.0 / peak * rng.positive_uniform_f64().ln();
            t += SimDuration::from_secs_f64(gap);
            if t >= horizon {
                break;
            }
            if rng.uniform_f64() < curve.rate_at(t) / peak {
                for (at, page) in workload.session_requests(t, &mut rng) {
                    if at < horizon {
                        records.push(TraceRecord { at, page });
                    }
                }
            }
        }
        Trace::from_records(records)
    }

    /// The trace records, in non-decreasing time order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Requests per slot of width `slot`, over `slots` slots — the
    /// per-slot volume curve of Fig. 4.
    #[must_use]
    pub fn requests_per_slot(&self, slot: SimDuration, slots: usize) -> Vec<u64> {
        let mut counts = vec![0u64; slots];
        for r in &self.records {
            let idx = ((r.at.as_nanos() / slot.as_nanos()) as usize).min(slots - 1);
            counts[idx] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> TraceConfig {
        TraceConfig {
            duration: SimDuration::from_secs(120),
            mean_rate: 200.0,
            peak_to_nadir: 2.0,
            pages: 10_000,
            zipf_exponent: 0.8,
            session: SessionConfig {
                pages_per_user: 10,
                think_time: SimDuration::from_millis(500),
                mean_session: SimDuration::from_secs(10),
                ..SessionConfig::default()
            },
        }
    }

    #[test]
    fn synthesized_trace_is_ordered_and_in_horizon() {
        let trace = Trace::synthesize(&quick_config(), 1);
        assert!(!trace.is_empty());
        let horizon = SimTime::ZERO + SimDuration::from_secs(120);
        for pair in trace.records().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(trace.records().iter().all(|r| r.at < horizon));
    }

    #[test]
    fn volume_approximates_mean_rate() {
        let trace = Trace::synthesize(&quick_config(), 2);
        let rate = trace.len() as f64 / 120.0;
        // Session granularity makes this noisy; ±35%.
        assert!(
            (rate - 200.0).abs() / 200.0 < 0.35,
            "achieved rate {rate} vs target 200"
        );
    }

    #[test]
    fn diurnal_shape_shows_in_per_slot_volume() {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(1200),
            mean_rate: 400.0,
            ..quick_config()
        };
        let trace = Trace::synthesize(&cfg, 3);
        let counts = trace.requests_per_slot(SimDuration::from_secs(100), 12);
        let peak = *counts.iter().max().unwrap() as f64;
        let nadir = *counts.iter().min().unwrap() as f64;
        assert!(
            peak / nadir > 1.4,
            "diurnal variation should be visible: {counts:?}"
        );
    }

    #[test]
    fn same_seed_reproduces_identical_trace() {
        let a = Trace::synthesize(&quick_config(), 4);
        let b = Trace::synthesize(&quick_config(), 4);
        assert_eq!(a, b);
        let c = Trace::synthesize(&quick_config(), 5);
        assert_ne!(a, c);
    }

    #[test]
    fn from_records_sorts() {
        let t = Trace::from_records(vec![
            TraceRecord {
                at: SimTime::from_secs(2),
                page: 2,
            },
            TraceRecord {
                at: SimTime::from_secs(1),
                page: 1,
            },
        ]);
        assert_eq!(t.records()[0].page, 1);
    }

    #[test]
    fn requests_per_slot_clamps_overflow() {
        let t = Trace::from_records(vec![TraceRecord {
            at: SimTime::from_secs(100),
            page: 1,
        }]);
        let counts = t.requests_per_slot(SimDuration::from_secs(10), 5);
        assert_eq!(counts, vec![0, 0, 0, 0, 1]);
    }
}
