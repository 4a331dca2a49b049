//! The user-session workload model (the paper's RBE emulation).

use proteus_sim::{SimDuration, SimRng, SimTime};

use crate::zipf::ZipfSampler;

/// Parameters of the session model, matching Section V-A1 and VI-C:
/// each emulated user has an independent, randomly selected page set,
/// exponentially distributed session duration, and a fixed think time
/// between requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Pages per user ("Each user has an independent page set of 50
    /// pages").
    pub pages_per_user: usize,
    /// Think time between a user's consecutive requests (0.5 s in the
    /// paper).
    pub think_time: SimDuration,
    /// Mean session duration (exponentially distributed).
    pub mean_session: SimDuration,
    /// Catalog size the page sets are drawn from.
    pub catalog_pages: u64,
    /// Zipf exponent of page popularity within the catalog.
    pub zipf_exponent: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            pages_per_user: 50,
            think_time: SimDuration::from_millis(500),
            mean_session: SimDuration::from_secs(120),
            catalog_pages: 2_560_000,
            zipf_exponent: 0.8,
        }
    }
}

/// Generates the requests of user sessions: sessions start at given
/// times, draw a personal Zipf-sampled page set, and then issue one
/// request per think-time until the (exponential) session ends.
///
/// # Example
///
/// ```
/// use proteus_sim::{SimRng, SimTime};
/// use proteus_workload::{SessionConfig, SessionWorkload};
///
/// let workload = SessionWorkload::new(SessionConfig::default());
/// let mut rng = SimRng::seed_from_u64(1);
/// let requests = workload.session_requests(SimTime::ZERO, &mut rng);
/// assert!(!requests.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SessionWorkload {
    config: SessionConfig,
    zipf: ZipfSampler,
}

impl SessionWorkload {
    /// Creates the workload model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero pages, zero
    /// think time, non-positive session duration, or an invalid Zipf
    /// exponent).
    #[must_use]
    pub fn new(config: SessionConfig) -> Self {
        assert!(config.pages_per_user > 0, "users need at least one page");
        assert!(
            config.think_time > SimDuration::ZERO,
            "think time must be positive"
        );
        assert!(
            config.mean_session > SimDuration::ZERO,
            "session duration must be positive"
        );
        let zipf = ZipfSampler::new(config.catalog_pages, config.zipf_exponent);
        SessionWorkload { config, zipf }
    }

    /// Draws one user's personal page set (1-based page ranks).
    fn draw_page_set(&self, rng: &mut SimRng) -> Vec<u64> {
        (0..self.config.pages_per_user)
            .map(|_| self.zipf.sample(rng))
            .collect()
    }

    /// Generates all `(time, page)` requests of one session starting at
    /// `start`: duration ~ Exp(mean_session), one request per think
    /// time, each for a uniformly chosen page from the user's set.
    pub fn session_requests(&self, start: SimTime, rng: &mut SimRng) -> Vec<(SimTime, u64)> {
        let pages = self.draw_page_set(rng);
        let duration_secs =
            -self.config.mean_session.as_secs_f64() * rng.positive_uniform_f64().ln();
        let duration = SimDuration::from_secs_f64(duration_secs);
        let mut out = Vec::new();
        let mut t = start;
        let end = start + duration;
        // A session always issues at least its first request.
        loop {
            let page = pages[rng.index(pages.len())];
            out.push((t, page));
            t += self.config.think_time;
            if t > end {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SessionConfig {
        SessionConfig {
            pages_per_user: 5,
            think_time: SimDuration::from_millis(500),
            mean_session: SimDuration::from_secs(10),
            catalog_pages: 1000,
            zipf_exponent: 0.8,
        }
    }

    #[test]
    fn sessions_respect_think_time_spacing() {
        let w = SessionWorkload::new(small_config());
        let mut rng = SimRng::seed_from_u64(1);
        let reqs = w.session_requests(SimTime::from_secs(5), &mut rng);
        assert!(!reqs.is_empty());
        for pair in reqs.windows(2) {
            assert_eq!(pair[1].0 - pair[0].0, SimDuration::from_millis(500));
        }
        assert_eq!(reqs[0].0, SimTime::from_secs(5));
    }

    #[test]
    fn requests_stay_within_the_page_set() {
        let w = SessionWorkload::new(small_config());
        let mut rng = SimRng::seed_from_u64(2);
        // Re-derive the page set by replaying the RNG stream.
        let mut rng_probe = SimRng::seed_from_u64(2);
        let pages = w.draw_page_set(&mut rng_probe);
        let reqs = w.session_requests(SimTime::ZERO, &mut rng);
        for (_, p) in &reqs {
            assert!(pages.contains(p), "page {p} outside the user's set");
        }
    }

    #[test]
    fn mean_session_length_converges() {
        let w = SessionWorkload::new(small_config());
        let mut rng = SimRng::seed_from_u64(3);
        let trials = 3000;
        let total: usize = (0..trials)
            .map(|_| w.session_requests(SimTime::ZERO, &mut rng).len())
            .sum();
        let mean_requests = total as f64 / trials as f64;
        // Expected ≈ mean_session / think_time = 20 requests.
        assert!(
            (mean_requests - 20.0).abs() < 2.0,
            "mean requests {mean_requests}"
        );
    }

    #[test]
    fn page_sets_favor_popular_pages() {
        let w = SessionWorkload::new(SessionConfig {
            catalog_pages: 100_000,
            ..small_config()
        });
        let mut rng = SimRng::seed_from_u64(4);
        let mut head = 0u64;
        let mut total = 0u64;
        for _ in 0..2000 {
            for p in w.draw_page_set(&mut rng) {
                total += 1;
                if p <= 1000 {
                    head += 1;
                }
            }
        }
        let share = head as f64 / total as f64;
        // Top 1% of a Zipf(0.8) catalog draws ~35-45% of traffic.
        assert!(share > 0.25, "head share {share}");
    }

    #[test]
    #[should_panic(expected = "think time must be positive")]
    fn zero_think_time_rejected() {
        let _ = SessionWorkload::new(SessionConfig {
            think_time: SimDuration::ZERO,
            ..small_config()
        });
    }
}
