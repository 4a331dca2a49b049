//! Property-based tests for workload synthesis.

use proptest::prelude::*;
use proteus_sim::{SimDuration, SimRng, SimTime};
use proteus_workload::{
    lru_model, DiurnalCurve, SessionConfig, SessionWorkload, Trace, TraceConfig, ZipfSampler,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zipf samples always land in range, for any valid (n, s).
    #[test]
    fn zipf_stays_in_range(
        n in 1u64..100_000,
        s_tenths in 1u32..25,
        seed in any::<u64>(),
    ) {
        let s = f64::from(s_tenths) / 10.0 + 0.01; // avoid exactly 1.0
        let z = ZipfSampler::new(n, s);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..200 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Zipf probabilities are decreasing in rank and sum to one.
    #[test]
    fn zipf_probabilities_are_a_distribution(n in 2u64..2_000, s_tenths in 2u32..20) {
        let s = f64::from(s_tenths) / 10.0 + 0.01;
        let z = ZipfSampler::new(n, s);
        let mut total = 0.0;
        let mut last = f64::INFINITY;
        for k in 1..=n {
            let p = z.probability(k);
            prop_assert!(p > 0.0 && p <= last);
            last = p;
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-6, "total {}", total);
    }

    /// Diurnal curves honor their configured mean and ratio for any
    /// parameters.
    #[test]
    fn diurnal_respects_parameters(
        mean in 1.0f64..10_000.0,
        ratio_tenths in 10u32..50,
        period_secs in 60u64..100_000,
    ) {
        let ratio = f64::from(ratio_tenths) / 10.0;
        let c = DiurnalCurve::new(mean, ratio, SimDuration::from_secs(period_secs));
        let measured_ratio = c.peak_rate() / c.nadir_rate();
        prop_assert!((measured_ratio - ratio).abs() / ratio < 0.02);
        prop_assert!(c.nadir_rate() > 0.0);
        // Spot samples stay within [nadir, peak].
        for i in 0..32u64 {
            let t = SimTime::from_secs(period_secs * i / 32);
            let r = c.rate_at(t);
            prop_assert!(r >= c.nadir_rate() - 1e-9 && r <= c.peak_rate() + 1e-9);
        }
    }

    /// Sessions always produce at least one request, spaced exactly by
    /// the think time, with pages from the catalog.
    #[test]
    fn sessions_are_well_formed(
        seed in any::<u64>(),
        think_ms in 100u64..2_000,
        mean_session_s in 1u64..60,
        pages in 1u64..10_000,
    ) {
        let w = SessionWorkload::new(SessionConfig {
            pages_per_user: 5,
            think_time: SimDuration::from_millis(think_ms),
            mean_session: SimDuration::from_secs(mean_session_s),
            catalog_pages: pages,
            zipf_exponent: 0.8,
        });
        let mut rng = SimRng::seed_from_u64(seed);
        let start = SimTime::from_secs(100);
        let reqs = w.session_requests(start, &mut rng);
        prop_assert!(!reqs.is_empty());
        prop_assert_eq!(reqs[0].0, start);
        for pair in reqs.windows(2) {
            prop_assert_eq!(pair[1].0 - pair[0].0, SimDuration::from_millis(think_ms));
        }
        for &(_, page) in &reqs {
            prop_assert!((1..=pages).contains(&page));
        }
    }

    /// Synthesized traces are sorted, in-horizon, and reproducible.
    #[test]
    fn traces_are_sorted_and_reproducible(seed in any::<u64>()) {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(20),
            mean_rate: 50.0,
            pages: 500,
            ..TraceConfig::default()
        };
        let a = Trace::synthesize(&cfg, seed);
        let b = Trace::synthesize(&cfg, seed);
        prop_assert_eq!(&a, &b);
        let horizon = SimTime::ZERO + cfg.duration;
        for pair in a.records().windows(2) {
            prop_assert!(pair[0].at <= pair[1].at);
        }
        prop_assert!(a.records().iter().all(|r| r.at < horizon));
    }

    /// Che's approximation is a valid, monotone hit-ratio curve for any
    /// popularity vector.
    #[test]
    fn che_is_monotone_and_bounded(
        probs in prop::collection::vec(0.001f64..10.0, 3..200),
    ) {
        let mut last = 0.0;
        for capacity in [1usize, probs.len() / 4 + 1, probs.len() / 2 + 1, probs.len() - 1] {
            let h = lru_model::hit_ratio(&probs, capacity);
            prop_assert!((0.0..=1.0).contains(&h));
            prop_assert!(h + 1e-9 >= last, "capacity {} ratio {} < {}", capacity, h, last);
            last = h;
        }
        prop_assert_eq!(lru_model::hit_ratio(&probs, probs.len()), 1.0);
    }

    /// The wikibench parser never panics on arbitrary printable lines.
    #[test]
    fn wikibench_parser_is_total(line in "[ -~]{0,200}") {
        let _ = proteus_workload::wikipedia::parse_line(&line, "en.wikipedia.org");
    }
}
