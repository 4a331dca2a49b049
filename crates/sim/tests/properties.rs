//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use proteus_sim::histogram::{bucket_index, bucket_value, MAX_BUCKETS};
use proteus_sim::{EventQueue, Histogram, Resource, SimDuration, SimRng, SimTime, TimeSeries};

/// The histogram as it was stored before it kept only its occupied
/// span: every bucket of the layout, zeros included. The span form must
/// agree with it bucket for bucket.
#[derive(Debug, Clone)]
struct DenseOracle {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min: u64,
    max: u64,
}

impl DenseOracle {
    fn new() -> Self {
        DenseOracle {
            buckets: vec![0; MAX_BUCKETS],
            count: 0,
            sum_nanos: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &DenseOracle) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).floor() as u64 + 1;
        let mut cum = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_value(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

fn recorded(values: &[u64]) -> (Histogram, DenseOracle) {
    let mut h = Histogram::new();
    let mut oracle = DenseOracle::new();
    for &v in values {
        h.record(SimDuration::from_nanos(v));
        oracle.record(v);
    }
    (h, oracle)
}

/// Fails unless `h` holds exactly the oracle's samples, in canonical
/// form: a span with no zero at either end, `(0, [])` when empty.
fn assert_agrees(h: &Histogram, oracle: &DenseOracle, q: f64) -> Result<(), TestCaseError> {
    let (first, counts) = h.bucket_range();
    match (counts.first(), counts.last()) {
        (Some(&lo), Some(&hi)) => prop_assert!(lo > 0 && hi > 0, "zero at a span end"),
        _ => prop_assert_eq!(first, 0, "an empty span starts at 0"),
    }
    let mut dense = vec![0; MAX_BUCKETS];
    dense[first..first + counts.len()].copy_from_slice(counts);
    prop_assert!(
        dense == oracle.buckets,
        "buckets differ from the dense oracle"
    );
    prop_assert_eq!(h.count(), oracle.count);
    prop_assert_eq!(h.sum_nanos(), oracle.sum_nanos);
    let nanos = |d: Option<SimDuration>| d.map(SimDuration::as_nanos);
    let (min, max) = (oracle.count > 0)
        .then_some((oracle.min, oracle.max))
        .unzip();
    prop_assert_eq!(nanos(h.min()), min);
    prop_assert_eq!(nanos(h.max()), max);
    for q in [0.0, q, 0.5, 0.99, 1.0] {
        prop_assert_eq!(nanos(h.quantile(q)), oracle.quantile(q));
    }
    Ok(())
}

/// Samples from every bucket regime of the whole `u64` range, ends
/// included; possibly none.
fn span_samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..64,
            64u64..1 << 20,
            1u64 << 20..1 << 40,
            any::<u64>(),
            Just(0u64),
            Just(u64::MAX),
        ],
        0..120,
    )
}

proptest! {
    /// Popping the event queue always yields events in non-decreasing
    /// time order, regardless of insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Events scheduled at identical times pop in insertion order.
    #[test]
    fn event_queue_ties_are_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(t);
        for i in 0..n {
            q.schedule(at, i);
        }
        for expect in 0..n {
            let (_, got) = q.pop().unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    /// A resource's grants never start before arrival, never overlap more
    /// than `servers` jobs, and starts are non-decreasing (FIFO).
    #[test]
    fn resource_grants_are_feasible(
        servers in 1usize..8,
        jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..200),
    ) {
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_unstable();
        let mut r = Resource::new(servers);
        let mut grants = Vec::new();
        let mut last_start = SimTime::ZERO;
        for &(at, svc) in &arrivals {
            let arrival = SimTime::from_nanos(at);
            let g = r.acquire(arrival, SimDuration::from_nanos(svc));
            prop_assert!(g.start >= arrival);
            prop_assert_eq!(g.end, g.start + SimDuration::from_nanos(svc));
            prop_assert!(g.start >= last_start, "FIFO start order");
            last_start = g.start;
            grants.push(g);
        }
        // At any grant start, at most `servers` jobs are simultaneously
        // in service (check at each start instant).
        for probe in &grants {
            let overlapping = grants
                .iter()
                .filter(|g| g.start <= probe.start && probe.start < g.end)
                .count();
            prop_assert!(overlapping <= servers, "{overlapping} > {servers}");
        }
    }

    /// Histogram quantiles are within the documented 1.6% relative error
    /// of the true order statistic, for arbitrary sample sets.
    #[test]
    fn histogram_quantile_error_bounded(
        mut samples in prop::collection::vec(1u64..10_000_000_000, 10..400),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).floor() as usize).min(samples.len() - 1);
        let truth = samples[rank] as f64;
        let got = h.quantile(q).unwrap().as_nanos() as f64;
        // The histogram may land one order statistic off when samples
        // share a bucket; accept bucket-level error against the two
        // neighbouring order statistics.
        let lo = samples[rank.saturating_sub(1)] as f64;
        let hi = samples[(rank + 1).min(samples.len() - 1)] as f64;
        let tol = 0.017;
        let ok = (got - truth).abs() / truth <= tol
            || (got - lo).abs() / lo <= tol
            || (got - hi).abs() / hi <= tol;
        prop_assert!(ok, "q={q} got={got} truth={truth} lo={lo} hi={hi}");
    }

    /// Histogram count and mean are exact.
    #[test]
    fn histogram_count_and_mean_exact(samples in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mean = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(h.mean().unwrap().as_nanos(), mean);
        prop_assert_eq!(h.min().unwrap().as_nanos(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().unwrap().as_nanos(), *samples.iter().max().unwrap());
    }

    /// Merging histograms is equivalent to recording the union.
    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(1u64..1_000_000, 0..100),
        b in prop::collection::vec(1u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &s in &a {
            ha.record(SimDuration::from_nanos(s));
            hu.record(SimDuration::from_nanos(s));
        }
        for &s in &b {
            hb.record(SimDuration::from_nanos(s));
            hu.record(SimDuration::from_nanos(s));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.mean().map(|d| d.as_nanos()), hu.mean().map(|d| d.as_nanos()));
        for qq in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(
                ha.quantile(qq).map(|d| d.as_nanos()),
                hu.quantile(qq).map(|d| d.as_nanos())
            );
        }
    }

    /// The span form agrees with the dense layout bucket for bucket
    /// through `record`, `merge`, `quantile`, `from_range` (from its own
    /// span and from a zero-padded full layout) and `clear`.
    #[test]
    fn histogram_span_equals_dense_oracle(
        a in span_samples(),
        b in span_samples(),
        q in 0.0f64..1.0,
    ) {
        let (mut h, mut oracle) = recorded(&a);
        assert_agrees(&h, &oracle, q)?;

        let (min, max) = (oracle.min, oracle.max);
        let (first, counts) = h.bucket_range();
        let rebuilt = Histogram::from_range(first, counts, h.sum_nanos(), min, max);
        prop_assert_eq!(&rebuilt, &h);
        let padded = Histogram::from_range(0, &oracle.buckets, h.sum_nanos(), min, max);
        prop_assert_eq!(&padded, &h);

        let (hb, ob) = recorded(&b);
        h.merge(&hb);
        oracle.merge(&ob);
        assert_agrees(&h, &oracle, q)?;
        let (union, _) = recorded(&[a.as_slice(), b.as_slice()].concat());
        prop_assert_eq!(&h, &union, "merge equals recording the union");

        h.clear();
        prop_assert_eq!(&h, &Histogram::new());
        for &v in &b {
            h.record(SimDuration::from_nanos(v));
        }
        assert_agrees(&h, &ob, q)?;
    }

    /// TimeSeries totals are preserved regardless of where observations
    /// land, and per-slot sums add up to the grand total.
    #[test]
    fn time_series_conserves_mass(
        obs in prop::collection::vec((0u64..100_000, 0.0f64..100.0), 1..200),
        slots in 1usize..20,
    ) {
        let mut s = TimeSeries::new(SimDuration::from_nanos(1000), slots);
        let mut total = 0.0;
        for &(t, v) in &obs {
            s.add(SimTime::from_nanos(t), v);
            total += v;
        }
        prop_assert!((s.total() - total).abs() < 1e-6);
        prop_assert_eq!(s.counts().iter().sum::<u64>(), obs.len() as u64);
    }

    /// Forked RNG streams are deterministic functions of (seed, salt).
    #[test]
    fn rng_fork_is_deterministic(seed in any::<u64>(), salt in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..8 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }
}
