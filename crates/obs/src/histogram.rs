//! Lock-free striped log-linear latency histogram.
//!
//! The record path is wait-free per stripe: a thread-sticky stripe is
//! picked once per thread, then every [`LatencyHistogram::record`] is a
//! handful of relaxed atomic RMW operations — no locks, no allocation,
//! no fences beyond the atomics themselves. Readers pay instead:
//! [`LatencyHistogram::snapshot`] sums the stripes into an owned
//! [`HistogramSnapshot`] which supports quantile queries and merging.
//!
//! Memory follows the samples. A histogram nobody records into costs
//! one pointer-sized cell a stripe; a stripe is built by the first
//! record that lands on it, and holds its buckets as a table of
//! 64-bucket groups, one octave of the layout each, each built by the
//! first record in its octave. So a thread pays for the stripes it
//! writes and a stripe for the octaves its latencies span — about
//! 6 KiB for a command class's nanoseconds-to-milliseconds, where the
//! whole layout is 30 KiB — and the record path is allocation-free
//! once its octaves exist. A snapshot holds only the span of buckets
//! between the smallest and largest sample, so its size follows the
//! spread of the latencies, not the layout: an untouched histogram's
//! snapshot allocates nothing.
//!
//! The bucket scheme is the offline simulator's, imported from
//! [`proteus_sim::histogram`] rather than retyped: values below 64 ns
//! are exact, larger values land in logarithmic octaves split into 64
//! sub-buckets, bounding relative quantile error to about 1/64 (~1.6%).
//! A snapshot *is* a [`proteus_sim::Histogram`] behind a
//! `Duration`-typed surface.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use proteus_sim::histogram::{bucket_floor, bucket_index, bucket_value, MAX_BUCKETS};
use proteus_sim::{Histogram, SimDuration};

/// Default stripe count (power of two). Eight stripes keep the hottest
/// bucket words off each other's cache lines for typical server thread
/// counts without bloating snapshot cost.
const DEFAULT_STRIPES: usize = 8;

/// Buckets in one group: an octave of the layout (bucket `i` lies in
/// group `i / 64`, the octave's 64 sub-bucket slots).
const GROUP_BUCKETS: usize = 64;
const GROUPS: usize = MAX_BUCKETS / GROUP_BUCKETS;
const _: () = assert!(MAX_BUCKETS.is_multiple_of(GROUP_BUCKETS));

/// One octave's bucket counters.
type Group = [AtomicU64; GROUP_BUCKETS];

/// One stripe: a table of lazily built bucket groups and the running
/// totals. Stripes are written by disjoint sets of threads
/// (thread-sticky assignment), so cross-thread cache-line bouncing
/// only happens when more threads than stripes record at once.
#[derive(Debug)]
struct Stripe {
    groups: [OnceLock<Box<Group>>; GROUPS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Box<Self> {
        Box::new(Stripe {
            groups: std::array::from_fn(|_| OnceLock::new()),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        })
    }

    /// Bucket `index`'s counter, building its group on first use.
    #[inline]
    fn bucket(&self, index: usize) -> &AtomicU64 {
        let group = self.groups[index / GROUP_BUCKETS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        &group[index % GROUP_BUCKETS]
    }

    /// Adds this stripe's counts of buckets `first..first + acc.len()`
    /// to `acc`; a group never built holds none.
    fn add_counts(&self, first: usize, acc: &mut [u64]) {
        let end = first + acc.len();
        let mut at = first;
        while at < end {
            let group = at / GROUP_BUCKETS;
            let stop = ((group + 1) * GROUP_BUCKETS).min(end);
            if let Some(buckets) = self.groups[group].get() {
                let counts = &mut acc[at - first..stop - first];
                for (count, bucket) in counts.iter_mut().zip(&buckets[at % GROUP_BUCKETS..]) {
                    *count += bucket.load(Ordering::Relaxed);
                }
            }
            at = stop;
        }
    }

    /// Heap bytes: the stripe and the groups built so far.
    fn heap_bytes(&self) -> usize {
        let built = self.groups.iter().filter_map(OnceLock::get).count();
        size_of::<Stripe>() + built * size_of::<Group>()
    }
}

/// Process-wide round-robin assignment of threads to stripes.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe ticket, assigned on first record.
    /// `usize::MAX` means "not yet assigned".
    static STRIPE_TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns this thread's sticky stripe ticket, assigning one
/// round-robin on first use. Allocation-free (const-initialised TLS).
fn stripe_ticket() -> usize {
    STRIPE_TICKET.with(|c| {
        let t = c.get();
        if t != usize::MAX {
            t
        } else {
            let t = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
            c.set(t);
            t
        }
    })
}

/// A concurrent latency histogram with a lock-free record path,
/// allocation-free once the octaves it records into exist, and bounded
/// relative error (~1.6%).
///
/// Writers record into a thread-sticky stripe; readers call
/// [`snapshot`](LatencyHistogram::snapshot) to merge all stripes into
/// an owned [`HistogramSnapshot`] for quantile queries.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use proteus_obs::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for ms in 1..=100 {
///     h.record(Duration::from_millis(ms));
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 100);
/// let p50 = snap.quantile(0.5).unwrap();
/// assert!((p50.as_secs_f64() - 0.050).abs() / 0.050 < 0.05);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Each stripe is built by the first record that lands on it.
    stripes: Box<[OnceLock<Box<Stripe>>]>,
    /// `stripes.len() - 1`; stripe count is a power of two.
    mask: usize,
}

impl LatencyHistogram {
    /// Creates a histogram with the default stripe count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_stripes(DEFAULT_STRIPES)
    }

    /// Creates a histogram with at least `stripes` stripes (rounded up
    /// to a power of two, minimum 1).
    #[must_use]
    pub fn with_stripes(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        LatencyHistogram {
            stripes: (0..n).map(|_| OnceLock::new()).collect(),
            mask: n - 1,
        }
    }

    /// Records one duration sample. Lock-free, and allocation-free once
    /// this thread's stripe and the sample's octave in it exist: two
    /// acquire loads to find the bucket, then five relaxed atomic
    /// operations.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample expressed in nanoseconds. The first sample
    /// to land on a stripe allocates it, and the first in an octave of
    /// that stripe allocates the octave's group; every other record is
    /// allocation-free.
    #[inline]
    pub fn record_nanos(&self, v: u64) {
        let stripe = self.stripes[stripe_ticket() & self.mask].get_or_init(Stripe::new);
        stripe
            .bucket(bucket_index(v))
            .fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum_nanos.fetch_add(v, Ordering::Relaxed);
        stripe.min.fetch_min(v, Ordering::Relaxed);
        stripe.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Heap bytes this histogram holds: its stripe cells, and every
    /// stripe and bucket group built so far.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let built = self.stripes.iter().filter_map(OnceLock::get);
        size_of_val(&*self.stripes) + built.map(|stripe| stripe.heap_bytes()).sum::<usize>()
    }

    /// Merges every stripe into an owned snapshot that holds only the
    /// occupied buckets. A histogram nobody recorded into builds
    /// nothing.
    ///
    /// Concurrent recorders keep running while the snapshot is taken,
    /// so the result is a consistent-enough point-in-time view: the
    /// stripes' extremes are read first and bound the span of buckets
    /// summed, each bucket is read with a relaxed load, and a sample
    /// racing the scan may or may not be included. Counters in the
    /// snapshot never exceed what has been recorded when the snapshot
    /// returns, and successive snapshots are monotonically
    /// non-decreasing per bucket: extremes only widen, so a later span
    /// covers every bucket an earlier one read.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut sum_nanos = 0u128;
        let mut min = u64::MAX;
        let mut max = 0u64;
        // A stripe nobody recorded into holds nothing to add.
        for stripe in self.stripes.iter().filter_map(OnceLock::get) {
            min = min.min(stripe.min.load(Ordering::Relaxed));
            max = max.max(stripe.max.load(Ordering::Relaxed));
            sum_nanos += u128::from(stripe.sum_nanos.load(Ordering::Relaxed));
        }
        if min > max {
            return HistogramSnapshot::empty();
        }
        let (first, last) = (bucket_index(min), bucket_index(max));
        let mut counts = vec![0u64; last - first + 1];
        for stripe in self.stripes.iter().filter_map(OnceLock::get) {
            // Bucket totals are authoritative: a stripe's `count` is
            // derived from the same relaxed adds and may lag the
            // buckets mid-record, so the snapshot counts the buckets.
            stripe.add_counts(first, &mut counts);
        }
        HistogramSnapshot(Histogram::from_range(first, &counts, sum_nanos, min, max))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Latency percentiles extracted from a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
}

/// An owned, mergeable point-in-time view of a [`LatencyHistogram`]:
/// the simulator's [`Histogram`] read in [`Duration`]s, plus what only
/// a live scrape needs (windowed deltas, the sparse wire form).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot(Histogram);

fn wall(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator). Allocates
    /// nothing.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The smallest recorded sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<Duration> {
        self.0.min().map(wall)
    }

    /// The largest recorded sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<Duration> {
        self.0.max().map(wall)
    }

    /// The exact mean of all recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<Duration> {
        self.0.mean().map(wall)
    }

    /// Sum of all recorded samples in nanoseconds.
    #[must_use]
    pub fn sum_nanos(&self) -> u128 {
        self.0.sum_nanos()
    }

    /// The `q`-quantile (e.g. `0.999` for the 99.9th percentile), with
    /// ≤ ~1.6% relative error, or `None` if the snapshot is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.0.quantile(q).map(wall)
    }

    /// The standard report quartet (p50/p90/p99/p999), or `None` if
    /// the snapshot is empty.
    #[must_use]
    pub fn percentiles(&self) -> Option<Percentiles> {
        (!self.is_empty()).then(|| Percentiles {
            p50: self.quantile(0.50).unwrap_or_default(),
            p90: self.quantile(0.90).unwrap_or_default(),
            p99: self.quantile(0.99).unwrap_or_default(),
            p999: self.quantile(0.999).unwrap_or_default(),
        })
    }

    /// Merges another snapshot's samples into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.0.merge(&other.0);
    }

    /// The samples recorded since `earlier`: per-bucket saturating
    /// subtraction, for computing *windowed* quantiles from two reads
    /// of a cumulative histogram (the power controller's per-tick p99
    /// signal — a cumulative p99 stops reflecting the present once
    /// enough history accumulates).
    ///
    /// The window's exact min/max are unknowable from cumulative
    /// bucket counts, so they are re-derived from the window's own
    /// occupied buckets (the quantile clamp then works bucket-
    /// accurately, within the histogram's usual 1/64 relative error).
    /// `sum_nanos` subtracts saturating likewise. If `earlier` is not
    /// actually an earlier read of the same histogram the result is
    /// still well-formed, just meaningless.
    #[must_use]
    pub fn saturating_delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let (Some(cumulative_min), Some(cumulative_max)) = (self.0.min(), self.0.max()) else {
            return HistogramSnapshot::empty(); // nothing recorded, nothing since
        };
        let cumulative_min = earlier
            .0
            .min()
            .map_or(cumulative_min, |e| e.min(cumulative_min));
        // Only buckets this read occupies can have grown since.
        let (first, now) = self.bucket_range();
        let (earlier_first, before) = earlier.bucket_range();
        let before_at = |idx: usize| {
            idx.checked_sub(earlier_first)
                .and_then(|at| before.get(at))
                .map_or(0, |&b| b)
        };
        let counts: Vec<u64> = (first..)
            .zip(now)
            .map(|(idx, &a)| a.saturating_sub(before_at(idx)))
            .collect();
        let lo = counts
            .iter()
            .position(|&d| d > 0)
            .map_or(u64::MAX, |at| bucket_floor(first + at));
        let hi = counts
            .iter()
            .rposition(|&d| d > 0)
            .map_or(0, |at| bucket_value(first + at));
        // The true window extremes are bounded by both the bucket
        // geometry and the cumulative extremes. (An empty window reads
        // neither: `from_range` ignores them.)
        let max = hi.min(cumulative_max.as_nanos());
        let min = lo.max(cumulative_min.as_nanos()).min(max);
        let sum_nanos = self.sum_nanos().saturating_sub(earlier.sum_nanos());
        HistogramSnapshot(Histogram::from_range(first, &counts, sum_nanos, min, max))
    }

    /// The occupied span of the log-linear layout: the index of its
    /// first bucket and the per-bucket counts from there on, non-zero
    /// at both ends (mostly useful for exact comparison in tests).
    #[must_use]
    pub fn bucket_range(&self) -> (usize, &[u64]) {
        self.0.bucket_range()
    }

    /// The non-empty buckets as `(index, count)` pairs — the sparse
    /// wire encoding used by the JSON exposition. A snapshot rebuilt
    /// from these pairs (plus `sum_nanos`, `min`, `max`) via
    /// [`from_sparse`](Self::from_sparse) compares equal to the
    /// original, which is what lets a remote aggregator merge
    /// per-server scrapes into true cluster-wide quantiles.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        let (first, counts) = self.bucket_range();
        (first..)
            .zip(counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuilds a snapshot from its sparse wire parts (see
    /// [`nonzero_buckets`](Self::nonzero_buckets)), in any order. The
    /// sample count is recomputed from the buckets, preserving the
    /// snapshot invariant that `count()` equals the bucket total.
    /// Returns `None` if any bucket index is outside the log-linear
    /// layout, or if the pairs are non-empty but `min > max` (a corrupt
    /// or hand-rolled exposition).
    #[must_use]
    pub fn from_sparse(
        pairs: &[(usize, u64)],
        sum_nanos: u128,
        min: u64,
        max: u64,
    ) -> Option<Self> {
        let indices = || pairs.iter().map(|&(idx, _)| idx);
        let (Some(first), Some(last)) = (indices().min(), indices().max()) else {
            return Some(HistogramSnapshot::empty());
        };
        if last >= MAX_BUCKETS {
            return None;
        }
        let mut counts = vec![0u64; last - first + 1];
        for &(idx, count) in pairs {
            counts[idx - first] += count;
        }
        let snap = HistogramSnapshot(Histogram::from_range(first, &counts, sum_nanos, min, max));
        (snap.is_empty() || min <= max).then_some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn saturating_delta_isolates_the_window() {
        let h = LatencyHistogram::new();
        for ns in [1_000u64, 2_000, 3_000] {
            h.record_nanos(ns);
        }
        let early = h.snapshot();
        for ns in [50_000u64, 60_000, 70_000, 80_000] {
            h.record_nanos(ns);
        }
        let late = h.snapshot();
        let window = late.saturating_delta(&early);
        assert_eq!(window.count(), 4, "only the new samples");
        // The window's quantiles reflect the recent samples, not the
        // cumulative mix: its median sits near 60–70 µs, far above the
        // cumulative median.
        let wp50 = window.quantile(0.5).unwrap().as_nanos();
        assert!(
            (45_000..=85_000).contains(&wp50),
            "window p50 {wp50} should be in the new cohort"
        );
        assert!(window.min().unwrap().as_nanos() >= 45_000);
        assert!(window.max().unwrap() <= late.max().unwrap());
        assert_eq!(
            window.sum_nanos(),
            late.sum_nanos() - early.sum_nanos(),
            "window sum is the cumulative difference"
        );
    }

    #[test]
    fn saturating_delta_of_identical_reads_is_empty() {
        let h = LatencyHistogram::new();
        h.record_nanos(123);
        let a = h.snapshot();
        let delta = a.saturating_delta(&a);
        assert!(delta.is_empty());
        assert_eq!(delta.quantile(0.99), None);
        // And an empty-vs-empty delta stays well-formed.
        let e = HistogramSnapshot::empty();
        assert!(e.saturating_delta(&e).is_empty());
    }

    #[test]
    fn empty_snapshot_has_no_stats() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap.percentiles(), None);
    }

    #[test]
    fn stripes_materialise_on_first_record() {
        let live = |h: &LatencyHistogram| h.stripes.iter().filter(|s| s.get().is_some()).count();
        let h = LatencyHistogram::new();
        assert_eq!(h.stripes.len(), DEFAULT_STRIPES);
        // A snapshot taken before any record is empty and builds nothing.
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
        assert_eq!(live(&h), 0);
        h.record_nanos(7);
        h.record_nanos(9);
        assert_eq!(live(&h), 1, "one thread writes one stripe");
        let snap = h.snapshot();
        assert_eq!((snap.count(), snap.sum_nanos()), (2, 16));
        assert_eq!(live(&h), 1, "reading builds nothing either");
    }

    #[test]
    fn groups_materialise_per_octave() {
        let h = LatencyHistogram::with_stripes(1);
        let stripe_bytes = size_of_val(&*h.stripes);
        assert_eq!(h.heap_bytes(), stripe_bytes, "cells only");
        // 0..64 ns is group 0; 1 000 and 1 023 ns share an octave; 1 ms
        // and u64::MAX have octaves of their own.
        for ns in [0, 63, 1_000, 1_023, 1_000_000, u64::MAX] {
            h.record_nanos(ns);
        }
        let built = size_of::<Stripe>() + 4 * size_of::<Group>();
        assert_eq!(h.heap_bytes(), stripe_bytes + built);
        assert!(built < 3 << 10, "a stripe of four octaves is {built} B");
        let snap = h.snapshot();
        assert_eq!(
            (snap.count(), snap.min(), snap.max()),
            (
                6,
                Some(Duration::ZERO),
                Some(Duration::from_nanos(u64::MAX))
            )
        );
        assert_eq!(
            snap.nonzero_buckets().iter().map(|&(_, c)| c).sum::<u64>(),
            6,
            "every sample is in a built group"
        );
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = LatencyHistogram::new();
        for ms in 1..=1000u64 {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        for (q, expect_ms) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = snap.quantile(q).unwrap().as_secs_f64() * 1e3;
            let err = (got - expect_ms).abs() / expect_ms;
            assert!(err < 0.03, "q={q} got={got} want~{expect_ms}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LatencyHistogram::with_stripes(4));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_nanos(1 + (i ^ t) % 1_000_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 80_000);
        assert_eq!(snap.bucket_range().1.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshots_are_monotone_under_load() {
        let h = Arc::new(LatencyHistogram::new());
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    h.record_nanos(i % 10_000);
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..50 {
            let c = h.snapshot().count();
            assert!(c >= last, "snapshot count went backwards: {c} < {last}");
            last = c;
        }
        writer.join().unwrap();
        assert_eq!(h.snapshot().count(), 200_000);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_millis(1));
        b.record(Duration::from_millis(100));
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.min().unwrap(), Duration::from_millis(1));
        assert_eq!(snap.max().unwrap(), Duration::from_millis(100));
    }

    #[test]
    fn extreme_quantiles_hit_min_max() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(3));
        h.record(Duration::from_millis(7));
        let snap = h.snapshot();
        assert_eq!(snap.quantile(1.0).unwrap(), Duration::from_millis(7));
        assert_eq!(snap.max().unwrap(), Duration::from_millis(7));
        assert_eq!(snap.min().unwrap(), Duration::from_millis(3));
    }

    #[test]
    fn mean_is_exact() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(30));
        assert_eq!(h.snapshot().mean().unwrap(), Duration::from_millis(20));
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(LatencyHistogram::with_stripes(0).stripes.len(), 1);
        assert_eq!(LatencyHistogram::with_stripes(3).stripes.len(), 4);
        assert_eq!(LatencyHistogram::with_stripes(8).stripes.len(), 8);
    }

    #[test]
    fn heavy_tail_p999_detects_spike() {
        let h = LatencyHistogram::new();
        for _ in 0..9980 {
            h.record(Duration::from_millis(2));
        }
        for _ in 0..20 {
            h.record(Duration::from_secs(2));
        }
        let snap = h.snapshot();
        assert!(snap.quantile(0.5).unwrap() < Duration::from_millis(3));
        assert!(snap.quantile(0.999).unwrap() > Duration::from_millis(1900));
    }
}
