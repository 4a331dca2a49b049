//! Correctness properties of the striped log-linear histogram.
//!
//! Two claims carry the telemetry layer's whole value:
//!
//! 1. **Striping is invisible.** Samples recorded concurrently across
//!    many stripes (and snapshots merged across many histograms)
//!    produce *exactly* the snapshot a single-threaded, single-stripe
//!    oracle produces — bucket for bucket, plus count, sum, min, max.
//! 2. **Quantiles are honestly bounded.** Every reported quantile is
//!    within one bucket's relative error ([`relative_error_bound`],
//!    1/64) of the true order statistic of the recorded samples.
//!
//! Both are driven by proptest over adversarial sample sets: tiny
//! values in the exact region, huge values deep in the octave region,
//! duplicates, and heavy-tailed mixtures. A stripe builds its buckets
//! one octave group at a time, so a third set of properties holds
//! snapshots to a plain dense array of every bucket in the layout.

use proptest::prelude::*;
use proteus_obs::{relative_error_bound, HistogramSnapshot, LatencyHistogram};
use proteus_sim::histogram::{bucket_floor, bucket_index, bucket_value, MAX_BUCKETS};

/// A snapshot's buckets spread over the whole layout, zeros included:
/// the dense form snapshots were stored in before they kept only their
/// occupied span.
fn dense(snap: &HistogramSnapshot) -> Vec<u64> {
    let (first, counts) = snap.bucket_range();
    let mut out = vec![0; MAX_BUCKETS];
    out[first..first + counts.len()].copy_from_slice(counts);
    out
}

fn nanos(d: Option<std::time::Duration>) -> Option<u64> {
    d.map(|d| d.as_nanos() as u64)
}

/// Sample sets that exercise every bucket regime: exact small values,
/// mid-range, and deep-octave tail values. Individual samples are
/// capped at ~17 minutes so a 400-sample set cannot overflow the
/// histogram's `u64` nanosecond sum accumulator (which would need
/// ~584 years of accumulated latency — out of scope by design).
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..64,                   // exact region
            64u64..100_000,             // a few octaves up
            100_000u64..10_000_000_000, // µs to seconds
            Just(1_000_000_000_000u64), // 1000 s spike, deep octave
        ],
        1..400,
    )
}

/// The oracle: one stripe, one thread, samples recorded in order.
fn oracle_snapshot(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::with_stripes(1);
    for &v in values {
        h.record_nanos(v);
    }
    h.snapshot()
}

/// The dense-array oracle: a counter for every bucket of the layout,
/// the sum as the stripes keep it (wrapping `u64`), and the extremes.
struct Dense {
    counts: Vec<u64>,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Dense {
    fn of(values: &[u64]) -> Dense {
        let mut counts = vec![0; MAX_BUCKETS];
        values.iter().for_each(|&v| counts[bucket_index(v)] += 1);
        Dense {
            counts,
            sum: values.iter().fold(0u64, |sum, &v| sum.wrapping_add(v)),
            min: values.iter().copied().min(),
            max: values.iter().copied().max(),
        }
    }

    /// Whether `snap` holds exactly these samples. A snapshot adds the
    /// stripes' wrapped sums, so the sums agree modulo 2^64.
    fn matches(&self, snap: &HistogramSnapshot) -> bool {
        dense(snap) == self.counts
            && snap.sum_nanos() as u64 == self.sum
            && nanos(snap.min()) == self.min
            && nanos(snap.max()) == self.max
    }
}

/// Samples that reach both ends of the layout: 0, 1 and `u64::MAX`
/// beside every bucket regime.
fn edge_samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(u64::MAX),
            0u64..64,
            64u64..100_000,
            any::<u64>(),
        ],
        0..300,
    )
}

/// True order statistic under the same rank rule the histogram uses:
/// rank = ⌊q·n⌋ + 1 (1-based), clamped to n.
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    if q >= 1.0 {
        return *sorted.last().expect("non-empty");
    }
    let rank = ((q * sorted.len() as f64).floor() as usize + 1).min(sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// Concurrently-striped recording is indistinguishable from the
    /// single-threaded oracle: the merged snapshot is *identical*,
    /// not merely statistically close.
    #[test]
    fn striped_concurrent_recording_equals_oracle(values in samples()) {
        let striped = std::sync::Arc::new(LatencyHistogram::with_stripes(4));
        let threads = 4;
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|s| {
            for part in values.chunks(chunk.max(1)) {
                let striped = std::sync::Arc::clone(&striped);
                s.spawn(move || {
                    for &v in part {
                        striped.record_nanos(v);
                    }
                });
            }
        });
        prop_assert_eq!(striped.snapshot(), oracle_snapshot(&values));
    }

    /// Merging per-shard snapshots equals recording everything into
    /// one histogram: `merge` is associative aggregation, losslessly.
    #[test]
    fn merged_snapshots_equal_oracle(values in samples(), parts in 1usize..6) {
        let mut merged = HistogramSnapshot::empty();
        let chunk = values.len().div_ceil(parts);
        for part in values.chunks(chunk.max(1)) {
            merged.merge(&oracle_snapshot(part));
        }
        prop_assert_eq!(merged, oracle_snapshot(&values));
    }

    /// Every reported quantile lands within one bucket's relative
    /// error of the true order statistic.
    #[test]
    fn quantiles_are_within_one_bucket_of_truth(values in samples()) {
        let snap = oracle_snapshot(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = snap.quantile(q).expect("non-empty").as_nanos() as f64;
            let truth = true_quantile(&sorted, q) as f64;
            let err = (est - truth).abs();
            prop_assert!(
                err <= truth * relative_error_bound() + 1.0,
                "q={} est={} truth={} err={} bound={}",
                q, est, truth, err, truth * relative_error_bound()
            );
        }
    }

    /// `saturating_delta` is per-bucket saturating subtraction over the
    /// dense layout, with the window's extremes re-derived from its
    /// occupied buckets and clamped by the cumulative ones — for a true
    /// earlier read of the same histogram and for an unrelated one.
    #[test]
    fn saturating_delta_equals_dense_oracle(
        early in prop::collection::vec(0u64..10_000_000_000, 0..200),
        later in prop::collection::vec(0u64..10_000_000_000, 0..200),
        unrelated in prop::collection::vec(0u64..10_000_000_000, 0..200),
    ) {
        let h = LatencyHistogram::with_stripes(1);
        early.iter().for_each(|&v| h.record_nanos(v));
        let before = h.snapshot();
        later.iter().for_each(|&v| h.record_nanos(v));
        let after = h.snapshot();
        let other = oracle_snapshot(&unrelated);
        for (late, earlier) in [(&after, &before), (&after, &other), (&other, &after)] {
            let window = late.saturating_delta(earlier);
            let expect: Vec<u64> = dense(late)
                .iter()
                .zip(dense(earlier))
                .map(|(&a, b)| a.saturating_sub(b))
                .collect();
            prop_assert!(dense(&window) == expect, "buckets differ from the dense oracle");
            prop_assert_eq!(window.count(), expect.iter().sum::<u64>());
            let lo = expect.iter().position(|&c| c > 0);
            let hi = expect.iter().rposition(|&c| c > 0);
            let (Some(lo), Some(hi)) = (lo, hi) else {
                prop_assert!(window.is_empty());
                continue;
            };
            let cumulative_max = nanos(late.max()).expect("a non-empty window has samples");
            let cumulative_min = nanos(late.min())
                .into_iter()
                .chain(nanos(earlier.min()))
                .min()
                .expect("a non-empty window has samples");
            let max = bucket_value(hi).min(cumulative_max);
            let min = bucket_floor(lo).max(cumulative_min).min(max);
            prop_assert_eq!(nanos(window.max()), Some(max));
            prop_assert_eq!(nanos(window.min()), Some(min));
            prop_assert_eq!(
                window.sum_nanos(),
                late.sum_nanos().saturating_sub(earlier.sum_nanos())
            );
        }
        prop_assert!(
            dense(&after.saturating_delta(&before)) == dense(&oracle_snapshot(&later)),
            "a true window holds exactly the samples recorded inside it"
        );
    }

    /// The sparse wire pairs are the dense layout's non-zero buckets in
    /// index order, and rebuild the snapshot exactly, whatever order
    /// they arrive in.
    #[test]
    fn sparse_pairs_round_trip(values in prop::collection::vec(
        prop_oneof![0u64..64, 64u64..100_000, any::<u64>()],
        0..200,
    )) {
        let h = LatencyHistogram::with_stripes(1);
        values.iter().for_each(|&v| h.record_nanos(v));
        let snap = h.snapshot();
        let pairs = snap.nonzero_buckets();
        let expect: Vec<(usize, u64)> = dense(&snap)
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        prop_assert_eq!(&pairs, &expect);
        let (min, max) = (nanos(snap.min()).unwrap_or(0), nanos(snap.max()).unwrap_or(0));
        let rebuilt = HistogramSnapshot::from_sparse(&pairs, snap.sum_nanos(), min, max);
        prop_assert_eq!(rebuilt.as_ref(), Some(&snap));
        let reversed: Vec<(usize, u64)> = pairs.iter().rev().copied().collect();
        let rebuilt = HistogramSnapshot::from_sparse(&reversed, snap.sum_nanos(), min, max);
        prop_assert_eq!(rebuilt.as_ref(), Some(&snap));
    }

    /// Count, sum, min, and max are exact (not approximated by the
    /// bucketing) for any sample set.
    #[test]
    fn scalar_stats_are_exact(values in samples()) {
        let snap = oracle_snapshot(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(
            snap.sum_nanos(),
            values.iter().map(|&v| u128::from(v)).sum::<u128>()
        );
        prop_assert_eq!(
            snap.min().map(|d| d.as_nanos() as u64),
            values.iter().copied().min()
        );
        prop_assert_eq!(
            snap.max().map(|d| d.as_nanos() as u64),
            values.iter().copied().max()
        );
    }

    /// One recorder's snapshot is the dense array's, bucket for bucket,
    /// with its sum, min and max, for every stripe count.
    #[test]
    fn snapshots_equal_the_dense_oracle(values in edge_samples(), stripes in 1usize..9) {
        let h = LatencyHistogram::with_stripes(stripes);
        values.iter().for_each(|&v| h.record_nanos(v));
        let snap = h.snapshot();
        prop_assert!(Dense::of(&values).matches(&snap), "{:?}", snap.nonzero_buckets());
        prop_assert_eq!(snap.count(), values.len() as u64);
    }

    /// Snapshots taken while four threads record never lose a sample
    /// they already showed: every bucket only grows from one read to
    /// the next, and the last read is the dense array's.
    #[test]
    fn snapshots_grow_monotonically_under_concurrent_recorders(values in edge_samples()) {
        let h = LatencyHistogram::with_stripes(4);
        let chunk = values.len().div_ceil(4).max(1);
        let reads = std::thread::scope(|s| {
            for part in values.chunks(chunk) {
                let h = &h;
                s.spawn(move || part.iter().for_each(|&v| h.record_nanos(v)));
            }
            (0..20).map(|_| dense(&h.snapshot())).collect::<Vec<_>>()
        });
        for (earlier, later) in reads.iter().zip(&reads[1..]) {
            prop_assert!(earlier.iter().zip(later).all(|(a, b)| a <= b), "a bucket shrank");
        }
        prop_assert!(Dense::of(&values).matches(&h.snapshot()));
    }
}
