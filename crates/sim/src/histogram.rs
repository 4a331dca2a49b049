//! Log-bucketed latency histogram with quantile queries.
//!
//! The bucket scheme lives here once: this crate's [`Histogram`] and
//! `proteus-obs`'s striped `LatencyHistogram` / `HistogramSnapshot`
//! (a `Duration`-typed wrapper over [`Histogram`]) index the same
//! layout through [`bucket_index`], [`bucket_value`] and
//! [`bucket_floor`].

use crate::time::SimDuration;

/// Number of sub-buckets per octave; bounds relative quantile error to
/// about `1/SUB` (~1.6%).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count for the full `u64` nanosecond range.
pub const MAX_BUCKETS: usize = ((64 - SUB_BITS as usize + 1) << SUB_BITS as usize) + SUB as usize;

/// The bucket a value of `v` nanoseconds lands in.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let k = msb - (SUB_BITS as u64 - 1); // octave shift >= 1
        ((k << SUB_BITS) + (v >> k)) as usize
    }
}

/// The value bucket `idx` reports: exact below 64 ns, the bucket's
/// midpoint above.
#[must_use]
pub fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    let k = idx >> SUB_BITS;
    let low = idx & (SUB - 1);
    if k == 0 {
        low
    } else {
        // Midpoint of the bucket [low << k, (low + 1) << k).
        (low << k) + (1 << (k - 1))
    }
}

/// Smallest value that lands in bucket `idx` (the bucket's lower edge).
#[must_use]
pub fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    let k = idx >> SUB_BITS;
    let low = idx & (SUB - 1);
    if k == 0 {
        low
    } else {
        low << k
    }
}

/// Worst-case relative quantile error of the bucket scheme (`1/64`).
#[must_use]
pub fn relative_error_bound() -> f64 {
    1.0 / SUB as f64
}

/// A latency histogram with bounded relative error.
///
/// Values (durations in nanoseconds) below 64 ns are recorded exactly;
/// larger values are recorded in logarithmic buckets with 64 sub-buckets
/// per octave, giving a worst-case relative error of about 1.6% — more
/// than enough to reproduce the paper's 99.9th-percentile response-time
/// plots (Fig. 9).
///
/// Only the occupied span of the [`MAX_BUCKETS`] layout is stored: the
/// counts of buckets `first..first + len`, with no zero at either end.
/// An empty histogram holds no buckets and allocates nothing, and since
/// the span is canonical, two histograms compare equal exactly when
/// they hold the same samples.
///
/// # Example
///
/// ```
/// use proteus_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for ms in 1..=100 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// let p50 = h.quantile(0.50).unwrap();
/// assert!((p50.as_millis_f64() - 50.0).abs() / 50.0 < 0.05);
/// assert_eq!(h.count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Index of the bucket `counts[0]` counts; 0 when empty.
    first: usize,
    /// Counts of buckets `first..first + counts.len()`: empty, or
    /// non-zero at both ends.
    counts: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram. Allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            first: 0,
            counts: Vec::new(),
            count: 0,
            sum_nanos: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a histogram from the counts of buckets
    /// `first..first + counts.len()` and the exact sum and extremes (in
    /// nanoseconds) recorded beside them. Zeros at either end of
    /// `counts` are dropped. The sample count is the bucket total; with
    /// no samples the sum and extremes are ignored, so every empty
    /// histogram compares equal.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past [`MAX_BUCKETS`].
    #[must_use]
    pub fn from_range(first: usize, counts: &[u64], sum_nanos: u128, min: u64, max: u64) -> Self {
        assert!(
            first
                .checked_add(counts.len())
                .is_some_and(|end| end <= MAX_BUCKETS),
            "not the log-linear layout"
        );
        let Some(lead) = counts.iter().position(|&c| c > 0) else {
            return Histogram::new();
        };
        let end = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let counts = counts[lead..end].to_vec();
        Histogram {
            first: first + lead,
            count: counts.iter().sum(),
            counts,
            sum_nanos,
            min,
            max,
        }
    }

    /// Widens the stored span to cover buckets `lo..hi`, zero-filled.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
            self.counts.resize(hi - lo, 0);
            return;
        }
        if lo < self.first {
            let grow = self.first - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        if hi > self.first + self.counts.len() {
            self.counts.resize(hi - self.first, 0);
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_nanos();
        let idx = bucket_index(v);
        self.cover(idx, idx + 1);
        self.counts[idx - self.first] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest recorded sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min))
    }

    /// The largest recorded sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max))
    }

    /// The exact mean of all recorded samples, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<SimDuration> {
        (self.count > 0)
            .then(|| SimDuration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64))
    }

    /// Sum of all recorded samples in nanoseconds.
    #[must_use]
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// The occupied span: the index of its first bucket (as
    /// [`bucket_index`] numbers them) and the counts from there on,
    /// non-zero at both ends. `(0, [])` when empty.
    #[must_use]
    pub fn bucket_range(&self) -> (usize, &[u64]) {
        (self.first, &self.counts)
    }

    /// The `q`-quantile (e.g. `0.999` for the 99.9th percentile), with
    /// ≤ ~1.6% relative error, or `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(SimDuration::from_nanos(self.max));
        }
        let rank = (q * self.count as f64).floor() as u64 + 1;
        let mut cum = 0u64;
        for (offset, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let v = bucket_value(self.first + offset).clamp(self.min, self.max);
                return Some(SimDuration::from_nanos(v));
            }
        }
        Some(SimDuration::from_nanos(self.max))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.first, other.first + other.counts.len());
            let at = other.first - self.first;
            for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Resets the histogram to empty, keeping the span's allocation for
    /// the next records.
    pub fn clear(&mut self) {
        self.first = 0;
        self.counts.clear();
        self.count = 0;
        self.sum_nanos = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v * 2 - 1] {
                let rebuilt = bucket_value(bucket_index(probe));
                let err = (rebuilt as f64 - probe as f64).abs() / probe as f64;
                assert!(
                    err <= 1.0 / SUB as f64 + 1e-12,
                    "v={probe} rebuilt={rebuilt}"
                );
            }
            v *= 2;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_floor_bounds_every_bucket() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v * 2 - 1] {
                let idx = bucket_index(probe);
                assert!(bucket_floor(idx) <= probe, "floor above member {probe}");
                assert!(bucket_floor(idx) <= bucket_value(idx));
            }
            v *= 2;
        }
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record(SimDuration::from_millis(ms));
        }
        for (q, expect_ms) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile(q).unwrap().as_millis_f64();
            let err = (got - expect_ms).abs() / expect_ms;
            assert!(err < 0.03, "q={q} got={got} want~{expect_ms}");
        }
    }

    #[test]
    fn extreme_quantiles_hit_min_max() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(3));
        h.record(SimDuration::from_millis(7));
        assert_eq!(h.quantile(1.0).unwrap(), SimDuration::from_millis(7));
        assert_eq!(h.max().unwrap(), SimDuration::from_millis(7));
        assert_eq!(h.min().unwrap(), SimDuration::from_millis(3));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(10));
        h.record(SimDuration::from_millis(30));
        assert_eq!(h.mean().unwrap(), SimDuration::from_millis(20));
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().unwrap(), SimDuration::from_millis(1));
        assert_eq!(a.max().unwrap(), SimDuration::from_millis(100));
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_secs(1));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.9), None);
    }

    #[test]
    fn span_holds_only_occupied_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.bucket_range(), (0, &[][..]));
        assert_eq!(
            h.counts.capacity(),
            0,
            "an empty histogram allocates nothing"
        );
        h.record(SimDuration::from_nanos(1_000));
        h.record(SimDuration::from_nanos(10));
        h.record(SimDuration::from_nanos(1_000));
        let (first, counts) = h.bucket_range();
        assert_eq!(first, bucket_index(10));
        assert_eq!(counts.len(), bucket_index(1_000) - bucket_index(10) + 1);
        assert_eq!((counts[0], counts[counts.len() - 1]), (1, 2));
        // Zeros at either end are trimmed, so a rebuilt span is equal.
        let mut padded = vec![0, 0];
        padded.extend_from_slice(counts);
        padded.push(0);
        let rebuilt = Histogram::from_range(first - 2, &padded, h.sum_nanos(), 10, 1_000);
        assert_eq!(rebuilt, h);
        assert_eq!(Histogram::from_range(7, &[0, 0], 5, 1, 2), Histogram::new());
        h.clear();
        assert_eq!(h, Histogram::new());
    }

    #[test]
    #[should_panic(expected = "not the log-linear layout")]
    fn from_range_refuses_a_span_past_the_layout() {
        let _ = Histogram::from_range(MAX_BUCKETS, &[1], 0, 0, 0);
    }

    #[test]
    fn heavy_tail_p999_detects_spike() {
        // 99.9% of samples at 2 ms, 0.1%+ at 2 s: p999 must see the spike
        // region, p50 must not.
        let mut h = Histogram::new();
        for _ in 0..9980 {
            h.record(SimDuration::from_millis(2));
        }
        for _ in 0..20 {
            h.record(SimDuration::from_secs(2));
        }
        assert!(h.quantile(0.5).unwrap().as_millis_f64() < 3.0);
        assert!(h.quantile(0.999).unwrap().as_secs_f64() > 1.9);
    }
}
