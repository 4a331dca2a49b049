//! Slot-bucketed time series for per-slot experiment figures.

use crate::time::{SimDuration, SimTime};

/// Accumulates `(time, value)` observations into fixed-width time slots.
///
/// Every per-slot curve in the paper's evaluation — requests per slot
/// (Fig. 4), load-balance ratio (Fig. 5), power draw (Fig. 10) — is a
/// `TimeSeries`: observations are added at simulation timestamps and read
/// back as per-slot sums or counts.
///
/// Observations past the configured horizon are counted into the last
/// slot rather than dropped, so totals remain exact.
///
/// # Example
///
/// ```
/// use proteus_sim::{SimDuration, SimTime, TimeSeries};
///
/// let mut s = TimeSeries::new(SimDuration::from_secs(10), 3);
/// s.add(SimTime::from_secs(1), 2.0);
/// s.add(SimTime::from_secs(5), 3.0);
/// s.add(SimTime::from_secs(25), 7.0);
/// assert_eq!(s.sum(0), 5.0);
/// assert_eq!(s.sum(2), 7.0);
/// assert_eq!(s.counts(), &[2, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    slot: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series covering `slots` consecutive slots of width `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is zero or `slots` is zero.
    #[must_use]
    pub fn new(slot: SimDuration, slots: usize) -> Self {
        assert!(slot > SimDuration::ZERO, "slot width must be positive");
        assert!(slots > 0, "need at least one slot");
        TimeSeries {
            slot,
            sums: vec![0.0; slots],
            counts: vec![0; slots],
        }
    }

    /// The slot index that `t` falls into (clamped to the last slot).
    #[must_use]
    pub fn slot_of(&self, t: SimTime) -> usize {
        let idx = (t.as_nanos() / self.slot.as_nanos()) as usize;
        idx.min(self.sums.len() - 1)
    }

    /// Records `value` at time `t`.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let i = self.slot_of(t);
        self.sums[i] += value;
        self.counts[i] += 1;
    }

    /// Sum of values recorded in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn sum(&self, i: usize) -> f64 {
        self.sums[i]
    }

    /// All per-slot observation counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Grand total over all slots.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_partition_time() {
        let s = TimeSeries::new(SimDuration::from_secs(30), 48);
        assert_eq!(s.slot_of(SimTime::ZERO), 0);
        assert_eq!(s.slot_of(SimTime::from_secs(29)), 0);
        assert_eq!(s.slot_of(SimTime::from_secs(30)), 1);
        assert_eq!(s.slot_of(SimTime::from_secs(30 * 48 + 5)), 47, "clamped");
        assert_eq!(s.counts().len(), 48);
    }

    #[test]
    fn add_accumulates_sums_and_counts() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1), 2);
        s.add(SimTime::ZERO, 1.5);
        s.add(SimTime::from_nanos(999_999_999), 2.5);
        s.add(SimTime::from_secs(1), 4.0);
        assert_eq!(s.sum(0), 4.0);
        assert_eq!(s.counts()[0], 2);
        assert_eq!(s.sum(1), 4.0);
        assert_eq!(s.total(), 8.0);
    }

    #[test]
    #[should_panic(expected = "slot width must be positive")]
    fn zero_width_rejected() {
        let _ = TimeSeries::new(SimDuration::ZERO, 4);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = TimeSeries::new(SimDuration::from_secs(1), 0);
    }
}
