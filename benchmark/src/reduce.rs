//! Slice / percentile / median reduction.
//!
//! The sandbox is a shared two-core machine: one 3 s stretch of a run
//! can be 15 % off its neighbours. Every end-to-end value is therefore
//! computed once per equal slice of the measured window and reported
//! as the median over the slices, with the median sample count of a
//! slice beside it. Percentiles are taken inside a slice, never over
//! the whole run, and a maximum is never an end-to-end number.

/// Equal slices per measured window.
pub const SLICES: usize = 7;

/// Which slice an event `at_ns` after the window start falls into.
pub fn slice_of(at_ns: u64, window_ns: u64) -> usize {
    ((at_ns as u128 * SLICES as u128 / window_ns.max(1) as u128) as usize).min(SLICES - 1)
}

/// Median of `values`; the mean of the two middle values for an even
/// count. `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Quantile `q` of an unsorted sample, in place.
pub fn quantile_of(values: &mut [u64], q: f64) -> Option<u64> {
    values.sort_unstable();
    quantile(values, q)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule is written in. `None` below
/// four values or for a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's `statistics.quantiles(v, n=4)` (exclusive method).
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (at(0.75) - at(0.25)) / med.abs())
}

/// One end-to-end value: the median over slices and how many samples a
/// typical slice held.
#[derive(Debug, Clone, Copy)]
pub struct Reduced {
    pub value: f64,
    pub samples_per_slice: u64,
}

/// Reduces one `(value, samples)` pair per slice; slices that produced
/// no value (no sample fell into them) are left out.
pub fn median_of_slices(per_slice: &[Option<(f64, u64)>]) -> Option<Reduced> {
    let values: Vec<f64> = per_slice.iter().flatten().map(|s| s.0).collect();
    let counts: Vec<f64> = per_slice.iter().flatten().map(|s| s.1 as f64).collect();
    Some(Reduced {
        value: median(&values)?,
        samples_per_slice: median(&counts)? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(slice_of(0, 70), 0);
        assert_eq!(slice_of(69, 70), 6);
        assert_eq!(slice_of(700, 70), 6);
    }
}
