//! Bloom filter configuration: the Eq. 4/5 error-rate predictors and
//! the Eq. 10 memory-optimal `(l, b)` solver from Section IV-B.
//!
//! Table I symbols: `h` hash functions, `κ` inserted keys, `l`
//! counters, `b` bits per counter.

/// A complete counting-Bloom-filter configuration.
///
/// Produced by [`BloomConfig::optimal`]; consumed by
/// [`CountingBloomFilter::new`](crate::CountingBloomFilter::new).
///
/// # Example
///
/// ```
/// use proteus_bloom::BloomConfig;
/// // The paper's worked example: κ = 10⁴, h = 4, p_p = p_n = 10⁻⁴
/// // yields b = 3 and ~150 KB ("l = 4×10⁵, b = 3 is more than
/// // enough, which takes about 150KB memory per digest").
/// let cfg = BloomConfig::optimal(10_000, 4, 1e-4, 1e-4);
/// assert_eq!(cfg.counter_bits, 3);
/// assert!(cfg.counters <= 400_000);
/// assert!(cfg.memory_bytes() < 160 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BloomConfig {
    /// `l`: number of counters.
    pub counters: usize,
    /// `b`: bits per counter (1..=16).
    pub counter_bits: u32,
    /// `h`: number of hash functions.
    pub hashes: u32,
    /// Seed for the hash family.
    pub seed: u64,
    /// `P`: how many equal slices the counters are split into (a power
    /// of two; 1 = one undivided filter). A key hashes inside slice
    /// [`partition_of`](crate::partition_of)`(key, P)` only, so slice
    /// `p` is an ordinary filter of `l / P` counters over the keys of
    /// partition `p` — what lets a sharded cache hold one slice per
    /// shard (see [`with_partitions`](Self::with_partitions)).
    pub partitions: usize,
}

impl BloomConfig {
    /// A configuration with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `counters == 0`, `hashes == 0`, or
    /// `counter_bits ∉ 1..=16`.
    #[must_use]
    pub fn new(counters: usize, counter_bits: u32, hashes: u32) -> Self {
        assert!(counters > 0, "need at least one counter");
        assert!(hashes > 0, "need at least one hash function");
        assert!(
            (1..=16).contains(&counter_bits),
            "counter_bits must be in 1..=16, got {counter_bits}"
        );
        BloomConfig {
            counters,
            counter_bits,
            hashes,
            seed: 0,
            partitions: 1,
        }
    }

    /// Sets the hash-family seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Splits the counters into `partitions` equal slices, rounding
    /// `l` up so every slice is a whole number of 64-counter words
    /// (622 017 counters in 8 partitions become 8 × 77 760): slices
    /// then [`concat`](crate::BloomFilter::concat) word for word. Each
    /// slice holds `κ/P` of the keys in `l/P` of the counters, so the
    /// Eq. 4 and Eq. 5 predictions for `(l, κ)` read the same per
    /// slice. One partition leaves the configuration as it is.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is not a power of two.
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        assert!(
            partitions.is_power_of_two(),
            "partitions must be a power of two, got {partitions}"
        );
        if partitions > 1 {
            self.counters = self.counters.div_ceil(partitions).next_multiple_of(64) * partitions;
        }
        self.partitions = partitions;
        self
    }

    /// Solves Eq. 10: the minimum-memory `(l, b)` meeting false
    /// positive bound `pp` and false negative bound `pn` for `kappa`
    /// keys and `h` hash functions.
    ///
    /// `l` comes from the closed form
    /// `l = -κh / ln(1 - pp^{1/h})`; `b` is found by enumerating the
    /// small integer range `1..=16` exactly as the paper suggests
    /// ("enumerate all possible values of b and pick the optimal one").
    ///
    /// # Panics
    ///
    /// Panics if `kappa == 0`, `h == 0`, either bound is outside
    /// `(0, 1)`, or no `b ≤ 16` satisfies the false-negative bound.
    #[must_use]
    pub fn optimal(kappa: u64, h: u32, pp: f64, pn: f64) -> Self {
        assert!(kappa > 0, "need at least one key");
        assert!(h > 0, "need at least one hash function");
        assert!((0.0..1.0).contains(&pp) && pp > 0.0, "pp must be in (0,1)");
        assert!((0.0..1.0).contains(&pn) && pn > 0.0, "pn must be in (0,1)");
        let l = min_counters_for_fp(kappa, h, pp);
        let b = (1..=16u32)
            .find(|&b| false_negative_bound(l, b, h, kappa) <= pn)
            .expect("no counter width up to 16 bits meets the false-negative bound");
        BloomConfig::new(l, b, h)
    }

    /// Total digest memory in bytes (`l · b` bits), rounded up.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        (self.counters as u64 * u64::from(self.counter_bits)).div_ceil(8)
    }

    /// Memory of the *broadcast* form (1 bit per counter), in bytes.
    #[must_use]
    pub fn snapshot_bytes(&self) -> u64 {
        (self.counters as u64).div_ceil(8)
    }
}

/// Eq. 4: predicted false-positive rate
/// `(1 - e^{-κh/l})^h` after inserting `kappa` distinct keys.
#[must_use]
pub fn false_positive_rate(l: usize, h: u32, kappa: u64) -> f64 {
    let exponent = -(kappa as f64) * f64::from(h) / l as f64;
    (1.0 - exponent.exp()).powi(h as i32)
}

/// Eq. 4 read backwards: the distinct keys behind `zeros` of `l`
/// counters still zero, `-l/h · ln(zeros/l)` (the classic Bloom
/// cardinality estimator; Swamidass & Baldi 2007). `None` when no
/// counter is zero, where the estimate has no finite value.
pub(crate) fn estimate_cardinality(config: &BloomConfig, zeros: usize) -> Option<f64> {
    if zeros == 0 {
        return None;
    }
    let l = config.counters as f64;
    Some(-(l / f64::from(config.hashes)) * (zeros as f64 / l).ln())
}

/// Eq. 5: upper bound on the probability that *any* counter reaches
/// `2^b` (and may then underflow to a false negative):
/// `l · (e κ h / (2^b l))^{2^b}`.
#[must_use]
pub fn false_negative_bound(l: usize, b: u32, h: u32, kappa: u64) -> f64 {
    let two_b = 2f64.powi(b as i32);
    let base = std::f64::consts::E * kappa as f64 * f64::from(h) / (two_b * l as f64);
    // Guard against overflow for tiny bases raised to large powers.
    let log = (l as f64).ln() + two_b * base.ln();
    log.exp()
}

/// The smallest `l` with `false_positive_rate(l, h, κ) ≤ pp`
/// (the closed form `l = -κh / ln(1 - pp^{1/h})`, rounded up).
fn min_counters_for_fp(kappa: u64, h: u32, pp: f64) -> usize {
    let denominator = (1.0 - pp.powf(1.0 / f64::from(h))).ln();
    let l = -(kappa as f64) * f64::from(h) / denominator;
    l.ceil() as usize
}

/// The principal branch of the Lambert W function (`W(x)·e^{W(x)} = x`)
/// for `x ≥ -1/e`, via Halley iteration.
///
/// Used by the paper's closed-form expression for the optimal counter
/// width (Eq. 10); the crate's solver enumerates `b` instead, but the
/// function is exposed so the closed form can be cross-checked.
///
/// # Panics
///
/// Panics if `x < -1/e` (outside the principal branch's domain).
#[must_use]
pub fn lambert_w(x: f64) -> f64 {
    assert!(
        x >= -1.0 / std::f64::consts::E - 1e-12,
        "lambert_w defined for x >= -1/e, got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    // Initial guess: ln(1+x) works well for x > 0; near the branch
    // point use the series around -1/e.
    let mut w = if x > 0.0 {
        x.ln_1p() * 0.75
    } else {
        let p = (2.0 * (std::f64::consts::E * x + 1.0)).max(0.0).sqrt();
        -1.0 + p
    };
    for _ in 0..64 {
        let ew = w.exp();
        let f = w * ew - x;
        if f == 0.0 {
            return w;
        }
        let denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
        if !denom.is_finite() || denom == 0.0 {
            return w;
        }
        let next = w - f / denom;
        if (next - w).abs() <= 1e-14 * (1.0 + next.abs()) {
            return next;
        }
        w = next;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambert_w_identity_holds() {
        for x in [-0.3, -0.1, 0.0, 0.5, 1.0, std::f64::consts::E, 10.0, 1e6] {
            let w = lambert_w(x);
            assert!(
                (w * w.exp() - x).abs() <= 1e-9 * (1.0 + x.abs()),
                "x={x} w={w}"
            );
        }
    }

    #[test]
    fn lambert_w_known_values() {
        assert!((lambert_w(std::f64::consts::E) - 1.0).abs() < 1e-12);
        assert!(lambert_w(0.0).abs() < 1e-12);
        // W(-1/e) = -1 at the branch point.
        let w = lambert_w(-1.0 / std::f64::consts::E);
        assert!((w + 1.0).abs() < 1e-5, "w={w}");
    }

    #[test]
    #[should_panic(expected = "lambert_w defined")]
    fn lambert_w_rejects_below_branch_point() {
        let _ = lambert_w(-1.0);
    }

    #[test]
    fn paper_worked_example_matches() {
        // §IV-B: (κ=10⁴, h=4, pp=pn=10⁻⁴) → (l≈4×10⁵, b=3), ~150 KB.
        let cfg = BloomConfig::optimal(10_000, 4, 1e-4, 1e-4);
        assert_eq!(cfg.counter_bits, 3);
        assert!(
            (350_000..=400_000).contains(&cfg.counters),
            "l = {}",
            cfg.counters
        );
        let kb = cfg.memory_bytes() as f64 / 1024.0;
        assert!((130.0..=155.0).contains(&kb), "{kb} KB");
    }

    #[test]
    fn eq4_matches_textbook_values() {
        // With l = 10κ and h = 4: (1 - e^{-0.4})^4 ≈ 0.0118.
        let fp = false_positive_rate(100_000, 4, 10_000);
        assert!((fp - 0.01181).abs() < 0.0005, "fp {fp}");
        // More counters, lower rate.
        assert!(false_positive_rate(200_000, 4, 10_000) < fp);
    }

    #[test]
    fn eq5_decreases_in_b_and_l() {
        let base = false_negative_bound(100_000, 2, 4, 10_000);
        assert!(false_negative_bound(100_000, 3, 4, 10_000) < base);
        assert!(false_negative_bound(200_000, 2, 4, 10_000) < base);
    }

    #[test]
    fn min_counters_satisfies_the_bound_tightly() {
        for (kappa, h, pp) in [
            (10_000u64, 4u32, 1e-4),
            (1_000, 2, 1e-2),
            (100_000, 6, 1e-6),
        ] {
            let l = min_counters_for_fp(kappa, h, pp);
            assert!(false_positive_rate(l, h, kappa) <= pp * 1.0001);
            // One less counter (scaled) should violate the bound.
            assert!(false_positive_rate(l * 99 / 100, h, kappa) > pp);
        }
    }

    #[test]
    fn optimal_config_meets_both_bounds() {
        for (kappa, h, pp, pn) in [
            (10_000u64, 4u32, 1e-4, 1e-4),
            (2_560_000, 4, 1e-3, 1e-3),
            (500, 2, 1e-2, 1e-5),
        ] {
            let cfg = BloomConfig::optimal(kappa, h, pp, pn);
            assert!(false_positive_rate(cfg.counters, h, kappa) <= pp * 1.0001);
            assert!(false_negative_bound(cfg.counters, cfg.counter_bits, h, kappa) <= pn);
        }
    }

    #[test]
    fn closed_form_b_agrees_with_enumeration() {
        // Eq. 10's closed form (via Lambert W) should land within one
        // bit of the enumerated optimum.
        let kappa = 10_000u64;
        let h = 4u32;
        let pn = 1e-4f64;
        let l = min_counters_for_fp(kappa, h, 1e-4) as f64;
        let beta = std::f64::consts::E * kappa as f64 * f64::from(h) / l;
        let gamma = pn / l;
        let closed = (beta * (lambert_w(-gamma.ln() / beta)).exp()).ln() / 2f64.ln();
        let enumerated = BloomConfig::optimal(kappa, h, 1e-4, pn).counter_bits;
        assert!(
            (closed.ceil() as i64 - i64::from(enumerated)).abs() <= 1,
            "closed {closed} vs enumerated {enumerated}"
        );
    }

    #[test]
    fn snapshot_is_smaller_than_digest() {
        let cfg = BloomConfig::optimal(10_000, 4, 1e-4, 1e-4);
        assert!(
            cfg.snapshot_bytes() * u64::from(cfg.counter_bits) == cfg.memory_bytes()
                || cfg.snapshot_bytes() < cfg.memory_bytes()
        );
        assert!(cfg.snapshot_bytes() < cfg.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "pp must be in (0,1)")]
    fn optimal_rejects_bad_bounds() {
        let _ = BloomConfig::optimal(100, 4, 0.0, 0.5);
    }
}
