//! Zipf-distributed page popularity.

use proteus_sim::SimRng;

/// Samples page ranks from a Zipf distribution with exponent `s` over
/// `n` pages: `P(rank = k) ∝ 1 / k^s`.
///
/// Implemented with rejection-inversion (Hörmann & Derflinger, the
/// algorithm behind Apache Commons' `RejectionInversionZipfSampler`):
/// no precomputed tables, O(1) amortized per sample — suitable for the
/// millions of requests in a full-day trace. Web and Wikipedia page
/// popularity is classically Zipf-like with `s ≈ 0.7–1.0`.
///
/// Returned ranks are **1-based** (rank 1 = hottest page).
///
/// # Example
///
/// ```
/// use proteus_sim::SimRng;
/// use proteus_workload::ZipfSampler;
///
/// let zipf = ZipfSampler::new(1_000_000, 0.8);
/// let mut rng = SimRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&rank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` pages with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s` is not finite and positive, or
    /// `s == 1.0` exactly (use `1.0 ± ε`; the harmonic special case is
    /// deliberately excluded to keep one code path).
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "need at least one page");
        assert!(
            s.is_finite() && s > 0.0,
            "exponent must be positive, got {s}"
        );
        assert!(
            (s - 1.0).abs() > 1e-9,
            "s = 1 is a removable singularity; pass 1.0 ± 1e-6 instead"
        );
        let h_integral = |x: f64| (x.powf(1.0 - s) - 1.0) / (1.0 - s);
        let h = |x: f64| x.powf(-s);
        let h_integral_inverse = |x: f64| (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s));
        let h_x1 = h_integral(1.5) - 1.0;
        let h_n = h_integral(n as f64 + 0.5);
        let threshold = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
        ZipfSampler {
            n,
            s,
            h_x1,
            h_n,
            threshold,
        }
    }

    fn h_integral(&self, x: f64) -> f64 {
        (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
    }

    fn h(&self, x: f64) -> f64 {
        x.powf(-self.s)
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
    }

    /// Draws one 1-based rank.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            let u = self.h_n + rng.uniform_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k64 = x.clamp(1.0, self.n as f64);
            let k = (k64 + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }

    /// The theoretical probability of rank `k`:
    /// `k^-s / H_{n,s}` with `H` the generalized harmonic number
    /// (exact for n ≤ 10⁶, Euler–Maclaurin beyond).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=n`.
    #[must_use]
    pub fn probability(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n, "rank out of range");
        (k as f64).powf(-self.s) / self.harmonic()
    }

    fn harmonic(&self) -> f64 {
        if self.n <= 1_000_000 {
            (1..=self.n).map(|i| (i as f64).powf(-self.s)).sum()
        } else {
            let n = self.n as f64;
            (n.powf(1.0 - self.s) - 1.0) / (1.0 - self.s) + 0.5 + 0.5 * n.powf(-self.s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_range() {
        let z = ZipfSampler::new(1000, 0.8);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn head_frequencies_match_theory() {
        let z = ZipfSampler::new(10_000, 0.8);
        let mut rng = SimRng::seed_from_u64(2);
        let n = 400_000;
        let mut counts = [0u64; 11];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            if k <= 10 {
                counts[k as usize] += 1;
            }
        }
        for k in 1..=10u64 {
            let measured = counts[k as usize] as f64 / n as f64;
            let expected = z.probability(k);
            let err = (measured - expected).abs() / expected;
            assert!(
                err < 0.08,
                "rank {k}: measured {measured:.5} expected {expected:.5}"
            );
        }
    }

    #[test]
    fn tail_mass_matches_theory() {
        // P(rank > n/2) should match the harmonic tail, validating the
        // envelope across the whole support rather than just the head.
        let z = ZipfSampler::new(1000, 0.8);
        let expected: f64 = (501..=1000).map(|k| z.probability(k)).sum();
        let mut rng = SimRng::seed_from_u64(9);
        let n = 200_000;
        let tail = (0..n).filter(|_| z.sample(&mut rng) > 500).count();
        let measured = tail as f64 / n as f64;
        assert!(
            (measured - expected).abs() < 0.01,
            "tail measured {measured} expected {expected}"
        );
    }

    #[test]
    fn higher_exponent_concentrates_more() {
        let mild = ZipfSampler::new(10_000, 0.6);
        let steep = ZipfSampler::new(10_000, 1.2);
        let mut rng = SimRng::seed_from_u64(3);
        let mut top_share = |z: &ZipfSampler| {
            let n = 100_000;
            let mut top = 0u64;
            for _ in 0..n {
                if z.sample(&mut rng) <= 100 {
                    top += 1;
                }
            }
            top as f64 / n as f64
        };
        let a = top_share(&mild);
        let b = top_share(&steep);
        assert!(
            b > a + 0.1,
            "steep {b} should concentrate more than mild {a}"
        );
    }

    #[test]
    fn probability_sums_to_one() {
        let z = ZipfSampler::new(500, 0.9);
        let total: f64 = (1..=500).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    #[should_panic(expected = "removable singularity")]
    fn s_equal_one_rejected() {
        let _ = ZipfSampler::new(10, 1.0);
    }

    #[test]
    fn single_page_always_rank_one() {
        let z = ZipfSampler::new(1, 0.8);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = ZipfSampler::new(100_000, 0.8);
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }
}
