//! Deterministic, seedable randomness for simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seedable random-number generator for simulations.
///
/// Wraps [`rand::rngs::StdRng`] behind a small, stable surface so the
/// rest of the workspace does not depend on `rand`'s API directly, and
/// so every experiment is reproducible from a single `u64` seed.
///
/// # Example
///
/// ```
/// use proteus_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.uniform_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator deterministically seeded from `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulation component its own stream without cross-coupling.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random::<u64>()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform sample in `[0, 1)` guaranteed to be strictly positive —
    /// convenient for inverse-CDF transforms that take `ln(u)`.
    pub fn positive_uniform_f64(&mut self) -> f64 {
        loop {
            let u = self.uniform_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.inner.random_range(0..bound)
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index(0) is meaningless");
        self.inner.random_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "independent streams should rarely collide");
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut root1 = SimRng::seed_from_u64(9);
        let mut root2 = SimRng::seed_from_u64(9);
        let mut c1 = root1.fork(100);
        let mut c2 = root2.fork(100);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = SimRng::seed_from_u64(9).fork(101);
        assert_ne!(
            SimRng::seed_from_u64(9).fork(100).next_u64(),
            other.next_u64()
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed_from_u64(0).below(0);
    }
}
