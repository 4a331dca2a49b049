//! Deterministic, seedable randomness for simulations.

use proteus_ring::hash::splitmix64;

/// A seedable random-number generator for simulations: xoshiro256++,
/// its state expanded from one `u64` seed through
/// [`splitmix64`](proteus_ring::hash::splitmix64), as the xoshiro
/// authors recommend. Every experiment is reproducible from that seed.
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
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator deterministically seeded from `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        SimRng {
            s: [word(0), word(1), word(2), word(3)],
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
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`: 53 random mantissa bits.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

    /// Uniform integer in `[0, bound)`, unbiased: a draw past the
    /// largest multiple of `bound` is rejected and drawn again.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index(0) is meaningless");
        self.below(bound as u64) as usize
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

    /// Every method's stream, folded over five seeds: a change to the
    /// generator, its seeding or a sampler moves this value.
    #[test]
    fn streams_match_their_known_answer() {
        let mut acc = 0u64;
        for seed in [0, 1, 42, 4011, u64::MAX] {
            let mut rng = SimRng::seed_from_u64(seed);
            for i in 0..10_000u64 {
                let v = match i % 5 {
                    0 => rng.next_u64(),
                    1 => rng.uniform_f64().to_bits(),
                    2 => rng.below(1 + i),
                    3 => rng.index(3 + i as usize) as u64,
                    _ => rng.fork(i).next_u64(),
                };
                acc = acc.rotate_left(7) ^ v;
            }
        }
        assert_eq!(acc, 0x09b8_0ffd_7fc5_a95b);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.uniform_f64()));
        }
    }

    #[test]
    fn range_is_respected_and_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seed_from_u64(0).below(0);
    }
}
