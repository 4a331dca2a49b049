//! Exact rational arithmetic for host-range bookkeeping.
//!
//! Algorithm 1 repeatedly splits host ranges by `K / (i (i-1))`. Doing
//! this in floating point would accumulate error and make the paper's
//! exact-balance claims unverifiable, so placements are computed over
//! reduced `i128` fractions and only scaled to the `u64` ring for
//! lookup. Denominators divide `lcm{ i(i-1) : i ≤ N }`, which bounds
//! the supported exact cluster size (see
//! [`MAX_EXACT_SERVERS`](crate::MAX_EXACT_SERVERS)).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An exact non-negative rational number, kept in lowest terms.
///
/// Supports exactly the operations placement generation needs:
/// addition, subtraction, comparison, construction from an integer
/// fraction, and scaling onto the 64-bit ring.
///
/// # Example
///
/// ```
/// use proteus_ring::Ratio;
/// let third = Ratio::new(1, 3);
/// let sixth = Ratio::new(1, 6);
/// assert_eq!(third + sixth, Ratio::new(1, 2));
/// assert!(sixth < third);
/// assert_eq!(third - sixth, sixth);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128, // invariant: den > 0, gcd(num, den) == 1, num >= 0
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one (the whole key space).
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the value is negative.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        assert!(num >= 0, "Ratio must be non-negative: {num}/{den}");
        if num == 0 {
            return Ratio::ZERO;
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Lossy conversion to `f64`.
    fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Reduces the value modulo 1 (wraps ring positions ≥ 1 around).
    #[must_use]
    pub fn wrap_unit(self) -> Ratio {
        if self.num >= self.den {
            Ratio::new(self.num % self.den, self.den)
        } else {
            self
        }
    }

    /// Scales a value in `[0, 1]` onto the 64-bit ring:
    /// `floor(self * 2^64)`, with 1.0 wrapping to 0.
    ///
    /// # Panics
    ///
    /// Panics if the value is greater than one.
    #[must_use]
    pub fn to_ring_position(self) -> u64 {
        assert!(
            self.num <= self.den,
            "ring position must be in [0, 1]: {self}"
        );
        if self.num == self.den {
            return 0; // 1.0 ≡ 0 on the circle
        }
        // floor(num * 2^64 / den) via 64 rounds of shift-and-subtract
        // long division; num, den < 2^127 so `r << 1` cannot overflow
        // u128 as long as den < 2^127.
        let den = self.den as u128;
        let mut r = self.num as u128;
        let mut q: u64 = 0;
        for i in (0..64).rev() {
            r <<= 1;
            if r >= den {
                r -= den;
                q |= 1 << i;
            }
        }
        q
    }

    fn checked_add_impl(self, rhs: Ratio) -> Option<Ratio> {
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Ratio::new(num, den))
    }

    fn checked_sub_impl(self, rhs: Ratio) -> Option<Ratio> {
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_sub(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        if num < 0 {
            return None;
        }
        Some(Ratio::new(num, den))
    }
}

impl Add for Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics on `i128` overflow (cluster too large for exact mode).
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add_impl(rhs)
            .expect("Ratio overflow: cluster too large for exact placement")
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics if the result would be negative or on `i128` overflow.
    fn sub(self, rhs: Ratio) -> Ratio {
        self.checked_sub_impl(rhs)
            .expect("Ratio subtraction underflow/overflow")
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b vs c/d as a*d vs c*b, with the shared-gcd trick
        // to keep products in range.
        let g = gcd(self.den, other.den);
        let lhs = self.num.checked_mul(other.den / g);
        let rhs = other.num.checked_mul(self.den / g);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            // Overflow fallback: compare as f64 (only reachable far
            // beyond MAX_EXACT_SERVERS).
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .expect("finite ratios"),
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({}/{})", self.num, self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl From<u32> for Ratio {
    fn from(v: u32) -> Self {
        Ratio::new(i128::from(v), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces_to_lowest_terms() {
        let r = Ratio::new(4, 8);
        assert_eq!(r.num, 1);
        assert_eq!(r.den, 2);
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
        assert_eq!(Ratio::new(-3, -6), Ratio::new(1, 2));
    }

    #[test]
    fn arithmetic_is_exact() {
        // 1/3 + 1/6 = 1/2; famously inexact in binary floating point.
        assert_eq!(Ratio::new(1, 3) + Ratio::new(1, 6), Ratio::new(1, 2));
        assert_eq!(
            Ratio::ONE - Ratio::new(1, 7) - Ratio::new(6, 7),
            Ratio::ZERO
        );
        let mut acc = Ratio::ZERO;
        for _ in 0..30 {
            acc += Ratio::new(1, 30);
        }
        assert_eq!(acc, Ratio::ONE);
    }

    #[test]
    fn ordering_matches_rational_order() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(2, 3) > Ratio::new(3, 5));
        assert_eq!(Ratio::new(2, 4).cmp(&Ratio::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn wrap_unit_wraps_the_circle() {
        assert_eq!((Ratio::new(3, 2)).wrap_unit(), Ratio::new(1, 2));
        assert_eq!(Ratio::ONE.wrap_unit(), Ratio::ZERO);
        assert_eq!(Ratio::new(1, 3).wrap_unit(), Ratio::new(1, 3));
    }

    #[test]
    fn ring_position_scaling() {
        assert_eq!(Ratio::ZERO.to_ring_position(), 0);
        assert_eq!(Ratio::ONE.to_ring_position(), 0, "1.0 wraps");
        assert_eq!(Ratio::new(1, 2).to_ring_position(), 1u64 << 63);
        assert_eq!(Ratio::new(1, 4).to_ring_position(), 1u64 << 62);
        // Non-power-of-two denominator: floor(2^64 / 3).
        let third = Ratio::new(1, 3).to_ring_position();
        assert_eq!(third, 0x5555_5555_5555_5555);
    }

    #[test]
    fn ring_position_with_huge_denominator() {
        // Denominator near lcm(1..64): still exact via long division.
        let den: i128 = (2..=64i128).fold(1, |acc, i| {
            let g = gcd(acc, i);
            (acc / g).saturating_mul(i)
        });
        let r = Ratio::new(den / 2 + 1, den);
        let pos = r.to_ring_position();
        let expect = r.to_f64() * 2f64.powi(64);
        let err = (pos as f64 - expect).abs() / expect;
        assert!(err < 1e-9, "pos {pos} expect {expect}");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_below_zero_panics() {
        let _ = Ratio::new(1, 4) - Ratio::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Ratio::new(1, 2)), "1/2");
        assert_eq!(format!("{:?}", Ratio::new(1, 2)), "Ratio(1/2)");
    }
}
