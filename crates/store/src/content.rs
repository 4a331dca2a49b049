//! Deterministic synthetic page content.

use proteus_ring::hash::{fnv1a64, splitmix64};

/// Generates `size` bytes of page content for `key`, deterministically.
///
/// Stands in for the Wikipedia `old_text` column: the bytes are a
/// pseudo-random function of the key alone, so any component (store,
/// cache, TCP server, test) regenerates identical content without
/// shipping a dump. The first bytes embed a readable header to make
/// debugging dumps legible.
///
/// # Example
///
/// ```
/// let a = proteus_store::generate_page_content(b"page:7", 256);
/// let b = proteus_store::generate_page_content(b"page:7", 256);
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 256);
/// assert!(a.starts_with(b"WIKI:"));
/// ```
#[must_use]
pub fn generate_page_content(key: &[u8], size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(b"WIKI:");
    out.extend_from_slice(&key[..key.len().min(32)]);
    out.push(b':');
    let mut state = fnv1a64(key);
    while out.len() < size {
        state = splitmix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(size);
    out
}

/// Picks a deterministic value size in `min..=max` for `key`,
/// log-uniformly distributed.
///
/// Real memcached fleets carry a heavy small-object skew: most values
/// are tens to hundreds of bytes, with a long tail of multi-kilobyte
/// pages. A log-uniform draw reproduces that shape — every size
/// *decade* gets equal probability mass, so small sizes dominate by
/// count — while staying a pure function of the key. The `item_scale`
/// and churn tests use it to build mixed-size populations any
/// component can regenerate independently.
///
/// # Example
///
/// ```
/// let n = proteus_store::content_size_for(b"page:7", 16, 4096);
/// assert!((16..=4096).contains(&n));
/// assert_eq!(n, proteus_store::content_size_for(b"page:7", 16, 4096));
/// ```
///
/// # Panics
///
/// Panics if `min` is zero or exceeds `max`.
#[must_use]
pub fn content_size_for(key: &[u8], min: usize, max: usize) -> usize {
    assert!(min > 0 && min <= max, "need 0 < min <= max");
    if min == max {
        return min;
    }
    let seed = key.iter().fold(0x9e37_79b9_7f4a_7c15u64, |h, &b| {
        splitmix64(h ^ u64::from(b))
    });
    // Uniform in [ln min, ln max), exponentiated back to a size.
    let unit = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
    let size = (lo + unit * (hi - lo)).exp().round() as usize;
    size.clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_deterministic_and_sized() {
        for size in [1usize, 5, 64, 4096, 10_000] {
            let a = generate_page_content(b"page:123", size);
            assert_eq!(a.len(), size);
            assert_eq!(a, generate_page_content(b"page:123", size));
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = generate_page_content(b"page:1", 4096);
        let b = generate_page_content(b"page:2", 4096);
        assert_ne!(a, b);
    }

    #[test]
    fn header_is_readable() {
        let a = generate_page_content(b"page:9", 64);
        assert!(a.starts_with(b"WIKI:page:9:"));
    }

    #[test]
    fn sizes_are_deterministic_bounded_and_skewed_small() {
        let mut sizes = Vec::new();
        for i in 0..2000u32 {
            let key = format!("page:{i}");
            let n = content_size_for(key.as_bytes(), 16, 4096);
            assert!((16..=4096).contains(&n));
            assert_eq!(n, content_size_for(key.as_bytes(), 16, 4096));
            sizes.push(n);
        }
        // Log-uniform: the sub-256 B range spans half the log space, so
        // roughly half the draws land there (far more than the ~6% a
        // uniform draw would give).
        let small = sizes.iter().filter(|&&n| n < 256).count();
        assert!(small > 600, "only {small}/2000 below 256 B");
        let large = sizes.iter().filter(|&&n| n >= 1024).count();
        assert!(large > 100, "tail missing: {large}/2000 at 1 KiB+");
        // Degenerate range collapses to the single size.
        assert_eq!(content_size_for(b"k", 64, 64), 64);
    }

    #[test]
    fn long_keys_are_truncated_in_header_not_content_identity() {
        let long_a: Vec<u8> = (0..100).map(|i| b'a' + (i % 26)).collect();
        let mut long_b = long_a.clone();
        *long_b.last_mut().unwrap() = b'!';
        // Headers agree (both truncated at 32) but content still differs
        // because the hash covers the whole key.
        assert_ne!(
            generate_page_content(&long_a, 256),
            generate_page_content(&long_b, 256)
        );
    }
}
