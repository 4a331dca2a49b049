//! Wire serialization of digest snapshots.
//!
//! The paper reserves the keys `SET_BLOOM_FILTER` (take a snapshot of
//! the digest) and `BLOOM_FILTER` (retrieve the snapshot as ordinary
//! value bytes) in its modified memcached, so digests travel over the
//! unmodified cache protocol. [`DigestSnapshot`] is the byte format
//! those retrievals carry in this reproduction.

use std::error::Error;
use std::fmt;

use crate::config::BloomConfig;
use crate::filter::{stray_bits, BloomFilter};

/// Magic prefix identifying a serialized digest (`"PBF1"`).
const MAGIC: [u8; 4] = *b"PBF1";

/// Bytes before the words: magic, counters, hashes and partitions, seed.
const HEADER: usize = 4 + 8 + 4 + 8;

/// The most partitions a digest on the wire may declare, as a power of
/// two — far past any shard count, small enough that the shift is safe.
const MAX_LOG2_PARTITIONS: u32 = 16;

/// A serializable snapshot of one cache server's digest.
///
/// # Example
///
/// ```
/// use proteus_bloom::{BloomConfig, CountingBloomFilter, DigestSnapshot};
///
/// let mut digest = CountingBloomFilter::new(BloomConfig::new(1 << 12, 4, 4));
/// digest.insert(b"hot-page");
/// let bytes = DigestSnapshot::from_filter(&digest.snapshot()).to_bytes();
/// let restored = DigestSnapshot::from_bytes(&bytes).unwrap().into_filter();
/// assert!(restored.contains(b"hot-page"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestSnapshot {
    filter: BloomFilter,
}

/// Errors decoding a serialized digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte buffer is shorter than its header or payload claims.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The magic prefix did not match.
    BadMagic,
    /// A header field held an impossible value.
    BadHeader(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: need {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch"),
            SnapshotError::BadHeader(field) => write!(f, "invalid snapshot header field: {field}"),
        }
    }
}

impl Error for SnapshotError {}

/// Wraps a broadcast filter without copying it — what a server does
/// with the digest it just built.
impl From<BloomFilter> for DigestSnapshot {
    fn from(filter: BloomFilter) -> Self {
        DigestSnapshot { filter }
    }
}

impl DigestSnapshot {
    /// Wraps a copy of an existing broadcast filter.
    #[must_use]
    pub fn from_filter(filter: &BloomFilter) -> Self {
        DigestSnapshot {
            filter: filter.clone(),
        }
    }

    /// The wrapped filter.
    #[must_use]
    pub fn filter(&self) -> &BloomFilter {
        &self.filter
    }

    /// Unwraps into the filter.
    #[must_use]
    pub fn into_filter(self) -> BloomFilter {
        self.filter
    }

    /// Serializes to the wire format:
    /// `magic(4) ‖ counters(u64 LE) ‖ hashes(u32 LE) ‖ seed(u64 LE) ‖ words(u64 LE …)`.
    /// The low half of the `hashes` word is `h`, the high half log₂ of
    /// the partition count — zero for an undivided digest, which so
    /// encodes exactly as it did before digests could be partitioned.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let cfg = self.filter.config();
        let words = self.filter.words();
        let mut out = vec![0; self.encoded_len()];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..12].copy_from_slice(&(cfg.counters as u64).to_le_bytes());
        let hashes = cfg.hashes | cfg.partitions.trailing_zeros() << 16;
        out[12..16].copy_from_slice(&hashes.to_le_bytes());
        out[16..24].copy_from_slice(&cfg.seed.to_le_bytes());
        for (bytes, word) in out[HEADER..].chunks_exact_mut(8).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Deserializes from the wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the buffer is truncated, has the
    /// wrong magic, declares impossible dimensions, or sets a bit past
    /// its last counter.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER {
            return Err(SnapshotError::Truncated {
                needed: HEADER,
                got: bytes.len(),
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let counters = u64::from_le_bytes(bytes[4..12].try_into().expect("sized"));
        let hashes = u32::from_le_bytes(bytes[12..16].try_into().expect("sized"));
        let (hashes, log2_partitions) = (hashes & 0xffff, hashes >> 16);
        let seed = u64::from_le_bytes(bytes[16..24].try_into().expect("sized"));
        if counters == 0 || counters > (1 << 40) {
            return Err(SnapshotError::BadHeader("counters"));
        }
        if hashes == 0 || hashes > 64 {
            return Err(SnapshotError::BadHeader("hashes"));
        }
        // Several partitions are whole words each (what `concat` builds).
        if log2_partitions > MAX_LOG2_PARTITIONS
            || (log2_partitions > 0 && counters % (64 << log2_partitions) != 0)
        {
            return Err(SnapshotError::BadHeader("partitions"));
        }
        let word_count = counters.div_ceil(64) as usize;
        let needed = HEADER + word_count * 8;
        if bytes.len() < needed {
            return Err(SnapshotError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        let words: Vec<u64> = bytes[HEADER..needed]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
            .collect();
        if stray_bits(counters as usize, &words) != 0 {
            return Err(SnapshotError::BadHeader("bits past the last counter"));
        }
        // `counter_bits` is irrelevant to a bit filter; carry 1.
        let cfg = BloomConfig {
            partitions: 1 << log2_partitions,
            ..BloomConfig::new(counters as usize, 1, hashes).with_seed(seed)
        };
        Ok(DigestSnapshot {
            filter: BloomFilter::from_words(cfg, words),
        })
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER + self.filter.words().len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingBloomFilter;

    fn sample_digest() -> BloomFilter {
        let mut c = CountingBloomFilter::new(BloomConfig::new(5000, 4, 4).with_seed(11));
        for i in 0..800u64 {
            c.insert(&i.to_le_bytes());
        }
        c.snapshot()
    }

    #[test]
    fn roundtrip_preserves_membership_and_config() {
        let f = sample_digest();
        let bytes = DigestSnapshot::from_filter(&f).to_bytes();
        let restored = DigestSnapshot::from_bytes(&bytes).unwrap().into_filter();
        assert_eq!(restored.config().counters, 5000);
        assert_eq!(restored.config().hashes, 4);
        assert_eq!(restored.config().seed, 11);
        for i in 0..1600u64 {
            assert_eq!(
                restored.contains(&i.to_le_bytes()),
                f.contains(&i.to_le_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn encoded_len_matches_reality() {
        let f = sample_digest();
        let snap = DigestSnapshot::from_filter(&f);
        assert_eq!(snap.to_bytes().len(), snap.encoded_len());
    }

    #[test]
    fn snapshot_is_a_few_kilobytes() {
        // Section IV-A claims digests are "a few KB each" at realistic
        // settings; check the broadcast form of the paper's example
        // config is ~48 KB (l = 380k bits).
        let cfg = BloomConfig::optimal(10_000, 4, 1e-4, 1e-4);
        let filter = BloomFilter::new(cfg);
        let snap = DigestSnapshot::from_filter(&filter);
        let kb = snap.encoded_len() as f64 / 1024.0;
        assert!(kb < 50.0, "snapshot is {kb} KB");
        // 3-8x smaller than the full counting digest.
        assert!((snap.encoded_len() as u64) < cfg.memory_bytes());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            DigestSnapshot::from_bytes(b"xx"),
            Err(SnapshotError::Truncated { needed: 24, got: 2 })
        );
        let mut bytes = DigestSnapshot::from_filter(&sample_digest()).to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            DigestSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        );
        let mut ok = DigestSnapshot::from_filter(&sample_digest()).to_bytes();
        ok.truncate(30);
        assert!(matches!(
            DigestSnapshot::from_bytes(&ok),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_impossible_headers() {
        let mut bytes = vec![];
        bytes.extend_from_slice(b"PBF1");
        bytes.extend_from_slice(&0u64.to_le_bytes()); // zero counters
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            DigestSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadHeader("counters"))
        );
    }

    #[test]
    fn decode_rejects_bits_past_the_last_counter() {
        // 65 counters, the tail word all ones: one valid bit, 63 strays
        // that used to be counted (fill 0.98, 67.8 keys estimated).
        let mut bytes =
            DigestSnapshot::from_filter(&BloomFilter::new(BloomConfig::new(65, 1, 4))).to_bytes();
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            DigestSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadHeader("bits past the last counter"))
        );
        bytes[tail..].copy_from_slice(&1u64.to_le_bytes());
        let clean = DigestSnapshot::from_bytes(&bytes).unwrap().into_filter();
        assert_eq!(clean.set_bits(), 1);
    }

    #[test]
    fn partition_count_rides_in_the_hashes_word() {
        let cfg = BloomConfig::new(5000, 4, 4)
            .with_seed(11)
            .with_partitions(8);
        let mut c = CountingBloomFilter::new(cfg);
        (0..800u64).for_each(|i| c.insert(&i.to_le_bytes()));
        let f = c.snapshot();
        let mut bytes = DigestSnapshot::from_filter(&f).to_bytes();
        assert_eq!(bytes[12..16], [4, 0, 3, 0]);
        let restored = DigestSnapshot::from_bytes(&bytes).unwrap().into_filter();
        assert_eq!(restored, f);
        assert_eq!(restored.config().partitions, 8);
        // More partitions than the counters split into whole words for,
        // or than any digest has.
        bytes[14] = 5;
        assert_eq!(
            DigestSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadHeader("partitions"))
        );
        bytes[14] = 17;
        assert_eq!(
            DigestSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadHeader("partitions"))
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::Truncated { needed: 10, got: 2 };
        assert!(e.to_string().contains("10"));
        assert!(!SnapshotError::BadMagic.to_string().is_empty());
    }
}
