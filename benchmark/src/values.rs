//! The generated inputs: a key universe, the one correct value of each
//! key, and the benchmark's stand-in database.
//!
//! A value is a pure function of `(seed, key)` — a slice of one
//! seed-derived pad — so every reply can be checked with a `memcmp`
//! against bytes the generator already holds, no matter which of the
//! program's paths (cache hit, migration, database) produced it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_net::{DbFallback, NetError};
use proteus_ring::hash::splitmix64;
use proteus_store::content_size_for;

use crate::spans;

/// Every key is `key:` plus eight digits.
pub const KEY_LEN: usize = 12;
const PAD_BYTES: usize = 64 << 10;

/// How value sizes are spread over the keys.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    Fixed(usize),
    /// Uniform in `min..=max`.
    Uniform(usize, usize),
    /// Log-uniform in `min..=max` (`proteus_store::content_size_for`).
    LogUniform(usize, usize),
}

pub struct ValueSpace {
    pad: Vec<u8>,
    /// `(offset into pad, length)` per key index.
    slices: Vec<(u32, u32)>,
}

pub fn key_bytes(index: usize) -> [u8; KEY_LEN] {
    let mut key = *b"key:00000000";
    let mut n = index;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    key
}

fn index_of(key: &[u8]) -> Option<usize> {
    let digits = key.strip_prefix(b"key:")?;
    if digits.len() != KEY_LEN - 4 {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &d| {
        d.is_ascii_digit().then(|| n * 10 + usize::from(d - b'0'))
    })
}

impl ValueSpace {
    pub fn new(seed: u64, keys: usize, sizes: Sizes) -> ValueSpace {
        let mut state = splitmix64(seed ^ 0x7661_6c75_6573);
        let mut pad = Vec::with_capacity(PAD_BYTES);
        while pad.len() < PAD_BYTES {
            state = splitmix64(state);
            pad.extend_from_slice(&state.to_le_bytes());
        }
        let slices = (0..keys)
            .map(|i| {
                let h = splitmix64(seed ^ splitmix64(i as u64));
                let len = match sizes {
                    Sizes::Fixed(n) => n,
                    Sizes::Uniform(min, max) => min + (h >> 32) as usize % (max - min + 1),
                    Sizes::LogUniform(min, max) => content_size_for(&key_bytes(i), min, max),
                };
                assert!(len < PAD_BYTES, "value size {len} exceeds the pad");
                let off = (h & 0xffff_ffff) as usize % (PAD_BYTES - len);
                (off as u32, len as u32)
            })
            .collect();
        ValueSpace { pad, slices }
    }

    pub fn keys(&self) -> usize {
        self.slices.len()
    }

    /// The one correct value of key `index`.
    pub fn value(&self, index: usize) -> &[u8] {
        let (off, len) = self.slices[index];
        &self.pad[off as usize..(off + len) as usize]
    }

    /// Key plus value bytes of key `index`: what a user stores.
    pub fn user_bytes(&self, index: usize) -> u64 {
        (KEY_LEN + self.slices[index].1 as usize) as u64
    }
}

/// The benchmark's `DbFallback`: answers with the key's one correct
/// value after a fixed service time, and counts fetches and busy time.
pub struct BenchDb {
    values: Arc<ValueSpace>,
    service: Duration,
    fetches: AtomicU64,
    busy_ns: AtomicU64,
}

impl BenchDb {
    pub fn new(values: Arc<ValueSpace>, service: Duration) -> BenchDb {
        BenchDb {
            values,
            service,
            fetches: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `(fetches, busy nanoseconds)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.fetches.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

impl DbFallback for BenchDb {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
        let _span = spans::enter("db.fetch");
        let begin = Instant::now();
        let index = index_of(key)
            .filter(|&i| i < self.values.keys())
            .ok_or_else(|| NetError::Protocol("database asked for a key it never held".into()))?;
        let value = self.values.value(index).to_vec();
        // Sleep most of the service time, spin the rest: a bare sleep
        // overshoots by the timer slack and the time would not be fixed.
        if let Some(coarse) = self.service.checked_sub(Duration::from_micros(150)) {
            std::thread::sleep(coarse.saturating_sub(begin.elapsed()));
        }
        while begin.elapsed() < self.service {
            std::hint::spin_loop();
        }
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(value)
    }
}
