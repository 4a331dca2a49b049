//! The shared, immutable value buffer handed across the cache tier.

use std::fmt;
use std::sync::Arc;

/// A reference-counted, immutable buffer of value bytes: one heap
/// allocation per value, shared by refcount. Cloning is a refcount
/// bump, and the bytes live for as long as any holder keeps a clone.
///
/// This is how the heap backend stores values and how values cross
/// ownership boundaries (client replies, the simulator, tools). The
/// slab backend owns its pages outright and never hands out a
/// reference into them: its reads borrow under the shard lock
/// ([`CacheEngine::get`](crate::CacheEngine::get)) or copy out into a
/// fresh `SharedBytes` ([`ShardedEngine::get`](crate::ShardedEngine::get))
/// — DESIGN.md §9.
///
/// # Example
///
/// ```
/// use proteus_cache::SharedBytes;
///
/// let a = SharedBytes::from(vec![1u8, 2, 3]);
/// let b = SharedBytes::clone(&a);
/// assert_eq!(&a[..], &[1, 2, 3]);
/// assert_eq!(a.as_ptr(), b.as_ptr(), "clones alias one buffer");
/// ```
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
}

impl SharedBytes {
    /// The bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Length in bytes.
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for SharedBytes {
    fn default() -> Self {
        SharedBytes::from(&[][..])
    }
}

impl From<Arc<[u8]>> for SharedBytes {
    fn from(buf: Arc<[u8]>) -> Self {
        SharedBytes { buf }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        SharedBytes::from(Arc::<[u8]>::from(v))
    }
}

impl From<Box<[u8]>> for SharedBytes {
    fn from(v: Box<[u8]>) -> Self {
        SharedBytes::from(Arc::<[u8]>::from(v))
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> Self {
        SharedBytes::from(Arc::<[u8]>::from(v))
    }
}

impl<const N: usize> From<&[u8; N]> for SharedBytes {
    fn from(v: &[u8; N]) -> Self {
        SharedBytes::from(&v[..])
    }
}

/// Content equality: two buffers are equal when their bytes are
/// equal. Identity is the bytes' address (`a.as_ptr() == b.as_ptr()`).
impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl std::hash::Hash for SharedBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let whole = SharedBytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(&whole[..], &[1, 2, 3, 4]);
        assert_eq!(whole.len(), 4);
        assert!(!whole.is_empty());
        assert_eq!(
            SharedBytes::from(&[9u8, 9][..]),
            SharedBytes::from(&[9u8, 9])
        );
        assert!(SharedBytes::default().is_empty());
    }

    #[test]
    fn clone_is_aliasing_not_copying() {
        let a = SharedBytes::from(&b"shared"[..]);
        let b = SharedBytes::clone(&a);
        assert_eq!(a.as_ptr(), b.as_ptr());
        // Equal bytes in a different buffer are == but not aliased.
        let c = SharedBytes::from(&b"shared"[..]);
        assert_eq!(a, c);
        assert_ne!(a.as_ptr(), c.as_ptr());
    }
}
