//! Cheaply-cloneable 16-byte values.
//!
//! A payload of up to [`Value::INLINE_CAPACITY`] (14) bytes — every
//! `u64`/`i64` counter the engine, workloads and examples write — is
//! stored inline: building one allocates nothing, and cloning one (a
//! snapshot read handing a version's payload to the reader) is a 16-byte
//! copy with no pointer chase. Longer payloads sit behind one shared
//! pointer to a [`Bytes`]: cloning is a refcount bump, never a deep copy.

use bytes::Bytes;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Inline payload capacity: what fits beside the enum tag and length byte
/// in 16 bytes, the size of a tagged thin heap pointer.
const INLINE: usize = 14;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE] },
    Heap(Arc<Bytes>),
}

/// An opaque database value.
///
/// Payloads of at most [`INLINE_CAPACITY`](Self::INLINE_CAPACITY) bytes
/// are stored inline (clone = copy); longer ones are backed by a shared
/// [`Bytes`] (clone = refcount bump). The representation is invisible: equality and
/// hashing are by content. Helper constructors cover the encodings the
/// examples and workloads use.
#[derive(Clone)]
pub struct Value(Repr);

impl Value {
    /// Longest payload stored inline, without a heap allocation.
    pub const INLINE_CAPACITY: usize = INLINE;

    /// The empty value (also every object's initial-version payload unless
    /// seeded otherwise).
    pub fn empty() -> Self {
        Value(Repr::Inline {
            len: 0,
            buf: [0; INLINE],
        })
    }

    /// Wrap raw bytes.
    pub fn from_bytes(b: impl Into<Bytes>) -> Self {
        let b = b.into();
        if b.len() <= INLINE {
            Self::from_slice(&b)
        } else {
            Value(Repr::Heap(Arc::new(b)))
        }
    }

    /// Copy raw bytes (inline when short enough, so decoding a small
    /// payload from the log allocates nothing).
    pub fn from_slice(b: &[u8]) -> Self {
        if b.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..b.len()].copy_from_slice(b);
            Value(Repr::Inline {
                len: b.len() as u8,
                buf,
            })
        } else {
            Value(Repr::Heap(Arc::new(Bytes::copy_from_slice(b))))
        }
    }

    /// Encode a `u64` (big-endian, fixed width).
    pub fn from_u64(v: u64) -> Self {
        Self::from_slice(&v.to_be_bytes())
    }

    /// Encode an `i64` (big-endian, fixed width).
    pub fn from_i64(v: i64) -> Self {
        Self::from_slice(&v.to_be_bytes())
    }

    /// Encode a UTF-8 string.
    #[allow(clippy::should_implement_trait)] // infallible constructor, not a parse
    pub fn from_str(s: &str) -> Self {
        Self::from_slice(s.as_bytes())
    }

    /// Decode as `u64` if the payload is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_bytes().try_into().ok().map(u64::from_be_bytes)
    }

    /// Decode as `i64` if the payload is exactly 8 bytes.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_bytes().try_into().ok().map(i64::from_be_bytes)
    }

    /// Decode as UTF-8 if valid.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(self.as_bytes()).ok()
    }

    /// Raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::empty()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_u64() {
            write!(f, "Value(u64:{v})")
        } else if let Some(s) = self.as_str() {
            write!(f, "Value({s:?})")
        } else {
            write!(f, "Value({} bytes)", self.len())
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from_str(s)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::from_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn u64_round_trip() {
        let v = Value::from_u64(42);
        assert_eq!(v.as_u64(), Some(42));
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn i64_round_trip_negative() {
        let v = Value::from_i64(-7);
        assert_eq!(v.as_i64(), Some(-7));
    }

    #[test]
    fn str_round_trip() {
        let v = Value::from_str("hello");
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(v.as_u64(), None); // wrong width
    }

    #[test]
    fn empty_value() {
        let v = Value::empty();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v, Value::default());
    }

    #[test]
    fn clone_is_shallow_equal() {
        // Above the inline capacity a clone shares the heap payload.
        let v = Value::from_bytes(vec![7u8; 64]);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(v.as_bytes().as_ptr(), w.as_bytes().as_ptr());
    }

    #[test]
    fn fits_in_two_words_and_holds_a_u64() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert!(matches!(Value::from_u64(u64::MAX).0, Repr::Inline { .. }));
    }

    #[test]
    fn lengths_round_trip_across_the_inline_boundary() {
        let cap = Value::INLINE_CAPACITY;
        for len in [0, 8, cap, cap + 1] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            for v in [Value::from_slice(&bytes), Value::from_bytes(bytes.clone())] {
                assert_eq!(v.as_bytes(), &bytes[..]);
                assert_eq!(v.len(), len);
                assert_eq!(v.is_empty(), len == 0);
                assert!(matches!(v.0, Repr::Inline { .. }) == (len <= cap));
            }
        }
    }

    #[test]
    fn eq_and_hash_are_by_content_across_representations() {
        for len in [0, 8, Value::INLINE_CAPACITY] {
            let bytes = vec![0xab; len];
            let inline = Value::from_slice(&bytes);
            let heap = Value(Repr::Heap(Arc::new(Bytes::from(bytes))));
            assert_eq!(inline, heap);
            assert_eq!(hash_of(&inline), hash_of(&heap));
        }
        assert_ne!(Value::from_u64(1), Value::from_u64(2));
        assert_ne!(Value::empty(), Value::from_slice(&[0]));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Value::from_u64(5)), "Value(u64:5)");
        assert!(format!("{:?}", Value::from_str("abcdefghij")).contains("abcdefghij"));
    }

    #[test]
    fn conversions() {
        let a: Value = 9u64.into();
        assert_eq!(a.as_u64(), Some(9));
        let b: Value = "s".into();
        assert_eq!(b.as_str(), Some("s"));
        let c: Value = vec![1u8, 2, 3].into();
        assert_eq!(c.as_bytes(), &[1, 2, 3]);
    }
}
