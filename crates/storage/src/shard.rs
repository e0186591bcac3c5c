//! Shard-count, shard-index and hashing helpers shared by every sharded
//! structure in the engine (the store's chain tables, the 2PL lock table,
//! the GC snapshot slots).
//!
//! Shard counts are always rounded **up** to a power of two so the index
//! computation is a multiply + shift + mask — no division on the hot
//! path. The hash is Fibonacci (multiply by 2⁶⁴/φ): sequential keys, the
//! common case for benchmark object ids and slot counters, spread evenly
//! across shards. The index is taken from the *high* bits of the product,
//! where the Fibonacci multiply concentrates its mixing.
//!
//! The same product is the hash of every `ObjectId`-keyed map
//! ([`FibBuildHasher`], [`ObjectMap`]) and picks the store's home slots,
//! so one multiply picks the shard *and* the bucket.

use mvcc_model::ObjectId;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Round a requested shard count up to the nearest power of two (min 1).
///
/// ```
/// use mvcc_storage::shard;
/// assert_eq!(shard::pow2_shards(0), 1);
/// assert_eq!(shard::pow2_shards(1), 1);
/// assert_eq!(shard::pow2_shards(5), 8);
/// assert_eq!(shard::pow2_shards(64), 64);
/// ```
pub fn pow2_shards(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Multiplicative constant: ⌊2⁶⁴ / φ⌋, the Fibonacci hashing multiplier.
pub(crate) const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Map `key` to a shard index in `[0, n_shards)`.
///
/// `n_shards` must be a power of two (use [`pow2_shards`]); the index is
/// the high 32 bits of the Fibonacci product masked down, so it costs one
/// multiply, one shift and one AND — no modulo.
#[inline]
pub fn shard_index(key: u64, n_shards: usize) -> usize {
    debug_assert!(n_shards.is_power_of_two(), "shard count must be 2^k");
    let h = key.wrapping_mul(FIB);
    ((h >> 32) as usize) & (n_shards - 1)
}

/// [`BuildHasher`] for `ObjectId`-keyed maps: the hash of a key is the
/// same Fibonacci product [`shard_index`] takes bits 32.. of, in place of
/// std's SipHash. That gives up SipHash's resistance to keys crafted to
/// collide, which an embedded engine with no network front-end does not
/// need: object ids come from the application linking it.
///
/// The bits do not collide: hashbrown indexes buckets with the *low* bits
/// of the hash and tags slots with the *top 7*, while the shard is bits
/// `32..32+log2(shards)` — so a shard's map still sees well-spread bucket
/// indices and tags for the keys routed to it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FibBuildHasher;

impl BuildHasher for FibBuildHasher {
    type Hasher = FibHasher;

    #[inline]
    fn build_hasher(&self) -> FibHasher {
        FibHasher(0)
    }
}

/// The [`Hasher`] of [`FibBuildHasher`]: one multiply per `u64` written.
#[derive(Debug, Clone, Copy, Default)]
pub struct FibHasher(u64);

impl Hasher for FibHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FIB);
    }

    /// Byte input, which `ObjectId`'s `Hash` never produces.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `ObjectId → V` map hashed by [`FibBuildHasher`].
pub type ObjectMap<V> = HashMap<ObjectId, V, FibBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_rounds_up() {
        assert_eq!(pow2_shards(0), 1);
        assert_eq!(pow2_shards(1), 1);
        assert_eq!(pow2_shards(2), 2);
        assert_eq!(pow2_shards(3), 4);
        assert_eq!(pow2_shards(63), 64);
        assert_eq!(pow2_shards(64), 64);
        assert_eq!(pow2_shards(65), 128);
    }

    #[test]
    fn index_in_range_for_all_counts() {
        for shards in [1usize, 2, 4, 8, 64, 256] {
            for key in 0..1000u64 {
                assert!(shard_index(key, shards) < shards);
            }
        }
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        let shards = 16;
        let mut hits = vec![0u32; shards];
        for key in 0..1600u64 {
            hits[shard_index(key, shards)] += 1;
        }
        // Fibonacci hashing on sequential keys is near-uniform; allow 2x
        // imbalance to keep the test robust.
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 0, "shard {i} never hit");
            assert!(h < 200, "shard {i} got {h}/1600");
        }
    }

    #[test]
    fn object_hash_is_the_shard_product() {
        for key in [0u64, 1, 2, 63, 64, 199_999, u64::MAX] {
            let h = FibBuildHasher.hash_one(ObjectId(key));
            assert_eq!(h, key.wrapping_mul(FIB));
            assert_eq!(((h >> 32) as usize) & 63, shard_index(key, 64));
        }
        let mut m: ObjectMap<u64> = ObjectMap::default();
        for key in 0..1000u64 {
            m.insert(ObjectId(key), key);
        }
        assert!((0..1000u64).all(|k| m[&ObjectId(k)] == k));
    }

    #[test]
    fn single_shard_always_zero() {
        for key in 0..100u64 {
            assert_eq!(shard_index(key, 1), 0);
        }
    }
}
