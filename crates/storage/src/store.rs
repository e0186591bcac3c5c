//! Sharded concurrent multiversion store.
//!
//! [`MvStore`] maps objects to [`VersionChain`]s behind per-shard
//! mutexes. It holds committed versions only and knows nothing of
//! concurrency control: no pending version, no read timestamp, no
//! condition variable. A protocol that must *block* on another
//! transaction's uncommitted write (timestamp ordering, paper Figure 3)
//! waits in its own table, not here. Snapshot reads
//! ([`MvStore::read_at`]) therefore never block: they look only at
//! committed versions, which is the structural basis of the paper's
//! "read requests of read-only transactions are never rejected" claim.

use crate::chain::VersionChain;
use crate::gc::GcStats;
use crate::shard::ObjectMap;
use crate::stats::StoreStats;
use crate::value::Value;
use crate::{VersionNo, INITIAL_VERSION};
use mvcc_model::ObjectId;
use parking_lot::Mutex;

/// One cache line per shard, so a snapshot scan locking its neighbours
/// never steals the line a writer is about to lock.
#[repr(align(64))]
struct Shard {
    map: Mutex<ObjectMap<VersionChain>>,
}

/// Sharded map of object → version chain.
///
/// ```
/// use mvcc_storage::{MvStore, Value};
/// use mvcc_model::ObjectId;
///
/// let store = MvStore::new();
/// let x = ObjectId(1);
/// store.seed(x, Value::from_u64(10)); // initial version x_0
/// store.with(x, |chain| chain.insert_committed(5, Value::from_u64(50)).unwrap());
///
/// // snapshot reads: largest version number ≤ sn
/// assert_eq!(store.read_at(x, 4).unwrap().0, 0);
/// assert_eq!(store.read_at(x, 9).unwrap().1.as_u64(), Some(50));
/// ```
pub struct MvStore {
    shards: Box<[Shard]>,
}

impl std::fmt::Debug for MvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvStore")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MvStore {
    /// Store with a default shard count suited to benchmark thread counts.
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// Store with an explicit shard count, rounded **up** to a power of
    /// two (min 1) so shard selection is a bit-mask, not a modulo.
    pub fn with_shards(n: usize) -> Self {
        let n = crate::shard::pow2_shards(n);
        let shards = (0..n)
            .map(|_| Shard {
                map: Mutex::new(ObjectMap::default()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MvStore { shards }
    }

    fn shard(&self, obj: ObjectId) -> &Shard {
        // Fibonacci hashing spreads sequential object ids across shards.
        &self.shards[crate::shard::shard_index(obj.get(), self.shards.len())]
    }

    /// Run `f` with exclusive access to `obj`'s chain (created on first
    /// touch, holding the implicit initial version).
    pub fn with<R>(&self, obj: ObjectId, f: impl FnOnce(&mut VersionChain) -> R) -> R {
        let shard = self.shard(obj);
        f(shard.map.lock().entry(obj).or_default())
    }

    // ---- convenience wrappers ---------------------------------------------

    /// Non-blocking snapshot read: `(version number, value)` of the
    /// largest committed version `≤ sn` (paper Figure 2). `None` means GC
    /// pruned the needed version.
    ///
    /// A read mutates nothing, so it bypasses [`with`](Self::with): one
    /// shard lock and one map probe. A read at or above the chain's newest
    /// version finds it inline in the map's bucket; an older snapshot
    /// binary-searches the chain's heap part. An object never written
    /// holds only its initial version and is not materialized.
    pub fn read_at(&self, obj: ObjectId, sn: VersionNo) -> Option<(VersionNo, Value)> {
        match self.shard(obj).map.lock().get(&obj) {
            Some(c) => c.at(sn).map(|v| (v.number, v.value.clone())),
            None => Some((INITIAL_VERSION, Value::empty())),
        }
    }

    /// Non-blocking read of the latest committed version.
    pub fn read_latest(&self, obj: ObjectId) -> (VersionNo, Value) {
        self.read_at(obj, VersionNo::MAX)
            .expect("GC never prunes a chain's latest version")
    }

    /// The number of `obj`'s latest committed version (`w-ts(x)` of
    /// Figure 3, before reservations): a probe that clones no payload.
    pub fn latest_number(&self, obj: ObjectId) -> VersionNo {
        self.shard(obj)
            .map
            .lock()
            .get(&obj)
            .map_or(INITIAL_VERSION, |c| c.latest().number)
    }

    /// Set the initial version's payload (bulk loading).
    pub fn seed(&self, obj: ObjectId, value: Value) {
        self.with(obj, |c| c.seed(value));
    }

    /// Every object currently materialized.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.map.lock().keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Aggregate statistics across all chains.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for shard in self.shards.iter() {
            let map = shard.map.lock();
            s.objects += map.len();
            for chain in map.values() {
                s.committed_versions += chain.committed_len();
                s.payload_bytes += chain.payload_bytes();
            }
        }
        s
    }

    /// Prune every chain against `watermark` (see
    /// [`VersionChain::prune_below`]): all live and future start numbers
    /// must be `≥ watermark`. Returns aggregate GC statistics.
    pub fn collect_garbage(&self, watermark: VersionNo) -> GcStats {
        self.collect_garbage_keep(watermark, 1)
    }

    /// Like [`collect_garbage`](Self::collect_garbage) but retaining up
    /// to `keep` versions at or below the watermark per chain (bounded
    /// history for time-travel reads).
    pub fn collect_garbage_keep(&self, watermark: VersionNo, keep: usize) -> GcStats {
        let mut stats = GcStats::default();
        for shard in self.shards.iter() {
            let mut map = shard.map.lock();
            for chain in map.values_mut() {
                stats.chains_examined += 1;
                stats.versions_pruned += chain.prune_keep_recent(watermark, keep);
                stats.versions_retained += chain.committed_len();
            }
        }
        stats.watermark = watermark;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn read_at_on_fresh_object_returns_initial() {
        let s = MvStore::new();
        let (n, v) = s.read_at(obj(1), 100).unwrap();
        assert_eq!(n, 0);
        assert!(v.is_empty());
    }

    #[test]
    fn seed_then_read() {
        let s = MvStore::new();
        s.seed(obj(1), Value::from_u64(7));
        assert_eq!(s.read_latest(obj(1)).1.as_u64(), Some(7));
    }

    #[test]
    fn with_mutates_chain() {
        let s = MvStore::new();
        s.with(obj(2), |c| {
            c.insert_committed(5, Value::from_u64(50)).unwrap()
        });
        assert_eq!(s.read_at(obj(2), 5).unwrap().0, 5);
        assert_eq!(s.read_at(obj(2), 4).unwrap().0, 0);
    }

    #[test]
    fn objects_lists_touched() {
        let s = MvStore::new();
        s.seed(obj(3), Value::empty());
        s.seed(obj(1), Value::empty());
        assert_eq!(s.objects(), vec![obj(1), obj(3)]);
    }

    #[test]
    fn stats_aggregate() {
        let s = MvStore::new();
        s.with(obj(1), |c| {
            c.insert_committed(1, Value::from_u64(1)).unwrap()
        });
        s.with(obj(2), |c| {
            c.insert_committed(2, Value::from_str("abc")).unwrap()
        });
        let st = s.stats();
        assert_eq!(st.objects, 2);
        assert_eq!(st.committed_versions, 4); // two initials + two inserts
        assert_eq!(st.payload_bytes, 11);
    }

    /// No two shards share a cache line.
    #[test]
    fn shards_do_not_share_cache_lines() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<Shard>(), 64);
        assert_eq!(size_of::<Shard>() % 64, 0);
    }

    #[test]
    fn latest_number_probes_without_materializing() {
        let s = MvStore::new();
        assert_eq!(s.latest_number(obj(7)), INITIAL_VERSION);
        assert_eq!(s.stats().objects, 0);
        s.with(obj(7), |c| {
            c.insert_committed(3, Value::from_u64(33)).unwrap()
        });
        assert_eq!(s.latest_number(obj(7)), 3);
    }

    #[test]
    fn gc_prunes_across_objects() {
        let s = MvStore::new();
        for o in 0..10u64 {
            s.with(obj(o), |c| {
                for n in 1..=5 {
                    c.insert_committed(n, Value::from_u64(n)).unwrap();
                }
            });
        }
        let stats = s.collect_garbage(5);
        assert_eq!(stats.chains_examined, 10);
        assert_eq!(stats.versions_pruned, 50); // versions 0..4 die per chain
        assert_eq!(stats.versions_retained, 10);
        assert_eq!(stats.watermark, 5);
        // snapshot at watermark still served
        assert_eq!(s.read_at(obj(0), 5).unwrap().0, 5);
        // snapshot below watermark is gone
        assert!(s.read_at(obj(0), 3).is_none());
    }

    #[test]
    fn concurrent_writers_distinct_objects() {
        let s = Arc::new(MvStore::with_shards(4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..100u64 {
                    let o = obj(t * 100 + i);
                    s.with(o, |c| c.insert_committed(1, Value::from_u64(i)).unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().objects, 800);
    }

    #[test]
    fn concurrent_same_object_versions() {
        let s = Arc::new(MvStore::new());
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..50u64 {
                    let n = t * 1000 + i;
                    s.with(obj(1), |c| {
                        c.insert_committed(n, Value::from_u64(n)).unwrap()
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let chain_len = s.with(obj(1), |c| c.committed_len());
        assert_eq!(chain_len, 1 + 8 * 50);
        // chain stayed sorted
        s.with(obj(1), |c| {
            let nums: Vec<u64> = c.committed().map(|v| v.number).collect();
            let mut sorted = nums.clone();
            sorted.sort_unstable();
            assert_eq!(nums, sorted);
        });
    }
}
