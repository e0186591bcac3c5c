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
use crate::shard::FIB;
use crate::stats::StoreStats;
use crate::value::Value;
use crate::{VersionNo, INITIAL_VERSION};
use mvcc_model::ObjectId;
use parking_lot::Mutex;

/// One cache line per shard, so a snapshot scan locking its neighbours
/// never steals the line a writer is about to lock.
#[repr(align(64))]
struct Shard {
    map: Mutex<ChainMap>,
}

/// One object's key and chain, on one 64-byte cache line. The chain
/// starts 8 bytes in, so its inline newest version never straddles two
/// lines. Public only so its layout can be pinned.
#[repr(C, align(64))]
pub struct Slot {
    key: ObjectId,
    chain: VersionChain,
}

/// The chains of one shard: an insert-only Robin Hood table. A key's home
/// is the top `log2(slots)` bits of its Fibonacci product; an insert
/// probes linearly and displaces any occupant closer to its own home, so
/// every run of slots is sorted by home and a lookup stops at the first
/// occupant whose home lies past its key's. It quadruples at 7/8 load.
#[derive(Default)]
struct ChainMap {
    /// Empty, or a power of four of at least 16 slots.
    slots: Vec<Option<Slot>>,
    len: usize,
}

impl ChainMap {
    /// `key`'s home slot in a table of `n` slots (a power of two ≥ 2).
    fn home(key: ObjectId, n: usize) -> usize {
        (key.get().wrapping_mul(FIB) >> (64 - n.trailing_zeros())) as usize
    }

    /// `Ok(i)`: `key` is in slot `i`. `Err(i)`: an insert of `key` takes
    /// slot `i`, the first that is empty or whose occupant's home lies
    /// past `key`'s.
    #[inline]
    fn probe(&self, key: ObjectId) -> Result<usize, usize> {
        let n = self.slots.len();
        let mut i = Self::home(key, n.max(2));
        for dist in 0..n {
            match &self.slots[i] {
                None => return Err(i),
                Some(s) if s.key == key => return Ok(i),
                Some(s) if i.wrapping_sub(Self::home(s.key, n)) & (n - 1) < dist => return Err(i),
                Some(_) => i = (i + 1) & (n - 1),
            }
        }
        Err(i)
    }

    fn get(&self, key: ObjectId) -> Option<&VersionChain> {
        self.slots[self.probe(key).ok()?].as_ref().map(|s| &s.chain)
    }

    /// `key`'s chain, created with only the initial version on first touch.
    fn get_or_insert(&mut self, key: ObjectId) -> &mut VersionChain {
        let i = self.probe(key).unwrap_or_else(|mut i| {
            if (self.len + 1) * 8 > self.slots.len() * 7 {
                self.grow();
                i = self.probe(key).unwrap_err();
            }
            let chain = VersionChain::new();
            self.insert_at(i, Slot { key, chain });
            i
        });
        &mut self.slots[i].as_mut().expect("an occupied slot").chain
    }

    /// Put `slot` in slot `i` and shift the run from `i` up by one.
    fn insert_at(&mut self, mut i: usize, slot: Slot) {
        let mut carried = Some(slot);
        while carried.is_some() {
            carried = std::mem::replace(&mut self.slots[i], carried);
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.len += 1;
    }

    /// Quadruple the table. Safe Rust initializes every slot of the new
    /// table, so each growth writes all of it: over a table's life,
    /// quadrupling writes 4/3 of its final size, doubling twice it (see
    /// DESIGN §19). Most keys land in their empty home slot.
    fn grow(&mut self) {
        let n = (self.slots.len() * 4).max(16);
        let old = std::mem::replace(&mut self.slots, (0..n).map(|_| None).collect());
        self.len = 0;
        for slot in old.into_iter().flatten() {
            match &mut self.slots[Self::home(slot.key, n)] {
                empty @ None => {
                    *empty = Some(slot);
                    self.len += 1;
                }
                Some(_) => {
                    let i = self.probe(slot.key).unwrap_err();
                    self.insert_at(i, slot);
                }
            }
        }
    }
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
                map: Mutex::new(ChainMap::default()),
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
        f(shard.map.lock().get_or_insert(obj))
    }

    // ---- convenience wrappers ---------------------------------------------

    /// Non-blocking snapshot read: `(version number, value)` of the
    /// largest committed version `≤ sn` (paper Figure 2). `None` means GC
    /// pruned the needed version.
    ///
    /// A read mutates nothing, so it bypasses [`with`](Self::with): one
    /// shard lock and one table probe. The newest version and the one
    /// below it are in the key's slot; an older snapshot binary-searches
    /// the chain's heap history. An object never written holds only its
    /// initial version and is not materialized.
    pub fn read_at(&self, obj: ObjectId, sn: VersionNo) -> Option<(VersionNo, Value)> {
        match self.shard(obj).map.lock().get(obj) {
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
            .get(obj)
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
            out.extend(shard.map.lock().slots.iter().flatten().map(|s| s.key));
        }
        out.sort_unstable();
        out
    }

    /// Aggregate statistics across all chains.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for shard in self.shards.iter() {
            let map = shard.map.lock();
            s.objects += map.len;
            for slot in map.slots.iter().flatten() {
                s.committed_versions += slot.chain.committed_len();
                s.payload_bytes += slot.chain.payload_bytes();
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
            for chain in map.slots.iter_mut().flatten().map(|s| &mut s.chain) {
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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

    /// How far slot `i` of a table of `n` slots lies past `key`'s home.
    fn displacement(key: ObjectId, i: usize, n: usize) -> usize {
        i.wrapping_sub(ChainMap::home(key, n)) & (n - 1)
    }

    /// Every occupied slot sits at or past its home with no empty slot
    /// in between, and each run is sorted by home: what `find`'s early
    /// stop relies on.
    fn assert_robin_hood(map: &ChainMap) {
        let n = map.slots.len();
        assert_eq!(map.slots.iter().flatten().count(), map.len);
        assert!(map.len * 8 <= n * 7);
        for (i, slot) in map.slots.iter().enumerate() {
            let Some(s) = slot else { continue };
            let d = displacement(s.key, i, n);
            for back in 1..=d {
                assert!(map.slots[(i + n - back) % n].is_some(), "gap before {i}");
            }
            if let Some(next) = &map.slots[(i + 1) % n] {
                assert!(displacement(next.key, (i + 1) % n, n) <= d + 1);
            }
        }
    }

    /// Dense, random and strided keys, with repeats.
    fn keys() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![
                0..400u64,
                any::<u64>(),
                (0..400u64).prop_map(|k| k << 12),
                (0..400u64).prop_map(|k| k << 32),
            ],
            0..1500,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table against a `BTreeMap` model over inserts, lookups,
        /// iteration and growth from empty through up to four growths.
        #[test]
        fn chain_map_matches_a_btreemap(keys in keys()) {
            let mut map = ChainMap::default();
            let mut model = BTreeMap::new();
            for (step, &k) in keys.iter().enumerate() {
                let chain = map.get_or_insert(obj(k));
                let first = *model.entry(k).or_insert(step as u64);
                prop_assert_eq!(chain.latest().value.as_u64(), (first != step as u64).then_some(first));
                chain.seed(Value::from_u64(first));
                prop_assert_eq!(map.len, model.len());
            }
            assert_robin_hood(&map);
            for (&k, &v) in &model {
                prop_assert_eq!(map.get(obj(k)).and_then(|c| c.latest().value.as_u64()), Some(v));
            }
            for k in keys.iter().map(|k| k ^ 0x5555) {
                prop_assert_eq!(map.get(obj(k)).is_some(), model.contains_key(&k));
            }
            let mut seen: Vec<u64> = map.slots.iter().flatten().map(|s| s.key.get()).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, model.keys().copied().collect::<Vec<_>>());
        }
    }

    /// Mean and max displacement of a table filled from `keys` up to
    /// its 7/8 growth point at 2^18 slots.
    fn probe_lengths(keys: &mut dyn Iterator<Item = u64>) -> (f64, usize) {
        let full = (1 << 18) / 8 * 7;
        let mut map = ChainMap::default();
        for k in keys.take(full) {
            map.get_or_insert(obj(k));
        }
        assert_eq!((map.len, map.slots.len()), (full, 1 << 18));
        assert_robin_hood(&map);
        let n = map.slots.len();
        let d: Vec<usize> = (map.slots.iter().enumerate())
            .filter_map(|(i, s)| s.as_ref().map(|s| displacement(s.key, i, n)))
            .collect();
        let mean = d.iter().sum::<usize>() as f64 / d.len() as f64;
        (mean, d.into_iter().max().unwrap())
    }

    /// Probe lengths at the growth point stay short for dense, random
    /// and strided ids. Measured: dense mean 0.14 / max 1, random 3.50 /
    /// 36, `k<<12` 0.54 / 2, `k<<32` 0.12 / 1. Robin Hood leaves the
    /// mean of linear probing (3.5 at 7/8 load) but bounds the max: plain
    /// linear probing of the same random ids reaches 424.
    #[test]
    fn probe_lengths_are_bounded_at_the_growth_point() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut random = std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        });
        let check = |name: &str, keys: &mut dyn Iterator<Item = u64>, mean_bound, max_bound| {
            let (mean, max) = probe_lengths(keys);
            assert!(mean <= mean_bound, "{name}: mean displacement {mean:.2}");
            assert!(max <= max_bound, "{name}: max displacement {max}");
        };
        check("dense", &mut (0..), 0.5, 4);
        check("random", &mut random, 4.0, 48);
        check("k<<12", &mut (0..).map(|k| k << 12), 1.0, 4);
        check("k<<32", &mut (0..).map(|k| k << 32), 0.5, 4);
    }

    /// A slot is one cache line, and the chain starts 8 bytes into it.
    #[test]
    fn slot_is_one_cache_line() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!((size_of::<Slot>(), align_of::<Slot>()), (64, 64));
        assert_eq!(size_of::<Option<Slot>>(), 64);
        assert_eq!(offset_of!(Slot, chain), 8);
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
