//! Hot-key and hot-shard contention tables.
//!
//! [`TopKSketch`]es (see `mvcc_storage::sketch` for the space-saving
//! bounds) fed from every contention site in the engine:
//!
//! * **keys** — lock conflicts (2PL), OCC validation failures, timestamp
//!   rejections (TO), and contention-caused aborts, keyed by
//!   [`ObjectId`](mvcc_model::ObjectId); each record carries the
//!   nanoseconds the loser spent blocked on that key and whether the
//!   encounter ended in an abort.
//! * **shards** — contended lock-manager shards, keyed by shard index,
//!   so a hot shard shows up even when its heat is spread across many
//!   cool keys (the sharded-lock analog of false sharing).
//!
//! # Striping
//!
//! A space-saving record is an O(K) scan, and a single shared table
//! turns that scan into K cache misses per record once several threads
//! bump it concurrently — measured at tens of percent of engine
//! throughput on a contended 8-thread zipfian workload. So each table is striped: every
//! thread records into its own stripe (assigned once per thread from a
//! global counter, so scans stay in that core's cache), and readers
//! merge the stripes into one sketch at snapshot time. Merging sums
//! per-stripe estimates, so `estimate ≥ true` survives and the
//! overcount bound telescopes (`Σ Nᵢ/K = N/K`); a key hot in the merged
//! view was necessarily hot in some stripe, so heavy hitters still
//! can't be evicted out of sight. Single-threaded (simulated) runs use
//! exactly one stripe and keep the storage sketch's byte-for-byte
//! determinism.
//!
//! Recording is a handful of relaxed atomics on an already-slow path
//! (the caller just finished waiting or aborting); the disabled path
//! never reaches here at all — [`crate::obs::Obs::attr`] is `None`.

use mvcc_storage::{SketchEntry, TopKSketch};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripe count. Eight keeps cross-thread collisions rare at the
/// thread counts the engine targets while the merge stays trivial.
const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

fn stripe() -> usize {
    STRIPE.with(|s| *s)
}

/// A thread-striped space-saving table: records go to the calling
/// thread's stripe, reads merge all stripes. Shared by the hot-key /
/// hot-shard tables here and the blame ledger's top-blocker table.
pub(crate) struct StripedTopK {
    stripes: Box<[TopKSketch]>,
    capacity: usize,
}

impl StripedTopK {
    pub(crate) fn new(capacity: usize) -> Self {
        StripedTopK {
            stripes: (0..STRIPES).map(|_| TopKSketch::new(capacity)).collect(),
            capacity: capacity.max(1),
        }
    }

    #[inline]
    pub(crate) fn record(&self, key: u64, ns: u64, abort: bool) {
        self.stripes[stripe()].record(key, ns, abort);
    }

    /// All stripes merged into one sketch of the configured capacity.
    pub(crate) fn merged(&self) -> TopKSketch {
        let out = TopKSketch::new(self.capacity);
        for s in self.stripes.iter() {
            out.merge(s);
        }
        out
    }

    pub(crate) fn top(&self, n: usize) -> Vec<SketchEntry> {
        self.merged().top(n)
    }

    pub(crate) fn reset(&self) {
        for s in self.stripes.iter() {
            s.reset();
        }
    }
}

/// The pair of contention tables. See the module docs.
pub struct ContentionTopK {
    keys: StripedTopK,
    shards: StripedTopK,
}

impl ContentionTopK {
    /// Tables monitoring at most `key_capacity` object keys and
    /// `shard_capacity` lock shards (per stripe, and again after the
    /// snapshot-time merge).
    pub fn new(key_capacity: usize, shard_capacity: usize) -> Self {
        ContentionTopK {
            keys: StripedTopK::new(key_capacity),
            shards: StripedTopK::new(shard_capacity),
        }
    }

    /// Charge a contention encounter to `key`: `contended_ns` spent
    /// blocked on it, plus one abort when the encounter killed the
    /// transaction (validation failure, timestamp rejection, deadlock).
    pub fn record_key(&self, key: u64, contended_ns: u64, abort: bool) {
        self.keys.record(key, contended_ns, abort);
    }

    /// Charge `contended_ns` of lock waiting to lock shard `shard`.
    pub fn record_shard(&self, shard: u64, contended_ns: u64) {
        self.shards.record(shard, contended_ns, false);
    }

    /// The `n` hottest keys, by contended-ns then hits.
    pub fn hot_keys(&self, n: usize) -> Vec<SketchEntry> {
        self.keys.top(n)
    }

    /// The `n` hottest lock shards.
    pub fn hot_shards(&self, n: usize) -> Vec<SketchEntry> {
        self.shards.top(n)
    }

    /// Clear both tables (between experiment phases).
    pub fn reset(&self) {
        self.keys.reset();
        self.shards.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_shards_accumulate_independently() {
        let t = ContentionTopK::new(8, 4);
        t.record_key(7, 100, false);
        t.record_key(7, 50, true);
        t.record_shard(3, 150);
        let keys = t.hot_keys(10);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].key, 7);
        assert_eq!(keys[0].contended_ns, 150);
        assert_eq!(keys[0].aborts, 1);
        let shards = t.hot_shards(10);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].key, 3);
        assert_eq!(shards[0].aborts, 0);
        t.reset();
        assert!(t.hot_keys(10).is_empty());
        assert!(t.hot_shards(10).is_empty());
    }

    #[test]
    fn hottest_key_ranks_first() {
        let t = ContentionTopK::new(8, 4);
        for i in 0..5u64 {
            t.record_key(i, 10 * (i + 1), false);
        }
        let keys = t.hot_keys(3);
        assert_eq!(keys[0].key, 4);
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn cross_thread_records_merge_into_one_view() {
        let t = std::sync::Arc::new(ContentionTopK::new(8, 4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.record_key(5, 10, false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let keys = t.hot_keys(1);
        assert_eq!(keys[0].key, 5);
        assert_eq!(keys[0].hits, 400);
        assert_eq!(keys[0].contended_ns, 4000);
    }
}
