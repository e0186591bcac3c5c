//! Hot-key and hot-shard contention tables.
//!
//! Two [`SpaceSaving`] tables fed from every contention site in the
//! engine:
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
//! Each table sits behind one leaf `Mutex`: a record locks it, scans at
//! most `K` entries and unlocks, acquiring nothing else. Records come
//! from already-slow paths (the caller just finished waiting or
//! aborting); the disabled path never reaches here at all —
//! [`crate::obs::Obs::attr`] is `None`.

use parking_lot::Mutex;

/// One surfaced key with its accumulated tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchEntry {
    /// The recorded key (object id, lock shard, blocker token, …).
    pub key: u64,
    /// Estimated record count (see [`SpaceSaving`] for the bounds).
    pub hits: u64,
    /// Total contended nanoseconds attributed to this key since it last
    /// entered the table.
    pub contended_ns: u64,
    /// Aborts attributed to this key since it last entered the table.
    pub aborts: u64,
}

/// A space-saving top-K table (Metwally et al., "Efficient computation
/// of frequent and top-k elements in data streams"): at most `K`
/// monitored keys, O(K) record, fixed memory.
///
/// For every key, with `N` recorded hits and capacity `K`:
///
/// * **no undercount** — `estimate(k) ≥ true_count(k)` while monitored;
/// * **bounded overcount** — `estimate(k) ≤ true_count(k) + N/K`;
/// * **heavy hitters survive** — any key with `true_count(k) > N/K` is
///   monitored.
///
/// A new key evicts the entry with the fewest hits and inherits that
/// hit count (what the bounds rest on), but restarts the contended-ns and
/// abort tallies, so time never migrates across unrelated keys. Ties go
/// to the earliest entry, so the same input stream always yields the
/// same table.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    entries: Vec<SketchEntry>,
    capacity: usize,
    total_hits: u64,
}

impl SpaceSaving {
    /// A table monitoring at most `capacity` keys (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            entries: Vec::with_capacity(capacity),
            capacity,
            total_hits: 0,
        }
    }

    /// Monitored-key capacity (the `K` of the error bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hits recorded since creation or the last [`reset`](Self::reset)
    /// (the `N` of the error bound).
    pub fn total_hits(&self) -> u64 {
        self.total_hits
    }

    /// Record one occurrence of `key` carrying `ns` contended
    /// nanoseconds; `abort` additionally charges one abort to the key.
    pub fn record(&mut self, key: u64, ns: u64, abort: bool) {
        self.total_hits += 1;
        let aborts = u64::from(abort);
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.hits += 1;
            e.contended_ns += ns;
            e.aborts += aborts;
        } else if self.entries.len() < self.capacity {
            self.entries.push(SketchEntry {
                key,
                hits: 1,
                contended_ns: ns,
                aborts,
            });
        } else if let Some(min) = self.entries.iter_mut().min_by_key(|e| e.hits) {
            *min = SketchEntry {
                key,
                hits: min.hits + 1,
                contended_ns: ns,
                aborts,
            };
        }
    }

    /// Current estimate for `key`, if monitored.
    pub fn estimate(&self, key: u64) -> Option<u64> {
        self.entries.iter().find(|e| e.key == key).map(|e| e.hits)
    }

    /// The `n` hottest entries: by contended-ns, then hits, then key — a
    /// total order, so identical contents always list identically.
    pub fn top(&self, n: usize) -> Vec<SketchEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| {
            b.contended_ns
                .cmp(&a.contended_ns)
                .then(b.hits.cmp(&a.hits))
                .then(a.key.cmp(&b.key))
        });
        out.truncate(n);
        out
    }

    /// Reset to empty (between experiment phases).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.total_hits = 0;
    }
}

/// The pair of contention tables. See the module docs.
pub struct ContentionTopK {
    keys: Mutex<SpaceSaving>,
    shards: Mutex<SpaceSaving>,
}

impl ContentionTopK {
    /// Tables monitoring at most `key_capacity` object keys and
    /// `shard_capacity` lock shards.
    pub fn new(key_capacity: usize, shard_capacity: usize) -> Self {
        ContentionTopK {
            keys: Mutex::new(SpaceSaving::new(key_capacity)),
            shards: Mutex::new(SpaceSaving::new(shard_capacity)),
        }
    }

    /// Charge a contention encounter to `key`: `contended_ns` spent
    /// blocked on it, plus one abort when the encounter killed the
    /// transaction (validation failure, timestamp rejection, deadlock).
    pub fn record_key(&self, key: u64, contended_ns: u64, abort: bool) {
        self.keys.lock().record(key, contended_ns, abort);
    }

    /// Charge `contended_ns` of lock waiting to lock shard `shard`.
    pub fn record_shard(&self, shard: u64, contended_ns: u64) {
        self.shards.lock().record(shard, contended_ns, false);
    }

    /// The `n` hottest keys, by contended-ns then hits.
    pub fn hot_keys(&self, n: usize) -> Vec<SketchEntry> {
        self.keys.lock().top(n)
    }

    /// The `n` hottest lock shards.
    pub fn hot_shards(&self, n: usize) -> Vec<SketchEntry> {
        self.shards.lock().top(n)
    }

    /// Clear both tables (between experiment phases).
    pub fn reset(&self) {
        self.keys.lock().reset();
        self.shards.lock().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_surfaces_tallies() {
        let mut s = SpaceSaving::new(4);
        s.record(7, 100, false);
        s.record(7, 50, true);
        s.record(9, 10, false);
        let top = s.top(usize::MAX);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].key, 7);
        assert_eq!(top[0].hits, 2);
        assert_eq!(top[0].contended_ns, 150);
        assert_eq!(top[0].aborts, 1);
        assert_eq!(top[1].key, 9);
        assert_eq!(s.total_hits(), 3);
        assert_eq!(s.estimate(7), Some(2));
        assert_eq!(s.estimate(42), None);
    }

    #[test]
    fn eviction_inherits_hits_but_not_time() {
        let mut s = SpaceSaving::new(2);
        for _ in 0..5 {
            s.record(1, 10, false);
        }
        s.record(2, 10, false);
        // Key 3 evicts the minimum (key 2, 1 hit): inherits its hit
        // count (+1) but starts its own ns/abort tallies.
        s.record(3, 77, true);
        let top = s.top(usize::MAX);
        let three = top.iter().find(|e| e.key == 3).expect("3 monitored");
        assert_eq!(three.hits, 2, "inherited min + own");
        assert_eq!(three.contended_ns, 77, "time does not migrate");
        assert_eq!(three.aborts, 1);
        assert!(s.estimate(2).is_none(), "min was evicted");
        s.reset();
        assert!(s.top(usize::MAX).is_empty());
        assert_eq!(s.total_hits(), 0);
    }

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
    fn concurrent_records_are_all_counted() {
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
