//! Figure 3's per-object state: pending reservations and `r-ts`, owned by
//! the protocols that need them, since the store holds committed
//! versions only. Per object: the transaction numbers with a write
//! pending on it and the `r-ts` of its newest version; per shard, a
//! condition variable that blocked requests park on after their spin
//! ([`crate::wait`]).
//! [`TimestampOrdering`](crate::TimestampOrdering) owns one, and so do
//! the Reed MVTO and Weihl TI baselines, whose read-only readers wait on
//! pending writes.
//!
//! # Correctness rules
//!
//! * **Lock order: table shard → store shard, never the reverse.** A poll
//!   may read the store under its table shard (a TO read selects its
//!   version there); installing takes only the store shard, releasing
//!   only the table shard.
//! * **A TO write reads the store's newest version number while it holds
//!   its table shard lock.** With the next rule it sees either a
//!   committing writer's reservation or its installed version, so
//!   `w-ts(x)` never misses a commit.
//! * **A reservation is dropped only after its version is installed**:
//!   [`release`](PendingTable::release) runs in `end(T)`'s release step,
//!   or on abort, when nothing is installed. A woken reader finds the
//!   version it waited for. A request waits only on an older reservation
//!   whose version the store does not hold yet
//!   ([`Reservations::oldest_in`]), as it waited on a pending version
//!   until the install promoted it.
//! * **`r-ts` is exact per object and belongs to the newest version.** An
//!   entry keeps the largest reading transaction number with the number
//!   of the version those reads selected, and a write compares it only
//!   while that version is the store's newest: installing a newer
//!   version resets `r-ts(x)` to 0.
//! * **Pruning.** An entry with no reservation and `r-ts ≤ floor` is
//!   dropped when a release or poll leaves it so, and a shard sweeps all
//!   its entries when it has doubled since its last sweep, so the table
//!   is bounded by the active window. TO's floor is `vtnc`: every
//!   transaction at or below it has finished, or was reaped and can
//!   never commit (a reaped one still running may be granted a write the
//!   pruned `r-ts` would have refused; its commit is refused as before).
//!
//! No wake-up is lost: every change a waiter polls for happens under the
//! table shard mutex it polls under, and a waiter counts itself parked
//! under that mutex (see [`crate::wait`] and the shim's `Condvar`).

use crate::wait;
use mvcc_model::ObjectId;
use mvcc_storage::shard::{shard_index, ObjectMap};
use mvcc_storage::VersionNo;
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One object's entry: the ids with a write pending on it and the `r-ts`
/// of its newest version. Ids are transaction numbers under timestamp
/// ordering (or a baseline's tokens); they are never 0.
#[derive(Default)]
pub struct Reservations {
    /// The first reservation, 0 when there is none. Under TO a second
    /// one appears only between an older writer's install and its
    /// release, so a reservation almost never allocates.
    first: u64,
    /// Further reservations (Reed's MVTO admits several).
    more: Vec<u64>,
    /// `r-ts`: the largest transaction number that read version `r_of`.
    r_ts: u64,
    /// The version the `r-ts` reads selected.
    r_of: VersionNo,
}

impl Reservations {
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        (self.first != 0)
            .then_some(self.first)
            .into_iter()
            .chain(self.more.iter().copied())
    }

    /// Whether `id` holds a reservation here.
    pub fn holds(&self, id: u64) -> bool {
        self.ids().any(|r| r == id)
    }

    /// Whether any write is pending here.
    pub fn any(&self) -> bool {
        self.first != 0
    }

    /// The oldest reservation `r` with `installed < r < bound`: a write by
    /// a transaction older than `bound` whose version is not in the store
    /// yet, when the store's version at `bound` is numbered `installed`.
    /// It is what blocks a read or write by `bound`, and whom that wait
    /// is blamed on.
    pub fn oldest_in(&self, installed: VersionNo, bound: u64) -> Option<u64> {
        self.ids().filter(|&r| installed < r && r < bound).min()
    }

    /// The largest reservation, 0 when there is none: a granted write has
    /// already claimed its slot in `w-ts(x)`.
    pub fn newest(&self) -> u64 {
        self.ids().max().unwrap_or(0)
    }

    /// Reserve for `id` (idempotent).
    pub fn reserve(&mut self, id: u64) {
        debug_assert!(id != 0, "reservation ids are never 0");
        if self.first == 0 {
            self.first = id;
        } else if !self.holds(id) {
            self.more.push(id);
        }
    }

    /// Drop `id`'s reservation, if it holds one.
    fn unreserve(&mut self, id: u64) {
        if self.first == id {
            self.first = self.more.pop().unwrap_or(0);
        } else {
            self.more.retain(|&r| r != id);
        }
    }

    /// Record that transaction `ts` read version `version`:
    /// `r-ts(x) ← MAX(r-ts(x), ts)` when `version` is the newest read so
    /// far. A read of an older version cannot constrain any write, since
    /// a newer version already exists.
    pub fn mark_read(&mut self, version: VersionNo, ts: u64) {
        if version > self.r_of {
            (self.r_ts, self.r_of) = (ts, version);
        } else if version == self.r_of {
            self.r_ts = self.r_ts.max(ts);
        }
    }

    /// `r-ts(x)` when the store's newest version of `x` is `newest`: 0
    /// once a version newer than the one the reads selected is installed.
    pub fn read_ts(&self, newest: VersionNo) -> u64 {
        if self.r_of == newest {
            self.r_ts
        } else {
            0
        }
    }

    fn prunable(&self, floor: u64) -> bool {
        self.first == 0 && self.r_ts <= floor
    }
}

/// A shard grows to at least this many entries before it sweeps.
const MIN_SWEEP: usize = 32;

#[derive(Default)]
struct Entries {
    map: ObjectMap<Reservations>,
    /// Entry count at which inserting one more sweeps prunable entries.
    sweep_at: usize,
}

impl Entries {
    /// `obj`'s entry, inserted if absent. An insertion into a shard that
    /// has reached `sweep_at` first drops every prunable entry.
    fn entry(&mut self, obj: ObjectId, floor: u64) -> &mut Reservations {
        if self.map.len() >= self.sweep_at.max(MIN_SWEEP) && !self.map.contains_key(&obj) {
            self.map.retain(|_, e| !e.prunable(floor));
            self.sweep_at = 2 * self.map.len();
        }
        self.map.entry(obj).or_default()
    }
}

/// One cache line per shard, like the store's.
#[repr(align(64))]
struct TableShard {
    entries: Mutex<Entries>,
    cv: Condvar,
}

/// Sharded map of object → [`Reservations`], with a condition variable
/// per shard.
pub struct PendingTable {
    shards: Box<[TableShard]>,
}

/// Shard count, the lock table's default.
const SHARDS: usize = 64;

impl Default for PendingTable {
    fn default() -> Self {
        let shards = (0..SHARDS)
            .map(|_| TableShard {
                entries: Mutex::new(Entries::default()),
                cv: Condvar::new(),
            })
            .collect();
        PendingTable { shards }
    }
}

impl PendingTable {
    fn shard(&self, obj: ObjectId) -> &TableShard {
        &self.shards[shard_index(obj.get(), SHARDS)]
    }

    /// Repeatedly run `f` on `obj`'s entry until it returns `Some`,
    /// spinning and then sleeping on the shard's condition variable
    /// between polls ([`crate::wait`]); `None` when `timeout` passes
    /// first. The flag tells whether the wait parked. Wakes on any
    /// [`release`](Self::release) in the same shard. `floor` is the
    /// pruning floor (see the module docs).
    pub fn wait_until<R>(
        &self,
        obj: ObjectId,
        floor: u64,
        timeout: Duration,
        mut f: impl FnMut(&mut Reservations) -> Option<R>,
    ) -> (Option<R>, bool) {
        let shard = self.shard(obj);
        let mut poll = |entries: &mut Entries| {
            let e = entries.entry(obj, floor);
            let outcome = f(e);
            if e.prunable(floor) {
                entries.map.remove(&obj);
            }
            outcome
        };
        let mut entries = shard.entries.lock();
        if let Some(r) = poll(&mut entries) {
            return (Some(r), false);
        }
        // Zero-timeout fail-fast: never spin or park. Deterministic
        // simulation configures every wait bound as zero so virtual
        // deadlines are never handed to a real condvar.
        if timeout.is_zero() {
            return (None, false);
        }
        // Only a wait that blocks reads the clock.
        wait::spin_then_park(
            &shard.entries,
            &shard.cv,
            entries,
            Instant::now(),
            timeout,
            poll,
        )
    }

    /// Reserve `obj` for `id` without a check or a wait (a baseline whose
    /// exclusive lock already decided the write).
    pub fn reserve(&self, obj: ObjectId, id: u64) {
        self.shard(obj).entries.lock().entry(obj, 0).reserve(id);
    }

    /// Drop `id`'s reservation on `obj` (idempotent), prune the entry if
    /// it is prunable below `floor`, and wake the shard's waiters. With
    /// nobody parked the wake-up is one load, no system call.
    pub fn release(&self, obj: ObjectId, id: u64, floor: u64) {
        let shard = self.shard(obj);
        {
            let mut entries = shard.entries.lock();
            if let Some(e) = entries.map.get_mut(&obj) {
                e.unreserve(id);
                if e.prunable(floor) {
                    entries.map.remove(&obj);
                }
            }
        }
        shard.cv.notify_all();
    }

    /// Entries currently held, across all shards.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().map.len()).sum()
    }

    /// Reservations currently held, across all shards (the
    /// `pending_versions` gauge). Takes each shard mutex briefly; meant
    /// for the gauge collector, not hot paths.
    pub fn reservations(&self) -> u64 {
        let count = |s: &TableShard| -> usize {
            s.entries.lock().map.values().map(|e| e.ids().count()).sum()
        };
        self.shards.iter().map(count).sum::<usize>() as u64
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
    fn wait_until_ready_immediately() {
        let t = PendingTable::default();
        let r = t.wait_until(obj(1), 0, Duration::from_millis(10), |e| Some(e.any()));
        assert_eq!(r, (Some(false), false));
        assert_eq!(t.entries(), 0, "an idle poll leaves no entry");
    }

    #[test]
    fn wait_until_times_out() {
        let t = PendingTable::default();
        let r = t.wait_until::<()>(obj(1), 0, Duration::from_millis(20), |_| None);
        assert_eq!(r, (None, true));
        assert_eq!(
            t.wait_until::<()>(obj(1), 0, Duration::ZERO, |_| None),
            (None, false),
            "a zero timeout neither spins nor parks"
        );
    }

    #[test]
    fn wait_until_wakes_on_release() {
        let t = Arc::new(PendingTable::default());
        t.reserve(obj(7), 3);
        let t2 = Arc::clone(&t);
        let waiter = thread::spawn(move || {
            t2.wait_until(obj(7), 0, Duration::from_secs(5), |e| {
                match e.oldest_in(0, 5) {
                    Some(_) => None,
                    None => Some(e.any()),
                }
            })
        });
        thread::sleep(Duration::from_millis(20));
        t.release(obj(7), 3, 0);
        assert_eq!(waiter.join().unwrap(), (Some(false), true));
        assert_eq!(t.reservations(), 0);
    }

    #[test]
    fn read_ts_resets_when_a_newer_version_is_installed() {
        let mut e = Reservations::default();
        e.mark_read(4, 9);
        e.mark_read(4, 7); // MAX semantics
        assert_eq!(e.read_ts(4), 9);
        e.mark_read(2, 12); // an older version: constrains no write
        assert_eq!(e.read_ts(4), 9);
        assert_eq!(e.read_ts(6), 0, "version 6 was installed: r-ts resets");
        e.mark_read(6, 11);
        assert_eq!(e.read_ts(6), 11);
    }

    #[test]
    fn several_reservations_release_in_any_order() {
        let mut e = Reservations::default();
        for id in [5, 3, 8, 3] {
            e.reserve(id);
        }
        assert_eq!(
            (e.ids().count(), e.newest(), e.oldest_in(0, 6)),
            (3, 8, Some(3))
        );
        assert_eq!(
            (e.oldest_in(3, 6), e.oldest_in(5, 8), e.oldest_in(5, 9)),
            (Some(5), None, Some(8))
        );
        e.unreserve(5);
        e.unreserve(5);
        assert_eq!((e.ids().count(), e.oldest_in(0, 9)), (2, Some(3)));
        e.unreserve(3);
        assert!(e.holds(8) && !e.holds(3));
        e.unreserve(8);
        assert!(!e.any() && e.prunable(0));
    }

    /// No two shards share a cache line.
    #[test]
    fn shards_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<TableShard>(), 64);
        assert_eq!(std::mem::size_of::<TableShard>() % 64, 0);
    }
}
