//! Lock manager: shared/exclusive object locks with upgrades, FIFO-less
//! compatibility granting, condition-variable waits, and waits-for-graph
//! deadlock detection.
//!
//! Lock *requesters* are identified by opaque tokens (not transaction
//! numbers — under 2PL the number does not exist until the lock point).
//! Deadlock detection is requester-dies: the transaction whose wait would
//! close a cycle receives [`LockError::Deadlock`] and is expected to
//! abort. Detection is conservative: an edge can briefly outlive the wait
//! it models (between a holder's release and the waiter's wake-up), so a
//! cycle report can occasionally be a false positive — a spurious abort,
//! never a missed deadlock.
//!
//! # Lock order
//!
//! Two kinds of mutex exist: the per-shard `table` mutexes and the global
//! `waits_for` mutex. The only permitted nesting is **`shard.table` →
//! `waits_for`** — a blocked requester records its wait edges while still
//! holding its shard. The reverse order never occurs, and no code path
//! holds two shard locks at once (`acquire`/`release` touch exactly one
//! shard; `clear_all` walks shards one at a time), so no lock-order cycle
//! is possible.
//!
//! The `waits_for` mutex is deliberately **off the uncontended path**: an
//! immediately granted request and a release of an uncontended lock touch
//! only their shard. The graph is consulted exactly when a request blocks
//! (edges set, cycle check) and updated again when the wait resolves
//! (grant, deadlock, or timeout — each clears its own edges before
//! returning), so a commit's `release_all` never needs it.

use mvcc_model::ObjectId;
use mvcc_storage::shard::ObjectMap;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; compatible with nothing.
    Exclusive,
}

/// Why a lock request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Granting would close a waits-for cycle; requester must abort.
    Deadlock,
    /// The wait exceeded its deadline.
    Timeout,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock detected"),
            LockError::Timeout => write!(f, "lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

/// Outcome details of a successful acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Whether the requester had to wait for a conflicting holder.
    pub waited: bool,
    /// Whether the shard's table mutex itself was held by another thread
    /// on entry (sharding-level contention, as opposed to a lock-mode
    /// conflict).
    pub contended: bool,
    /// The first conflicting holder observed when the request blocked
    /// (`0` when granted immediately). Attribution data, not a grant
    /// decision: the holder may have released by the time the waiter is
    /// granted, but it is the token the wait should be blamed on.
    pub blocker: u64,
    /// Nanoseconds spent blocked (`0` when granted immediately).
    /// Measured inside the manager from a clock read taken just before
    /// the first park, so a request that never parks reads no clock, and
    /// callers that want wait attribution need none of their own.
    pub waited_ns: u64,
}

#[derive(Default)]
struct LockState {
    /// Current holders. Invariant: either any number of `Shared` entries,
    /// or exactly one `Exclusive` entry.
    holders: Vec<(u64, LockMode)>,
}

impl LockState {
    /// Try to grant; returns `Err(blockers)` with the tokens standing in
    /// the way.
    fn try_grant(&mut self, token: u64, mode: LockMode) -> Result<(), Vec<u64>> {
        let mine = self.holders.iter().position(|&(t, _)| t == token);
        match mode {
            LockMode::Shared => {
                if mine.is_some() {
                    return Ok(()); // S or X already held covers S
                }
                let blockers: Vec<u64> = self
                    .holders
                    .iter()
                    .filter(|&&(t, m)| t != token && m == LockMode::Exclusive)
                    .map(|&(t, _)| t)
                    .collect();
                if blockers.is_empty() {
                    self.holders.push((token, LockMode::Shared));
                    Ok(())
                } else {
                    Err(blockers)
                }
            }
            LockMode::Exclusive => {
                if let Some(i) = mine {
                    if self.holders[i].1 == LockMode::Exclusive {
                        return Ok(());
                    }
                    // upgrade: need to be the only holder
                    if self.holders.len() == 1 {
                        self.holders[i].1 = LockMode::Exclusive;
                        return Ok(());
                    }
                    return Err(self
                        .holders
                        .iter()
                        .filter(|&&(t, _)| t != token)
                        .map(|&(t, _)| t)
                        .collect());
                }
                if self.holders.is_empty() {
                    self.holders.push((token, LockMode::Exclusive));
                    Ok(())
                } else {
                    Err(self.holders.iter().map(|&(t, _)| t).collect())
                }
            }
        }
    }

    fn release(&mut self, token: u64) -> bool {
        let before = self.holders.len();
        self.holders.retain(|&(t, _)| t != token);
        self.holders.len() != before
    }
}

struct LockShard {
    table: Mutex<ObjectMap<LockState>>,
    cv: Condvar,
}

/// Waits-for graph: `token → tokens it is waiting on`.
#[derive(Default)]
struct WaitsFor {
    edges: HashMap<u64, Vec<u64>>,
}

impl WaitsFor {
    fn set(&mut self, token: u64, blockers: Vec<u64>) {
        self.edges.insert(token, blockers);
    }

    fn clear(&mut self, token: u64) {
        self.edges.remove(&token);
    }

    /// DFS: does any path from `start`'s blockers lead back to `start`?
    fn closes_cycle(&self, start: u64) -> bool {
        let mut stack: Vec<u64> = self.edges.get(&start).cloned().unwrap_or_default();
        let mut seen: HashSet<u64> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.edges.get(&t) {
                    stack.extend_from_slice(next);
                }
            }
        }
        false
    }
}

/// The lock manager.
pub struct LockManager {
    shards: Box<[LockShard]>,
    waits_for: Mutex<WaitsFor>,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Manager with a default shard count.
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// Manager with an explicit shard count, rounded up to a power of two
    /// (min 1). One shard degenerates to a global-mutex lock table.
    pub fn with_shards(n: usize) -> Self {
        let n = mvcc_storage::shard::pow2_shards(n);
        let shards = (0..n)
            .map(|_| LockShard {
                table: Mutex::new(ObjectMap::default()),
                cv: Condvar::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockManager {
            shards,
            waits_for: Mutex::new(WaitsFor::default()),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, obj: ObjectId) -> &LockShard {
        &self.shards[mvcc_storage::shard::shard_index(obj.get(), self.shards.len())]
    }

    /// The shard index `obj` hashes to (for contention attribution: the
    /// hot-shard sketch keys on this).
    pub fn shard_of(&self, obj: ObjectId) -> u64 {
        mvcc_storage::shard::shard_index(obj.get(), self.shards.len()) as u64
    }

    /// Acquire (or upgrade to) `mode` on `obj` for `token`, blocking up to
    /// `timeout`. With `detect_deadlocks`, a wait that would close a
    /// waits-for cycle fails fast with [`LockError::Deadlock`].
    pub fn acquire(
        &self,
        token: u64,
        obj: ObjectId,
        mode: LockMode,
        timeout: Duration,
        detect_deadlocks: bool,
    ) -> Result<Acquired, LockError> {
        let shard = self.shard(obj);
        let (mut table, contended) = match shard.table.try_lock() {
            Some(g) => (g, false),
            None => (shard.table.lock(), true),
        };
        // Zero-timeout fail-fast: one grant attempt, never park (the
        // deterministic-simulation path — a conflict becomes an immediate
        // retryable timeout abort).
        if timeout.is_zero() {
            return match table.entry(obj).or_default().try_grant(token, mode) {
                Ok(()) => Ok(Acquired {
                    waited: false,
                    contended,
                    blocker: 0,
                    waited_ns: 0,
                }),
                Err(_) => Err(LockError::Timeout),
            };
        }
        // `(start, deadline)`, built at the first park: a grant that never
        // blocks reads no clock.
        let mut parked: Option<(Instant, Instant)> = None;
        let mut first_blocker = 0u64;
        loop {
            let blockers = match table.entry(obj).or_default().try_grant(token, mode) {
                Ok(()) => {
                    // Edges exist only if we blocked with detection on.
                    if parked.is_some() && detect_deadlocks {
                        self.waits_for.lock().clear(token);
                    }
                    return Ok(Acquired {
                        waited: parked.is_some(),
                        contended,
                        blocker: first_blocker,
                        waited_ns: parked.map_or(0, |(start, _)| start.elapsed().as_nanos() as u64),
                    });
                }
                Err(blockers) => blockers,
            };
            if first_blocker == 0 {
                first_blocker = blockers.first().copied().unwrap_or(0);
            }
            if detect_deadlocks {
                let mut wf = self.waits_for.lock();
                wf.set(token, blockers);
                if wf.closes_cycle(token) {
                    wf.clear(token);
                    return Err(LockError::Deadlock);
                }
            }
            let (start, deadline) = *parked.get_or_insert_with(|| {
                let start = Instant::now();
                (start, start + timeout)
            });
            if shard.cv.wait_until(&mut table, deadline).timed_out() {
                // Last-chance re-check, then a single edge cleanup for
                // either outcome.
                let granted = table.entry(obj).or_default().try_grant(token, mode).is_ok();
                if detect_deadlocks {
                    self.waits_for.lock().clear(token);
                }
                return if granted {
                    Ok(Acquired {
                        waited: true,
                        contended,
                        blocker: first_blocker,
                        waited_ns: start.elapsed().as_nanos() as u64,
                    })
                } else {
                    Err(LockError::Timeout)
                };
            }
        }
    }

    /// Release `token`'s lock on `obj` (idempotent) and wake waiters.
    ///
    /// The broadcast happens after the shard lock is dropped, so woken
    /// waiters can re-check immediately instead of piling up on a mutex
    /// the notifier still holds. Safe against lost wakeups: a waiter
    /// checks its grant and counts itself as parked under the shard lock,
    /// so it either sees this release's effect or is already counted when
    /// the notification reads the count. With nobody parked the notify is
    /// one load, no system call.
    pub fn release(&self, token: u64, obj: ObjectId) {
        let shard = self.shard(obj);
        {
            let mut table = shard.table.lock();
            if let Some(state) = table.get_mut(&obj) {
                if state.release(token) && state.holders.is_empty() {
                    table.remove(&obj);
                }
            }
        }
        shard.cv.notify_all();
    }

    /// Release every lock `token` holds on `objs`. (The caller tracks its
    /// lock set — strict 2PL needs it for the lock point anyway.)
    ///
    /// Deliberately does **not** touch the waits-for graph: every
    /// [`acquire`](Self::acquire) exit path (grant, deadlock, timeout)
    /// clears the token's own edges before returning, so by the time a
    /// transaction releases its locks it has no edges left. Skipping the
    /// graph here keeps commit/abort free of the one remaining global
    /// mutex.
    pub fn release_all<'a>(&self, token: u64, objs: impl IntoIterator<Item = &'a ObjectId>) {
        for &obj in objs {
            self.release(token, obj);
        }
        debug_assert!(
            !self.waits_for.lock().edges.contains_key(&token),
            "token {token} released its locks while holding waits-for edges"
        );
    }

    /// Drop every lock and waits-for edge (a site crash: volatile lock
    /// state vanishes). Waiters are woken so they can time out or
    /// re-acquire against the empty table.
    pub fn clear_all(&self) {
        for shard in self.shards.iter() {
            shard.table.lock().clear();
            shard.cv.notify_all();
        }
        self.waits_for.lock().edges.clear();
    }

    /// Total waits-for edges currently recorded (for tests: must be zero
    /// whenever no acquisition is blocked).
    pub fn waits_for_edges(&self) -> usize {
        self.waits_for.lock().edges.len()
    }

    /// Snapshot of the waits-for graph as `(waiter, holders)` pairs,
    /// sorted by waiter (for flight-recorder dumps: who was stuck on whom
    /// at the moment of a deadlock or reaper firing).
    pub fn waits_for_snapshot(&self) -> Vec<(u64, Vec<u64>)> {
        let wf = self.waits_for.lock();
        let mut edges: Vec<(u64, Vec<u64>)> = wf
            .edges
            .iter()
            .map(|(&waiter, holders)| (waiter, holders.clone()))
            .collect();
        edges.sort_unstable_by_key(|&(waiter, _)| waiter);
        edges
    }

    /// Objects currently holding at least one lock entry, across all
    /// shards (the `locked_objects` gauge). Takes each shard mutex
    /// briefly; intended for the background gauge collector, not hot
    /// paths.
    pub fn locked_objects(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.table.lock().len() as u64)
            .sum()
    }

    /// Shards with a non-empty lock table (the `occupied_lock_shards`
    /// gauge: how evenly lock traffic spreads across the sharded table).
    pub fn occupied_shards(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| !s.table.lock().is_empty())
            .count() as u64
    }

    /// The mode `token` currently holds on `obj`, if any (for tests).
    pub fn held_mode(&self, token: u64, obj: ObjectId) -> Option<LockMode> {
        let shard = self.shard(obj);
        let table = shard.table.lock();
        table.get(&obj).and_then(|s| {
            s.holders
                .iter()
                .find(|&&(t, _)| t == token)
                .map(|&(_, m)| m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const T: Duration = Duration::from_secs(5);

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        assert!(
            !lm.acquire(1, obj(1), LockMode::Shared, T, true)
                .unwrap()
                .waited
        );
        assert!(
            !lm.acquire(2, obj(1), LockMode::Shared, T, true)
                .unwrap()
                .waited
        );
        assert_eq!(lm.held_mode(1, obj(1)), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(2, obj(1)), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, obj(1), LockMode::Exclusive, T, true).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(2, obj(1), LockMode::Shared, T, true));
        thread::sleep(Duration::from_millis(30));
        lm.release(1, obj(1));
        let got = h.join().unwrap().unwrap();
        assert!(got.waited);
    }

    #[test]
    fn reentrant_acquisition() {
        let lm = LockManager::new();
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        lm.acquire(1, obj(1), LockMode::Exclusive, T, true).unwrap(); // upgrade
        assert_eq!(lm.held_mode(1, obj(1)), Some(LockMode::Exclusive));
        // X covers S
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        assert_eq!(lm.held_mode(1, obj(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_shared() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        lm.acquire(2, obj(1), LockMode::Shared, T, true).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(1, obj(1), LockMode::Exclusive, T, true));
        thread::sleep(Duration::from_millis(30));
        lm.release(2, obj(1));
        assert!(h.join().unwrap().unwrap().waited);
        assert_eq!(lm.held_mode(1, obj(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn timeout_when_never_released() {
        let lm = LockManager::new();
        lm.acquire(1, obj(1), LockMode::Exclusive, T, true).unwrap();
        let err = lm
            .acquire(
                2,
                obj(1),
                LockMode::Exclusive,
                Duration::from_millis(30),
                true,
            )
            .unwrap_err();
        assert_eq!(err, LockError::Timeout);
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, obj(1), LockMode::Exclusive, T, true).unwrap();
        lm.acquire(2, obj(2), LockMode::Exclusive, T, true).unwrap();
        let lm2 = Arc::clone(&lm);
        // T1 waits for obj2 (held by T2)
        let h = thread::spawn(move || {
            let r = lm2.acquire(1, obj(2), LockMode::Exclusive, T, true);
            // whichever side loses, release everything so the other side wins
            if r.is_err() {
                lm2.release_all(1, &[obj(1)]);
            }
            r
        });
        thread::sleep(Duration::from_millis(50));
        // T2 requests obj1 → closes the cycle → one side gets Deadlock
        let r2 = lm.acquire(2, obj(1), LockMode::Exclusive, T, true);
        if r2.is_err() {
            lm.release_all(2, &[obj(2)]);
        }
        let r1 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "one of the two must be the deadlock victim"
        );
        assert!(r1.is_ok() || r2.is_ok(), "only one should be victimized");
        let e = r1.err().or(r2.err()).unwrap();
        assert_eq!(e, LockError::Deadlock);
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Both hold S and both want X: classic upgrade deadlock.
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        lm.acquire(2, obj(1), LockMode::Shared, T, true).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            let r = lm2.acquire(1, obj(1), LockMode::Exclusive, T, true);
            if r.is_err() {
                lm2.release_all(1, &[obj(1)]);
            }
            r
        });
        thread::sleep(Duration::from_millis(50));
        let r2 = lm.acquire(2, obj(1), LockMode::Exclusive, T, true);
        if r2.is_err() {
            lm.release_all(2, &[obj(1)]);
        }
        let r1 = h.join().unwrap();
        assert!(r1.is_err() || r2.is_err());
        assert!(r1.is_ok() || r2.is_ok());
    }

    #[test]
    fn release_all_clears_everything() {
        let lm = LockManager::new();
        lm.acquire(1, obj(1), LockMode::Shared, T, true).unwrap();
        lm.acquire(1, obj(2), LockMode::Exclusive, T, true).unwrap();
        lm.release_all(1, &[obj(1), obj(2)]);
        assert_eq!(lm.held_mode(1, obj(1)), None);
        assert_eq!(lm.held_mode(1, obj(2)), None);
        // now immediately grantable to another txn
        assert!(
            !lm.acquire(2, obj(2), LockMode::Exclusive, T, true)
                .unwrap()
                .waited
        );
    }

    #[test]
    fn occupancy_gauges_track_table_state() {
        let lm = LockManager::with_shards(4);
        assert_eq!(lm.locked_objects(), 0);
        assert_eq!(lm.occupied_shards(), 0);
        for i in 0..8 {
            lm.acquire(1, obj(i), LockMode::Shared, T, true).unwrap();
        }
        assert_eq!(lm.locked_objects(), 8);
        let occupied = lm.occupied_shards();
        assert!((1..=4).contains(&occupied));
        lm.release_all(1, (0..8).map(obj).collect::<Vec<_>>().iter());
        assert_eq!(lm.locked_objects(), 0);
        assert_eq!(lm.occupied_shards(), 0);
    }

    #[test]
    fn waits_for_snapshot_shows_blocked_waiter() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(1, obj(1), LockMode::Exclusive, T, true).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            lm2.acquire(2, obj(1), LockMode::Exclusive, Duration::from_secs(5), true)
        });
        // Wait until the waiter's edge appears, then inspect it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = lm.waits_for_snapshot();
            if let Some((waiter, holders)) = snap.first() {
                assert_eq!(*waiter, 2);
                assert_eq!(holders.as_slice(), &[1]);
                break;
            }
            assert!(Instant::now() < deadline, "edge never appeared");
            thread::sleep(Duration::from_millis(1));
        }
        lm.release(1, obj(1));
        h.join().unwrap().unwrap();
        assert!(lm.waits_for_snapshot().is_empty());
    }

    #[test]
    fn stress_no_lost_locks() {
        let lm = Arc::new(LockManager::with_shards(4));
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for i in 0..200 {
                    let o = obj(i % 5);
                    match lm.acquire(t, o, LockMode::Exclusive, T, true) {
                        Ok(_) => {
                            *counter.lock() += 1;
                            lm.release(t, o);
                        }
                        Err(LockError::Deadlock) => { /* retry next iteration */ }
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // every grant got its critical section
        assert!(*counter.lock() > 0);
        // all locks released
        for i in 0..5 {
            assert!(
                !lm.acquire(99, obj(i), LockMode::Exclusive, T, true)
                    .unwrap()
                    .waited
            );
        }
    }
}
