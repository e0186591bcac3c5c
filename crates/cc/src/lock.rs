//! Lock manager: shared/exclusive object locks with upgrades, FIFO-less
//! compatibility granting, spin-then-park waits ([`crate::wait`]), and
//! waits-for-graph deadlock detection.
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
//! (edges set, cycle check), again only when a later poll finds other
//! blockers, and when the wait resolves (grant, deadlock, or timeout —
//! each clears its own edges before returning), so a commit's
//! `release_all` never needs it.

use crate::wait;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acquired {
    /// Whether the requester did not hold the object before: `false` for
    /// a re-entrant grant or an upgrade. A caller that tracks its lock
    /// set adds the object exactly when this is set.
    pub fresh: bool,
    /// Whether the requester had to wait for a conflicting holder.
    pub waited: bool,
    /// Whether that wait outlasted its spin and parked on the condvar.
    pub parked: bool,
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
    /// Measured inside the manager from a clock read taken at the first
    /// failed grant, so a request granted at once reads no clock, and
    /// callers that want wait attribution need none of their own.
    pub waited_ns: u64,
}

/// The holders of one locked object. Invariant: either any number of
/// `Shared` holders, or exactly one `Exclusive` one.
///
/// The first holder lives inline, so granting a free object allocates
/// nothing; only a second concurrent `Shared` holder spills to `more`.
#[derive(Default)]
struct LockState {
    /// The first holder; `None` only while the object is unlocked.
    first: Option<(u64, LockMode)>,
    /// Further holders, all `Shared` beside a `Shared` first.
    more: Vec<u64>,
}

impl LockState {
    /// The mode `token` holds, if any.
    fn mode_of(&self, token: u64) -> Option<LockMode> {
        match self.first {
            Some((t, m)) if t == token => Some(m),
            _ if self.more.contains(&token) => Some(LockMode::Shared),
            _ => None,
        }
    }

    /// Try to grant: `Some(true)` for a fresh grant, `Some(false)` when
    /// `token` already held the object (a re-entrant grant or an
    /// upgrade), `None` when [`blockers`](Self::blockers) stand in the way.
    fn grant(&mut self, token: u64, mode: LockMode) -> Option<bool> {
        let Some((_, first_mode)) = self.first else {
            self.first = Some((token, mode));
            return Some(true);
        };
        match (mode, self.mode_of(token)) {
            // S or X already held covers S; X covers X.
            (LockMode::Shared, Some(_)) | (LockMode::Exclusive, Some(LockMode::Exclusive)) => {
                Some(false)
            }
            (LockMode::Shared, None) if first_mode == LockMode::Shared => {
                self.more.push(token);
                Some(true)
            }
            // Upgrade: the sole holder may.
            (LockMode::Exclusive, Some(LockMode::Shared)) if self.more.is_empty() => {
                self.first = Some((token, LockMode::Exclusive));
                Some(false)
            }
            _ => None,
        }
    }

    /// The holders a refused [`grant`](Self::grant) waits for: every
    /// holder but `token`. A refused `Shared` request meets one
    /// `Exclusive` holder, a refused `Exclusive` one every other holder.
    /// Lazy, so a poll that finds the same blockers allocates nothing.
    fn blockers(&self, token: u64) -> impl Iterator<Item = u64> + Clone + '_ {
        let first = self.first.map(|(t, _)| t);
        first
            .into_iter()
            .chain(self.more.iter().copied())
            .filter(move |&t| t != token)
    }

    /// Drop `token`'s hold; whether it held the object.
    fn release(&mut self, token: u64) -> bool {
        if self.first.is_some_and(|(t, _)| t == token) {
            // Only `Shared` holders sit in `more`, so a remaining one
            // takes the inline slot as `Shared`.
            self.first = self.more.pop().map(|t| (t, LockMode::Shared));
            return true;
        }
        match self.more.iter().position(|&t| t == token) {
            Some(i) => {
                self.more.swap_remove(i);
                true
            }
            None => false,
        }
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
        let state = table.entry(obj).or_default();
        if let Some(fresh) = state.grant(token, mode) {
            return Ok(Acquired {
                fresh,
                contended,
                ..Acquired::default()
            });
        }
        // Zero-timeout fail-fast: one grant attempt, never spin or park
        // (the deterministic-simulation path — a conflict becomes an
        // immediate retryable timeout abort).
        if timeout.is_zero() {
            return Err(LockError::Timeout);
        }
        let blocker = state.blockers(token).next().unwrap_or(0);
        let mut edges = detect_deadlocks.then(Vec::new);
        self.wait_on(token, state.blockers(token), &mut edges)?;
        // A grant that never blocks reads no clock.
        let started = Instant::now();
        let (got, parked) =
            wait::spin_then_park(&shard.table, &shard.cv, table, started, timeout, |table| {
                let state = table.entry(obj).or_default();
                match state.grant(token, mode) {
                    // Drop the edges while the shard is held: a stale one
                    // would let the holder's next request close a false cycle.
                    Some(fresh) => Some(self.wait_on(token, None, &mut edges).map(|()| fresh)),
                    None => self
                        .wait_on(token, state.blockers(token), &mut edges)
                        .err()
                        .map(Err),
                }
            });
        if got.is_none() {
            self.wait_on(token, None, &mut edges)?;
        }
        Ok(Acquired {
            fresh: got.unwrap_or(Err(LockError::Timeout))?,
            waited: true,
            parked,
            contended,
            blocker,
            waited_ns: started.elapsed().as_nanos() as u64,
        })
    }

    /// Point `token`'s waits-for edges at `blockers` (none: drop them)
    /// unless `edges`, the ones last written, already match; `None` when
    /// detection is off. [`LockError::Deadlock`], with the edges dropped,
    /// when the new ones close a cycle. A poll that finds the blockers it
    /// recorded compares them in place: no allocation, no graph mutex.
    fn wait_on(
        &self,
        token: u64,
        blockers: impl IntoIterator<Item = u64, IntoIter: Clone>,
        edges: &mut Option<Vec<u64>>,
    ) -> Result<(), LockError> {
        let blockers = blockers.into_iter();
        let Some(edges) = edges
            .as_mut()
            .filter(|e| !e.iter().copied().eq(blockers.clone()))
        else {
            return Ok(());
        };
        edges.clear();
        edges.extend(blockers);
        let mut wf = self.waits_for.lock();
        if edges.is_empty() {
            wf.clear(token);
        } else {
            wf.set(token, edges.clone());
        }
        if wf.closes_cycle(token) {
            wf.clear(token);
            edges.clear();
            return Err(LockError::Deadlock);
        }
        Ok(())
    }

    /// Release `token`'s lock on `obj` (idempotent) and wake waiters;
    /// returns how many were parked.
    ///
    /// The broadcast happens after the shard lock is dropped, so woken
    /// waiters can re-check immediately instead of piling up on a mutex
    /// the notifier still holds. Safe against lost wakeups: a waiter
    /// checks its grant and counts itself as parked under the shard lock,
    /// so it either sees this release's effect or is already counted when
    /// the notification reads the count. With nobody parked (spinners do
    /// not count) the notify is one load, no system call.
    pub fn release(&self, token: u64, obj: ObjectId) -> usize {
        let shard = self.shard(obj);
        {
            let mut table = shard.table.lock();
            if let Some(state) = table.get_mut(&obj) {
                if state.release(token) && state.first.is_none() {
                    table.remove(&obj);
                }
            }
        }
        shard.cv.notify_all()
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
        table.get(&obj).and_then(|s| s.mode_of(token))
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

    impl LockState {
        /// [`grant`](Self::grant) with the refusal's blockers collected,
        /// the shape the model check compares against.
        fn try_grant(&mut self, token: u64, mode: LockMode) -> Result<bool, Vec<u64>> {
            self.grant(token, mode)
                .ok_or_else(|| self.blockers(token).collect())
        }
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

    /// A conflict released inside the spin budget is granted without a
    /// park, and its release finds nobody parked to wake.
    #[test]
    fn a_release_inside_the_spin_budget_wakes_nobody() {
        let lm = Arc::new(LockManager::new());
        let o = obj(1);
        // A waiter descheduled past its budget parks instead; retry.
        for _ in 0..100 {
            lm.acquire(1, o, LockMode::Exclusive, T, true).unwrap();
            let lm2 = Arc::clone(&lm);
            let h = thread::spawn(move || lm2.acquire(2, o, LockMode::Exclusive, T, true));
            while lm.waits_for_edges() == 0 {
                std::hint::spin_loop();
            }
            let woken = lm.release(1, o);
            let a = h.join().unwrap().unwrap();
            lm.release(2, o);
            assert!(a.waited);
            if woken == 0 {
                assert!(!a.parked, "a grant no notify woke parked");
                return;
            }
            assert!(a.parked);
        }
        panic!("no release landed inside the waiter's spin in 100 tries");
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
    fn releasing_the_inline_holder_keeps_the_others() {
        let lm = LockManager::new();
        let o = obj(1);
        for t in 1..=3 {
            assert!(lm.acquire(t, o, LockMode::Shared, T, true).unwrap().fresh);
        }
        lm.release(1, o);
        assert_eq!(lm.held_mode(1, o), None);
        assert_eq!(lm.held_mode(2, o), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(3, o), Some(LockMode::Shared));
        let err = lm.acquire(2, o, LockMode::Exclusive, Duration::ZERO, true);
        assert_eq!(err, Err(LockError::Timeout));
        lm.release(3, o);
        let up = lm.acquire(2, o, LockMode::Exclusive, T, true).unwrap();
        assert!(!up.fresh && !up.waited);
        assert_eq!(lm.held_mode(2, o), Some(LockMode::Exclusive));
        lm.release(2, o);
        assert_eq!(lm.locked_objects(), 0);
    }

    /// Reference model of one object's lock: its holders, in grant order.
    type Holders = Vec<(u64, LockMode)>;

    /// The model's answer to `token` requesting `mode`, applied to `h`:
    /// `Ok(fresh)`, or the blockers, sorted.
    fn model_grant(h: &mut Holders, token: u64, mode: LockMode) -> Result<bool, Vec<u64>> {
        let mine = h.iter().position(|&(t, _)| t == token);
        if let Some(i) = mine {
            if mode == LockMode::Shared || h[i].1 == LockMode::Exclusive {
                return Ok(false);
            }
        }
        let mut blockers: Vec<u64> = h
            .iter()
            .filter(|&&(t, m)| {
                t != token && (mode == LockMode::Exclusive || m == LockMode::Exclusive)
            })
            .map(|&(t, _)| t)
            .collect();
        if !blockers.is_empty() {
            blockers.sort_unstable();
            return Err(blockers);
        }
        match mine {
            Some(i) => {
                h[i].1 = mode;
                Ok(false)
            }
            None => {
                h.push((token, mode));
                Ok(true)
            }
        }
    }

    const OBJECTS: u64 = 3;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random acquire / upgrade / release sequences by 1–4 tokens on
        /// a few objects, against a plain holder list per object. After
        /// every step the manager's grant decision (or blocker set),
        /// `held_mode`, `locked_objects` and `occupied_shards` agree with
        /// the model — whichever holder sits inline.
        #[test]
        fn lock_table_matches_holder_list_model(
            tokens in 1u64..=4,
            steps in proptest::collection::vec((0u64..4, 0..OBJECTS, 0u8..3), 1..80),
        ) {
            let lm = LockManager::with_shards(2);
            let mut model: Vec<Holders> = vec![Vec::new(); OBJECTS as usize];
            for (t, o, op) in steps {
                let token = 1 + t % tokens;
                let o = obj(o);
                let h = &mut model[o.get() as usize];
                if op == 2 {
                    lm.release(token, o);
                    h.retain(|&(t, _)| t != token);
                } else {
                    let mode = if op == 0 { LockMode::Shared } else { LockMode::Exclusive };
                    let want = model_grant(h, token, mode);
                    let got = lm.acquire(token, o, mode, Duration::ZERO, true);
                    match &want {
                        Ok(fresh) => proptest::prop_assert_eq!(got.map(|a| a.fresh), Ok(*fresh)),
                        Err(_) => {
                            proptest::prop_assert_eq!(got, Err(LockError::Timeout));
                            // A denied grant changes nothing, so asking the
                            // table again yields the blockers themselves.
                            let again = lm.shard(o).table.lock().get_mut(&o)
                                .map(|s| s.try_grant(token, mode))
                                .map(|r| r.map_err(|mut b| { b.sort_unstable(); b }));
                            proptest::prop_assert_eq!(again, Some(want.clone()));
                        }
                    }
                }
                for (i, h) in model.iter().enumerate() {
                    for token in 1..=4 {
                        let want = h.iter().find(|&&(t, _)| t == token).map(|&(_, m)| m);
                        proptest::prop_assert_eq!(lm.held_mode(token, obj(i as u64)), want);
                    }
                }
                let mut shards: Vec<u64> = (0..OBJECTS)
                    .filter(|&i| !model[i as usize].is_empty())
                    .map(|i| lm.shard_of(obj(i)))
                    .collect();
                proptest::prop_assert_eq!(lm.locked_objects(), shards.len() as u64);
                shards.sort_unstable();
                shards.dedup();
                proptest::prop_assert_eq!(lm.occupied_shards(), shards.len() as u64);
            }
        }
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
