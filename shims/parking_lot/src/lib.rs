//! Minimal std-backed stand-in for the `parking_lot` crate.
//!
//! This workspace builds in a fully offline container with an empty cargo
//! registry, so external crates are vendored as thin shims (see
//! `shims/README.md`). Only the API surface the workspace actually uses is
//! provided: `Mutex` (non-poisoning `lock`), `Condvar` with
//! `wait`/`wait_until`/`wait_for` taking `&mut MutexGuard` and upstream's
//! notify-with-no-waiter fast path, and a small `RwLock`. Poisoning is
//! swallowed (parking_lot has no poisoning).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive, API-compatible with `parking_lot::Mutex`
/// for the operations used here. Lock poisoning is ignored.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`]. Wraps the std guard in an `Option` so a
/// condvar wait can temporarily take ownership through `&mut`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// Result of a timed condvar wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with `parking_lot::Condvar` for the
/// operations used here (`&mut MutexGuard` instead of guard-by-value).
///
/// Like the real crate, it counts its parked waiters, so a notify with
/// nobody parked is one load and no system call (`std`'s `notify_*`
/// always enters the kernel).
///
/// # No lost wake-ups
///
/// A waiter increments `waiters` while it still holds the mutex, just
/// before the std wait releases it, and decrements it after the wait
/// returns with the mutex held again (notify, timeout and spurious
/// wake-ups alike). A notifier changes the waited-on state under that
/// same mutex, then reads the count (inside or after its critical
/// section). If its critical section comes after the waiter's condition
/// check, the waiter's increment happens-before the notifier's read,
/// through the mutex, so the notify is forwarded. If it comes before,
/// the waiter's check sees the change and never parks. `Relaxed` is
/// enough: the mutex supplies the happens-before edge.
///
/// Every notify site in the workspace keeps that rule — each changes its
/// condition under the mutex its waiter holds:
///
/// - `cc::lock` `LockManager::release` and `clear_all`: the lock table,
///   under the shard's `table` mutex;
/// - `cc::pending` `PendingTable::release`: the reservations, under the
///   shard's `entries` mutex (every reservation change goes through it);
/// - `core::vc` `VersionControl::notify_visible`: `vtnc` is stored
///   before the notifier takes `visible_mu`, and the waiter loads it
///   under `visible_mu`. The notify is also gated one level up: the
///   advancing critical section reads a waiter count that
///   `wait_visible` keeps under the `inner` mutex, counting itself
///   before its first `vtnc` check, so an advance either sees the count
///   or happens-before that check;
/// - `dist::vc` `DistVc::advance` (from `drain` and `resume`): `vtnc`
///   is stored before the notifier takes `visible_mu`, and the notify is
///   gated on a waiter count kept under the site's `inner` mutex, as in
///   `core::vc`.
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads parked (or about to park) in a wait on this condvar. On
    /// Linux std's condvar is one 4-byte futex word; a `u32` count packs
    /// beside it, so the condvar stays 8 bytes and the per-shard structs
    /// embedding one do not grow.
    waiters: AtomicU32,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicU32::new(0),
        }
    }

    /// Wake one parked thread. Returns whether a thread was waiting.
    pub fn notify_one(&self) -> bool {
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.inner.notify_one();
        true
    }

    /// Wake every parked thread. Returns how many were waiting.
    pub fn notify_all(&self) -> usize {
        let n = self.waiters.load(Ordering::Relaxed);
        if n > 0 {
            self.inner.notify_all();
        }
        n as usize
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(g);
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Instant,
    ) -> WaitTimeoutResult {
        let dur = timeout.saturating_duration_since(Instant::now());
        self.wait_for(guard, dur)
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard taken during wait");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (g, timed_out) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r.timed_out())
            }
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(g);
        WaitTimeoutResult(timed_out)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

/// Reader-writer lock, non-poisoning like `parking_lot::RwLock`.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(5));
        assert!(r.timed_out());
        drop(g);
    }

    #[test]
    fn condvar_wakes() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            *m2.lock() = true;
            cv2.notify_all();
        });
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !*g {
            assert!(!cv.wait_until(&mut g, deadline).timed_out());
        }
        drop(g);
        h.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn condvar_stays_eight_bytes() {
        assert_eq!(std::mem::size_of::<Condvar>(), 8);
    }

    #[test]
    fn notify_without_waiters_reports_none() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    #[test]
    fn notify_all_counts_and_wakes_a_parked_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !*g {
                assert!(!cv2.wait_until(&mut g, deadline).timed_out());
            }
        });
        // The waiter counts itself under the mutex before parking, so
        // once the count reads 1, taking the mutex means it is parked (or
        // woke spuriously and is blocked re-acquiring, still counted).
        let deadline = Instant::now() + Duration::from_secs(10);
        while cv.waiters.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "waiter never parked");
            std::thread::yield_now();
        }
        let mut g = m.lock();
        *g = true;
        assert_eq!(cv.notify_all(), 1);
        drop(g);
        h.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn timed_out_waiter_leaves_no_count() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert!(cv
            .wait_until(&mut g, Instant::now() + Duration::from_millis(5))
            .timed_out());
        drop(g);
        assert_eq!(cv.waiters.load(Ordering::Relaxed), 0);
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }
}
