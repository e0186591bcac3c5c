//! The one wait path of the lock table and the pending table: spin for
//! the holder, then park (DESIGN.md §10).
//!
//! A blocked request re-polls under its shard mutex, releasing it between
//! polls, for up to [`SPIN_BUDGET`], then parks on the shard's condition
//! variable. A spinner is not counted as a condvar waiter, so a release
//! that finds only spinners makes no system call. No wake-up is lost:
//! every poll runs under the mutex the notifier changes the state under,
//! and the last failed poll and the park share one critical section, so
//! the shim `Condvar`'s argument holds unchanged.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a blocked request spins before it parks: twice a typical
/// park→wake hand-off (≈ 5 µs on a 2-vCPU host), so a spin that fails
/// burns at most two hand-offs' worth of its own CPU before it parks.
pub const SPIN_BUDGET: Duration = Duration::from_micros(10);

/// Pause between two polls, long enough for the holder to take the mutex.
const POLL_GAP: Duration = Duration::from_nanos(300);

/// Re-run `poll` on the state behind `guard` (the caller's own first poll
/// failed at `started`) until it returns `Some`, or `None` once `timeout`
/// has passed and one last poll fails. The flag tells whether it parked.
pub(crate) fn spin_then_park<'a, T, R>(
    mu: &'a Mutex<T>,
    cv: &Condvar,
    mut guard: MutexGuard<'a, T>,
    started: Instant,
    timeout: Duration,
    mut poll: impl FnMut(&mut T) -> Option<R>,
) -> (Option<R>, bool) {
    let deadline = started + timeout;
    let spin_end = deadline.min(started + SPIN_BUDGET);
    let mut parked = false;
    loop {
        let now = Instant::now();
        // Decided under the mutex, right after a failed poll.
        parked |= now >= spin_end;
        let timed_out = if parked {
            cv.wait_until(&mut guard, deadline).timed_out()
        } else {
            drop(guard);
            while Instant::now() < now + POLL_GAP {
                std::hint::spin_loop();
            }
            guard = mu.lock();
            false
        };
        if let Some(r) = poll(&mut guard) {
            return (Some(r), parked);
        }
        if timed_out {
            return (None, true);
        }
    }
}
