//! The `VersionControl` module — paper Figure 1, thread-safe.
//!
//! Two counters and (logically) a queue:
//!
//! * `tnc` (*transaction number counter*) — the next number to hand out.
//!   **Transaction Ordering Property**: at all times `tnc` is the smallest
//!   number such that every unassigned or future transaction `T` will get
//!   `tn(T) ≥ tnc`.
//! * `vtnc` (*visible transaction number counter*) — controls what
//!   read-only transactions may see. **Transaction Visibility Property**:
//!   at all times `vtnc` is the largest number such that every transaction
//!   `T` with `tn(T) ≤ vtnc` has completed.
//! * `VCQueue` — registered transactions that are still active or waiting
//!   for an older transaction to complete.
//!
//! The paper additionally requires `vtnc < tnc` at all times. Counters
//! start at `vtnc = 0` (the initializing pseudo-transaction `T_0` has
//! completed by definition) and `tnc = 1`.
//!
//! `VCstart` is deliberately a **single atomic load**: the claim that
//! read-only transactions have "almost negligible overhead" (Section 4.2)
//! is made structural here — the read-only path takes no lock and touches
//! no concurrency-control state.
//!
//! One refinement over the paper's pseudocode: `VCdiscard` also drains
//! visibility. Figure 1 drains only in `VCcomplete`, so an abort of the
//! oldest registered transaction would leave already-complete younger
//! transactions invisible until the *next* completion. Draining on discard
//! preserves the Visibility Property exactly ("the visibility is delayed
//! only for active and unaborted transactions", Section 4.3).
//!
//! One mutex guards `tnc` and the [`VcQueue`]; `vtnc` is mirrored in an
//! atomic on its own cache line so `VCstart` never takes the mutex or
//! its line. A protocol reaches this module only through `register`,
//! `start_complete`, `complete` and `discard` (DESIGN.md §15).
//!
//! Each `mvcc-dist` site runs this module too (paper §6), numbered in
//! Lamport pairs ([`for_site`](VersionControl::for_site)); there a commit
//! may finish above its registered number
//! ([`complete_as`](VersionControl::complete_as)). DESIGN.md §15.

use crate::clock::SharedClock;
use crate::obs::event::Padded;
use crate::obs::{DumpContext, EventKind, FlightTrigger, Obs, VcView, WaitPoint};
use crate::vcqueue::VcQueue;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct VcInner {
    /// Next transaction number to assign. Paper's `tnc` with
    /// post-increment semantics (`tn(T) ← tnc++`); at a site, the Lamport
    /// time of the next number.
    tnc: u64,
    /// Numbering: `register` hands out `(tnc << shift) | tag`. Both are 0
    /// (`tn = tnc`) except at a site, where `tag` is the site id.
    shift: u32,
    tag: u64,
    queue: VcQueue,
    /// Boosted finals ([`VersionControl::complete_as`] with `f > p`)
    /// drained off the queue but not yet below the barrier.
    holdover: BTreeSet<u64>,
    /// Registration time-to-live: how long a registered transaction may
    /// stay `Active` before the stall reaper may force-discard it.
    /// `None` (the default) disables reaping entirely.
    register_ttl: Option<Duration>,
    /// Threads in [`VersionControl::wait_visible`]'s parking loop; an
    /// advance notifies only when it is non-zero.
    waiters: u32,
    /// Contended acquisitions of this mutex and the nanoseconds they
    /// blocked, bumped once the mutex is held.
    lock_waits: u64,
    lock_wait_ns: u64,
}

impl VcInner {
    /// Lamport receive rule (a no-op on one site, where `g < tnc`).
    fn observe(&mut self, g: u64) {
        self.tnc = self.tnc.max((g >> self.shift) + 1);
    }
}

/// Thread-safe implementation of paper Figure 1: one mutex around `tnc`
/// and the [`VcQueue`], plus a lock-free `vtnc` mirror for `VCstart`.
///
/// ```
/// use mvcc_core::VersionControl;
///
/// let vc = VersionControl::new();
/// let t1 = vc.register();            // VCregister: serial position fixed
/// let t2 = vc.register();
/// assert_eq!(vc.start(), 0);         // VCstart: nothing visible yet
///
/// vc.complete(t2);                   // out-of-order completion...
/// assert_eq!(vc.start(), 0);         // ...stays invisible behind t1
/// vc.complete(t1);
/// assert_eq!(vc.start(), 2);         // both become visible at once
/// ```
pub struct VersionControl {
    inner: Padded<Mutex<VcInner>>,
    /// Mirror of the current `vtnc`, readable without the lock, on a line
    /// of its own so a `VCstart` never pulls `inner`'s line away.
    vtnc: Padded<AtomicU64>,
    /// Signalled whenever `vtnc` advances while a thread waits (the
    /// Section 6 rectification [`VersionControl::wait_visible`]).
    visible_cv: Condvar,
    /// Companion mutex for `visible_cv` waits. Lock order: never taken
    /// while `inner` is held — the visibility broadcast happens *after*
    /// the inner critical section (see [`Self::notify_visible`]), so the
    /// two mutexes are never nested.
    visible_mu: Mutex<()>,
    /// Set for good, under `inner`, by the first TTL; while clear no entry
    /// can be reaped (see [`start_complete`](Self::start_complete)).
    reaping: AtomicBool,
    /// Observability hub, attached once by the owning engine context.
    /// Unattached (unit tests, standalone use) costs one `OnceLock` load
    /// per operation; attached-but-disabled adds one relaxed bool load.
    obs: OnceLock<Arc<Obs>>,
    /// Time source for TTL deadlines, head ages, and wait bounds.
    /// Attached once by the owning engine context; unattached falls back
    /// to wall-clock `Instant::now`.
    clock: OnceLock<SharedClock>,
}

impl Default for VersionControl {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionControl {
    /// Fresh counters: `vtnc = 0`, `tnc = 1`.
    pub fn new() -> Self {
        Self::resumed(0)
    }

    /// Counters resumed from a checkpoint consistent at `vtnc`: every
    /// number `≤ vtnc` is treated as completed, and the next assignment
    /// is `vtnc + 1`.
    pub fn resumed(vtnc: u64) -> Self {
        Self::numbered(vtnc, 0, 0)
    }

    /// Fresh counters for one site of a multi-site cluster: numbers are
    /// Lamport pairs `(time << bits) | site` with `tnc` as the time, so
    /// no two sites ever issue the same number.
    pub fn for_site(bits: u32, site: u16) -> Self {
        Self::numbered(0, bits, site as u64)
    }

    fn numbered(vtnc: u64, shift: u32, tag: u64) -> Self {
        VersionControl {
            inner: Padded(Mutex::new(VcInner {
                tnc: (vtnc >> shift) + 1,
                shift,
                tag,
                queue: VcQueue::new(),
                holdover: BTreeSet::new(),
                register_ttl: None,
                waiters: 0,
                lock_waits: 0,
                lock_wait_ns: 0,
            })),
            vtnc: Padded(AtomicU64::new(vtnc)),
            visible_cv: Condvar::new(),
            visible_mu: Mutex::new(()),
            reaping: AtomicBool::new(false),
            obs: OnceLock::new(),
            clock: OnceLock::new(),
        }
    }

    /// Fresh counters with `cfg`'s registration TTL — the constructor
    /// [`CcContext::new`](crate::CcContext::new) uses.
    pub fn from_config(cfg: &crate::DbConfig) -> Self {
        let vc = Self::new();
        vc.set_register_ttl(cfg.register_ttl);
        vc
    }

    /// Attach the observability hub. First attachment wins (restore paths
    /// may rebuild a context around an existing instance); the effective
    /// hub is returned so the caller can share exactly it.
    pub fn attach_obs(&self, obs: Arc<Obs>) -> Arc<Obs> {
        self.obs.get_or_init(|| obs).clone()
    }

    /// The attached hub, only when event recording is on — the gate every
    /// instrumentation point in this module goes through.
    #[inline]
    fn obs_on(&self) -> Option<&Obs> {
        match self.obs.get() {
            Some(o) if o.on() => Some(o),
            _ => None,
        }
    }

    /// Attach the time source. First attachment wins, mirroring
    /// [`attach_obs`](Self::attach_obs).
    pub fn attach_clock(&self, clock: SharedClock) {
        let _ = self.clock.set(clock);
    }

    /// The current instant from the attached clock (wall clock when
    /// nothing is attached).
    #[inline]
    fn now(&self) -> Instant {
        match self.clock.get() {
            Some(c) => c.now(),
            None => Instant::now(),
        }
    }

    /// Take the inner mutex, accounting contended acquisitions. The
    /// uncontended path is a single `try_lock` — no timing syscalls.
    fn inner(&self) -> MutexGuard<'_, VcInner> {
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        let started = Instant::now();
        let mut g = self.inner.lock();
        g.lock_waits += 1;
        g.lock_wait_ns += started.elapsed().as_nanos() as u64;
        g
    }

    /// `(contended acquisitions, nanoseconds blocked)` on the sequencer
    /// lock since construction or the last reset (surfaced as
    /// `vc_lock_wait_ns` in `mvcc-core`'s metrics).
    pub fn contention(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.lock_waits, inner.lock_wait_ns)
    }

    /// Zero the contention counters (between experiment phases).
    pub fn reset_contention(&self) {
        let mut inner = self.inner.lock();
        inner.lock_waits = 0;
        inner.lock_wait_ns = 0;
    }

    /// Set (or clear) the registration TTL used for future
    /// [`register`](Self::register) calls. `None` disables the reaper.
    pub fn set_register_ttl(&self, ttl: Option<Duration>) {
        let mut inner = self.inner();
        inner.register_ttl = ttl;
        if ttl.is_some() {
            self.reaping.store(true, Ordering::Relaxed);
        }
    }

    /// The current registration TTL.
    pub fn register_ttl(&self) -> Option<Duration> {
        self.inner().register_ttl
    }

    /// `VCstart()`: the start number for a read-only transaction — the
    /// current `vtnc`. Lock-free; this is the *entire* synchronization a
    /// read-only transaction performs. Sequentially consistent (the same
    /// instruction as an acquire load on x86-64 and AArch64), as the GC
    /// announcement handshake requires (`mvcc_storage::RoScanRegistry`).
    #[inline]
    pub fn start(&self) -> u64 {
        self.vtnc.load(Ordering::SeqCst)
    }

    /// `VCregister(T, "active")`: assign the next transaction number and
    /// enqueue. Called by the concurrency-control protocol at the moment
    /// `T`'s serial order is determined (begin under TO, lock point under
    /// 2PL, validation under OCC). Successive calls observe strictly
    /// increasing numbers in the real-time order of the calls.
    pub fn register(&self) -> u64 {
        let obs = self.obs_on();
        // The register→complete residency histogram is a sampled phase
        // like the other hot-path histograms: an unsampled registration
        // skips the stamp — and its clock read, which would otherwise sit
        // inside this lock (and, under OCC, inside the validation
        // critical section) — entirely. Reaper deadlines still stamp
        // every entry, so `head_age` stays exact for reaper users.
        let stamp = obs.is_some_and(|o| o.phase_sample());
        let tn = {
            let mut inner = self.inner();
            let tn = (inner.tnc << inner.shift) | inner.tag;
            inner.tnc += 1;
            // Read the clock only when someone consumes the stamp (the
            // reaper's deadline or the register→complete histogram).
            let now = (inner.register_ttl.is_some() || stamp).then(|| self.now());
            let deadline = match (inner.register_ttl, now) {
                (Some(ttl), Some(now)) => Some(now + ttl),
                _ => None,
            };
            inner.queue.insert_at(tn, deadline, now);
            tn
        };
        if let Some(o) = obs {
            o.emit(EventKind::Register, tn, 0);
        }
        // Open the VCQueue-residency span when the calling thread is
        // tracing (one TLS read otherwise). Closed by complete/discard/
        // reap — possibly from another thread.
        crate::obs::trace::vc_register(tn);
        tn
    }

    /// Claim `tn` for commit: transition its entry from `Active` to
    /// `Committing`, shielding it from the stall reaper. A protocol MUST
    /// claim successfully **before** applying any database updates
    /// (promoting pendings to committed versions); on `false` it must
    /// abort instead — the entry was already force-discarded by
    /// [`reap`](Self::reap) (or discarded/completed through another
    /// path), so its writes must never become visible.
    ///
    /// This claim is what makes the reaper safe: the reaper only discards
    /// `Active` entries, so reaped ⇒ never claimed ⇒ no updates applied.
    ///
    /// Until a TTL is set the claim is one load and returns `true`
    /// unchecked: an entry gets a deadline only if it registered after
    /// the TTL, and then its `register` critical section orders the
    /// `reaping` store before this load (DESIGN.md §8).
    pub fn start_complete(&self, tn: u64) -> bool {
        if !self.reaping.load(Ordering::Relaxed) {
            return true;
        }
        self.inner().queue.start_committing(tn)
    }

    /// `VCdiscard(T)`: remove an aborted transaction. Also drains
    /// visibility (see module docs). Returns `false` if `tn` was not
    /// registered (or already completed).
    pub fn discard(&self, tn: u64) -> bool {
        let obs = self.obs_on();
        let (removed, advanced, wake, vtnc_before) = {
            let mut inner = self.inner();
            let vtnc_before = self.vtnc.load(Ordering::Acquire);
            let removed = inner.queue.discard(tn);
            let advanced = removed && self.drain_locked(&mut inner);
            let wake = advanced && inner.waiters != 0;
            (removed, advanced, wake, vtnc_before)
        };
        if wake {
            self.notify_visible();
        }
        if let Some(o) = obs {
            if removed {
                let vtnc = self.vtnc.load(Ordering::Acquire);
                o.emit(EventKind::Discard, tn, vtnc);
                if advanced {
                    o.emit(EventKind::VtncAdvance, vtnc, vtnc_before);
                }
                o.tracer().close_vc_any(tn, 1);
            }
        }
        removed
    }

    /// The stall reaper: force-`VCdiscard` every `Active` entry whose
    /// registration deadline has passed. Returns the reaped transaction
    /// numbers (oldest first) and drains visibility, so a single stalled
    /// client can pin `vtnc` for at most one TTL.
    ///
    /// # Safety argument
    ///
    /// Reaping `tn` is an abort forced by version control. It is safe —
    /// `tn`'s updates can never become visible — because every protocol
    /// must claim the entry via [`start_complete`](Self::start_complete)
    /// (which fails after a reap) *before* applying database updates; an
    /// entry with a deadline always claims under the lock (DESIGN.md §8).
    /// Conversely the reaper never touches `Committing` or `Complete`
    /// entries, so it can never discard a transaction whose updates may
    /// already be in the store. The losing side of the race always finds
    /// out: either the commit claims first (reaper skips it) or the reaper
    /// discards first (claim returns `false` and the commit aborts).
    ///
    /// Note this only removes the *version-control* entry. The caller
    /// (e.g. [`crate::MvDatabase::reap_stalled`]) is responsible for
    /// accounting; the stalled transaction's pending writes and locks,
    /// if any, are reclaimed separately by read/lock wait timeouts.
    pub fn reap(&self) -> Vec<u64> {
        let now = self.now();
        let (reaped, wake) = {
            let mut inner = self.inner();
            let reaped = inner.queue.reap_expired(now);
            let advanced = !reaped.is_empty() && self.drain_locked(&mut inner);
            (reaped, advanced && inner.waiters != 0)
        };
        if wake {
            self.notify_visible();
        }
        if !reaped.is_empty() {
            if let Some(o) = self.obs_on() {
                let vtnc = self.vtnc.load(Ordering::Acquire);
                o.emit(EventKind::ReaperFire, reaped.len() as u64, vtnc);
                for &tn in &reaped {
                    o.tracer().close_vc_any(tn, 2);
                }
            }
        }
        reaped
    }

    /// `VCcomplete(T)`: mark `tn` complete and advance `vtnc` over every
    /// contiguously-finished prefix. Returns the new `vtnc`.
    ///
    /// Must be called **after** the transaction's database updates are
    /// applied (paper Figure 3/4: "perform database updates; …;
    /// VCcomplete(T)") — advancing visibility first would let a read-only
    /// transaction with the new start number miss the updates.
    #[inline]
    pub fn complete(&self, tn: u64) -> u64 {
        self.complete_as(tn, tn)
    }

    /// [`complete`](Self::complete) for a transaction registered as `tn`
    /// that committed as `fin ≥ tn` (at a site, two-phase commit's final
    /// number). A boosted final waits in the holdover: see `drain_locked`.
    pub fn complete_as(&self, tn: u64, fin: u64) -> u64 {
        debug_assert!(fin >= tn, "final {fin} below tn {tn}");
        let obs = self.obs_on();
        let (advanced, wake, vtnc_before, registered_at) = {
            let mut inner = self.inner();
            let vtnc_before = self.vtnc.load(Ordering::Acquire);
            // Only registrations whose stamp survived the sampling draw
            // (see `register`) carry a timestamp; the rest skip the
            // clock read and histogram record below entirely.
            let registered_at = if obs.is_some() {
                inner.queue.registered_at(tn)
            } else {
                None
            };
            let marked = inner.queue.mark_complete(tn, fin);
            debug_assert!(marked, "VCcomplete for unregistered tn {tn}");
            inner.observe(fin);
            let advanced = self.drain_locked(&mut inner);
            let wake = advanced && inner.waiters != 0;
            (advanced, wake, vtnc_before, registered_at)
        };
        if wake {
            self.notify_visible();
        }
        let vtnc = self.vtnc.load(Ordering::Acquire);
        if let Some(o) = obs {
            if let Some(at) = registered_at {
                o.phases()
                    .register_to_complete
                    .record(self.now().saturating_duration_since(at));
            }
            o.emit(EventKind::Complete, tn, vtnc);
            if advanced {
                o.emit(EventKind::VtncAdvance, vtnc, vtnc_before);
            }
            o.tracer().close_vc_any(tn, 0);
        }
        vtnc
    }

    /// Pop every completed head entry and publish the new `vtnc` — one
    /// atomic store no matter how many entries drained (the batching that
    /// keeps the critical section short when a slow head transaction
    /// finally completes and releases a long completed suffix). Returns
    /// whether `vtnc` advanced.
    ///
    /// A popped entry that kept its own number is below any barrier (every
    /// later entry and future number is larger). A boosted final waits in
    /// the holdover until it is below the barrier: the head's number, or
    /// the next number the clock could issue with site bits 0.
    ///
    /// Runs under the inner mutex but performs **no side effects beyond
    /// the store**; a caller that advanced reads `waiters` in the same
    /// critical section and, if non-zero, notifies after releasing it.
    fn drain_locked(&self, inner: &mut VcInner) -> bool {
        let mut new_vtnc = inner.queue.drain_completed(&mut inner.holdover);
        if !inner.holdover.is_empty() {
            let barrier = inner.queue.head_tn().unwrap_or(inner.tnc << inner.shift);
            while let Some(f) = inner.holdover.first().copied().filter(|&f| f < barrier) {
                inner.holdover.pop_first();
                new_vtnc = new_vtnc.max(Some(f));
            }
        }
        match new_vtnc {
            Some(new_vtnc) => {
                debug_assert!(new_vtnc >> inner.shift < inner.tnc);
                self.vtnc.store(new_vtnc, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Broadcast a `vtnc` advance to [`VersionControl::wait_visible`]
    /// waiters, never while `inner` is held. No wake-up is lost: a waiter
    /// counts itself under `inner` before its first `vtnc` check, so an
    /// advance either sees the count or happens-before that check
    /// (DESIGN.md §10).
    fn notify_visible(&self) {
        let _waiters = self.visible_mu.lock();
        self.visible_cv.notify_all();
    }

    /// Absorb a number observed from another site (Lamport receive rule):
    /// every number this module issues from now on exceeds it.
    pub fn observe(&self, g: u64) {
        self.inner().observe(g);
    }

    /// Rebuild after a site crash. The queue and holdover are volatile and
    /// dropped; `watermark` is the recovery point from durable state (the
    /// largest committed version number). The clock passes it, and
    /// visibility moves up to it but never backwards: snapshots taken at
    /// the old `vtnc` stay valid because committed versions survive.
    pub fn resume(&self, watermark: u64) {
        let wake = {
            let mut inner = self.inner();
            inner.queue = VcQueue::new();
            inner.holdover.clear();
            inner.observe(watermark);
            let advanced = self.vtnc.fetch_max(watermark, Ordering::Release) < watermark;
            advanced && inner.waiters != 0
        };
        if wake {
            self.notify_visible();
        }
    }

    /// Current `vtnc` (same as [`start`](Self::start)).
    pub fn vtnc(&self) -> u64 {
        self.vtnc.load(Ordering::Acquire)
    }

    /// Current `tnc` (next number to assign; its Lamport time at a site).
    pub fn tnc(&self) -> u64 {
        self.inner().tnc
    }

    /// The visibility lag: how many assigned transaction numbers are not
    /// yet visible (`(tnc − 1) − vtnc`). Zero means a read-only
    /// transaction starting now sees every assigned transaction. At a
    /// site both are Lamport times: the lag counts clock ticks.
    pub fn lag(&self) -> u64 {
        let inner = self.inner();
        (inner.tnc - 1).saturating_sub(self.vtnc.load(Ordering::Acquire) >> inner.shift)
    }

    /// Number of registered transactions not yet visible (boosted finals
    /// held back included).
    pub fn queue_len(&self) -> usize {
        let inner = self.inner();
        inner.queue.len() + inner.holdover.len()
    }

    /// One-shot snapshot of the whole version-control state, for gauges
    /// and flight-recorder dumps. At a site `tnc` and `vtnc` are both
    /// Lamport times, as in [`lag`](Self::lag); `head_tn` is a number.
    pub fn view(&self) -> VcView {
        let inner = self.inner();
        VcView {
            tnc: inner.tnc - 1, // last assigned number
            vtnc: self.vtnc.load(Ordering::Acquire) >> inner.shift,
            queue_depth: inner.queue.len() as u64,
            head_tn: inner.queue.head_tn(),
            head_age_us: inner
                .queue
                .head_age(self.now())
                .map(|d| d.as_micros() as u64),
        }
    }

    /// Section 6 rectification: block until `vtnc ≥ tn` (so a read-only
    /// transaction started afterwards is guaranteed to see `tn`'s
    /// updates). Returns the satisfying `vtnc`, or `None` on timeout.
    ///
    /// The timeout is decided **solely** by the attached clock, never by
    /// the condvar's own wall-clock timeout. With no clock (or a real
    /// one) the wait parks until the deadline or a visibility notify. A
    /// *simulated* clock's deadline may lie in the real future, so that
    /// case parks in short real-time slices and re-reads virtual time on
    /// every wake: a run that advances virtual time past the deadline
    /// sees the timeout at the next slice, and replayed waits are
    /// byte-stable. Zero timeout is a fail-fast poll that never parks
    /// (the path simulated runs use exclusively, see DESIGN.md §13).
    pub fn wait_visible(&self, tn: u64, timeout: Duration) -> Option<u64> {
        // A satisfied wait or a zero-timeout poll never parks.
        let vtnc = self.vtnc.load(Ordering::Acquire);
        if vtnc >= tn || timeout.is_zero() {
            return (vtnc >= tn).then_some(vtnc);
        }
        let attr = self.obs.get().and_then(|o| o.attr().cloned());
        // Count this waiter before its first check (see `notify_visible`);
        // the blocker is whatever pins the queue head at wait start.
        let blocker = {
            let mut inner = self.inner();
            inner.waiters += 1;
            inner.queue.head_tn().unwrap_or(0)
        };
        let started = self.now();
        let deadline = started + timeout;
        let sliced = self.clock.get().is_some_and(|c| c.is_simulated());
        let mut guard = self.visible_mu.lock();
        let res = loop {
            let t = self.now();
            let v = self.vtnc.load(Ordering::Acquire);
            if v >= tn || t >= deadline {
                break (v >= tn).then_some(v);
            }
            let _ = if sliced {
                let slice = deadline.saturating_duration_since(t);
                self.visible_cv
                    .wait_for(&mut guard, slice.min(Duration::from_millis(25)))
            } else {
                self.visible_cv.wait_until(&mut guard, deadline)
            };
        };
        drop(guard);
        self.inner().waiters -= 1;
        if let Some(attr) = attr {
            let ns = self.now().saturating_duration_since(started).as_nanos() as u64;
            attr.blame()
                .record(WaitPoint::VisibilityWait, tn, blocker, ns);
        }
        res
    }

    /// Check both counter properties; used by tests after every step.
    /// Returns an error description if an invariant is violated.
    pub fn validate(&self) -> Result<(), String> {
        let res = {
            let inner = self.inner();
            let vtnc = self.vtnc.load(Ordering::Acquire);
            let held = inner.holdover.first().filter(|&&f| f <= vtnc);
            if vtnc >= inner.tnc << inner.shift {
                Err(format!("vtnc {vtnc} >= tnc {}", inner.tnc << inner.shift))
            } else if inner.queue.head_tn().is_some_and(|head| head <= vtnc) {
                Err(format!(
                    "queued tn {} <= vtnc {vtnc}",
                    inner.queue.head_tn().unwrap_or(0)
                ))
            } else if let Some(f) = held {
                Err(format!("held final {f} <= vtnc {vtnc}"))
            } else {
                Ok(())
            }
        };
        if let Err(msg) = &res {
            // Invariant violations are flight-recorder triggers regardless
            // of whether event recording is on.
            if let Some(o) = self.obs.get() {
                o.dump(
                    FlightTrigger::InvariantViolation,
                    &DumpContext {
                        detail: msg.clone(),
                        vc: Some(self.view()),
                        ..Default::default()
                    },
                );
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fresh_counters() {
        let vc = VersionControl::new();
        assert_eq!(vc.start(), 0);
        assert_eq!(vc.vtnc(), 0);
        assert_eq!(vc.tnc(), 1);
        assert_eq!(vc.lag(), 0);
        vc.validate().unwrap();
    }

    #[test]
    fn register_assigns_monotone_numbers() {
        let vc = VersionControl::new();
        assert_eq!(vc.register(), 1);
        assert_eq!(vc.register(), 2);
        assert_eq!(vc.register(), 3);
        assert_eq!(vc.tnc(), 4);
        assert_eq!(vc.vtnc(), 0); // nothing completed yet
        assert_eq!(vc.lag(), 3);
        vc.validate().unwrap();
    }

    #[test]
    fn in_order_completion_advances_vtnc() {
        let vc = VersionControl::new();
        let t1 = vc.register();
        let t2 = vc.register();
        assert_eq!(vc.complete(t1), 1);
        assert_eq!(vc.start(), 1);
        assert_eq!(vc.complete(t2), 2);
        assert_eq!(vc.start(), 2);
        assert_eq!(vc.lag(), 0);
        vc.validate().unwrap();
    }

    #[test]
    fn out_of_order_completion_delays_vtnc() {
        // The central scenario: T2 finishes first; its updates must stay
        // invisible until T1 completes, else a read-only transaction could
        // see T2 but later T1 commits "into its past".
        let vc = VersionControl::new();
        let t1 = vc.register();
        let t2 = vc.register();
        assert_eq!(vc.complete(t2), 0); // vtnc unchanged
        assert_eq!(vc.start(), 0);
        assert_eq!(vc.complete(t1), 2); // both become visible at once
        assert_eq!(vc.start(), 2);
        vc.validate().unwrap();
    }

    #[test]
    fn discard_releases_blocked_visibility() {
        let vc = VersionControl::new();
        let t1 = vc.register();
        let t2 = vc.register();
        vc.complete(t2);
        assert_eq!(vc.vtnc(), 0);
        assert!(vc.discard(t1)); // T1 aborts → T2 becomes visible now
        assert_eq!(vc.vtnc(), 2);
        vc.validate().unwrap();
    }

    #[test]
    fn discard_unregistered_is_false() {
        let vc = VersionControl::new();
        assert!(!vc.discard(7));
    }

    #[test]
    fn aborted_numbers_leave_gaps_in_vtnc() {
        let vc = VersionControl::new();
        let t1 = vc.register();
        let t2 = vc.register();
        vc.discard(t1);
        vc.complete(t2);
        // vtnc = 2: number 1 was never completed, but it was discarded,
        // so "all transactions with tn ≤ 2 have completed" holds
        // vacuously for the aborted one (its versions are destroyed).
        assert_eq!(vc.vtnc(), 2);
        vc.validate().unwrap();
    }

    #[test]
    fn wait_visible_immediate_and_blocking() {
        let vc = Arc::new(VersionControl::new());
        let t1 = vc.register();
        vc.complete(t1);
        assert_eq!(vc.wait_visible(1, Duration::from_millis(1)), Some(1));

        let t2 = vc.register();
        let vc2 = Arc::clone(&vc);
        let waiter = thread::spawn(move || vc2.wait_visible(t2, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        vc.complete(t2);
        assert_eq!(waiter.join().unwrap(), Some(2));
    }

    #[test]
    fn wait_visible_times_out() {
        let vc = VersionControl::new();
        vc.register(); // never completes
        assert_eq!(vc.wait_visible(1, Duration::from_millis(20)), None);
    }

    #[test]
    fn concurrent_register_complete_stress() {
        let vc = Arc::new(VersionControl::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let vc = Arc::clone(&vc);
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    let tn = vc.register();
                    if i % 7 == 0 {
                        vc.discard(tn);
                    } else {
                        vc.complete(tn);
                    }
                    vc.validate().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Everything completed or discarded → full visibility.
        assert_eq!(vc.queue_len(), 0);
        assert_eq!(vc.lag(), 0);
        assert_eq!(vc.vtnc(), vc.tnc() - 1);
    }

    #[test]
    fn reap_is_a_noop_without_ttl() {
        let vc = VersionControl::new();
        vc.register();
        std::thread::sleep(Duration::from_millis(2));
        assert!(vc.reap().is_empty());
        assert_eq!(vc.queue_len(), 1);
    }

    #[test]
    fn reaper_unpins_vtnc_after_ttl() {
        let vc = VersionControl::new();
        vc.set_register_ttl(Some(Duration::from_millis(5)));
        let t1 = vc.register(); // will stall
        let t2 = vc.register();
        vc.complete(t2);
        assert_eq!(vc.vtnc(), 0); // pinned by stalled t1
        thread::sleep(Duration::from_millis(10));
        assert_eq!(vc.reap(), vec![t1]);
        assert_eq!(vc.vtnc(), 2); // t2 becomes visible
        vc.validate().unwrap();
    }

    #[test]
    fn claimed_transactions_survive_the_reaper() {
        let vc = VersionControl::new();
        vc.set_register_ttl(Some(Duration::from_millis(1)));
        let t1 = vc.register();
        assert!(vc.start_complete(t1)); // commit path claims in time
        thread::sleep(Duration::from_millis(5));
        assert!(vc.reap().is_empty());
        assert_eq!(vc.complete(t1), 1);
        vc.validate().unwrap();
    }

    #[test]
    fn claim_after_reap_fails() {
        let vc = VersionControl::new();
        vc.set_register_ttl(Some(Duration::from_millis(1)));
        let t1 = vc.register();
        thread::sleep(Duration::from_millis(5));
        assert_eq!(vc.reap(), vec![t1]);
        // The stalled client wakes up and tries to commit: it must
        // lose.
        assert!(!vc.start_complete(t1));
        vc.validate().unwrap();
    }

    #[test]
    fn only_entries_registered_after_a_ttl_is_set_can_be_reaped() {
        use crate::clock::SimClock;
        let sim = SimClock::new();
        let vc = VersionControl::new();
        vc.attach_clock(sim.clone() as crate::clock::SharedClock);
        // No TTL yet: the claim is lock-free and cannot fail.
        let t0 = vc.register();
        assert!(vc.start_complete(t0));
        let t1 = vc.register(); // no deadline, claimed only later
        vc.set_register_ttl(Some(Duration::from_millis(5)));
        let t2 = vc.register(); // deadline: now + 5 ms
        sim.advance(Duration::from_millis(6));
        assert_eq!(vc.reap(), vec![t2], "only the later entry expires");
        assert!(vc.start_complete(t1), "an entry with no deadline survives");
        assert!(!vc.start_complete(t2), "a reaped entry's claim fails");
        assert_eq!(vc.complete(t0), t0);
        assert_eq!(vc.complete(t1), t1);
        assert_eq!(vc.queue_len(), 0);
        vc.validate().unwrap();
        // The flag is never cleared: clearing the TTL leaves the claim on
        // its locked path, which still refuses an unknown entry.
        vc.set_register_ttl(None);
        assert!(!vc.start_complete(99));
    }

    #[test]
    fn obs_events_and_phase_histogram() {
        use crate::obs::{EventKind as K, Obs, ObsConfig};
        let vc = VersionControl::new();
        // shift 0: capture every event so the exact sequence is
        // assertable
        let obs = vc.attach_obs(Arc::new(Obs::new(
            &ObsConfig::default().with_events(true).with_sample_shift(0),
        )));
        let t1 = vc.register();
        let t2 = vc.register();
        vc.complete(t2); // head still active → no advance
        vc.discard(t1); // unblocks → vtnc advances to 2
        let kinds: Vec<K> = obs.events().recent(64).iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                K::Register,
                K::Register,
                K::Complete,
                K::Discard,
                K::VtncAdvance
            ]
        );
        assert_eq!(obs.phases().snapshot().register_to_complete.count(), 1);
        let view = vc.view();
        assert_eq!(view.tnc, 2);
        assert_eq!(view.vtnc, 2);
        assert_eq!(view.queue_depth, 0);
        assert_eq!(view.vtnc_lag(), 0);
    }

    #[test]
    fn unattached_or_disabled_obs_costs_nothing_observable() {
        use crate::obs::{Obs, ObsConfig};
        let vc = VersionControl::new();
        let tn = vc.register();
        vc.complete(tn); // no obs attached: must not panic or stamp
        let obs = vc.attach_obs(Arc::new(Obs::new(&ObsConfig::default())));
        let tn = vc.register();
        vc.complete(tn);
        assert_eq!(obs.events().emitted(), 0);
        assert_eq!(obs.phases().snapshot().register_to_complete.count(), 0);
    }

    #[test]
    fn visibility_property_holds_under_interleaving() {
        // Randomized-ish interleaving with explicit bookkeeping: at every
        // step, all tns ≤ vtnc must be completed or discarded.
        let vc = VersionControl::new();
        let mut live: Vec<u64> = Vec::new();
        let mut finished: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for step in 0u64..200 {
            if step % 3 == 0 || live.is_empty() {
                live.push(vc.register());
            } else {
                // complete or discard a pseudo-random live txn
                let idx = (step as usize * 7) % live.len();
                let tn = live.swap_remove(idx);
                if step % 5 == 0 {
                    vc.discard(tn);
                } else {
                    vc.complete(tn);
                }
                finished.insert(tn);
            }
            let vtnc = vc.vtnc();
            for &tn in &live {
                assert!(
                    tn > vtnc,
                    "live tn {tn} <= vtnc {vtnc} violates visibility property"
                );
            }
            vc.validate().unwrap();
        }
    }

    #[test]
    fn resumed_and_configured_counters() {
        let vc = VersionControl::resumed(41);
        assert_eq!(vc.vtnc(), 41);
        assert_eq!(vc.register(), 42);
        vc.validate().unwrap();
        let ttl = Some(Duration::from_millis(7));
        let cfg = crate::DbConfig {
            register_ttl: ttl,
            ..Default::default()
        };
        assert_eq!(VersionControl::from_config(&cfg).register_ttl(), ttl);
    }

    #[test]
    fn wait_visible_deadline_follows_shared_clock() {
        // With a simulated clock the timeout is decided purely by virtual
        // time: real time passing must not expire the wait, and advancing
        // the virtual clock must.
        use crate::clock::SimClock;
        let sim = SimClock::new();
        let vc = Arc::new(VersionControl::new());
        vc.attach_clock(sim.clone() as crate::clock::SharedClock);
        let tn = vc.register();

        // Waiter with a 5ms *virtual* deadline; the clock stays frozen,
        // so 40ms of real time cannot time it out.
        let vc2 = Arc::clone(&vc);
        let waiter = thread::spawn(move || vc2.wait_visible(tn, Duration::from_millis(5)));
        thread::sleep(Duration::from_millis(40));
        assert!(!waiter.is_finished(), "frozen sim clock must not expire");
        vc.complete(tn);
        assert_eq!(waiter.join().unwrap(), Some(tn));

        // Second waiter: advance virtual time past the deadline; the
        // helper re-reads the clock on each park slice and gives up.
        let t2 = vc.register();
        let vc2 = Arc::clone(&vc);
        let waiter = thread::spawn(move || vc2.wait_visible(t2, Duration::from_millis(5)));
        thread::sleep(Duration::from_millis(10));
        sim.advance(Duration::from_millis(6));
        assert_eq!(waiter.join().unwrap(), None);
        vc.complete(t2);
    }

    /// A Lamport number `(time, site)` as a site's module issues it.
    fn lamport(time: u64, site: u64) -> u64 {
        (time << 16) | site
    }

    #[test]
    fn site_numbering_is_lamport_pairs() {
        let vc = VersionControl::for_site(16, 1);
        assert_eq!(vc.start(), 0);
        vc.validate().unwrap();
        let p = vc.register();
        assert_eq!(p, lamport(1, 1));
        assert_eq!(vc.start(), 0, "in doubt");
        assert_eq!(vc.complete_as(p, p), p, "a local final is its proposal");
        assert_eq!(vc.register(), lamport(2, 1));
        vc.validate().unwrap();
    }

    #[test]
    fn boosted_final_held_until_barrier() {
        // T1 finalizes far above its proposal (another site boosted it)
        // while a later local proposal p2 < f1 is still in doubt: vtnc
        // must not reach f1 until p2 resolves.
        let vc = VersionControl::for_site(16, 1);
        let p1 = vc.register();
        let p2 = vc.register();
        let f1 = lamport(10, 2);
        vc.complete_as(p1, f1);
        assert_eq!(vc.start(), 0, "p2 bars f1");
        assert_eq!(vc.queue_len(), 2, "p2 queued, f1 held");
        vc.validate().unwrap();
        vc.complete_as(p2, p2);
        assert_eq!(vc.start(), f1, "both drain; vtnc is the larger final");
        assert_eq!(vc.queue_len(), 0);
        vc.validate().unwrap();
    }

    #[test]
    fn boosted_final_behind_a_later_proposal_waits_for_it() {
        // f1 is held behind p2; p3, issued after f1 was seen, is above
        // it, so completing p2 publishes f1 while p3 stays in doubt.
        let vc = VersionControl::for_site(16, 1);
        let p1 = vc.register();
        let p2 = vc.register();
        let f1 = lamport(5, 2);
        vc.complete_as(p1, f1);
        let p3 = vc.register();
        assert_eq!(p3, lamport(6, 1), "the clock passed f1");
        vc.complete_as(p2, p2);
        assert_eq!(vc.start(), f1);
        vc.discard(p3);
        assert_eq!(vc.start(), f1);
        vc.validate().unwrap();
    }

    #[test]
    fn site_discard_of_blocker_releases() {
        let vc = VersionControl::for_site(16, 1);
        let p1 = vc.register();
        let p2 = vc.register();
        vc.complete_as(p2, p2);
        assert_eq!(vc.start(), 0);
        assert!(vc.discard(p1));
        assert_eq!(vc.start(), p2);
        vc.validate().unwrap();
    }

    #[test]
    fn observe_advances_clock_above_finals() {
        let vc = VersionControl::for_site(16, 1);
        vc.observe(lamport(100, 3));
        assert!(
            vc.register() >> 16 > 100,
            "future proposals dominate observed finals"
        );
        // On one site every number observed is already below `tnc`.
        let central = VersionControl::new();
        central.register();
        central.observe(1);
        assert_eq!(central.tnc(), 2);
    }

    #[test]
    fn future_proposals_stay_above_vtnc() {
        let vc = VersionControl::for_site(16, 1);
        for _ in 0..10 {
            let p = vc.register();
            vc.complete_as(p, lamport((p >> 16) + 5, 9));
            vc.validate().unwrap();
            let next = vc.register();
            assert!(next > vc.vtnc(), "proposal {next} <= vtnc {}", vc.vtnc());
            vc.discard(next);
            vc.validate().unwrap();
        }
    }

    #[test]
    fn resume_drops_the_queue_and_never_lowers_vtnc() {
        let vc = VersionControl::for_site(16, 1);
        let p1 = vc.register();
        vc.complete_as(p1, p1);
        let p2 = vc.register();
        let p3 = vc.register();
        vc.complete_as(p3, lamport(9, 2)); // held behind p2
        vc.resume(0);
        assert_eq!(vc.start(), p1, "a lower watermark keeps vtnc");
        assert_eq!(vc.queue_len(), 0, "queue and holdover are gone");
        assert!(!vc.discard(p2));
        vc.resume(lamport(12, 2));
        assert_eq!(vc.start(), lamport(12, 2));
        assert_eq!(vc.register(), lamport(13, 1), "the clock passed it");
        vc.validate().unwrap();
    }

    #[test]
    fn site_concurrent_stress_keeps_invariants() {
        let vc = Arc::new(VersionControl::for_site(16, 3));
        let mut hs = Vec::new();
        for t in 0..6u64 {
            let vc = Arc::clone(&vc);
            hs.push(thread::spawn(move || {
                for i in 0..300u64 {
                    let p = vc.register();
                    if (t + i) % 5 == 0 {
                        vc.discard(p);
                    } else {
                        // final boosted by a pseudo-remote site
                        let f = lamport((p >> 16) + i % 3, t % 4).max(p);
                        vc.complete_as(p, f);
                    }
                    vc.validate().unwrap();
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(vc.queue_len(), 0);
        vc.validate().unwrap();
    }
}
