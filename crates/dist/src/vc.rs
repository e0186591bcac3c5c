//! Per-site distributed version control.
//!
//! The centralized module (Figure 1) registers a transaction when its
//! serial position is known and advances `vtnc` over completed prefixes.
//! Distributed, the subtlety is that a transaction's **final** global
//! number is only known at the end of two-phase commit (it must dominate
//! every participant's proposal), which can exceed its local *proposal*.
//! The site therefore keys its queue by proposal and publishes a final
//! number into `vtnc` only once the **barrier** — the smallest local
//! proposal still in doubt, or anything a future prepare could propose —
//! has moved past it. This is precisely the "care … to ensure
//! correctness" Section 6 alludes to: a site's `vtnc` never passes an
//! in-doubt transaction, so a read-only snapshot at `sn ≤ vtnc` can never
//! be invalidated by a later commit.
//!
//! Invariants (checked by [`DistVc::validate`]):
//!
//! 1. every version this site will ever create carries a final number
//!    `≥` its proposal;
//! 2. proposals are issued above the local Lamport time, and the local
//!    time absorbs every observed final — so future proposals exceed
//!    every published final;
//! 3. `vtnc` = the largest known final below the barrier.

use crate::gtn::Gtn;
use mvcc_core::clock::SharedClock;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Prepared (in doubt): locks held, writes buffered at the site.
    InDoubt,
    /// Committed with this final global number, awaiting the barrier.
    Final(Gtn),
}

struct Inner {
    /// Local Lamport time.
    time: u64,
    /// Queue keyed by local proposal.
    queue: BTreeMap<Gtn, Entry>,
    /// Committed finals that have cleared the queue but not the barrier.
    holdover: BTreeSet<Gtn>,
    /// Threads in [`DistVc::wait_visible`]'s parking loop. A `vtnc`
    /// advance reads it in the critical section that publishes the new
    /// `vtnc` and notifies only when it is non-zero: a waiter counts
    /// itself under this mutex before its first `vtnc` check, so an
    /// advance either sees the count or happens-before that check.
    waiters: u32,
}

/// Distributed version-control module of one site.
pub struct DistVc {
    site: u16,
    inner: Mutex<Inner>,
    vtnc: AtomicU64,
    visible_cv: Condvar,
    visible_mu: Mutex<()>,
    /// Time source for [`Self::wait_visible`] deadlines. Unset falls back
    /// to the wall clock; a simulated cluster attaches its
    /// [`SimClock`](mvcc_core::SimClock) so waits replay byte-stable.
    clock: OnceLock<SharedClock>,
}

impl DistVc {
    /// Fresh module for `site`.
    pub fn new(site: u16) -> Self {
        DistVc {
            site,
            inner: Mutex::new(Inner {
                time: 0,
                queue: BTreeMap::new(),
                holdover: BTreeSet::new(),
                waiters: 0,
            }),
            vtnc: AtomicU64::new(0),
            visible_cv: Condvar::new(),
            visible_mu: Mutex::new(()),
            clock: OnceLock::new(),
        }
    }

    /// Attach the site's time source (first attachment wins). Wait
    /// deadlines are measured against it, so a simulated clock makes
    /// every `wait_visible` decision a pure function of virtual time.
    pub fn attach_clock(&self, clock: SharedClock) {
        let _ = self.clock.set(clock);
    }

    /// `VCstart` for this site: the current visible bound, lock-free.
    pub fn start(&self) -> Gtn {
        Gtn(self.vtnc.load(Ordering::Acquire))
    }

    /// Prepare-time registration: issue a local proposal above the local
    /// Lamport time and enqueue the transaction as in-doubt.
    pub fn propose(&self) -> Gtn {
        let mut inner = self.inner.lock();
        inner.time += 1;
        let p = Gtn::new(inner.time, self.site);
        inner.queue.insert(p, Entry::InDoubt);
        p
    }

    /// Absorb an observed global number (Lamport receive rule).
    pub fn observe(&self, g: Gtn) {
        let mut inner = self.inner.lock();
        inner.time = inner.time.max(g.time());
    }

    /// Commit-time completion: the transaction proposed `p` here and
    /// finalized as `f` (`f ≥ p`). Advances `vtnc` as far as the barrier
    /// allows.
    pub fn complete(&self, p: Gtn, f: Gtn) {
        debug_assert!(f >= p, "final {f} below proposal {p}");
        let mut inner = self.inner.lock();
        inner.time = inner.time.max(f.time());
        let prev = inner.queue.insert(p, Entry::Final(f));
        debug_assert_eq!(prev, Some(Entry::InDoubt), "complete of unknown proposal");
        self.drain(&mut inner);
    }

    /// Abort-time discard of a proposal.
    pub fn discard(&self, p: Gtn) {
        let mut inner = self.inner.lock();
        inner.queue.remove(&p);
        self.drain(&mut inner);
    }

    fn drain(&self, inner: &mut Inner) {
        // Pop the completed prefix of the proposal queue into holdover.
        while let Some((&p, &entry)) = inner.queue.first_key_value() {
            match entry {
                Entry::InDoubt => break,
                Entry::Final(f) => {
                    inner.queue.remove(&p);
                    inner.holdover.insert(f);
                }
            }
        }
        // Barrier: nothing in doubt below the head proposal, and any
        // future prepare proposes above the current Lamport time.
        let barrier = match inner.queue.keys().next() {
            Some(&head) => head,
            None => Gtn::new(inner.time + 1, 0),
        };
        // Publish the largest final below the barrier.
        let mut new_vtnc = None;
        while let Some(&f) = inner.holdover.first() {
            if f < barrier {
                inner.holdover.remove(&f);
                new_vtnc = Some(f);
            } else {
                break;
            }
        }
        if let Some(f) = new_vtnc {
            self.advance(inner, f);
        }
    }

    /// Publish `g` as `vtnc` if it is higher, waking counted waiters.
    /// Runs under `inner`; `visible_mu` nests inside it only when a
    /// waiter exists.
    fn advance(&self, inner: &Inner, g: Gtn) {
        if g.encoded() > self.vtnc.load(Ordering::Acquire) {
            self.vtnc.store(g.encoded(), Ordering::Release);
            if inner.waiters != 0 {
                let _waiters = self.visible_mu.lock();
                self.visible_cv.notify_all();
            }
        }
    }

    /// Rebuild the module after a site crash. The queue, holdover set and
    /// Lamport clock are volatile and already lost; `watermark` is the
    /// recovery point derived from durable state (the largest committed
    /// version number in the site's store). Visibility never moves
    /// backwards: pre-crash snapshots taken at the old `vtnc` stay valid
    /// because committed versions survive the crash.
    pub fn resume(&self, watermark: Gtn) {
        let mut inner = self.inner.lock();
        inner.queue.clear();
        inner.holdover.clear();
        // The clock must dominate every number this site ever exposed.
        inner.time = inner.time.max(watermark.time());
        self.advance(&inner, watermark);
    }

    /// Current visible bound.
    pub fn vtnc(&self) -> Gtn {
        Gtn(self.vtnc.load(Ordering::Acquire))
    }

    /// Block until `vtnc ≥ g` (used by lazily-contacted sites in a
    /// distributed read-only transaction). `None` on timeout.
    ///
    /// Gtn order is encoded-u64 order, so the site shares the core
    /// module's wait helper verbatim: the deadline comes from the
    /// attached clock, never from wall time directly.
    pub fn wait_visible(&self, g: Gtn, timeout: Duration) -> Option<Gtn> {
        // A satisfied wait or a zero-timeout poll never parks.
        let v = self.vtnc();
        if v >= g || timeout.is_zero() {
            return (v >= g).then_some(v);
        }
        self.inner.lock().waiters += 1;
        let res = mvcc_core::vc::wait_visible_with(
            &self.vtnc,
            &self.visible_mu,
            &self.visible_cv,
            self.clock.get(),
            g.encoded(),
            timeout,
        );
        self.inner.lock().waiters -= 1;
        res.map(Gtn)
    }

    /// Number of registered (in-doubt or pre-barrier) transactions.
    pub fn queue_len(&self) -> usize {
        let inner = self.inner.lock();
        inner.queue.len() + inner.holdover.len()
    }

    /// Check the module's invariants.
    pub fn validate(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let vtnc = Gtn(self.vtnc.load(Ordering::Acquire));
        if let Some(&head) = inner.queue.keys().next() {
            if head <= vtnc {
                return Err(format!("queued proposal {head} <= vtnc {vtnc}"));
            }
        }
        for &f in &inner.holdover {
            if f <= vtnc {
                return Err(format!("holdover final {f} <= vtnc {vtnc}"));
            }
        }
        if vtnc.time() > inner.time {
            return Err(format!(
                "vtnc time {} beyond clock {}",
                vtnc.time(),
                inner.time
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_module() {
        let vc = DistVc::new(1);
        assert_eq!(vc.start(), Gtn::ZERO);
        vc.validate().unwrap();
    }

    #[test]
    fn local_only_lifecycle() {
        let vc = DistVc::new(1);
        let p = vc.propose();
        assert_eq!(vc.start(), Gtn::ZERO); // in doubt
        vc.complete(p, p); // final == proposal for single-site txns
        assert_eq!(vc.start(), p);
        vc.validate().unwrap();
    }

    #[test]
    fn boosted_final_held_until_barrier() {
        // T1 proposes p1 then finalizes far above (another site boosted
        // it). A later local proposal p2 < f1 is still in doubt: vtnc
        // must NOT advance to f1 until p2 resolves.
        let vc = DistVc::new(1);
        let p1 = vc.propose(); // time 1
        let p2 = vc.propose(); // time 2
        let f1 = Gtn::new(10, 2); // boosted by site 2
        vc.complete(p1, f1);
        // barrier is p2 (time 2) < f1 → f1 not visible yet
        assert_eq!(vc.start(), Gtn::ZERO);
        vc.validate().unwrap();
        // p2 commits with final f2 ≥ observed time ... say its own p2
        vc.complete(p2, p2);
        // now both drain; vtnc = max final below new barrier = f1
        assert_eq!(vc.start(), f1);
        vc.validate().unwrap();
    }

    #[test]
    fn discard_of_blocker_releases() {
        let vc = DistVc::new(1);
        let p1 = vc.propose();
        let p2 = vc.propose();
        vc.complete(p2, p2);
        assert_eq!(vc.start(), Gtn::ZERO);
        vc.discard(p1);
        assert_eq!(vc.start(), p2);
        vc.validate().unwrap();
    }

    #[test]
    fn observe_advances_clock_above_finals() {
        let vc = DistVc::new(1);
        vc.observe(Gtn::new(100, 3));
        let p = vc.propose();
        assert!(p.time() > 100, "future proposals dominate observed finals");
    }

    #[test]
    fn future_proposals_stay_above_vtnc() {
        let vc = DistVc::new(1);
        for _ in 0..10 {
            let p = vc.propose();
            let f = Gtn::new(p.time() + 5, 9); // boosted finals
            vc.complete(p, f);
            vc.validate().unwrap();
            let p_next = vc.propose();
            assert!(
                p_next > vc.vtnc(),
                "proposal {p_next} must exceed vtnc {}",
                vc.vtnc()
            );
            vc.discard(p_next);
            vc.validate().unwrap();
        }
    }

    #[test]
    fn wait_visible_wakes() {
        use std::sync::Arc;
        let vc = Arc::new(DistVc::new(1));
        let p = vc.propose();
        let vc2 = Arc::clone(&vc);
        let h = std::thread::spawn(move || vc2.wait_visible(p, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        vc.complete(p, p);
        assert_eq!(h.join().unwrap(), Some(p));
    }

    #[test]
    fn concurrent_stress_keeps_invariants() {
        use std::sync::Arc;
        let vc = Arc::new(DistVc::new(3));
        let mut hs = Vec::new();
        for t in 0..6u64 {
            let vc = Arc::clone(&vc);
            hs.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let p = vc.propose();
                    if (t + i) % 5 == 0 {
                        vc.discard(p);
                    } else {
                        // final boosted by a pseudo-remote site
                        let f = Gtn::new(p.time() + (i % 3), (t % 4) as u16);
                        let f = f.max(p);
                        vc.complete(p, f);
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
