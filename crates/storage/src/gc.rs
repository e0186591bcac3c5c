//! Garbage collection support (paper Section 6).
//!
//! "The only restriction the version control mechanism imposes on the
//! garbage collection scheme is that it must not discard any version of
//! objects as young as or younger than `vtnc`." Pruning therefore runs
//! against a *floor* no larger than `vtnc`; and because versions older
//! than `vtnc` may still be needed by *currently running* read-only
//! transactions (whose start numbers were earlier values of `vtnc`), the
//! floor is further lowered to the oldest start number announced in
//! [`RoScanRegistry`]. The paper notes this integration is easy
//! precisely because RO transactions are invisible to concurrency control:
//! "a garbage collection algorithm, which keeps the information about
//! read-only transactions, can be easily integrated".

use crate::VersionNo;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Statistics of one GC pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Watermark the pass used.
    pub watermark: VersionNo,
    /// Number of chains visited.
    pub chains_examined: usize,
    /// Committed versions removed.
    pub versions_pruned: usize,
    /// Committed versions remaining after the pass.
    pub versions_retained: usize,
}

/// One announcement slot, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    /// Readers announced here and not yet retired.
    count: AtomicU64,
    /// While `count > 0`: a number no larger than any of those readers'
    /// start numbers. Meaningless while `count` is 0.
    pin: AtomicU64,
}

/// An atomic alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Line(AtomicU64);

/// Number of announcement slots.
const SLOTS: usize = 16;

/// The snapshots garbage collection must not break, and the floor it
/// prunes against.
///
/// A read-only transaction (or a checkpoint) *announces* itself in a
/// slot before it takes its start number and *retires* when it is done.
/// [`scan`](Self::scan) reads `vtnc`, then every slot, and returns
/// `min(vtnc, oldest pin)`: no live or future reader's start number is
/// below it. [`publish`](Self::publish) raises the published
/// [`floor`](Self::floor) to a fresh scan; it only ever grows, so a stale
/// read of it prunes less and stays safe.
///
/// A thread announces in its home slot (round-robin on first use), so
/// with at least as many slots as reader threads no two threads share a
/// line. Announcing is two read-modify-writes on that line and retiring
/// one: no lock, no allocation, and start numbers are full `u64`s.
///
/// # The handshake
///
/// `announce` pins the slot at `vtnc` (storing the pin if the slot's
/// count was 0, else lowering the slot to it) before it reads `sn`, so
/// `pin ≤ sn`; every step, and every load of a scan, is sequentially
/// consistent. A scan that misses an announcement read a `vtnc` no
/// larger than that reader's `sn` (DESIGN.md §21). A slot keeps its
/// oldest pin until its count returns to 0: conservative for a nested or
/// co-located reader, never unsafe.
pub struct RoScanRegistry {
    slots: Box<[Slot]>,
    /// The published floor (see [`floor`](Self::floor)).
    floor: Line,
}

impl Default for RoScanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Round-robin source of slot assignments, cached per thread.
static NEXT_SLOT_SEED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT_SEED: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's slot index.
fn home_slot() -> usize {
    SLOT_SEED.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT_SEED.fetch_add(1, Ordering::Relaxed));
        }
        s.get() % SLOTS
    })
}

impl RoScanRegistry {
    /// A registry with no reader announced and a published floor of 0.
    pub fn new() -> Self {
        RoScanRegistry {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            floor: Line::default(),
        }
    }

    /// Announce a reader, then take its start number from `vtnc` (which
    /// must be a sequentially consistent load of `vtnc`). Returns the
    /// slot to pass to [`retire`](Self::retire) and the start number.
    pub fn announce(&self, vtnc: impl Fn() -> VersionNo) -> (usize, VersionNo) {
        let i = home_slot();
        let slot = &self.slots[i];
        let pin = vtnc();
        if slot.count.fetch_add(1, Ordering::SeqCst) == 0 {
            slot.pin.store(pin, Ordering::SeqCst);
        } else {
            slot.pin.fetch_min(pin, Ordering::SeqCst);
        }
        (i, vtnc())
    }

    /// Retire a reader announced in `slot`: its snapshot no longer needs
    /// protecting. `Release` pairs with the scan's count load, so the
    /// reader's reads happen before any prune that no longer counts it.
    pub fn retire(&self, slot: usize) {
        self.slots[slot].count.fetch_sub(1, Ordering::Release);
    }

    /// `min(vtnc, oldest announced pin)`, reading `vtnc` (a sequentially
    /// consistent load, as for [`announce`](Self::announce)) first: every
    /// live and future start number is at least this.
    pub fn scan(&self, vtnc: impl Fn() -> VersionNo) -> VersionNo {
        let v = vtnc();
        self.slots
            .iter()
            .filter(|s| s.count.load(Ordering::SeqCst) != 0)
            .map(|s| s.pin.load(Ordering::SeqCst))
            .fold(v, VersionNo::min)
    }

    /// Raise the published floor to a fresh [`scan`](Self::scan); returns
    /// the floor now published.
    pub fn publish(&self, vtnc: impl Fn() -> VersionNo) -> VersionNo {
        let fresh = self.scan(vtnc);
        self.floor.0.fetch_max(fresh, Ordering::AcqRel).max(fresh)
    }

    /// The published floor: the largest [`scan`](Self::scan) published so
    /// far. Never above `vtnc` and never above a live reader's start
    /// number, so pruning against it is always safe.
    pub fn floor(&self) -> VersionNo {
        self.floor.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_floor_is_vtnc() {
        let r = RoScanRegistry::new();
        assert_eq!(r.scan(|| 42), 42);
        assert_eq!(r.floor(), 0);
        assert_eq!(r.publish(|| 42), 42);
        assert_eq!(r.floor(), 42);
    }

    #[test]
    fn floor_clamped_by_oldest_reader_until_it_retires() {
        let r = RoScanRegistry::new();
        let (a, sn_a) = r.announce(|| 10);
        let (b, sn_b) = r.announce(|| 20);
        assert_eq!((sn_a, sn_b), (10, 20));
        assert_eq!(r.scan(|| 25), 10);
        // Both share this thread's slot: it keeps the older pin.
        r.retire(a);
        assert_eq!(r.scan(|| 25), 10);
        r.retire(b);
        assert_eq!(r.scan(|| 25), 25);
        // The next announcement in the idle slot replaces the old pin.
        let (c, _) = r.announce(|| 30);
        assert_eq!(r.scan(|| 31), 30);
        r.retire(c);
    }

    #[test]
    fn published_floor_never_goes_down_or_above_vtnc() {
        let r = RoScanRegistry::new();
        assert_eq!(r.publish(|| 7), 7);
        let (s, _) = r.announce(|| 3); // a reader "behind" the floor
        assert_eq!(r.publish(|| 9), 7);
        r.retire(s);
        assert_eq!(r.publish(|| 9), 9);
        // A reader announced "in the future" never lifts it past vtnc.
        let (s, _) = r.announce(|| 100);
        assert_eq!(r.scan(|| 12), 12);
        r.retire(s);
    }

    #[test]
    fn the_pin_is_read_before_the_start_number() {
        let r = RoScanRegistry::new();
        let vtnc = AtomicU64::new(5);
        // `vtnc` advances between the two reads: the slot is pinned at the
        // first, the reader gets the second.
        let (s, sn) = r.announce(|| vtnc.fetch_add(1, Ordering::SeqCst));
        assert_eq!(sn, 6);
        assert_eq!(r.scan(|| 50), 5);
        r.retire(s);
    }

    #[test]
    fn slots_are_cache_lines() {
        assert_eq!(std::mem::align_of::<Slot>(), 64);
        assert_eq!(std::mem::size_of::<Slot>(), 64);
    }

    /// Threads announce and retire while a scanner checks that every
    /// reader's start number is at or above every floor published while
    /// it was live.
    #[test]
    fn concurrent_announcements_are_never_passed() {
        use std::sync::atomic::AtomicBool;
        let r = RoScanRegistry::new();
        let vtnc = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    vtnc.fetch_add(1, Ordering::SeqCst);
                }
            });
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    r.publish(|| vtnc.load(Ordering::SeqCst));
                }
            });
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..20_000 {
                            let (slot, sn) = r.announce(|| vtnc.load(Ordering::SeqCst));
                            let floor = r.floor();
                            assert!(floor <= sn, "floor {floor} passed live sn {sn}");
                            r.retire(slot);
                        }
                    })
                })
                .collect();
            for h in readers {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
