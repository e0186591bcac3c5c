//! The blocking-blame ledger: who made whom wait, and in what phase.
//!
//! Every blocking point in the engine — the `LockManager` slow path,
//! timestamp-ordering pending-write waits and `wait_visible` visibility
//! stalls — reports each completed wait here with the *blocker's
//! identity* captured at wait start. The ledger folds those edges into a
//! bounded pprof-style profile: `wait-point → blocker-phase → target`,
//! each row carrying a sample count and total waited nanoseconds, plus a
//! space-saving top-K of the worst individual blockers.
//!
//! The rows, the per-wait-point totals and the blocker table sit behind
//! one leaf `Mutex`: a record reads the blocker's phase first, then takes
//! the lock once, updates a map and a table, and releases it, acquiring
//! nothing else.
//!
//! Blocker *phase* comes from a tiny lossy `PhaseTable`: transactions
//! publish their current phase (execute / lock-wait / validate / commit)
//! with one relaxed store at each transition, and a waiter reads the
//! blocker's published phase at attribution time. Hash collisions read
//! as [`TxnPhase::Unknown`] — attribution of the *time* is unaffected
//! (the blocker is still named), only the phase split degrades.
//!
//! Recording happens on wait *completion*, so the ledger adds nothing to
//! the blocked sleep itself; the fast path never reaches this module
//! ([`crate::obs::Obs::attr`] is `None` unless attribution is enabled).

use super::topk::{SketchEntry, SpaceSaving};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a wait happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitPoint {
    /// 2PL lock-manager slow path: blocked on a held lock.
    LockWait = 0,
    /// Timestamp ordering: blocked on an older pending write.
    PendingWait = 1,
    /// `wait_visible`: blocked on the vtnc watermark.
    VisibilityWait = 2,
}

/// Number of wait points (array sizing).
pub const WAIT_POINTS: usize = 3;

impl WaitPoint {
    /// Stable name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            WaitPoint::LockWait => "lock_wait",
            WaitPoint::PendingWait => "pending_wait",
            WaitPoint::VisibilityWait => "visibility_wait",
        }
    }

    fn from_index(i: u8) -> WaitPoint {
        match i {
            0 => WaitPoint::LockWait,
            1 => WaitPoint::PendingWait,
            _ => WaitPoint::VisibilityWait,
        }
    }
}

/// The phase a blocking transaction last published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TxnPhase {
    /// Not published, already cleared, or lost to a table collision.
    Unknown = 0,
    /// Executing reads/writes.
    Execute = 1,
    /// Itself blocked acquiring a lock.
    LockWait = 2,
    /// Validating (OCC critical section).
    Validate = 3,
    /// Committing: WAL append, promotion, `VCcomplete`.
    Commit = 4,
}

impl TxnPhase {
    /// Stable name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TxnPhase::Unknown => "unknown",
            TxnPhase::Execute => "execute",
            TxnPhase::LockWait => "lock_wait",
            TxnPhase::Validate => "validate",
            TxnPhase::Commit => "commit",
        }
    }

    fn from_index(i: u8) -> TxnPhase {
        match i {
            1 => TxnPhase::Execute,
            2 => TxnPhase::LockWait,
            3 => TxnPhase::Validate,
            4 => TxnPhase::Commit,
            _ => TxnPhase::Unknown,
        }
    }
}

/// Lossy token → phase map: fixed slots, one relaxed store per phase
/// transition, collisions overwrite (and read back as `Unknown` for the
/// displaced token). Values pack `token << 3 | phase`.
///
/// Slots are cache-line padded: transactions publish on every lock
/// acquisition, so with 8-per-line packing the handful of live tokens
/// ping-pong a couple of lines between every core in the system. Padded,
/// each live token's line stays core-exclusive until a waiter actually
/// reads the blocker's phase (rare — once per resolved wait).
struct PhaseTable {
    slots: Box<[PhaseSlot]>,
}

#[repr(align(64))]
struct PhaseSlot(AtomicU64);

const PHASE_SLOTS: usize = 256;

impl PhaseTable {
    fn new() -> Self {
        PhaseTable {
            slots: (0..PHASE_SLOTS)
                .map(|_| PhaseSlot(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, token: u64) -> &AtomicU64 {
        // Fibonacci hash so consecutive tokens spread across slots.
        let h = token.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.slots[(h as usize) % self.slots.len()].0
    }

    fn set(&self, token: u64, phase: TxnPhase) {
        if token == 0 || token > (u64::MAX >> 3) {
            return;
        }
        self.slot(token)
            .store(token << 3 | phase as u64, Ordering::Relaxed);
    }

    fn get(&self, token: u64) -> TxnPhase {
        if token == 0 || token > (u64::MAX >> 3) {
            return TxnPhase::Unknown;
        }
        let v = self.slot(token).load(Ordering::Relaxed);
        if v >> 3 == token {
            TxnPhase::from_index((v & 0x7) as u8)
        } else {
            TxnPhase::Unknown
        }
    }

    fn clear(&self, token: u64) {
        if token == 0 || token > (u64::MAX >> 3) {
            return;
        }
        let slot = self.slot(token);
        // Only clear our own publication — a collision overwrite stands.
        let _ = slot.compare_exchange(
            token << 3 | TxnPhase::Commit as u64,
            0,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        let v = slot.load(Ordering::Relaxed);
        if v >> 3 == token {
            slot.store(0, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        for s in self.slots.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// One folded profile row: `wait-point → blocker-phase → target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameRow {
    /// Where the wait happened.
    pub wait: WaitPoint,
    /// The blocker's phase at attribution time.
    pub blocker_phase: TxnPhase,
    /// What was waited on: object id (lock/pending), transaction number
    /// (visibility/fold). `None` is the overflow row — targets beyond
    /// the row budget fold together.
    pub target: Option<u64>,
    /// Completed waits folded into this row.
    pub samples: u64,
    /// Total nanoseconds waited.
    pub wait_ns: u64,
}

impl BlameRow {
    /// The row in pprof "folded" form: `wait;phase;target count_ns`.
    pub fn folded(&self) -> String {
        match self.target {
            Some(t) => format!(
                "{};blocker_{};target_{} {}",
                self.wait.name(),
                self.blocker_phase.name(),
                t,
                self.wait_ns
            ),
            None => format!(
                "{};blocker_{};other {}",
                self.wait.name(),
                self.blocker_phase.name(),
                self.wait_ns
            ),
        }
    }
}

/// Point-in-time copy of the ledger.
#[derive(Debug, Clone, Default)]
pub struct BlameSnapshot {
    /// Folded rows, heaviest first.
    pub rows: Vec<BlameRow>,
    /// Per-wait-point nanoseconds attributed to a *named* blocker,
    /// indexed by `WaitPoint as usize`.
    pub attributed_ns: [u64; WAIT_POINTS],
    /// Per-wait-point nanoseconds with no blocker identity.
    pub unattributed_ns: [u64; WAIT_POINTS],
    /// Completed waits recorded, per wait point.
    pub samples: [u64; WAIT_POINTS],
    /// The individually worst blockers (key = blocker token or tn,
    /// contended_ns = wait they caused).
    pub top_blockers: Vec<SketchEntry>,
}

impl BlameSnapshot {
    /// Total waited ns across all wait points.
    pub fn total_ns(&self) -> u64 {
        self.attributed_ns.iter().sum::<u64>() + self.unattributed_ns.iter().sum::<u64>()
    }

    /// Fraction of `wait`'s time attributed to a named blocker
    /// (`1.0` when that wait point recorded nothing).
    pub fn attributed_ratio(&self, wait: WaitPoint) -> f64 {
        let a = self.attributed_ns[wait as usize];
        let u = self.unattributed_ns[wait as usize];
        if a + u == 0 {
            1.0
        } else {
            a as f64 / (a + u) as f64
        }
    }
}

// Row-key packing: wait (2 bits) | phase (3 bits) | target (59 bits).
const TARGET_BITS: u32 = 59;
const TARGET_MASK: u64 = (1 << TARGET_BITS) - 1;
/// Reserved target meaning "overflow row".
const OTHER_TARGET: u64 = TARGET_MASK;

fn pack(wait: WaitPoint, phase: TxnPhase, target: u64) -> u64 {
    ((wait as u64) << 62) | ((phase as u64) << TARGET_BITS) | target
}

/// Everything the ledger's lock guards.
struct Ledger {
    /// Folded rows by packed key: `(samples, wait_ns)`.
    rows: HashMap<u64, (u64, u64)>,
    /// Rows naming a target (the rest are overflow rows).
    named: usize,
    attributed_ns: [u64; WAIT_POINTS],
    unattributed_ns: [u64; WAIT_POINTS],
    samples: [u64; WAIT_POINTS],
    blockers: SpaceSaving,
}

/// The ledger. See the module docs.
///
/// At most `max_rows` rows name a target; once they are all taken, a
/// wait on any other target folds into its `(wait, phase)` overflow row,
/// so the profile holds at most `max_rows` plus one overflow row per
/// `(wait, phase)` pair, and no waited nanosecond is lost.
pub struct BlameLedger {
    max_rows: usize,
    ledger: Mutex<Ledger>,
    phases: PhaseTable,
}

impl BlameLedger {
    /// A ledger folding into at most `max_rows` named profile rows and
    /// monitoring `blocker_capacity` worst blockers.
    pub fn new(max_rows: usize, blocker_capacity: usize) -> Self {
        BlameLedger {
            max_rows,
            ledger: Mutex::new(Ledger {
                rows: HashMap::with_capacity(max_rows),
                named: 0,
                attributed_ns: [0; WAIT_POINTS],
                unattributed_ns: [0; WAIT_POINTS],
                samples: [0; WAIT_POINTS],
                blockers: SpaceSaving::new(blocker_capacity),
            }),
            phases: PhaseTable::new(),
        }
    }

    /// Publish `token`'s current phase (one relaxed store).
    pub fn set_phase(&self, token: u64, phase: TxnPhase) {
        self.phases.set(token, phase);
    }

    /// Retire `token`'s phase publication.
    pub fn clear_phase(&self, token: u64) {
        self.phases.clear(token);
    }

    /// The phase `blocker` last published (`Unknown` on miss/collision).
    pub fn phase_of(&self, blocker: u64) -> TxnPhase {
        self.phases.get(blocker)
    }

    /// Record one completed wait of `wait_ns` nanoseconds at `wait`,
    /// blocked on `target`, caused by `blocker` (`0` = unknown — the
    /// time still counts, unattributed). The blocker's phase is read
    /// from the phase table at record time; a blocker that has already
    /// finished (phase cleared) folds into [`TxnPhase::Commit`] — the
    /// wait ended precisely because the blocker reached its
    /// commit/abort release, so that is the phase to blame.
    pub fn record(&self, wait: WaitPoint, target: u64, blocker: u64, wait_ns: u64) {
        let w = wait as usize;
        let phase = match (blocker, self.phases.get(blocker)) {
            (0, _) => TxnPhase::Unknown,
            (_, TxnPhase::Unknown) => TxnPhase::Commit,
            (_, p) => p,
        };
        let mut l = self.ledger.lock();
        l.samples[w] += 1;
        if blocker != 0 {
            l.attributed_ns[w] += wait_ns;
            l.blockers.record(blocker, wait_ns, false);
        } else {
            l.unattributed_ns[w] += wait_ns;
        }
        let mut key = pack(wait, phase, target.min(OTHER_TARGET - 1));
        if !l.rows.contains_key(&key) {
            if l.named < self.max_rows {
                l.named += 1;
            } else {
                key = pack(wait, phase, OTHER_TARGET);
            }
        }
        let row = l.rows.entry(key).or_default();
        row.0 += 1;
        row.1 += wait_ns;
    }

    /// Copy out the folded profile, heaviest row first (ties broken by
    /// the packed key — a total order, so identical ledgers snapshot
    /// identically).
    pub fn snapshot(&self) -> BlameSnapshot {
        let l = self.ledger.lock();
        let mut rows: Vec<(u64, u64, u64)> =
            l.rows.iter().map(|(&k, &(n, ns))| (k, n, ns)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        BlameSnapshot {
            rows: rows
                .into_iter()
                .map(|(k, samples, wait_ns)| {
                    let target = k & TARGET_MASK;
                    BlameRow {
                        wait: WaitPoint::from_index((k >> 62) as u8),
                        blocker_phase: TxnPhase::from_index(((k >> TARGET_BITS) & 0x7) as u8),
                        target: (target != OTHER_TARGET).then_some(target),
                        samples,
                        wait_ns,
                    }
                })
                .collect(),
            attributed_ns: l.attributed_ns,
            unattributed_ns: l.unattributed_ns,
            samples: l.samples,
            top_blockers: l.blockers.top(usize::MAX),
        }
    }

    /// Clear everything (between experiment phases).
    pub fn reset(&self) {
        let mut l = self.ledger.lock();
        l.rows.clear();
        l.named = 0;
        l.attributed_ns = [0; WAIT_POINTS];
        l.unattributed_ns = [0; WAIT_POINTS];
        l.samples = [0; WAIT_POINTS];
        l.blockers.reset();
        drop(l);
        self.phases.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributed_wait_lands_in_phase_row() {
        let l = BlameLedger::new(64, 8);
        l.set_phase(42, TxnPhase::Commit);
        l.record(WaitPoint::LockWait, 7, 42, 1000);
        let s = l.snapshot();
        assert_eq!(s.rows.len(), 1);
        let r = s.rows[0];
        assert_eq!(r.wait, WaitPoint::LockWait);
        assert_eq!(r.blocker_phase, TxnPhase::Commit);
        assert_eq!(r.target, Some(7));
        assert_eq!(r.samples, 1);
        assert_eq!(r.wait_ns, 1000);
        assert_eq!(s.attributed_ns[WaitPoint::LockWait as usize], 1000);
        assert_eq!(s.unattributed_ns[WaitPoint::LockWait as usize], 0);
        assert!((s.attributed_ratio(WaitPoint::LockWait) - 1.0).abs() < 1e-9);
        assert_eq!(s.top_blockers.len(), 1);
        assert_eq!(s.top_blockers[0].key, 42);
        assert_eq!(s.top_blockers[0].contended_ns, 1000);
        assert_eq!(r.folded(), "lock_wait;blocker_commit;target_7 1000");
    }

    #[test]
    fn unknown_blocker_counts_unattributed() {
        let l = BlameLedger::new(64, 8);
        l.record(WaitPoint::VisibilityWait, 9, 0, 500);
        let s = l.snapshot();
        assert_eq!(s.unattributed_ns[WaitPoint::VisibilityWait as usize], 500);
        assert_eq!(s.rows[0].blocker_phase, TxnPhase::Unknown);
        assert_eq!(s.attributed_ratio(WaitPoint::VisibilityWait), 0.0);
        assert_eq!(s.attributed_ratio(WaitPoint::LockWait), 1.0, "empty = 1");
    }

    #[test]
    fn overflow_folds_into_other_row() {
        let l = BlameLedger::new(4, 8);
        for t in 0..20u64 {
            l.record(WaitPoint::LockWait, t, 0, 10);
        }
        let s = l.snapshot();
        assert_eq!(s.rows.len(), 5, "4 named + 1 other");
        let other = s.rows.iter().find(|r| r.target.is_none()).expect("other");
        assert_eq!(other.samples, 16);
        assert_eq!(s.total_ns(), 200, "no time lost to folding");
        assert!(other.folded().contains(";other "));
    }

    #[test]
    fn phase_table_set_get_clear() {
        let l = BlameLedger::new(8, 8);
        assert_eq!(l.phase_of(5), TxnPhase::Unknown);
        l.set_phase(5, TxnPhase::Execute);
        assert_eq!(l.phase_of(5), TxnPhase::Execute);
        l.set_phase(5, TxnPhase::LockWait);
        assert_eq!(l.phase_of(5), TxnPhase::LockWait);
        l.clear_phase(5);
        assert_eq!(l.phase_of(5), TxnPhase::Unknown);
        // token 0 never publishes
        l.set_phase(0, TxnPhase::Commit);
        assert_eq!(l.phase_of(0), TxnPhase::Unknown);
    }

    #[test]
    fn reset_clears_everything() {
        let l = BlameLedger::new(8, 8);
        l.set_phase(1, TxnPhase::Validate);
        l.record(WaitPoint::VisibilityWait, 3, 1, 100);
        l.reset();
        let s = l.snapshot();
        assert!(s.rows.is_empty());
        assert_eq!(s.total_ns(), 0);
        assert!(s.top_blockers.is_empty());
        assert_eq!(l.phase_of(1), TxnPhase::Unknown);
    }
}
