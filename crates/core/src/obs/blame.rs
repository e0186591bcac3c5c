//! The blocking-blame ledger: who made whom wait, and in what phase.
//!
//! Every blocking point in the engine — the `LockManager` slow path,
//! timestamp-ordering pending-write waits and `wait_visible` visibility
//! stalls — reports each
//! completed wait here with the *blocker's identity* captured at wait
//! start. The ledger folds those edges into a bounded pprof-style
//! profile: `wait-point → blocker-phase → target`, each row carrying a
//! sample count and total waited nanoseconds, plus a space-saving top-K
//! of the worst individual blockers.
//!
//! Blocker *phase* comes from a tiny lossy [`PhaseTable`]: transactions
//! publish their current phase (execute / lock-wait / validate / commit)
//! with one relaxed store at each transition, and a waiter reads the
//! blocker's published phase at attribution time. Hash collisions read
//! as [`TxnPhase::Unknown`] — attribution of the *time* is unaffected
//! (the blocker is still named), only the phase split degrades.
//!
//! Recording happens on wait *completion*, so the ledger adds nothing to
//! the blocked sleep itself; the fast path never reaches this module
//! ([`crate::obs::Obs::attr`] is `None` unless attribution is enabled).

use crate::obs::topk::StripedTopK;
use mvcc_storage::SketchEntry;
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

/// Slot key meaning "row unclaimed". A packed key can never be
/// `u64::MAX` (the phase field tops out at `Commit = 4`, so the three
/// phase bits are never all ones).
const ROW_EMPTY: u64 = u64::MAX;

/// How far a row probes from its hash before giving up and folding into
/// the per-(wait, phase) overflow row.
const ROW_PROBE: usize = 16;

/// Distinct phases (overflow-row cache sizing).
const PHASES: usize = 5;

/// The ledger. See the module docs.
///
/// The row table is open-addressed over *split* arrays: the dense key
/// array is read-mostly after claims (a probe touches two cache lines
/// for a 16-step neighborhood and they stay in Shared state across
/// cores), while the per-row counters live in their own array so their
/// constant `fetch_add` traffic never invalidates the lines a probe
/// scans. Overflow rows additionally cache their claimed slot index, so
/// folding into "other" is one indexed bump even when the table is
/// full — a full workload (more live targets than rows) costs each
/// record one bounded probe plus one indexed bump, never a table scan.
pub struct BlameLedger {
    row_keys: Box<[AtomicU64]>,
    row_samples: Box<[AtomicU64]>,
    row_ns: Box<[AtomicU64]>,
    /// Claimed row slots. Named rows stop claiming when the table is
    /// nearly full so the overflow rows can always materialize.
    fills: AtomicU64,
    /// Slot index + 1 of each claimed `(wait, phase)` overflow row
    /// (0 = not yet claimed).
    overflow_slots: [AtomicU64; WAIT_POINTS * PHASES],
    attributed_ns: [AtomicU64; WAIT_POINTS],
    unattributed_ns: [AtomicU64; WAIT_POINTS],
    samples: [AtomicU64; WAIT_POINTS],
    blockers: StripedTopK,
    phases: PhaseTable,
}

impl BlameLedger {
    /// A ledger folding into at most `max_rows` profile rows and
    /// monitoring `blocker_capacity` worst blockers.
    pub fn new(max_rows: usize, blocker_capacity: usize) -> Self {
        let rows = max_rows.max(WAIT_POINTS);
        BlameLedger {
            row_keys: (0..rows).map(|_| AtomicU64::new(ROW_EMPTY)).collect(),
            row_samples: (0..rows).map(|_| AtomicU64::new(0)).collect(),
            row_ns: (0..rows).map(|_| AtomicU64::new(0)).collect(),
            fills: AtomicU64::new(0),
            overflow_slots: std::array::from_fn(|_| AtomicU64::new(0)),
            attributed_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            unattributed_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: std::array::from_fn(|_| AtomicU64::new(0)),
            blockers: StripedTopK::new(blocker_capacity),
            phases: PhaseTable::new(),
        }
    }

    #[inline]
    fn bump_cell(&self, i: usize, wait_ns: u64) {
        self.row_samples[i].fetch_add(1, Ordering::Relaxed);
        self.row_ns[i].fetch_add(wait_ns, Ordering::Relaxed);
    }

    /// Find or claim the slot for `key`, probing `probe` steps from its
    /// hash; named rows keep `reserve` slots unclaimed so overflow rows
    /// can always materialize. Returns the slot index bumped, if any.
    fn bump_row(&self, key: u64, wait_ns: u64, probe: usize, reserve: u64) -> Option<usize> {
        let len = self.row_keys.len();
        let start = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % len;
        for i in 0..probe.min(len) {
            let idx = (start + i) % len;
            let slot = &self.row_keys[idx];
            let mut k = slot.load(Ordering::Acquire);
            if k == ROW_EMPTY {
                if self.fills.load(Ordering::Relaxed) + reserve >= len as u64 {
                    // Reserve hit: no-deletion linear probing means the
                    // key cannot live past this empty slot — fold.
                    return None;
                }
                match slot.compare_exchange(ROW_EMPTY, key, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        self.fills.fetch_add(1, Ordering::Relaxed);
                        k = key;
                    }
                    Err(winner) => k = winner,
                }
            }
            if k == key {
                self.bump_cell(idx, wait_ns);
                return Some(idx);
            }
        }
        None
    }

    /// Fold into the `(wait, phase)` overflow row: one indexed bump
    /// after the first claim.
    fn bump_overflow(&self, wait: WaitPoint, phase: TxnPhase, wait_ns: u64) {
        let cache = &self.overflow_slots[wait as usize * PHASES + phase as usize];
        let cached = cache.load(Ordering::Acquire);
        if cached != 0 {
            self.bump_cell(cached as usize - 1, wait_ns);
            return;
        }
        if let Some(idx) = self.bump_row(
            pack(wait, phase, OTHER_TARGET),
            wait_ns,
            self.row_keys.len(),
            0,
        ) {
            cache.store(idx as u64 + 1, Ordering::Release);
        }
        // If even the full-table probe found no slot, the aggregate
        // counters still carry the time.
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
        self.samples[w].fetch_add(1, Ordering::Relaxed);
        let phase = if blocker != 0 {
            self.attributed_ns[w].fetch_add(wait_ns, Ordering::Relaxed);
            self.blockers.record(blocker, wait_ns, false);
            match self.phases.get(blocker) {
                TxnPhase::Unknown => TxnPhase::Commit,
                p => p,
            }
        } else {
            self.unattributed_ns[w].fetch_add(wait_ns, Ordering::Relaxed);
            TxnPhase::Unknown
        };
        // Per-target row first; when its neighborhood is full, fold into
        // the per-(wait, phase) overflow row; if even that can't claim a
        // slot the aggregate counters above still carry the time.
        let key = pack(wait, phase, target.min(OTHER_TARGET - 1));
        let reserve = (self.row_keys.len() as u64 / 4).clamp(1, 8);
        if self.bump_row(key, wait_ns, ROW_PROBE, reserve).is_none() {
            self.bump_overflow(wait, phase, wait_ns);
        }
    }

    /// Copy out the folded profile, heaviest row first (ties broken by
    /// the packed key — a total order, so identical ledgers snapshot
    /// identically).
    pub fn snapshot(&self) -> BlameSnapshot {
        let mut out: Vec<(u64, u64, u64)> = self
            .row_keys
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let k = s.load(Ordering::Acquire);
                (k != ROW_EMPTY).then(|| {
                    (
                        k,
                        self.row_samples[i].load(Ordering::Relaxed),
                        self.row_ns[i].load(Ordering::Relaxed),
                    )
                })
            })
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        BlameSnapshot {
            rows: out
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
            attributed_ns: std::array::from_fn(|i| self.attributed_ns[i].load(Ordering::Relaxed)),
            unattributed_ns: std::array::from_fn(|i| {
                self.unattributed_ns[i].load(Ordering::Relaxed)
            }),
            samples: std::array::from_fn(|i| self.samples[i].load(Ordering::Relaxed)),
            top_blockers: self.blockers.merged().snapshot(),
        }
    }

    /// Clear everything (between experiment phases).
    pub fn reset(&self) {
        for i in 0..self.row_keys.len() {
            self.row_keys[i].store(ROW_EMPTY, Ordering::Relaxed);
            self.row_samples[i].store(0, Ordering::Relaxed);
            self.row_ns[i].store(0, Ordering::Relaxed);
        }
        self.fills.store(0, Ordering::Relaxed);
        for s in self.overflow_slots.iter() {
            s.store(0, Ordering::Relaxed);
        }
        for i in 0..WAIT_POINTS {
            self.attributed_ns[i].store(0, Ordering::Relaxed);
            self.unattributed_ns[i].store(0, Ordering::Relaxed);
            self.samples[i].store(0, Ordering::Relaxed);
        }
        self.blockers.reset();
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
        assert!(s.rows.len() <= 5, "4 named + 1 other");
        let other = s.rows.iter().find(|r| r.target.is_none()).expect("other");
        // The atomic row table keeps a small claim reserve for the
        // overflow row, so fewer named rows fit than `max_rows`.
        assert!(other.samples >= 16, "folded {} < 16", other.samples);
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
