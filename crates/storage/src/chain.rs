//! Per-object version chains.
//!
//! A chain holds the committed versions of one object, sorted by version
//! number ascending, plus any pending (uncommitted) versions. Every chain
//! implicitly begins with the initial version `x_0` (number
//! [`INITIAL_VERSION`], empty payload unless seeded), written by the
//! pseudo-transaction `T_0` — matching the model crate's convention.
//!
//! The newest committed version is stored inline, so it lives in the
//! store map's bucket; only older versions sit in a heap `Vec`. A read
//! at or above the newest number — every read-only read at `vtnc` and
//! every protocol read of the latest version — touches no heap memory.
//!
//! Chains are plain data: all locking lives in [`crate::store::MvStore`].

use crate::value::Value;
use crate::version::{CommittedVersion, PendingVersion};
use crate::{VersionNo, INITIAL_VERSION};
use mvcc_model::TxnId;

/// Errors from chain mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No pending version installed by that writer.
    NoSuchPending(TxnId),
    /// Promotion would install a version number that already exists.
    DuplicateVersion(VersionNo),
    /// Promotion without a number for a φ version.
    MissingNumber(TxnId),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::NoSuchPending(t) => write!(f, "no pending version by {t}"),
            ChainError::DuplicateVersion(n) => write!(f, "version {n} already exists"),
            ChainError::MissingNumber(t) => {
                write!(f, "pending version by {t} needs a number to commit")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// The version list of one object.
#[derive(Clone, Debug)]
pub struct VersionChain {
    /// The committed version with the largest number. GC never prunes
    /// it, so a chain always has one.
    newest: CommittedVersion,
    /// `r-ts` of `newest` (paper Figure 3); a new newest starts at 0.
    read_ts: VersionNo,
    /// Every other committed version, sorted by `number` ascending, all
    /// below `newest.number`. GC drains it but keeps its allocation.
    older: Vec<CommittedVersion>,
    /// Pending versions (at most one under the paper's protocols; a `Vec`
    /// to support baselines that admit several in-flight writers).
    pending: Vec<PendingVersion>,
}

/// Where a new committed version goes: in place of `newest` (which
/// moves to the end of `older`), or at an index of `older`.
enum Slot {
    Newest,
    Older(usize),
}

impl Default for VersionChain {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionChain {
    /// A chain holding only the (empty-payload) initial version.
    pub fn new() -> Self {
        Self::seeded(Value::empty())
    }

    /// A chain whose initial version carries `value`.
    pub fn seeded(value: Value) -> Self {
        VersionChain {
            newest: CommittedVersion::new(INITIAL_VERSION, value),
            read_ts: 0,
            older: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Replace the initial version's payload (used when loading data).
    pub fn seed(&mut self, value: Value) {
        if self.newest.number == INITIAL_VERSION {
            self.newest.value = value;
            return;
        }
        match self.older.first_mut() {
            Some(first) if first.number == INITIAL_VERSION => first.value = value,
            _ => self
                .older
                .insert(0, CommittedVersion::new(INITIAL_VERSION, value)),
        }
    }

    // ---- reads -----------------------------------------------------------

    /// The most recent committed version.
    pub fn latest(&self) -> &CommittedVersion {
        &self.newest
    }

    /// Snapshot read: the committed version with the **largest number
    /// `≤ sn`** (paper Figure 2). `None` only if GC pruned every such
    /// version (paper: "barring the unavailability of an appropriate
    /// version to read due to garbage-collection").
    #[inline]
    pub fn at(&self, sn: VersionNo) -> Option<&CommittedVersion> {
        if sn >= self.newest.number {
            return Some(&self.newest);
        }
        let idx = self.older.partition_point(|v| v.number <= sn);
        idx.checked_sub(1).map(|i| &self.older[i])
    }

    /// Committed version with exactly this number.
    pub fn exact(&self, number: VersionNo) -> Option<&CommittedVersion> {
        if number == self.newest.number {
            return Some(&self.newest);
        }
        let i = self
            .older
            .binary_search_by_key(&number, |v| v.number)
            .ok()?;
        Some(&self.older[i])
    }

    /// All committed versions, oldest first.
    pub fn committed(&self) -> impl DoubleEndedIterator<Item = &CommittedVersion> {
        self.older.iter().chain(std::iter::once(&self.newest))
    }

    /// All pending versions.
    pub fn pending(&self) -> &[PendingVersion] {
        &self.pending
    }

    /// The pending version installed by `writer`, if any.
    pub fn pending_by(&self, writer: TxnId) -> Option<&PendingVersion> {
        self.pending.iter().find(|p| p.writer == writer)
    }

    /// Whether some pending version has a reserved number `< bound` —
    /// the condition that blocks a TO read/write behind an *older*
    /// in-flight writer (paper Figure 3 commentary).
    pub fn has_pending_older_than(&self, bound: VersionNo) -> bool {
        self.pending
            .iter()
            .any(|p| p.reserved_number.is_some_and(|n| n < bound))
    }

    // ---- timestamps ------------------------------------------------------

    /// `r-ts(x)` of the most recent version (paper Figure 3): the largest
    /// transaction number that read the latest version.
    pub fn read_ts(&self) -> VersionNo {
        self.read_ts
    }

    /// Raise the latest version's `r-ts` to at least `tn`
    /// (`r-ts(x) ← MAX(r-ts(x), tn(T))`).
    pub fn update_read_ts(&mut self, tn: VersionNo) {
        self.read_ts = self.read_ts.max(tn);
    }

    /// `w-ts(x)` of the most recent version: the largest committed version
    /// number, taking reserved numbers of pending writes into account
    /// (a granted-but-uncommitted write has already claimed its slot).
    pub fn write_ts(&self) -> VersionNo {
        let committed_max = self.newest.number;
        let pending_max = self
            .pending
            .iter()
            .filter_map(|p| p.reserved_number)
            .max()
            .unwrap_or(0);
        committed_max.max(pending_max)
    }

    // ---- writes ----------------------------------------------------------

    /// Install a pending version. The caller (protocol) is responsible for
    /// having granted the write; the chain accepts any number of pending
    /// versions but at most one per writer (re-writing replaces the
    /// payload, honoring the one-write-per-object model restriction).
    pub fn install_pending(&mut self, p: PendingVersion) {
        if let Some(existing) = self.pending.iter_mut().find(|q| q.writer == p.writer) {
            *existing = p;
        } else {
            // A chain keeps its pending capacity for good and almost never
            // holds two pending versions at once: one slot, not the four
            // a first push reserves.
            if self.pending.capacity() == 0 {
                self.pending.reserve_exact(1);
            }
            self.pending.push(p);
        }
    }

    /// Commit `writer`'s pending version. `number` overrides the reserved
    /// number and is mandatory for φ versions, which are staged before
    /// their writer has a number.
    pub fn promote_pending(
        &mut self,
        writer: TxnId,
        number: Option<VersionNo>,
    ) -> Result<VersionNo, ChainError> {
        let idx = self
            .pending
            .iter()
            .position(|p| p.writer == writer)
            .ok_or(ChainError::NoSuchPending(writer))?;
        let final_no = number
            .or(self.pending[idx].reserved_number)
            .ok_or(ChainError::MissingNumber(writer))?;
        let slot = self.slot(final_no)?;
        let p = self.pending.remove(idx);
        self.place(slot, CommittedVersion::new(final_no, p.value));
        Ok(final_no)
    }

    /// Drop `writer`'s pending version (abort path). Idempotent.
    pub fn discard_pending(&mut self, writer: TxnId) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.writer != writer);
        self.pending.len() != before
    }

    /// Directly insert a committed version (used by OCC's write phase and
    /// by the distributed apply path, where no pending version was staged
    /// in this chain).
    pub fn insert_committed(&mut self, number: VersionNo, value: Value) -> Result<(), ChainError> {
        let slot = self.slot(number)?;
        self.place(slot, CommittedVersion::new(number, value));
        Ok(())
    }

    /// Where a committed version numbered `number` goes, or
    /// [`ChainError::DuplicateVersion`]. A number above the newest — the
    /// only case when versions are installed in `tn` order — costs one
    /// comparison.
    fn slot(&self, number: VersionNo) -> Result<Slot, ChainError> {
        if number > self.newest.number {
            return Ok(Slot::Newest);
        }
        match self.older.binary_search_by_key(&number, |v| v.number) {
            Err(i) if number != self.newest.number => Ok(Slot::Older(i)),
            _ => Err(ChainError::DuplicateVersion(number)),
        }
    }

    fn place(&mut self, slot: Slot, version: CommittedVersion) {
        match slot {
            Slot::Newest => {
                let old = std::mem::replace(&mut self.newest, version);
                self.read_ts = 0;
                self.older.push(old);
            }
            Slot::Older(i) => self.older.insert(i, version),
        }
    }

    // ---- garbage collection ---------------------------------------------

    /// Prune committed versions that no current or future reader can
    /// choose, given that every live and future start number is
    /// `≥ watermark`: drop every version whose number is less than the
    /// largest version number `≤ watermark` (that one stays — it is what a
    /// snapshot at `watermark` reads). Returns how many were removed.
    pub fn prune_below(&mut self, watermark: VersionNo) -> usize {
        self.prune_keep_recent(watermark, 1)
    }

    /// Prune like [`prune_below`](Self::prune_below) but keep up to
    /// `keep` of the newest versions at or below the watermark (minimum
    /// 1 — the version a snapshot at `watermark` reads). `keep > 1`
    /// retains bounded history for time-travel reads below the
    /// watermark, one of the garbage-collection policies Section 6
    /// invites experimentation with.
    ///
    /// The newest version is never pruned, and `older` keeps its
    /// allocation: a chain written again after a sweep would otherwise
    /// go back to the allocator for its next version.
    pub fn prune_keep_recent(&mut self, watermark: VersionNo, keep: usize) -> usize {
        let keep = keep.max(1);
        let visible_end = if watermark >= self.newest.number {
            self.older.len() + 1
        } else {
            self.older.partition_point(|v| v.number <= watermark)
        };
        let keep_from = visible_end.saturating_sub(keep);
        self.older.drain(..keep_from);
        keep_from
    }

    /// Number of committed versions currently held.
    pub fn committed_len(&self) -> usize {
        self.older.len() + 1
    }

    /// Number of pending versions currently held.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Payload bytes held by this chain, committed and pending: a walk
    /// over its versions, for [`MvStore::stats`](crate::MvStore::stats).
    pub fn payload_bytes(&self) -> usize {
        self.committed().map(|v| v.value.len()).sum::<usize>()
            + self.pending.iter().map(|p| p.value.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn new_chain_has_initial_version() {
        let c = VersionChain::new();
        assert_eq!(c.latest().number, INITIAL_VERSION);
        assert_eq!(c.committed_len(), 1);
        assert_eq!(c.at(0).unwrap().number, 0);
        assert_eq!(c.at(100).unwrap().number, 0);
    }

    #[test]
    fn seed_replaces_initial_payload() {
        let mut c = VersionChain::new();
        c.seed(v(7));
        assert_eq!(c.latest().value.as_u64(), Some(7));
        assert_eq!(c.committed_len(), 1);
    }

    #[test]
    fn snapshot_read_picks_largest_leq() {
        let mut c = VersionChain::new();
        c.insert_committed(5, v(50)).unwrap();
        c.insert_committed(9, v(90)).unwrap();
        assert_eq!(c.at(4).unwrap().number, 0);
        assert_eq!(c.at(5).unwrap().number, 5);
        assert_eq!(c.at(8).unwrap().number, 5);
        assert_eq!(c.at(9).unwrap().number, 9);
        assert_eq!(c.at(u64::MAX).unwrap().number, 9);
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut c = VersionChain::new();
        c.insert_committed(9, v(90)).unwrap();
        c.insert_committed(5, v(50)).unwrap();
        let nums: Vec<u64> = c.committed().map(|x| x.number).collect();
        assert_eq!(nums, vec![0, 5, 9]);
        assert_eq!(c.latest().number, 9);
    }

    #[test]
    fn duplicate_version_rejected() {
        let mut c = VersionChain::new();
        c.insert_committed(5, v(1)).unwrap();
        assert_eq!(
            c.insert_committed(5, v(2)),
            Err(ChainError::DuplicateVersion(5))
        );
    }

    #[test]
    fn pending_phi_promote_with_number() {
        let mut c = VersionChain::new();
        c.install_pending(PendingVersion::phi(TxnId(1), v(10)));
        assert_eq!(c.pending_len(), 1);
        // φ version cannot commit without a number
        let mut c2 = c.clone();
        assert_eq!(
            c2.promote_pending(TxnId(1), None),
            Err(ChainError::MissingNumber(TxnId(1)))
        );
        let n = c.promote_pending(TxnId(1), Some(4)).unwrap();
        assert_eq!(n, 4);
        assert_eq!(c.pending_len(), 0);
        assert_eq!(c.latest().number, 4);
        assert_eq!(c.latest().value.as_u64(), Some(10));
    }

    #[test]
    fn pending_stamped_promote_uses_reserved() {
        let mut c = VersionChain::new();
        c.install_pending(PendingVersion::stamped(TxnId(3), 3, v(30)));
        let n = c.promote_pending(TxnId(3), None).unwrap();
        assert_eq!(n, 3);
        assert_eq!(c.exact(3).unwrap().value.as_u64(), Some(30));
    }

    #[test]
    fn promote_missing_writer_errors() {
        let mut c = VersionChain::new();
        assert_eq!(
            c.promote_pending(TxnId(9), Some(1)),
            Err(ChainError::NoSuchPending(TxnId(9)))
        );
    }

    #[test]
    fn discard_pending_is_idempotent() {
        let mut c = VersionChain::new();
        c.install_pending(PendingVersion::phi(TxnId(1), v(1)));
        assert!(c.discard_pending(TxnId(1)));
        assert!(!c.discard_pending(TxnId(1)));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn rewrite_by_same_writer_replaces_payload() {
        let mut c = VersionChain::new();
        c.install_pending(PendingVersion::phi(TxnId(1), v(1)));
        c.install_pending(PendingVersion::phi(TxnId(1), v(2)));
        assert_eq!(c.pending_len(), 1);
        c.promote_pending(TxnId(1), Some(1)).unwrap();
        assert_eq!(c.latest().value.as_u64(), Some(2));
    }

    #[test]
    fn pending_slot_is_reused_after_promote_or_discard() {
        let mut c = VersionChain::new();
        c.install_pending(PendingVersion::stamped(TxnId(1), 1, v(10)));
        assert_eq!(c.pending.capacity(), 1);
        c.promote_pending(TxnId(1), None).unwrap();
        c.install_pending(PendingVersion::stamped(TxnId(2), 2, v(20)));
        assert_eq!(c.pending_by(TxnId(2)).unwrap().reserved_number, Some(2));
        assert_eq!(c.write_ts(), 2);
        assert!(c.discard_pending(TxnId(2)));
        assert_eq!(c.latest().number, 1);
        c.install_pending(PendingVersion::stamped(TxnId(3), 3, v(30)));
        assert_eq!(c.pending.capacity(), 1);
        // A second concurrent writer still fits, by ordinary growth.
        c.install_pending(PendingVersion::stamped(TxnId(4), 4, v(40)));
        assert_eq!(c.pending_len(), 2);
        assert_eq!(c.promote_pending(TxnId(3), None), Ok(3));
        assert_eq!(c.promote_pending(TxnId(4), None), Ok(4));
        assert_eq!(c.latest().value.as_u64(), Some(40));
        assert_eq!(c.payload_bytes(), 8 * 3);
    }

    #[test]
    fn read_ts_tracking() {
        let mut c = VersionChain::new();
        c.update_read_ts(5);
        assert_eq!(c.read_ts(), 5);
        c.update_read_ts(3); // MAX semantics
        assert_eq!(c.read_ts(), 5);
        c.insert_committed(7, v(1)).unwrap();
        // r-ts belongs to the latest version; the new latest starts at 0
        assert_eq!(c.read_ts(), 0);
        c.update_read_ts(9);
        // a version slotted in below the latest leaves its r-ts alone
        c.insert_committed(4, v(2)).unwrap();
        assert_eq!(c.read_ts(), 9);
    }

    #[test]
    fn write_ts_accounts_for_pending() {
        let mut c = VersionChain::new();
        c.insert_committed(4, v(1)).unwrap();
        assert_eq!(c.write_ts(), 4);
        c.install_pending(PendingVersion::stamped(TxnId(8), 8, v(2)));
        assert_eq!(c.write_ts(), 8);
        assert!(c.has_pending_older_than(9));
        assert!(!c.has_pending_older_than(8));
    }

    #[test]
    fn prune_keeps_watermark_visible_version() {
        let mut c = VersionChain::new();
        for n in [2, 4, 6, 8] {
            c.insert_committed(n, v(n * 10)).unwrap();
        }
        // watermark 5: snapshot at 5 reads version 4; versions 0 and 2 die.
        let removed = c.prune_below(5);
        assert_eq!(removed, 2);
        let nums: Vec<u64> = c.committed().map(|x| x.number).collect();
        assert_eq!(nums, vec![4, 6, 8]);
        // reads at/above the watermark unaffected
        assert_eq!(c.at(5).unwrap().number, 4);
        assert_eq!(c.at(7).unwrap().number, 6);
        // reads below the watermark may now fail — that is the GC contract
        assert!(c.at(3).is_none());
    }

    #[test]
    fn prune_with_low_watermark_is_noop() {
        let mut c = VersionChain::new();
        c.insert_committed(5, v(1)).unwrap();
        assert_eq!(c.prune_below(0), 0);
        assert_eq!(c.committed_len(), 2);
    }

    #[test]
    fn prune_twice_is_idempotent() {
        let mut c = VersionChain::new();
        for n in [1, 2, 3] {
            c.insert_committed(n, v(n)).unwrap();
        }
        let first = c.prune_below(3);
        let second = c.prune_below(3);
        assert_eq!(first, 3);
        assert_eq!(second, 0);
        assert_eq!(c.committed_len(), 1);
    }

    #[test]
    fn prune_keep_recent_bounds_history() {
        let mut c = VersionChain::new();
        for n in [2, 4, 6, 8, 10] {
            c.insert_committed(n, v(n)).unwrap();
        }
        // watermark 9: visible set ≤ 9 is {0,2,4,6,8}; keep newest 3 of
        // those plus everything above the watermark.
        let removed = c.prune_keep_recent(9, 3);
        assert_eq!(removed, 2);
        let nums: Vec<u64> = c.committed().map(|x| x.number).collect();
        assert_eq!(nums, vec![4, 6, 8, 10]);
        // time-travel reads within the kept window still work
        assert_eq!(c.at(7).unwrap().number, 6);
        assert_eq!(c.at(5).unwrap().number, 4);
        // below the kept window is gone
        assert!(c.at(3).is_none());
    }

    #[test]
    fn prune_keep_recent_one_equals_prune_below() {
        let mut a = VersionChain::new();
        let mut b = VersionChain::new();
        for n in [1, 3, 5, 7] {
            a.insert_committed(n, v(n)).unwrap();
            b.insert_committed(n, v(n)).unwrap();
        }
        assert_eq!(a.prune_below(6), b.prune_keep_recent(6, 1));
        let na: Vec<u64> = a.committed().map(|x| x.number).collect();
        let nb: Vec<u64> = b.committed().map(|x| x.number).collect();
        assert_eq!(na, nb);
    }

    #[test]
    fn prune_keep_recent_zero_clamps_to_one() {
        let mut c = VersionChain::new();
        c.insert_committed(5, v(5)).unwrap();
        c.prune_keep_recent(10, 0);
        assert_eq!(c.committed_len(), 1);
        assert_eq!(c.at(10).unwrap().number, 5);
    }

    /// The chain is the store map's bucket value: its newest version (32
    /// bytes), that version's `r-ts` (8), and the `older` and `pending`
    /// vectors (24 each). With the 8-byte key a bucket is 96 bytes;
    /// growing it is a decision.
    #[test]
    fn chain_size_is_pinned() {
        assert_eq!(std::mem::size_of::<CommittedVersion>(), 32);
        assert_eq!(std::mem::size_of::<VersionChain>(), 88);
    }

    /// Materializing a chain allocates nothing; the first write moves the
    /// initial version into `older`.
    #[test]
    fn fresh_chain_owns_no_heap_memory() {
        let mut c = VersionChain::new();
        assert_eq!(c.older.capacity(), 0);
        c.insert_committed(1, v(1)).unwrap();
        assert_eq!(c.older.len(), 1);
        assert_eq!(c.at(1).unwrap().value.as_u64(), Some(1));
        assert_eq!(c.at(0).unwrap().number, 0);
    }

    #[test]
    fn prune_keeps_older_allocation() {
        let mut c = VersionChain::new();
        for n in 1..=4 {
            c.insert_committed(n, v(n)).unwrap();
        }
        let cap = c.older.capacity();
        assert_eq!(c.prune_below(10), 4);
        assert!(c.older.is_empty());
        assert_eq!(c.older.capacity(), cap);
        // The next writes reuse it.
        for n in 5..=8 {
            c.insert_committed(n, v(n)).unwrap();
        }
        assert_eq!(c.older.capacity(), cap);
        assert_eq!(c.latest().number, 8);
    }

    #[test]
    fn payload_bytes_sums_versions() {
        let mut c = VersionChain::new();
        c.insert_committed(1, v(1)).unwrap(); // 8 bytes
        c.install_pending(PendingVersion::phi(TxnId(2), Value::from_str("abc"))); // 3
        assert_eq!(c.payload_bytes(), 11);
    }
}
