//! Per-object version chains.
//!
//! A chain holds the committed versions of one object, sorted by version
//! number ascending, and nothing else: uncommitted writes stay with the
//! protocol that made them (a write set, or timestamp ordering's
//! reservation table), never in the store. Every chain implicitly begins
//! with the initial version `x_0` (number [`INITIAL_VERSION`], empty
//! payload unless seeded), written by the pseudo-transaction `T_0` —
//! matching the model crate's convention.
//!
//! The newest committed version is stored inline, so it lives in the
//! store map's bucket; only older versions sit in a heap `Vec`. A read
//! at or above the newest number — every read-only read at `vtnc` and
//! every protocol read of the latest version — touches no heap memory.
//!
//! Chains are plain data: all locking lives in [`crate::store::MvStore`].

use crate::value::Value;
use crate::version::CommittedVersion;
use crate::{VersionNo, INITIAL_VERSION};

/// Errors from chain mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The insert would install a version number that already exists.
    DuplicateVersion(VersionNo),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::DuplicateVersion(n) => write!(f, "version {n} already exists"),
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
    /// Every other committed version, sorted by `number` ascending, all
    /// below `newest.number`. GC drains it but keeps its allocation.
    older: Vec<CommittedVersion>,
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
            older: Vec::new(),
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

    /// All committed versions, oldest first.
    pub fn committed(&self) -> impl DoubleEndedIterator<Item = &CommittedVersion> {
        self.older.iter().chain(std::iter::once(&self.newest))
    }

    // ---- writes ----------------------------------------------------------

    /// Insert a committed version: `end(T)`'s install, a baseline's
    /// commit, log replay and checkpoint restore. A number above the
    /// newest — the only case when versions are installed in `tn` order —
    /// costs one comparison; any other is binary-searched into `older`.
    pub fn insert_committed(&mut self, number: VersionNo, value: Value) -> Result<(), ChainError> {
        let version = CommittedVersion::new(number, value);
        if number > self.newest.number {
            let old = std::mem::replace(&mut self.newest, version);
            self.older.push(old);
            return Ok(());
        }
        match self.older.binary_search_by_key(&number, |v| v.number) {
            Err(i) if number != self.newest.number => {
                self.older.insert(i, version);
                Ok(())
            }
            _ => Err(ChainError::DuplicateVersion(number)),
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

    /// Payload bytes held by this chain: a walk over its versions, for
    /// [`MvStore::stats`](crate::MvStore::stats).
    pub fn payload_bytes(&self) -> usize {
        self.committed().map(|v| v.value.len()).sum()
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
    /// bytes) and the `older` vector (24). With the 8-byte key a bucket
    /// is 64 bytes, one cache line; growing it is a decision.
    #[test]
    fn chain_size_is_pinned() {
        assert_eq!(std::mem::size_of::<CommittedVersion>(), 32);
        assert_eq!(std::mem::size_of::<VersionChain>(), 56);
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
        c.insert_committed(2, Value::from_str("abc")).unwrap(); // 3
        assert_eq!(c.payload_bytes(), 11);
    }
}
