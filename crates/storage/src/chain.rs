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
//! The newest committed version and the one below it are stored inline,
//! in the store's slot next to the key (see [`crate::store`]); older ones
//! sit in a heap history that exists only while a third version is live.
//! A read at or above the newest number — every read-only read at `vtnc`
//! and every protocol read of the latest version — touches no heap
//! memory, and neither does an install onto a one-version chain.
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
    /// The committed version just below `newest`, if any.
    prev: Option<CommittedVersion>,
    /// Every version below `prev`, ascending; empty while `prev` is
    /// `None`. Boxed for an 8-byte pointer: a bare `Vec` (24 bytes) would
    /// not fit beside the key in one 64-byte slot.
    #[allow(clippy::box_collection)]
    history: Option<Box<Vec<CommittedVersion>>>,
}

/// GC keeps a drained history with more slots than this (a hot chain's);
/// a cold chain's next install lands in `prev` and allocates nothing.
const HOT_HISTORY: usize = 4;

impl Default for VersionChain {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionChain {
    /// A chain holding only the (empty-payload) initial version.
    pub fn new() -> Self {
        VersionChain {
            newest: CommittedVersion::new(INITIAL_VERSION, Value::empty()),
            prev: None,
            history: None,
        }
    }

    /// Replace the initial version's payload (used when loading data).
    pub fn seed(&mut self, value: Value) {
        let oldest = match self.history.as_deref_mut().and_then(|h| h.first_mut()) {
            Some(v) => v,
            None => self.prev.as_mut().unwrap_or(&mut self.newest),
        };
        if oldest.number == INITIAL_VERSION {
            oldest.value = value;
        } else {
            self.insert_committed(INITIAL_VERSION, value)
                .expect("every held version is above the initial one");
        }
    }

    /// The versions below `prev`, oldest first.
    fn history(&self) -> &[CommittedVersion] {
        self.history.as_deref().map_or(&[], Vec::as_slice)
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
        match &self.prev {
            Some(prev) if sn >= prev.number => Some(prev),
            _ => {
                let history = self.history();
                let idx = history.partition_point(|v| v.number <= sn);
                idx.checked_sub(1).map(|i| &history[i])
            }
        }
    }

    /// All committed versions, oldest first.
    pub fn committed(&self) -> impl DoubleEndedIterator<Item = &CommittedVersion> {
        self.history()
            .iter()
            .chain(&self.prev)
            .chain(std::iter::once(&self.newest))
    }

    // ---- writes ----------------------------------------------------------

    /// Insert a committed version: `end(T)`'s install, a baseline's
    /// commit, log replay and checkpoint restore. A number above the
    /// newest — the only case when versions are installed in `tn` order —
    /// moves `newest` into `prev` and `prev` onto the heap history; a
    /// lower number is swapped down to its place.
    pub fn insert_committed(&mut self, number: VersionNo, value: Value) -> Result<(), ChainError> {
        let mut version = CommittedVersion::new(number, value);
        let dup = Err(ChainError::DuplicateVersion(number));
        if number == self.newest.number || self.prev.as_ref().is_some_and(|p| p.number == number) {
            return dup;
        } else if number > self.newest.number {
            std::mem::swap(&mut self.newest, &mut version);
        }
        match &mut self.prev {
            None => self.prev = Some(version),
            Some(prev) => {
                if version.number > prev.number {
                    std::mem::swap(prev, &mut version);
                }
                let history = self.history.get_or_insert_with(Box::default);
                if history
                    .last()
                    .is_none_or(|last| last.number < version.number)
                {
                    history.push(version);
                    return Ok(());
                }
                let Err(i) = history.binary_search_by_key(&version.number, |v| v.number) else {
                    return dup;
                };
                history.insert(i, version);
            }
        }
        Ok(())
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
    /// The newest version is never pruned. A drained history buffer is
    /// freed unless it holds more than four slots (a hot chain's).
    pub fn prune_keep_recent(&mut self, watermark: VersionNo, keep: usize) -> usize {
        let history = self.history().len();
        let visible = self
            .committed()
            .take_while(|v| v.number <= watermark)
            .count();
        let doomed = visible.saturating_sub(keep.max(1));
        if let Some(h) = &mut self.history {
            h.drain(..doomed.min(history));
            if h.is_empty() && h.capacity() <= HOT_HISTORY {
                self.history = None;
            }
        }
        if doomed > history {
            self.prev = None;
        }
        doomed
    }

    /// Number of committed versions currently held.
    pub fn committed_len(&self) -> usize {
        self.history().len() + usize::from(self.prev.is_some()) + 1
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

    /// The chain is the store slot's value: its newest version (24
    /// bytes), `prev` (24, the version's niche holds `None`) and the
    /// history pointer (8). With the 8-byte key a slot is 64 bytes, one
    /// cache line; growing it is a decision.
    #[test]
    fn chain_size_is_pinned() {
        assert_eq!(std::mem::size_of::<CommittedVersion>(), 24);
        assert_eq!(std::mem::size_of::<VersionChain>(), 56);
    }

    /// Materializing a chain allocates nothing, and neither do its first
    /// write, which moves the initial version into `prev`, or a chain of
    /// two versions; the third version starts the heap history.
    #[test]
    fn chain_spills_to_the_heap_only_past_two_versions() {
        let mut c = VersionChain::new();
        c.insert_committed(1, v(1)).unwrap();
        assert!(c.history.is_none());
        assert_eq!(c.at(1).unwrap().value.as_u64(), Some(1));
        assert_eq!(c.at(0).unwrap().number, 0);
        c.insert_committed(2, v(2)).unwrap();
        assert_eq!(c.history().len(), 1);
        assert_eq!(c.history()[0].number, 0);
        assert_eq!(c.at(1).unwrap().number, 1);
        assert_eq!(c.at(0).unwrap().number, 0);
    }

    /// The retention rule: a cold chain's drained history is freed, so its
    /// next install lands in `prev`; a hot chain's (more than
    /// [`HOT_HISTORY`] slots) is kept, and its next writes reuse it.
    #[test]
    fn gc_frees_a_cold_drained_history_and_keeps_a_hot_one() {
        let mut cold = VersionChain::new();
        for n in 1..=3 {
            cold.insert_committed(n, v(n)).unwrap();
        }
        assert!(cold.history.as_ref().unwrap().capacity() <= HOT_HISTORY);
        assert_eq!(cold.prune_below(10), 3);
        assert!(cold.history.is_none() && cold.prev.is_none());
        cold.insert_committed(4, v(4)).unwrap();
        assert!(cold.history.is_none());

        let mut hot = VersionChain::new();
        for n in 1..=8 {
            hot.insert_committed(n, v(n)).unwrap();
        }
        let cap = hot.history.as_ref().unwrap().capacity();
        assert!(cap > HOT_HISTORY);
        assert_eq!(hot.prune_below(10), 8);
        assert!(hot.history().is_empty() && hot.prev.is_none());
        assert_eq!(hot.history.as_ref().unwrap().capacity(), cap);
        for n in 9..=16 {
            hot.insert_committed(n, v(n)).unwrap();
        }
        assert_eq!(hot.history.as_ref().unwrap().capacity(), cap);
        assert_eq!(hot.latest().number, 16);
        assert_eq!(hot.at(9).unwrap().number, 9);
    }

    /// Pruning that keeps history below the watermark keeps the tiers
    /// consistent: `prev` goes only with the whole history.
    #[test]
    fn prune_keeps_prev_until_the_history_is_gone() {
        let mut c = VersionChain::new();
        for n in 1..=5 {
            c.insert_committed(n, v(n)).unwrap();
        }
        assert_eq!(c.prune_keep_recent(10, 2), 4);
        assert!(c.history.is_none());
        assert_eq!(c.prev.as_ref().unwrap().number, 4);
        assert_eq!(c.prune_keep_recent(4, 1), 0);
        assert_eq!(c.prune_below(5), 1);
        assert_eq!(c.committed_len(), 1);
    }

    #[test]
    fn seed_after_pruning_restores_the_initial_version() {
        let mut c = VersionChain::new();
        for n in 1..=3 {
            c.insert_committed(n, v(n)).unwrap();
        }
        c.prune_below(10);
        c.seed(v(7));
        let nums: Vec<u64> = c.committed().map(|x| x.number).collect();
        assert_eq!(nums, vec![0, 3]);
        assert_eq!(c.at(0).unwrap().value.as_u64(), Some(7));
        c.seed(v(8));
        assert_eq!(c.at(0).unwrap().value.as_u64(), Some(8));
        assert_eq!(c.committed_len(), 2);
    }

    #[test]
    fn payload_bytes_sums_versions() {
        let mut c = VersionChain::new();
        c.insert_committed(1, v(1)).unwrap(); // 8 bytes
        c.insert_committed(2, Value::from_str("abc")).unwrap(); // 3
        assert_eq!(c.payload_bytes(), 11);
    }
}
