//! `VCQueue` — the ordered list of registered, not-yet-visible read-write
//! transactions (paper Figure 1).
//!
//! Entries are kept sorted by transaction number. The sequencer
//! registers in number order (registration happens under the
//! version-control lock, which also assigns the numbers), so the common
//! insert is a `push_back`; an out-of-order tn from a standalone caller
//! falls back to a binary search (`partition_point`) insertion.
//! `drain_completed` pops completed entries off the head and reports the
//! last one whose final number is its own — a `vtnc` candidate.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

/// Lifecycle state of a queue entry (paper: `E(T).type`, plus the
/// `Committing` refinement that makes the stall reaper safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Registered, still executing (paper: `"active"`).
    Active,
    /// Claimed by its transaction's commit path: database updates are
    /// being applied and `VCcomplete` will follow. Not in the paper's
    /// pseudocode — it exists so the reaper can distinguish "stalled,
    /// safe to discard" (`Active`) from "mid-commit, must not be
    /// discarded" (`Committing`). See [`VcQueue::reap_expired`].
    Committing,
    /// Finished its database updates, waiting for older transactions
    /// before becoming visible (paper: `"complete"`).
    Complete,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tn: u64,
    state: EntryState,
    /// The number the transaction committed as, set by `mark_complete`:
    /// `tn` itself, or a larger final at a multi-site commit.
    fin: u64,
    /// Registration deadline: an `Active` entry older than this may be
    /// force-discarded by the reaper. `None` = never reaped.
    deadline: Option<Instant>,
    /// When the entry was registered. Stamped only when someone will
    /// consume it (reaper TTL or observability); feeds the
    /// register→complete phase histogram and the head-age gauge.
    registered_at: Option<Instant>,
}

/// The version-control queue of Figure 1.
#[derive(Debug, Default)]
pub struct VcQueue {
    entries: VecDeque<Entry>,
}

impl VcQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a newly registered transaction. Sorted order is maintained
    /// regardless of insertion order: in-order tns (the sequencer's only
    /// case) append in O(1); out-of-order tns binary-search their slot.
    ///
    /// # Panics
    /// In debug builds, if `tn` is already queued — duplicate
    /// registration means the sequencer handed a number out twice.
    pub fn insert(&mut self, tn: u64, deadline: Option<Instant>) {
        self.insert_at(tn, deadline, None);
    }

    /// [`insert`](Self::insert) with an explicit registration stamp
    /// (consumed by the register→complete histogram and head-age gauge).
    pub fn insert_at(
        &mut self,
        tn: u64,
        deadline: Option<Instant>,
        registered_at: Option<Instant>,
    ) {
        let entry = Entry {
            tn,
            state: EntryState::Active,
            fin: tn,
            deadline,
            registered_at,
        };
        if self.entries.back().is_none_or(|e| e.tn < tn) {
            self.entries.push_back(entry);
        } else {
            let idx = self.entries.partition_point(|e| e.tn < tn);
            debug_assert!(
                self.entries.get(idx).is_none_or(|e| e.tn != tn),
                "VCQueue duplicate insert: {tn}"
            );
            self.entries.insert(idx, entry);
        }
    }

    /// Claim `tn` for commit: transition its entry from `Active` to
    /// `Committing`, shielding it from the reaper. Returns `false` if the
    /// entry is absent (discarded/reaped) or not `Active` — the caller
    /// must then abort instead of applying database updates.
    pub fn start_committing(&mut self, tn: u64) -> bool {
        match self.position(tn) {
            Some(i) if self.entries[i].state == EntryState::Active => {
                self.entries[i].state = EntryState::Committing;
                true
            }
            _ => false,
        }
    }

    /// Force-discard every `Active` entry whose deadline has passed
    /// (`deadline ≤ now`). `Committing` and `Complete` entries are never
    /// touched: a claimed transaction is mid-commit and its updates may
    /// already be in the store. Returns the discarded transaction
    /// numbers, oldest first.
    pub fn reap_expired(&mut self, now: Instant) -> Vec<u64> {
        let mut reaped = Vec::new();
        self.entries.retain(|e| {
            let expired = e.state == EntryState::Active && e.deadline.is_some_and(|d| d <= now);
            if expired {
                reaped.push(e.tn);
            }
            !expired
        });
        reaped
    }

    /// Remove an aborted transaction's entry (paper `VCdiscard`). Returns
    /// `false` if no entry with that number exists.
    pub fn discard(&mut self, tn: u64) -> bool {
        match self.position(tn) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Mark a transaction complete with final number `fin ≥ tn` (paper
    /// `VCcomplete`, first line). Returns `false` if no entry with that
    /// number exists.
    pub fn mark_complete(&mut self, tn: u64, fin: u64) -> bool {
        match self.position(tn) {
            Some(i) => {
                self.entries[i].state = EntryState::Complete;
                self.entries[i].fin = fin;
                true
            }
            None => false,
        }
    }

    /// Paper `VCcomplete`, the `WHILE` loop: pop completed entries off the
    /// head. Returns the last popped entry whose final is its own number
    /// (the new `vtnc` when no final was boosted); a boosted final
    /// (`fin > tn`) goes into `holdover` instead. `None` if nothing such
    /// was popped.
    pub fn drain_completed(&mut self, holdover: &mut BTreeSet<u64>) -> Option<u64> {
        let mut new_vtnc = None;
        while let Some(head) = self.entries.front() {
            if head.state != EntryState::Complete {
                break;
            }
            if head.fin == head.tn {
                new_vtnc = Some(head.tn);
            } else {
                holdover.insert(head.fin);
            }
            self.entries.pop_front();
        }
        new_vtnc
    }

    /// Number of queued (registered, not yet visible) transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The state of `tn`'s entry, if present.
    pub fn state_of(&self, tn: u64) -> Option<EntryState> {
        self.position(tn).map(|i| self.entries[i].state)
    }

    /// The smallest queued transaction number (the visibility blocker).
    pub fn head_tn(&self) -> Option<u64> {
        self.entries.front().map(|e| e.tn)
    }

    /// When `tn` was registered, if its entry exists and was stamped.
    pub fn registered_at(&self, tn: u64) -> Option<Instant> {
        self.position(tn)
            .and_then(|i| self.entries[i].registered_at)
    }

    /// Age of the queue head (how long the current visibility blocker has
    /// been registered), if the head exists and was stamped.
    pub fn head_age(&self, now: Instant) -> Option<std::time::Duration> {
        self.entries
            .front()
            .and_then(|e| e.registered_at)
            .map(|at| now.saturating_duration_since(at))
    }

    fn position(&self, tn: u64) -> Option<usize> {
        // Entries are sorted by tn; binary search.
        self.entries.binary_search_by_key(&tn, |e| e.tn).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a queue whose finals are never boosted.
    fn drain(q: &mut VcQueue) -> Option<u64> {
        let mut holdover = BTreeSet::new();
        let vtnc = q.drain_completed(&mut holdover);
        assert!(holdover.is_empty());
        vtnc
    }

    #[test]
    fn boosted_finals_drain_into_the_holdover() {
        let mut q = VcQueue::new();
        for tn in [1, 2, 3] {
            q.insert(tn, None);
        }
        q.mark_complete(1, 1);
        q.mark_complete(2, 9);
        let mut holdover = BTreeSet::new();
        assert_eq!(q.drain_completed(&mut holdover), Some(1));
        assert_eq!(holdover, BTreeSet::from([9]));
        assert_eq!(q.head_tn(), Some(3));
    }

    #[test]
    fn insert_and_query() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        q.insert(5, None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.head_tn(), Some(1));
        assert_eq!(q.state_of(2), Some(EntryState::Active));
        assert_eq!(q.state_of(4), None);
    }

    #[test]
    fn in_order_completion_drains_each_time() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        assert!(q.mark_complete(1, 1));
        assert_eq!(drain(&mut q), Some(1));
        assert!(q.mark_complete(2, 2));
        assert_eq!(drain(&mut q), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_order_completion_delays_visibility() {
        // The scenario the paper's vtnc exists for: T2 completes before T1.
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        assert!(q.mark_complete(2, 2));
        assert_eq!(drain(&mut q), None); // head (1) still active
        assert!(q.mark_complete(1, 1));
        assert_eq!(drain(&mut q), Some(2)); // both drain; vtnc jumps to 2
        assert!(q.is_empty());
    }

    #[test]
    fn discard_unblocks_the_queue() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        q.insert(3, None);
        q.mark_complete(2, 2);
        q.mark_complete(3, 3);
        assert_eq!(drain(&mut q), None);
        assert!(q.discard(1)); // T1 aborts
        assert_eq!(drain(&mut q), Some(3));
    }

    #[test]
    fn discard_missing_is_false() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        assert!(!q.discard(9));
        assert!(!q.mark_complete(9, 9));
    }

    #[test]
    fn discard_middle_keeps_order() {
        let mut q = VcQueue::new();
        for tn in [1, 2, 3, 4] {
            q.insert(tn, None);
        }
        assert!(q.discard(2));
        assert_eq!(q.len(), 3);
        q.mark_complete(1, 1);
        assert_eq!(drain(&mut q), Some(1));
        assert_eq!(q.head_tn(), Some(3));
    }

    #[test]
    fn drain_on_empty_is_none() {
        let mut q = VcQueue::new();
        assert_eq!(drain(&mut q), None);
    }

    #[test]
    fn out_of_order_insert_lands_sorted() {
        let mut q = VcQueue::new();
        q.insert(5, None);
        q.insert(3, None);
        q.insert(4, None);
        q.insert(1, None);
        assert_eq!(q.head_tn(), Some(1));
        assert_eq!(q.state_of(4), Some(EntryState::Active));
        for tn in [1, 3, 4, 5] {
            assert!(q.mark_complete(tn, tn));
        }
        assert_eq!(drain(&mut q), Some(5));
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate insert")]
    fn duplicate_insert_panics_in_debug() {
        let mut q = VcQueue::new();
        q.insert(5, None);
        q.insert(3, None);
        q.insert(5, None);
    }

    #[test]
    fn start_committing_claims_only_active_entries() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        assert!(q.start_committing(1));
        assert_eq!(q.state_of(1), Some(EntryState::Committing));
        // Already claimed, absent, or complete: claim fails.
        assert!(!q.start_committing(1));
        assert!(!q.start_committing(9));
        q.mark_complete(2, 2);
        assert!(!q.start_committing(2));
    }

    #[test]
    fn committing_head_blocks_drain() {
        let mut q = VcQueue::new();
        q.insert(1, None);
        q.insert(2, None);
        q.start_committing(1);
        q.mark_complete(2, 2);
        // Head is mid-commit: nothing becomes visible yet.
        assert_eq!(drain(&mut q), None);
        q.mark_complete(1, 1);
        assert_eq!(drain(&mut q), Some(2));
    }

    #[test]
    fn registration_stamp_and_head_age() {
        let t0 = Instant::now();
        let mut q = VcQueue::new();
        q.insert_at(1, None, Some(t0));
        q.insert(2, None); // unstamped
        assert_eq!(q.registered_at(1), Some(t0));
        assert_eq!(q.registered_at(2), None);
        assert_eq!(q.registered_at(9), None);
        let later = t0 + std::time::Duration::from_millis(7);
        assert_eq!(q.head_age(later), Some(std::time::Duration::from_millis(7)));
        q.discard(1);
        assert_eq!(q.head_age(later), None, "head 2 is unstamped");
    }

    #[test]
    fn reap_removes_only_expired_active_entries() {
        let now = Instant::now();
        let past = now - std::time::Duration::from_millis(10);
        let future = now + std::time::Duration::from_secs(60);
        let mut q = VcQueue::new();
        q.insert(1, Some(past)); // expired, Active → reaped
        q.insert(2, Some(past)); // expired but claimed → survives
        q.insert(3, Some(future)); // not yet expired → survives
        q.insert(4, None); // no deadline → survives
        q.insert(5, Some(past)); // expired, Complete → survives
        q.start_committing(2);
        q.mark_complete(5, 5);
        assert_eq!(q.reap_expired(now), vec![1]);
        assert_eq!(q.state_of(1), None);
        assert_eq!(q.state_of(2), Some(EntryState::Committing));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn reap_returns_oldest_first_and_unblocks_drain() {
        let now = Instant::now();
        let past = now - std::time::Duration::from_millis(1);
        let mut q = VcQueue::new();
        q.insert(1, Some(past));
        q.insert(2, Some(past));
        q.insert(3, None);
        q.mark_complete(3, 3);
        assert_eq!(drain(&mut q), None); // pinned by stalled 1, 2
        assert_eq!(q.reap_expired(now), vec![1, 2]);
        assert_eq!(drain(&mut q), Some(3)); // vtnc advances again
    }
}
