//! Property tests for the version-control queue under arbitrary
//! interleavings of register / claim / complete / discard / reap.
//!
//! Two invariants from the paper, plus the reaper-safety refinement:
//!
//! * **vtnc monotonicity** — the number reported by `drain_completed`
//!   never decreases, and every reported number belongs to a transaction
//!   that completed (never a discarded or reaped one).
//! * **visibility property** — every entry still queued is strictly
//!   above the current `vtnc`; nothing becomes visible while an older
//!   registration is outstanding.
//! * **reaper safety** — `reap_expired` only ever removes entries that
//!   are `Active` past their deadline; claimed (`Committing`) and
//!   `Complete` entries are untouchable, and forced discards preserve
//!   both properties above.

use mvcc_core::vcqueue::VcQueue;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Active { expired: bool },
    Committing,
    Complete,
}

/// `drain_completed` for a queue whose finals are never boosted: every
/// popped entry is a `vtnc` candidate and nothing is held over.
fn drain_local(q: &mut VcQueue) -> Option<u64> {
    let mut holdover = BTreeSet::new();
    let vtnc = q.drain_completed(&mut holdover);
    assert!(holdover.is_empty(), "unboosted finals were held over");
    vtnc
}

fn check_invariants(
    q: &VcQueue,
    model: &BTreeMap<u64, Model>,
    vtnc: Option<u64>,
    completed: &[u64],
) {
    // Visibility: everything still registered is above the frontier.
    if let (Some(v), Some((&min_tn, _))) = (vtnc, model.iter().next()) {
        assert!(v < min_tn, "vtnc {v} reached a still-queued tn {min_tn}");
    }
    assert_eq!(q.len(), model.len(), "queue/model length diverged");
    // The frontier is always a completed transaction's number.
    if let Some(v) = vtnc {
        assert!(completed.contains(&v), "vtnc {v} was never completed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_model_under_any_interleaving(
        steps in proptest::collection::vec((0u8..6, 0usize..8), 1..80),
    ) {
        let base = Instant::now();
        let expired_deadline = base; // reap uses `now = base + 1s`
        let live_deadline = base + Duration::from_secs(3600);
        let reap_now = base + Duration::from_secs(1);

        let mut q = VcQueue::new();
        let mut model: BTreeMap<u64, Model> = BTreeMap::new();
        let mut next_tn = 1u64;
        let mut vtnc: Option<u64> = None;
        let mut completed: Vec<u64> = Vec::new();

        let drain = |q: &mut VcQueue,
                         model: &mut BTreeMap<u64, Model>,
                         vtnc: &mut Option<u64>,
                         completed: &[u64]| {
            if let Some(new) = drain_local(q) {
                assert!(vtnc.is_none_or(|old| old < new), "vtnc went backwards");
                // Drained entries must form the completed prefix of the model.
                while let Some((&tn, &st)) = model.iter().next() {
                    if tn > new { break; }
                    assert_eq!(st, Model::Complete, "drained past a non-complete entry");
                    model.remove(&tn);
                }
                assert!(completed.contains(&new));
                *vtnc = Some(new);
            }
        };

        for (kind, pick) in steps {
            let tns: Vec<u64> = model.keys().copied().collect();
            let target = (!tns.is_empty()).then(|| tns[pick % tns.len()]);
            match kind {
                // Register with a TTL that already expired (reapable).
                0 => {
                    q.insert(next_tn, Some(expired_deadline));
                    model.insert(next_tn, Model::Active { expired: true });
                    next_tn += 1;
                }
                // Register with a far-future TTL.
                1 => {
                    q.insert(next_tn, Some(live_deadline));
                    model.insert(next_tn, Model::Active { expired: false });
                    next_tn += 1;
                }
                // Register with no TTL at all.
                2 => {
                    q.insert(next_tn, None);
                    model.insert(next_tn, Model::Active { expired: false });
                    next_tn += 1;
                }
                // Claim for commit, then complete (the commit path).
                3 => if let Some(tn) = target {
                    let claimed = q.start_committing(tn);
                    let expect = matches!(model[&tn], Model::Active { .. });
                    assert_eq!(claimed, expect, "claim of tn {tn}");
                    if claimed {
                        model.insert(tn, Model::Committing);
                    }
                    if matches!(model[&tn], Model::Committing) {
                        assert!(q.mark_complete(tn, tn));
                        model.insert(tn, Model::Complete);
                        completed.push(tn);
                        drain(&mut q, &mut model, &mut vtnc, &completed);
                    }
                },
                // Voluntary discard (abort path) of an unclaimed entry.
                4 => if let Some(tn) = target {
                    if matches!(model[&tn], Model::Active { .. }) {
                        assert!(q.discard(tn));
                        model.remove(&tn);
                        drain(&mut q, &mut model, &mut vtnc, &completed);
                    }
                },
                // Reaper tick: force-discard expired Active entries only.
                _ => {
                    let reaped = q.reap_expired(reap_now);
                    let expect: Vec<u64> = model
                        .iter()
                        .filter(|(_, &st)| st == Model::Active { expired: true })
                        .map(|(&tn, _)| tn)
                        .collect();
                    assert_eq!(reaped, expect, "reaper took the wrong set");
                    for tn in &reaped {
                        model.remove(tn);
                    }
                    drain(&mut q, &mut model, &mut vtnc, &completed);
                }
            }
            check_invariants(&q, &model, vtnc, &completed);
        }

        // Exhaustion: finish every survivor; the queue must fully drain
        // and the frontier must land on the highest completed number.
        let rest: Vec<u64> = model.keys().copied().collect();
        for tn in rest {
            if matches!(model[&tn], Model::Active { .. }) {
                assert!(q.start_committing(tn));
                model.insert(tn, Model::Committing);
            }
            assert!(q.mark_complete(tn, tn));
            model.insert(tn, Model::Complete);
            completed.push(tn);
        }
        drain(&mut q, &mut model, &mut vtnc, &completed);
        assert!(q.is_empty(), "completed queue must drain fully");
        assert_eq!(vtnc, completed.iter().copied().max());
    }

    /// A reaped registration can never be claimed afterwards: the commit
    /// path's `start_committing` fails and the writer must abort. This is
    /// the exact handshake that makes force-discards safe.
    #[test]
    fn reaped_entries_cannot_be_claimed(n in 1u64..20) {
        let base = Instant::now();
        let mut q = VcQueue::new();
        for tn in 1..=n {
            q.insert(tn, Some(base));
        }
        let reaped = q.reap_expired(base + Duration::from_secs(1));
        prop_assert_eq!(reaped.len() as u64, n);
        for tn in 1..=n {
            prop_assert!(!q.start_committing(tn), "claimed a reaped tn");
            prop_assert!(!q.mark_complete(tn, tn));
        }
        prop_assert!(q.is_empty());
        prop_assert!(drain_local(&mut q).is_none());
    }

    /// Insert-order independence: the queue's observable behavior is a
    /// function of the *set* of registered numbers, not the order they
    /// arrived in: any permutation of the same inserts must drain
    /// identically.
    #[test]
    fn insert_order_does_not_matter(
        raw in proptest::collection::vec(1u64..40, 2..20),
        seed in 0u64..u64::MAX,
    ) {
        let mut sorted = raw;
        sorted.sort_unstable();
        sorted.dedup();
        // Fisher–Yates with a splitmix stream: an arbitrary permutation
        // of the same number set.
        let mut shuffled = sorted.clone();
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            shuffled.swap(i, (z % (i as u64 + 1)) as usize);
        }
        let mut a = VcQueue::new();
        for &tn in &sorted {
            a.insert(tn, None);
        }
        let mut b = VcQueue::new();
        for &tn in &shuffled {
            b.insert(tn, None);
        }
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.head_tn(), b.head_tn());
        // Complete everything in yet another order; both queues must
        // report the same frontier: the maximum, exactly once, and only
        // when the head-contiguous prefix is complete.
        let mut done_a = None;
        let mut done_b = None;
        for &tn in shuffled.iter().rev() {
            prop_assert!(a.start_committing(tn) && a.mark_complete(tn, tn));
            prop_assert!(b.start_committing(tn) && b.mark_complete(tn, tn));
            if let Some(v) = drain_local(&mut a) { done_a = Some(v); }
            if let Some(v) = drain_local(&mut b) { done_b = Some(v); }
            prop_assert_eq!(done_a, done_b, "queues diverged at tn {}", tn);
        }
        prop_assert_eq!(done_a, sorted.last().copied());
        prop_assert!(a.is_empty() && b.is_empty());
    }

    /// Claimed entries survive any number of reaper ticks.
    #[test]
    fn claimed_entries_are_reaper_proof(n in 1u64..20, ticks in 1usize..5) {
        let base = Instant::now();
        let mut q = VcQueue::new();
        for tn in 1..=n {
            q.insert(tn, Some(base));
            prop_assert!(q.start_committing(tn));
        }
        for _ in 0..ticks {
            prop_assert!(q.reap_expired(base + Duration::from_secs(1)).is_empty());
        }
        prop_assert_eq!(q.len() as u64, n);
        for tn in 1..=n {
            prop_assert!(q.mark_complete(tn, tn));
        }
        prop_assert_eq!(drain_local(&mut q), Some(n));
        prop_assert!(q.is_empty());
    }
}
