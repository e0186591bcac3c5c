//! Property tests for version chains and GC: chains stay sorted, snapshot
//! reads match a naive reference, and pruning never changes the result of
//! any read at or above the watermark. Values of every length either side
//! of the inline capacity survive the log and checkpoint formats.

use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::chain::VersionChain;
use mvcc_storage::version::PendingVersion;
use mvcc_storage::{scan, FsyncPolicy, MemWal, MvStore, Value, WalWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Payloads of length `0..=2 × INLINE_CAPACITY`: inline and heap values.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..=2 * Value::INLINE_CAPACITY),
        1..12,
    )
}

/// Reference model: a sorted map of version number → payload.
fn reference_at(model: &BTreeMap<u64, u64>, sn: u64) -> Option<(u64, u64)> {
    model.range(..=sn).next_back().map(|(&n, &v)| (n, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chain reads agree with a BTreeMap reference model under arbitrary
    /// interleavings of inserts, pending installs, promotes and discards.
    #[test]
    fn chain_matches_reference(
        steps in proptest::collection::vec((0u8..4, 1u64..64, 0u64..1000), 1..60),
        probes in proptest::collection::vec(0u64..70, 1..20),
    ) {
        let mut chain = VersionChain::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        model.insert(0, 0); // initial version (empty payload ~ "0")
        let mut next_writer = 1u64;
        let mut pendings: Vec<(TxnId, u64, u64)> = Vec::new(); // writer, number, payload

        for (kind, num, payload) in steps {
            match kind {
                0 => {
                    // direct committed insert (unique number only)
                    if !model.contains_key(&num)
                        && !pendings.iter().any(|&(_, n, _)| n == num)
                    {
                        chain.insert_committed(num, Value::from_u64(payload)).unwrap();
                        model.insert(num, payload);
                    }
                }
                1 => {
                    // install stamped pending
                    if !model.contains_key(&num)
                        && !pendings.iter().any(|&(_, n, _)| n == num)
                    {
                        let w = TxnId(next_writer);
                        next_writer += 1;
                        chain.install_pending(PendingVersion::stamped(
                            w, num, Value::from_u64(payload),
                        ));
                        pendings.push((w, num, payload));
                    }
                }
                2 => {
                    // promote oldest pending
                    if !pendings.is_empty() {
                        let (w, n, p) = pendings.remove(0);
                        chain.promote_pending(w, None).unwrap();
                        model.insert(n, p);
                    }
                }
                _ => {
                    // discard newest pending
                    if let Some((w, _, _)) = pendings.pop() {
                        prop_assert!(chain.discard_pending(w));
                    }
                }
            }
            // invariant: committed versions sorted and unique
            let nums: Vec<u64> = chain.committed().iter().map(|v| v.number).collect();
            let mut sorted = nums.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&nums, &sorted, "chain unsorted or duplicated");
            prop_assert_eq!(chain.pending_len(), pendings.len());
        }

        for sn in probes {
            let got = chain.at(sn).map(|v| (v.number, v.value.as_u64().unwrap_or(0)));
            prop_assert_eq!(got, reference_at(&model, sn));
        }
    }

    /// Pruning at watermark `w` preserves every read at `sn ≥ w` and the
    /// latest version; repeated pruning is idempotent.
    #[test]
    fn prune_preserves_reads_at_or_above_watermark(
        nums in proptest::collection::btree_set(1u64..100, 0..25),
        watermark in 0u64..110,
        probes in proptest::collection::vec(0u64..110, 1..20),
    ) {
        let mut chain = VersionChain::new();
        for &n in &nums {
            chain.insert_committed(n, Value::from_u64(n)).unwrap();
        }
        let before: Vec<Option<u64>> = probes
            .iter()
            .map(|&sn| chain.at(sn).map(|v| v.number))
            .collect();
        let latest_before = chain.latest().number;

        chain.prune_below(watermark);

        prop_assert_eq!(chain.latest().number, latest_before);
        for (i, &sn) in probes.iter().enumerate() {
            if sn >= watermark {
                prop_assert_eq!(
                    chain.at(sn).map(|v| v.number),
                    before[i],
                    "read at {} changed by prune at {}",
                    sn,
                    watermark
                );
            }
        }
        // idempotent
        prop_assert_eq!(chain.prune_below(watermark), 0);
    }

    /// Values survive promotion: whatever payload went in pending comes
    /// out of the committed read.
    #[test]
    fn promote_preserves_payload(n in 1u64..1000, payload in any::<u64>()) {
        let mut chain = VersionChain::new();
        chain.install_pending(PendingVersion::stamped(
            TxnId(n), n, Value::from_u64(payload),
        ));
        // pending invisible to snapshot reads
        prop_assert_eq!(chain.at(n).unwrap().number, 0);
        chain.promote_pending(TxnId(n), None).unwrap();
        prop_assert_eq!(chain.at(n).unwrap().value.as_u64(), Some(payload));
    }

    /// WAL `append_commit` → `scan` returns every value byte for byte.
    #[test]
    fn wal_preserves_values_of_every_length(payloads in payloads()) {
        let writes: Vec<(ObjectId, Value)> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), Value::from_bytes(p.clone())))
            .collect();
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
        w.append_commit(1, &writes).unwrap();
        let (records, _) = scan(&mem.bytes()).unwrap();
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(&records[0].writes, &writes);
        for ((_, got), p) in records[0].writes.iter().zip(&payloads) {
            prop_assert_eq!(got.as_bytes(), &p[..]);
        }
    }

    /// Checkpoint write → restore returns every value byte for byte, both
    /// as a seeded initial version and as a committed one.
    #[test]
    fn checkpoint_preserves_values_of_every_length(payloads in payloads()) {
        let store = MvStore::new();
        for (i, p) in payloads.iter().enumerate() {
            let obj = ObjectId(i as u64);
            store.seed(obj, Value::from_bytes(p.clone()));
            let mut rev = p.clone();
            rev.reverse();
            store.with(obj, |c| c.insert_committed(1, Value::from_bytes(rev)).unwrap());
        }
        let mut buf = Vec::new();
        store.checkpoint(&mut buf, 1).unwrap();
        let (restored, watermark) = MvStore::restore(&mut &buf[..]).unwrap();
        prop_assert_eq!(watermark, 1);
        for (i, p) in payloads.iter().enumerate() {
            let obj = ObjectId(i as u64);
            let (n0, v0) = restored.read_at(obj, 0).unwrap();
            prop_assert_eq!((n0, v0.as_bytes()), (0, &p[..]));
            let (n1, v1) = restored.read_latest(obj);
            prop_assert_eq!(n1, 1);
            prop_assert!(v1.as_bytes().iter().eq(p.iter().rev()));
        }
    }
}
