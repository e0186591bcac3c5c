//! Property tests for version chains and GC: a chain holds exactly the
//! versions of a sorted-map reference model, and pruning never changes
//! the result of any read at or above the watermark. Values of every
//! length either side of the inline capacity survive the log and
//! checkpoint formats.

use mvcc_model::{ObjectId, TxnId};
use mvcc_storage::chain::VersionChain;
use mvcc_storage::version::PendingVersion;
use mvcc_storage::{scan, FsyncPolicy, MemWal, MvStore, Value, WalSink, WalWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io;

/// Payloads of length `0..=2 × INLINE_CAPACITY`: inline and heap values.
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..=2 * Value::INLINE_CAPACITY),
        1..12,
    )
}

/// A [`MemWal`] that gathers frames into batches of `batch` bytes, the
/// way a file log does, so the writer's buffer is in play.
struct Batched {
    mem: MemWal,
    batch: usize,
}

impl WalSink for Batched {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.mem.append(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.mem.sync()
    }
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.mem.truncate_to(len)
    }
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.mem.read_all()
    }
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.mem.replace(bytes)
    }
    fn batch_bytes(&self) -> usize {
        self.batch
    }
}

/// How many records `bytes` holds, checking they are exactly the first
/// ones appended (tn 1, 2, ...) and end on a frame boundary.
fn held_prefix(bytes: &[u8]) -> Result<usize, TestCaseError> {
    let (records, stats) = scan(bytes).unwrap();
    prop_assert!(stats.clean_end());
    for (i, r) in records.iter().enumerate() {
        prop_assert_eq!(r.tn, i as u64 + 1);
    }
    Ok(records.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chain reads agree with a BTreeMap reference model under arbitrary
    /// interleavings of inserts, pending installs, promotes, discards,
    /// pruning, seeding and `r-ts` updates. Numbers are drawn in any
    /// order, so inserts and promotions land both above and below the
    /// inline newest version; pruning keeps 1–4 versions at a watermark
    /// both above and below it.
    #[test]
    fn chain_matches_reference(
        steps in proptest::collection::vec((0u8..7, 1u64..64, 0u64..1000), 1..80),
        probes in proptest::collection::vec(0u64..70, 1..20),
    ) {
        let mut chain = VersionChain::new();
        // number → payload; the initial version's empty payload reads as 0.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        model.insert(0, 0);
        let mut read_ts = 0u64; // r-ts of the newest version
        let mut next_writer = 1u64;
        let mut pendings: Vec<(TxnId, u64, u64)> = Vec::new(); // writer, number, payload
        let commit = |model: &mut BTreeMap<u64, u64>, read_ts: &mut u64, n: u64, p: u64| {
            if model.keys().next_back().is_some_and(|&newest| n > newest) {
                *read_ts = 0;
            }
            model.insert(n, p);
        };

        for (kind, num, payload) in steps {
            let fresh = !model.contains_key(&num) && !pendings.iter().any(|&(_, n, _)| n == num);
            match kind {
                0 => {
                    // direct committed insert (unique number only)
                    if fresh {
                        chain.insert_committed(num, Value::from_u64(payload)).unwrap();
                        commit(&mut model, &mut read_ts, num, payload);
                    } else if model.contains_key(&num) {
                        prop_assert!(chain.insert_committed(num, Value::from_u64(payload)).is_err());
                    }
                }
                1 => {
                    // install stamped pending
                    if fresh {
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
                        commit(&mut model, &mut read_ts, n, p);
                    }
                }
                3 => {
                    // discard newest pending
                    if let Some((w, _, _)) = pendings.pop() {
                        prop_assert!(chain.discard_pending(w));
                    }
                }
                4 => {
                    // keep the newest `keep` versions at or below `num`
                    let keep = (payload % 4 + 1) as usize;
                    let visible: Vec<u64> = model.range(..=num).map(|(&n, _)| n).collect();
                    let doomed = visible.len().saturating_sub(keep);
                    for n in &visible[..doomed] {
                        model.remove(n);
                    }
                    prop_assert_eq!(chain.prune_keep_recent(num, keep), doomed);
                }
                5 => {
                    // seed: replaces the initial payload, or restores a
                    // pruned initial version below the rest
                    chain.seed(Value::from_u64(payload));
                    model.insert(0, payload);
                }
                _ => {
                    // raise r-ts of the newest version
                    chain.update_read_ts(payload);
                    read_ts = read_ts.max(payload);
                }
            }
            // invariant: committed versions are exactly the model's
            let held: Vec<(u64, u64)> = chain
                .committed()
                .map(|v| (v.number, v.value.as_u64().unwrap_or(0)))
                .collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&n, &p)| (n, p)).collect();
            prop_assert_eq!(&held, &want);
            prop_assert_eq!(chain.committed_len(), model.len());
            let newest = *model.keys().next_back().unwrap();
            prop_assert_eq!((chain.latest().number, chain.read_ts()), (newest, read_ts));
            prop_assert_eq!(chain.pending_len(), pendings.len());
        }

        for sn in probes {
            let got = chain.at(sn).map(|v| (v.number, v.value.as_u64().unwrap_or(0)));
            let want = model.range(..=sn).next_back().map(|(&n, &p)| (n, p));
            prop_assert_eq!(got, want);
            prop_assert_eq!(chain.exact(sn).map(|v| v.number), model.get(&sn).map(|_| sn));
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

    /// A crash under a buffered policy loses a bounded suffix. After
    /// every append, what the sink holds (what survives a process crash)
    /// and what it has synced (what survives power loss) each scan to a
    /// prefix of the append order; the sink lacks less than one batch of
    /// frames, and under `EveryN(n)` at most `n − 1` records are unsynced.
    #[test]
    fn buffered_policies_lose_a_bounded_suffix(
        sizes in proptest::collection::vec(0usize..64, 1..120),
        batch in 0usize..600,
        every in 0u64..8,
    ) {
        let mem = MemWal::new();
        // `every == 0` stands for `Never`.
        let policy = if every == 0 { FsyncPolicy::Never } else { FsyncPolicy::EveryN(every) };
        let sink = Batched { mem: mem.clone(), batch };
        let mut w = WalWriter::create(Box::new(sink), policy).unwrap();
        let mut ends = vec![0usize]; // frame bytes appended after i records
        for (i, &size) in sizes.iter().enumerate() {
            let tn = i as u64 + 1;
            let info = w.append_commit(tn, &[(ObjectId(tn), Value::from_bytes(vec![7; size]))]).unwrap();
            ends.push(ends[i] + info.bytes);
            let appended = ends.len() - 1;
            let held = held_prefix(&mem.bytes())?;
            prop_assert!(ends[appended] - ends[held] < batch.max(1), "{} bytes missing", ends[appended] - ends[held]);
            let durable = held_prefix(&mem.durable_bytes())?;
            prop_assert!(durable <= held);
            match policy {
                FsyncPolicy::EveryN(n) => prop_assert!(appended - durable < n as usize),
                _ => prop_assert_eq!(durable, 0),
            }
        }
        w.sync().unwrap();
        prop_assert_eq!(held_prefix(&mem.durable_bytes())?, sizes.len());
    }
}
