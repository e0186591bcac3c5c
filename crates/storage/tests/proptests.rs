//! Property tests for version chains and GC: a chain holds exactly the
//! versions of a sorted-map reference model, and pruning never changes
//! the result of any read at or above the watermark. Values of every
//! length either side of the inline capacity survive the log and
//! checkpoint formats.

use mvcc_model::ObjectId;
use mvcc_storage::chain::VersionChain;
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
    /// interleavings of inserts, pruning and seeding. Numbers are drawn
    /// in any order, so inserts land both above and below the inline
    /// newest version; pruning keeps 1–4 versions at a watermark both
    /// above and below it.
    #[test]
    fn chain_matches_reference(
        steps in proptest::collection::vec((0u8..4, 1u64..64, 0u64..1000), 1..80),
        probes in proptest::collection::vec(0u64..70, 1..20),
    ) {
        let mut chain = VersionChain::new();
        // number → payload; the initial version's empty payload reads as 0.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        model.insert(0, 0);

        for (kind, num, payload) in steps {
            match kind {
                0 | 1 => {
                    // committed insert: a fresh number succeeds, a held one is refused
                    let res = chain.insert_committed(num, Value::from_u64(payload));
                    prop_assert_eq!(res.is_ok(), !model.contains_key(&num));
                    model.entry(num).or_insert(payload);
                }
                2 => {
                    // keep the newest `keep` versions at or below `num`
                    let keep = (payload % 4 + 1) as usize;
                    let visible: Vec<u64> = model.range(..=num).map(|(&n, _)| n).collect();
                    let doomed = visible.len().saturating_sub(keep);
                    for n in &visible[..doomed] {
                        model.remove(n);
                    }
                    prop_assert_eq!(chain.prune_keep_recent(num, keep), doomed);
                }
                _ => {
                    // seed: replaces the initial payload, or restores a
                    // pruned initial version below the rest
                    chain.seed(Value::from_u64(payload));
                    model.insert(0, payload);
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
            prop_assert_eq!(chain.latest().number, *model.keys().next_back().unwrap());
        }

        for sn in probes {
            let got = chain.at(sn).map(|v| (v.number, v.value.as_u64().unwrap_or(0)));
            let want = model.range(..=sn).next_back().map(|(&n, &p)| (n, p));
            prop_assert_eq!(got, want);
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
