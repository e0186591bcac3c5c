//! Engine-side durability: the commit log and recovery bookkeeping.
//!
//! The storage crate owns the WAL *format* ([`mvcc_storage::wal`]); this
//! module owns its *integration with the commit protocol*. The single
//! load-bearing rule, enforced by where
//! [`CcContext::end`](crate::cc_api::CcContext::end) — the one `end(T)`
//! every protocol commits through — appends to the log:
//!
//! > A transaction's commit record is appended (and, under
//! > `FsyncPolicy::Always`, synced) **after** its `start_complete` claim
//! > fixes its fate and **before** its updates are applied to the store
//! > or `VCcomplete` makes it visible.
//!
//! Consequences:
//!
//! * Nothing visible is ever lost *ahead of* something invisible: if
//!   transaction `B` read `A`'s writes, `A`'s record precedes `B`'s in
//!   the file (A appended before applying; B read only after A applied;
//!   B appends after its reads). A byte-prefix of the log — which is all
//!   a crash can leave — is therefore closed under read-from
//!   dependencies, i.e. transaction-consistent.
//! * A WAL append failure can still abort the transaction cleanly
//!   (`AbortReason::LogFailed`): no update has touched the store, and
//!   the claimed queue entry is released with `VCdiscard(tn)`.
//!
//! [`CommitLog`] is the shared handle: one mutex serializes appenders,
//! which also makes file order well-defined. [`RecoveryStats`] reports
//! what `MvDatabase::recover` rebuilt.

use crate::metrics::Metrics;
use mvcc_model::ObjectId;
use mvcc_storage::wal::{AppendInfo, FsyncPolicy, WalWriter};
use mvcc_storage::Value;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A checkpoint destination that can attest durability.
///
/// `MvDatabase::checkpoint_and_rotate` must not rotate the write-ahead
/// log (destroying every record the checkpoint absorbs) until the
/// checkpoint bytes are on stable storage — otherwise a crash in the
/// window loses both the records and the snapshot that replaced them.
/// A plain `io::Write` cannot attest that, so rotation requires this
/// trait: [`sync`](Self::sync) is called after the checkpoint is
/// written and **before** the log rotates.
pub trait CheckpointSink: io::Write {
    /// Make every byte written so far durable (the `fsync` barrier
    /// between checkpoint and rotation).
    fn sync(&mut self) -> io::Result<()>;
}

impl CheckpointSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl CheckpointSink for io::BufWriter<std::fs::File> {
    fn sync(&mut self) -> io::Result<()> {
        io::Write::flush(self)?;
        self.get_ref().sync_data()
    }
}

/// In-memory checkpoints (tests, experiments) are "durable" the moment
/// the bytes land.
impl CheckpointSink for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The engine's shared write-ahead log handle. Cloned into every
/// protocol context; appends serialize on the internal mutex (file
/// order = append order, the property the consistency argument needs).
pub struct CommitLog {
    writer: Mutex<WalWriter>,
    metrics: Arc<Metrics>,
}

impl CommitLog {
    /// Wrap a writer; `metrics` receives the `wal_*` counters.
    pub fn new(writer: WalWriter, metrics: Arc<Metrics>) -> Self {
        CommitLog {
            writer: Mutex::new(writer),
            metrics,
        }
    }

    /// Append one commit record under the log mutex, applying the
    /// configured fsync policy. Counters: `wal_appends`, `wal_bytes`,
    /// `wal_syncs`.
    pub fn append(&self, tn: u64, writes: &[(ObjectId, Value)]) -> io::Result<AppendInfo> {
        let info = self.writer.lock().append_commit(tn, writes)?;
        let m = self.metrics.local();
        m.wal_appends.fetch_add(1, Ordering::Relaxed);
        m.wal_bytes.fetch_add(info.bytes as u64, Ordering::Relaxed);
        if info.synced {
            m.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(info)
    }

    /// Force a sync (flush a group-commit batch, orderly shutdown).
    pub fn sync(&self) -> io::Result<()> {
        self.writer.lock().sync()?;
        self.metrics
            .local()
            .wal_syncs
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rotate the log after a checkpoint consistent at `watermark`:
    /// a new log holding only the records with `tn > watermark` (the
    /// checkpoint covers the rest) replaces it. Returns `(dropped, kept)`.
    pub fn rotate(&self, watermark: u64) -> io::Result<(usize, usize)> {
        let result = self.writer.lock().rotate(watermark)?;
        self.metrics
            .local()
            .wal_rotations
            .fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.writer.lock().policy()
    }

    /// Records currently in the log (since the last rotation).
    pub fn live_records(&self) -> usize {
        self.writer.lock().live_records()
    }

    /// Frame bytes appended but not yet synced (the durability backlog;
    /// zero under [`FsyncPolicy::Always`]). The `wal_backlog_bytes`
    /// gauge.
    pub fn backlog_bytes(&self) -> u64 {
        self.writer.lock().backlog_bytes()
    }
}

/// What [`crate::MvDatabase::recover`] rebuilt, for assertions and
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Watermark of the restored checkpoint (0 if none).
    pub checkpoint_watermark: u64,
    /// WAL records applied to the store (`tn >` watermark).
    pub replayed: usize,
    /// WAL records skipped because the checkpoint already covered them.
    pub skipped: usize,
    /// Highest transaction number in the recovered state; the resumed
    /// counters satisfy `tnc = last_tn + 1 > vtnc = last_tn`.
    pub last_tn: u64,
    /// Whether the log ended exactly at a frame boundary.
    pub clean_end: bool,
    /// Bytes discarded after the last intact frame (torn tail).
    pub torn_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcc_storage::wal::{scan, MemWal};

    #[test]
    fn commit_log_counts_appends_and_syncs() {
        let metrics = Arc::new(Metrics::new());
        let mem = MemWal::new();
        let writer = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::EveryN(2)).unwrap();
        let log = CommitLog::new(writer, Arc::clone(&metrics));
        for tn in 1..=5u64 {
            log.append(tn, &[(ObjectId(0), Value::from_u64(tn))])
                .unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.wal_appends, 5);
        assert_eq!(snap.wal_syncs, 2, "every-2 policy: 5 appends, 2 syncs");
        assert!(snap.wal_bytes > 0);
        let (records, _) = scan(&mem.bytes()).unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn rotate_counts_and_drops() {
        let metrics = Arc::new(Metrics::new());
        let mem = MemWal::new();
        let writer = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
        let log = CommitLog::new(writer, Arc::clone(&metrics));
        for tn in 1..=4u64 {
            log.append(tn, &[(ObjectId(0), Value::from_u64(tn))])
                .unwrap();
        }
        assert_eq!(log.rotate(3).unwrap(), (3, 1));
        assert_eq!(metrics.snapshot().wal_rotations, 1);
        assert_eq!(log.live_records(), 1);
    }
}
