//! Write-ahead log: CRC-framed, length-prefixed commit records.
//!
//! The paper's opening motivation — versions exist "to support
//! transaction and system recovery" — needs one more ingredient the
//! in-memory store cannot provide: a commit must survive the process.
//! This module is that ingredient, shaped the way Hekaton shapes it for
//! MVCC engines: the *only* thing logged is the durable image of a
//! committed transaction (`tn` + writeset), appended **before**
//! `VCcomplete` makes the transaction visible. Undo logging is
//! unnecessary — uncommitted versions live only in volatile memory, so a
//! crash discards them for free — and replay is pure redo in transaction-
//! number order.
//!
//! On-disk format (little-endian):
//!
//! ```text
//! file   := "MVDBWAL1" frame*
//! frame  := len u32 | crc32 u32 | payload (len bytes)      crc is over payload
//! payload:= tn u64 | count u32 | { obj u64 | vlen u32 | value bytes }*
//! ```
//!
//! A reader ([`scan`]) accepts the longest prefix of intact frames and
//! stops — without error — at the first torn or corrupt one: a crash in
//! the middle of an append tears only the final frame, and the frames
//! before it are exactly the transactions whose commits were durable.
//! Because a transaction appends *after* all of its reads (and a writer
//! applies its updates to the store only after its own append), any
//! transaction whose writes another surviving transaction observed
//! appears earlier in the file — a file prefix is therefore always
//! closed under read-from dependencies, i.e. transaction-consistent.
//!
//! The writer supports group commit: under [`FsyncPolicy::EveryN`],
//! `n` consecutive appends share one `sync`, trading the tail of the
//! log (at most `n − 1` acknowledged-but-unsynced commits) for an
//! `n`-fold reduction in sync calls. [`FsyncPolicy::Always`] syncs every
//! record; [`FsyncPolicy::Never`] leaves durability to the operating
//! system entirely.

use crate::store::MvStore;
use crate::value::Value;
use mvcc_model::ObjectId;
use std::io::{self, Write};

/// Magic header identifying a WAL stream.
pub const WAL_MAGIC: &[u8; 8] = b"MVDBWAL1";

/// Largest frame payload we will believe while scanning (guards the
/// reader against interpreting corrupt length fields as huge allocations).
const MAX_FRAME_LEN: u32 = 64 << 20;

// ---- CRC32 (IEEE 802.3, the zlib polynomial) ------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC32 (IEEE). Also used by the checkpoint trailer in
/// [`crate::persist`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        for &b in data {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

// ---- sinks ----------------------------------------------------------------

/// The durable medium a WAL writes to: append-only plus `sync` (make
/// everything appended so far durable) and `truncate_to` (rewind after a
/// failed append so garbage never precedes good records).
pub trait WalSink: Send {
    /// Append `buf` at the end of the log.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make every appended byte durable (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Discard everything after the first `len` bytes.
    fn truncate_to(&mut self, len: u64) -> io::Result<()>;
}

impl WalSink for Box<dyn WalSink> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        (**self).append(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        (**self).truncate_to(len)
    }
}

/// [`WalSink`] over a real file. `sync` maps to `sync_data`.
pub struct FileSink(std::fs::File);

impl FileSink {
    /// Create (truncating) a log file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(FileSink(
            std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(path)?,
        ))
    }
}

impl WalSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        use std::io::Seek;
        self.0.set_len(len)?;
        self.0.seek(io::SeekFrom::Start(len)).map(|_| ())
    }
}

#[derive(Default)]
struct MemWalInner {
    data: Vec<u8>,
    durable: usize,
}

/// An in-memory [`WalSink`] with an explicit durability horizon, for
/// tests and experiments. Cloning shares the buffer, so a test can keep
/// a handle while the engine owns the sink, then "crash" by reading the
/// bytes back and recovering from any prefix.
#[derive(Clone, Default)]
pub struct MemWal(std::sync::Arc<parking_lot::Mutex<MemWalInner>>);

impl MemWal {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every byte appended so far (durable or not) — what a crash *may*
    /// leave behind, up to torn tails.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().data.clone()
    }

    /// Only the bytes covered by a completed `sync` — what a crash is
    /// *guaranteed* to leave behind.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let inner = self.0.lock();
        inner.data[..inner.durable].to_vec()
    }

    /// Total appended length.
    pub fn len(&self) -> usize {
        self.0.lock().data.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WalSink for MemWal {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.lock().data.extend_from_slice(buf);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.0.lock();
        inner.durable = inner.data.len();
        Ok(())
    }
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.0.lock();
        let len = len as usize;
        inner.data.truncate(len);
        inner.durable = inner.durable.min(len);
        Ok(())
    }
}

// ---- records --------------------------------------------------------------

/// A decoded commit record: the transaction number and its writeset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committing transaction's number (= version number of every
    /// write).
    pub tn: u64,
    /// The writeset, one entry per object (last write wins upstream).
    pub writes: Vec<(ObjectId, Value)>,
}

/// Encode a commit payload (no frame header).
fn encode_payload(tn: u64, writes: &[(ObjectId, Value)]) -> Vec<u8> {
    let mut payload =
        Vec::with_capacity(12 + writes.iter().map(|(_, v)| 12 + v.len()).sum::<usize>());
    payload.extend_from_slice(&tn.to_le_bytes());
    payload.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for (obj, value) in writes {
        payload.extend_from_slice(&obj.get().to_le_bytes());
        payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
        payload.extend_from_slice(value.as_bytes());
    }
    payload
}

/// Encode a full frame: `len | crc | payload`.
pub fn encode_frame(tn: u64, writes: &[(ObjectId, Value)]) -> Vec<u8> {
    let payload = encode_payload(tn, writes);
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> Option<CommitRecord> {
    let take_u64 = |b: &[u8], at: usize| -> Option<u64> {
        b.get(at..at + 8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    };
    let take_u32 = |b: &[u8], at: usize| -> Option<u32> {
        b.get(at..at + 4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    };
    let tn = take_u64(payload, 0)?;
    let count = take_u32(payload, 8)? as usize;
    let mut at = 12;
    let mut writes = Vec::with_capacity(count);
    for _ in 0..count {
        let obj = take_u64(payload, at)?;
        let vlen = take_u32(payload, at + 8)? as usize;
        let value = payload.get(at + 12..at + 12 + vlen)?;
        writes.push((ObjectId(obj), Value::from_slice(value)));
        at += 12 + vlen;
    }
    if at != payload.len() {
        return None; // trailing garbage inside the payload
    }
    Some(CommitRecord { tn, writes })
}

// ---- scanning (recovery read path) ----------------------------------------

/// What a [`scan`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Intact records decoded.
    pub records: usize,
    /// Bytes consumed by the header plus intact frames.
    pub bytes_replayed: usize,
    /// Bytes abandoned after the last intact frame (torn tail, corrupt
    /// frame, or trailing garbage). Zero means the log ended cleanly.
    pub torn_bytes: usize,
}

impl ScanStats {
    /// Whether the log ended exactly at a frame boundary.
    pub fn clean_end(&self) -> bool {
        self.torn_bytes == 0
    }
}

/// Decode the longest intact prefix of a WAL byte stream.
///
/// Errors only on a bad magic header (the stream is not a WAL at all);
/// torn tails and corrupt frames are expected crash artifacts and end
/// the scan silently — exactly the records before the first bad frame
/// are returned. An empty stream is a valid empty log.
pub fn scan(bytes: &[u8]) -> io::Result<(Vec<CommitRecord>, ScanStats)> {
    let mut stats = ScanStats {
        records: 0,
        bytes_replayed: 0,
        torn_bytes: 0,
    };
    if bytes.is_empty() {
        return Ok((Vec::new(), stats));
    }
    if bytes.len() < WAL_MAGIC.len() {
        stats.torn_bytes = bytes.len();
        return Ok((Vec::new(), stats));
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an mvdb WAL (bad magic)",
        ));
    }
    let mut at = 8;
    let mut records = Vec::new();
    // Ends (never errors) at the first torn or corrupt frame.
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            break; // corrupt length field
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len as usize) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // corrupt payload (or corrupt crc — indistinguishable)
        }
        let Some(record) = decode_payload(payload) else {
            break; // internally malformed despite matching crc
        };
        records.push(record);
        at += 8 + len as usize;
    }
    stats.records = records.len();
    stats.bytes_replayed = at;
    stats.torn_bytes = bytes.len() - at;
    Ok((records, stats))
}

// ---- writer ---------------------------------------------------------------

/// When the writer calls [`WalSink::sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every commit record: a committed transaction is durable
    /// before its commit returns.
    Always,
    /// Group commit: sync once per `n` records. A crash can lose up to
    /// `n − 1` acknowledged commits (always a suffix of the ack order).
    EveryN(u64),
    /// Never sync; durability is whatever the OS happens to flush.
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Result of one append.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Frame bytes written (header + payload).
    pub bytes: usize,
    /// Whether this append triggered a sink sync.
    pub synced: bool,
}

/// The appending half of the WAL. Single-writer: callers serialize
/// through a mutex one level up (the engine's `CommitLog`).
///
/// Besides appending, the writer keeps an in-memory copy of every frame
/// since the last rotation so [`rotate`](Self::rotate) can rewrite the
/// log to exactly the records a new checkpoint has not yet absorbed —
/// a single-file stand-in for segment-switch rotation; see DESIGN.md §9
/// for the crash-window caveat. **Memory cost:** `recent` mirrors the
/// whole log since the last rotation, so an engine that never
/// checkpoints duplicates its entire WAL in memory; checkpoint (and
/// rotate) periodically to bound it.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    policy: FsyncPolicy,
    /// Bytes known good in the sink (header + fully appended frames).
    offset: u64,
    /// Appends since the last sync (group-commit counter).
    unsynced: u64,
    /// Frame bytes appended since the last sync — the durability backlog
    /// a crash right now would lose. Surfaced as the `wal_backlog_bytes`
    /// gauge by the engine's observability layer.
    unsynced_bytes: u64,
    /// `(tn, frame)` for every record since the last rotation.
    recent: Vec<(u64, Vec<u8>)>,
    /// Set when the sink's contents no longer match what this writer
    /// believes (a failed rewind or a failed rotation rewrite): every
    /// further operation fails, forcing the engine to recover from the
    /// log rather than keep acknowledging commits it cannot cover.
    poisoned: bool,
}

impl WalWriter {
    /// Start a fresh log on `sink`: writes and syncs the magic header.
    pub fn create(mut sink: Box<dyn WalSink>, policy: FsyncPolicy) -> io::Result<Self> {
        sink.append(WAL_MAGIC)?;
        sink.sync()?;
        Ok(WalWriter {
            sink,
            policy,
            offset: WAL_MAGIC.len() as u64,
            unsynced: 0,
            unsynced_bytes: 0,
            recent: Vec::new(),
            poisoned: false,
        })
    }

    /// Resume a log whose sink already holds `records` (recovery onto a
    /// fresh sink): writes the header and re-appends every record, so
    /// that sink + the restoring checkpoint again cover the full state.
    pub fn create_with(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        records: &[CommitRecord],
    ) -> io::Result<Self> {
        let mut w = Self::create(sink, policy)?;
        for r in records {
            w.raw_append(r.tn, encode_frame(r.tn, &r.writes))?;
        }
        w.sync()?;
        Ok(w)
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Whether the writer is poisoned (sink contents unknown; see
    /// the `poisoned` field). A poisoned log accepts no further
    /// operations — recover from the bytes instead.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal writer poisoned by an earlier sink failure; recover from the log",
            ));
        }
        Ok(())
    }

    fn raw_append(&mut self, tn: u64, frame: Vec<u8>) -> io::Result<()> {
        if let Err(e) = self.sink.append(&frame) {
            // A failed append may have left a partial frame (torn write):
            // rewind so later records are not stranded behind garbage.
            // If the rewind itself fails the sink is gone; recovery will
            // stop at the torn frame's bad CRC.
            let _ = self.sink.truncate_to(self.offset);
            return Err(e);
        }
        self.offset += frame.len() as u64;
        self.recent.push((tn, frame));
        Ok(())
    }

    /// Append one commit record and apply the fsync policy. On success
    /// the record is in the log (durable if `synced`); on error nothing
    /// of the record remains and the caller must abort the transaction.
    ///
    /// That guarantee covers fsync failure too: if the policy demanded a
    /// sync and the sink refused, the just-appended frame is rewound
    /// before the error propagates — otherwise the caller would abort
    /// the transaction while its record sat in the log, became durable
    /// at the next successful sync, and was resurrected by replay. If
    /// even the rewind fails the writer poisons itself (every further
    /// operation errors): the sink's contents are unknown, and the only
    /// safe continuation is recovery from the bytes.
    pub fn append_commit(
        &mut self,
        tn: u64,
        writes: &[(ObjectId, Value)],
    ) -> io::Result<AppendInfo> {
        self.check_poisoned()?;
        let frame = encode_frame(tn, writes);
        let bytes = frame.len();
        self.raw_append(tn, frame)?;
        self.unsynced += 1;
        self.unsynced_bytes += bytes as u64;
        let want_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if want_sync {
            if let Err(e) = self.sink.sync() {
                self.offset -= bytes as u64;
                self.unsynced -= 1;
                self.unsynced_bytes -= bytes as u64;
                self.recent.pop();
                if self.sink.truncate_to(self.offset).is_err() {
                    self.poisoned = true;
                }
                return Err(e);
            }
            self.unsynced = 0;
            self.unsynced_bytes = 0;
        }
        Ok(AppendInfo {
            bytes,
            synced: want_sync,
        })
    }

    /// Force a sync (end of a group-commit batch, shutdown, pre-rotate).
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        self.sink.sync()?;
        self.unsynced = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }

    /// Rotate after a checkpoint consistent at `watermark`: rewrite the
    /// log to contain only records with `tn > watermark` (everything
    /// else is in the checkpoint) and sync. Returns how many records
    /// were dropped and kept.
    ///
    /// If the truncation fails the sink is untouched (the old log is
    /// still intact and scannable) and the error just propagates. Any
    /// failure *after* the truncation poisons the writer: the sink is
    /// now missing acknowledged records that only `recent` still holds,
    /// so no further commit may be acknowledged on it — the caller keeps
    /// the checkpoint it just wrote and recovers from that.
    pub fn rotate(&mut self, watermark: u64) -> io::Result<(usize, usize)> {
        self.check_poisoned()?;
        let before = self.recent.len();
        self.recent.retain(|(tn, _)| *tn > watermark);
        let kept = self.recent.len();
        self.sink.truncate_to(0)?;
        self.offset = 0;
        if let Err(e) = self.rewrite_kept() {
            self.poisoned = true;
            return Err(e);
        }
        self.unsynced = 0;
        self.unsynced_bytes = 0;
        Ok((before - kept, kept))
    }

    /// Re-emit the header plus every kept frame after a rotate
    /// truncation, keeping `offset` in lockstep with each frame that
    /// fully reached the sink (so it never overstates the sink on a
    /// mid-loop failure).
    fn rewrite_kept(&mut self) -> io::Result<()> {
        self.sink.append(WAL_MAGIC)?;
        self.offset = WAL_MAGIC.len() as u64;
        for (_, frame) in &self.recent {
            self.sink.append(frame)?;
            self.offset += frame.len() as u64;
        }
        self.sink.sync()
    }

    /// Records currently covered by the log (since the last rotation).
    pub fn live_records(&self) -> usize {
        self.recent.len()
    }

    /// Bytes appended so far (header included, failed appends excluded).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Frame bytes appended but not yet synced — what a crash right now
    /// would lose (zero under [`FsyncPolicy::Always`]).
    pub fn backlog_bytes(&self) -> u64 {
        self.unsynced_bytes
    }
}

// ---- replay into a store --------------------------------------------------

/// Apply scanned records to `store`: every write of every record with
/// `tn > watermark` becomes a committed version numbered `tn`. Records
/// are applied in transaction-number order (appends may interleave out
/// of `tn` order under concurrent commits). Returns the highest `tn`
/// applied (or `watermark` if none) and how many records were skipped
/// as already covered by the checkpoint.
pub fn replay_into(
    store: &MvStore,
    watermark: u64,
    records: &[CommitRecord],
) -> io::Result<(u64, usize)> {
    let mut ordered: Vec<&CommitRecord> = records.iter().collect();
    ordered.sort_by_key(|r| r.tn);
    let mut last_tn = watermark;
    let mut skipped = 0;
    for record in ordered {
        if record.tn <= watermark {
            skipped += 1;
            continue;
        }
        for (obj, value) in &record.writes {
            store
                .with(*obj, |c| c.insert_committed(record.tn, value.clone()))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("replay of tn {}: {e}", record.tn),
                    )
                })?;
        }
        last_tn = record.tn;
    }
    Ok((last_tn, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tn: u64, writes: &[(u64, u64)]) -> CommitRecord {
        CommitRecord {
            tn,
            writes: writes
                .iter()
                .map(|&(o, v)| (ObjectId(o), Value::from_u64(v)))
                .collect(),
        }
    }

    fn write_log(records: &[CommitRecord], policy: FsyncPolicy) -> MemWal {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), policy).unwrap();
        for r in records {
            w.append_commit(r.tn, &r.writes).unwrap();
        }
        w.sync().unwrap();
        mem
    }

    #[test]
    fn backlog_bytes_tracks_unsynced_frames() {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem), FsyncPolicy::EveryN(3)).unwrap();
        assert_eq!(w.backlog_bytes(), 0);
        let a = w.append_commit(1, &rec(1, &[(0, 1)]).writes).unwrap();
        assert!(!a.synced);
        assert_eq!(w.backlog_bytes(), a.bytes as u64);
        let b = w.append_commit(2, &rec(2, &[(1, 2)]).writes).unwrap();
        assert_eq!(w.backlog_bytes(), (a.bytes + b.bytes) as u64);
        // Third append completes the group commit: backlog drains.
        let c = w.append_commit(3, &rec(3, &[(2, 3)]).writes).unwrap();
        assert!(c.synced);
        assert_eq!(w.backlog_bytes(), 0);
        // Explicit sync also drains.
        w.append_commit(4, &rec(4, &[(3, 4)]).writes).unwrap();
        assert!(w.backlog_bytes() > 0);
        w.sync().unwrap();
        assert_eq!(w.backlog_bytes(), 0);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = vec![
            rec(1, &[(10, 100)]),
            rec(2, &[(10, 200), (11, 5)]),
            rec(3, &[]),
        ];
        let mem = write_log(&records, FsyncPolicy::Always);
        let (decoded, stats) = scan(&mem.bytes()).unwrap();
        assert_eq!(decoded, records);
        assert!(stats.clean_end());
        assert_eq!(stats.records, 3);
    }

    #[test]
    fn empty_log_scans_clean() {
        let mem = MemWal::new();
        WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
        let (records, stats) = scan(&mem.bytes()).unwrap();
        assert!(records.is_empty());
        assert!(stats.clean_end());
        // And the completely empty stream is a valid empty log too.
        let (records, stats) = scan(&[]).unwrap();
        assert!(records.is_empty());
        assert!(stats.clean_end());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = scan(b"NOTAWAL!xxxx").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_record_prefix() {
        let records = vec![rec(1, &[(0, 1)]), rec(2, &[(1, 2)]), rec(3, &[(2, 3)])];
        let mem = write_log(&records, FsyncPolicy::Always);
        let bytes = mem.bytes();
        for cut in 0..=bytes.len() {
            let (decoded, stats) = scan(&bytes[..cut]).unwrap();
            assert!(decoded.len() <= records.len());
            assert_eq!(decoded, records[..decoded.len()], "cut at {cut}");
            assert_eq!(stats.bytes_replayed + stats.torn_bytes, cut);
        }
        // The full log decodes everything.
        assert_eq!(scan(&bytes).unwrap().0.len(), 3);
    }

    #[test]
    fn bit_flip_stops_scan_at_corrupt_frame() {
        let records = vec![rec(1, &[(0, 1)]), rec(2, &[(1, 2)]), rec(3, &[(2, 3)])];
        let mem = write_log(&records, FsyncPolicy::Always);
        let clean = mem.bytes();
        // Flip one bit in every byte position; the scan must never return
        // a non-prefix and never panic.
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            match scan(&corrupt) {
                Ok((decoded, _)) => {
                    // Corrupting byte `pos` can only kill frames at or
                    // after it; earlier records must survive intact.
                    for (i, r) in decoded.iter().enumerate() {
                        assert_eq!(r, &records[i], "bit flip at {pos}");
                    }
                }
                Err(e) => {
                    // Only the magic header may hard-error.
                    assert!(pos < 8, "unexpected error at {pos}: {e}");
                }
            }
        }
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::EveryN(3)).unwrap();
        let mut syncs = 0;
        for tn in 1..=7u64 {
            let info = w
                .append_commit(tn, &[(ObjectId(0), Value::from_u64(tn))])
                .unwrap();
            if info.synced {
                syncs += 1;
            }
        }
        assert_eq!(syncs, 2, "7 appends at n=3 sync twice");
        // Unsynced tail: records 7 is appended but not durable.
        let (durable, _) = scan(&mem.durable_bytes()).unwrap();
        assert_eq!(durable.len(), 6);
        let (all, _) = scan(&mem.bytes()).unwrap();
        assert_eq!(all.len(), 7);
        w.sync().unwrap();
        let (durable, _) = scan(&mem.durable_bytes()).unwrap();
        assert_eq!(durable.len(), 7);
    }

    #[test]
    fn never_policy_syncs_nothing_after_header() {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Never).unwrap();
        for tn in 1..=5u64 {
            let info = w
                .append_commit(tn, &[(ObjectId(0), Value::from_u64(tn))])
                .unwrap();
            assert!(!info.synced);
        }
        assert_eq!(mem.durable_bytes().len(), WAL_MAGIC.len());
    }

    #[test]
    fn rotation_drops_checkpointed_records() {
        let mem = MemWal::new();
        let mut w = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Always).unwrap();
        for tn in 1..=6u64 {
            w.append_commit(tn, &[(ObjectId(tn), Value::from_u64(tn))])
                .unwrap();
        }
        let (dropped, kept) = w.rotate(4).unwrap();
        assert_eq!((dropped, kept), (4, 2));
        let (records, stats) = scan(&mem.bytes()).unwrap();
        assert!(stats.clean_end());
        assert_eq!(records.iter().map(|r| r.tn).collect::<Vec<_>>(), vec![5, 6]);
        // The log keeps working after rotation.
        w.append_commit(7, &[(ObjectId(7), Value::from_u64(7))])
            .unwrap();
        let (records, _) = scan(&mem.bytes()).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn replay_applies_in_tn_order_and_skips_checkpointed() {
        let store = MvStore::new();
        // Appended out of tn order (concurrent commits can do that).
        let records = vec![rec(5, &[(0, 50)]), rec(3, &[(0, 30)]), rec(4, &[(1, 40)])];
        let (last, skipped) = replay_into(&store, 3, &records).unwrap();
        assert_eq!(last, 5);
        assert_eq!(skipped, 1); // tn 3 was ≤ the watermark
        assert_eq!(store.read_latest(ObjectId(0)), (5, Value::from_u64(50)));
        assert_eq!(
            store.read_at(ObjectId(1), 4).unwrap().1,
            Value::from_u64(40)
        );
    }

    #[test]
    fn replay_duplicate_tn_is_invalid_data() {
        let store = MvStore::new();
        let records = vec![rec(2, &[(0, 1)]), rec(2, &[(0, 9)])];
        let err = replay_into(&store, 0, &records).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn failed_append_rewinds_partial_frame() {
        /// Sink that tears the third append halfway through.
        struct Tearing {
            mem: MemWal,
            appends: usize,
        }
        impl WalSink for Tearing {
            fn append(&mut self, buf: &[u8]) -> io::Result<()> {
                self.appends += 1;
                if self.appends == 3 {
                    self.mem.append(&buf[..buf.len() / 2]).unwrap();
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "torn (injected)"));
                }
                self.mem.append(buf)
            }
            fn sync(&mut self) -> io::Result<()> {
                self.mem.sync()
            }
            fn truncate_to(&mut self, len: u64) -> io::Result<()> {
                self.mem.truncate_to(len)
            }
        }
        let mem = MemWal::new();
        let sink = Tearing {
            mem: mem.clone(),
            appends: 0,
        };
        let mut w = WalWriter::create(Box::new(sink), FsyncPolicy::Always).unwrap();
        w.append_commit(1, &[(ObjectId(0), Value::from_u64(1))])
            .unwrap();
        let err = w
            .append_commit(2, &[(ObjectId(0), Value::from_u64(2))])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The rewind removed the torn bytes: the next commit lands cleanly.
        w.append_commit(3, &[(ObjectId(0), Value::from_u64(3))])
            .unwrap();
        let (records, stats) = scan(&mem.bytes()).unwrap();
        assert!(stats.clean_end(), "torn frame must be rewound");
        assert_eq!(records.iter().map(|r| r.tn).collect::<Vec<_>>(), vec![1, 3]);
    }

    /// Sink whose `sync` fails on one chosen call (1-based, counting the
    /// header sync from `WalWriter::create`), and whose `truncate_to`
    /// can be disabled to model a wholly failed device.
    struct FailingSync {
        mem: MemWal,
        fail_on: usize,
        calls: usize,
        truncate_works: bool,
    }
    impl WalSink for FailingSync {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            self.mem.append(buf)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(io::Error::other("fsync failed (injected)"));
            }
            self.mem.sync()
        }
        fn truncate_to(&mut self, len: u64) -> io::Result<()> {
            if !self.truncate_works {
                return Err(io::Error::other("truncate failed (injected)"));
            }
            self.mem.truncate_to(len)
        }
    }

    #[test]
    fn failed_fsync_rewinds_appended_frame() {
        let mem = MemWal::new();
        let sink = FailingSync {
            mem: mem.clone(),
            fail_on: 3, // header sync = 1, tn 1 = 2, tn 2 = 3
            calls: 0,
            truncate_works: true,
        };
        let mut w = WalWriter::create(Box::new(sink), FsyncPolicy::Always).unwrap();
        w.append_commit(1, &[(ObjectId(0), Value::from_u64(1))])
            .unwrap();
        let before = w.offset();
        w.append_commit(2, &[(ObjectId(0), Value::from_u64(2))])
            .unwrap_err();
        // The aborted record must not linger: a later successful sync
        // would make it durable and replay would resurrect the abort.
        assert_eq!(w.offset(), before, "offset rewound past the failed frame");
        assert_eq!(w.live_records(), 1);
        let (records, stats) = scan(&mem.bytes()).unwrap();
        assert!(stats.clean_end(), "failed-fsync frame must be rewound");
        assert_eq!(records.iter().map(|r| r.tn).collect::<Vec<_>>(), vec![1]);
        // The writer is not poisoned — the rewind succeeded — and keeps
        // accepting commits.
        assert!(!w.is_poisoned());
        w.append_commit(3, &[(ObjectId(0), Value::from_u64(3))])
            .unwrap();
        let (records, _) = scan(&mem.bytes()).unwrap();
        assert_eq!(records.iter().map(|r| r.tn).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn failed_fsync_then_failed_rewind_poisons_writer() {
        let mem = MemWal::new();
        let sink = FailingSync {
            mem: mem.clone(),
            fail_on: 2,
            calls: 0,
            truncate_works: false,
        };
        let mut w = WalWriter::create(Box::new(sink), FsyncPolicy::Always).unwrap();
        w.append_commit(1, &[(ObjectId(0), Value::from_u64(1))])
            .unwrap_err();
        assert!(w.is_poisoned());
        // Every further operation fails without touching the sink.
        let len = mem.len();
        w.append_commit(2, &[(ObjectId(0), Value::from_u64(2))])
            .unwrap_err();
        w.sync().unwrap_err();
        w.rotate(0).unwrap_err();
        assert_eq!(mem.len(), len, "poisoned writer must not touch the sink");
    }

    #[test]
    fn rotate_failure_after_truncation_poisons_writer() {
        /// Sink that fails the second append performed during rotation
        /// (the first kept frame; the header is append #1 post-arm).
        struct RotateTear {
            mem: MemWal,
            arm: bool,
            appends: usize,
        }
        impl WalSink for RotateTear {
            fn append(&mut self, buf: &[u8]) -> io::Result<()> {
                if self.arm {
                    self.appends += 1;
                    if self.appends == 2 {
                        self.mem.append(&buf[..buf.len() / 2]).unwrap();
                        return Err(io::Error::new(io::ErrorKind::WriteZero, "torn (injected)"));
                    }
                }
                self.mem.append(buf)
            }
            fn sync(&mut self) -> io::Result<()> {
                self.mem.sync()
            }
            fn truncate_to(&mut self, len: u64) -> io::Result<()> {
                self.arm = len == 0 || self.arm; // arm at the rotate truncation
                self.mem.truncate_to(len)
            }
        }
        let mem = MemWal::new();
        let sink = RotateTear {
            mem: mem.clone(),
            arm: false,
            appends: 0,
        };
        let mut w = WalWriter::create(Box::new(sink), FsyncPolicy::Always).unwrap();
        for tn in 1..=4u64 {
            w.append_commit(tn, &[(ObjectId(tn), Value::from_u64(tn))])
                .unwrap();
        }
        w.rotate(2).unwrap_err();
        // Kept records now live only in memory; acknowledging more
        // commits on this sink would strand them, so the writer refuses.
        assert!(w.is_poisoned());
        w.append_commit(5, &[(ObjectId(5), Value::from_u64(5))])
            .unwrap_err();
        // What did land in the sink still scans as a clean-or-torn log
        // (recovery stops at the half-written frame).
        let (records, _) = scan(&mem.bytes()).unwrap();
        assert!(records.len() <= 2);
    }
}
