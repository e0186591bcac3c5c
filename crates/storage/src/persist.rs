//! Checkpointing: persist a transaction-consistent snapshot of the store.
//!
//! The paper's opening sentence — "multiple versions of data are used in
//! database systems to support transaction and system recovery" — is the
//! original purpose version control piggybacks on. This module closes
//! that loop: because `vtnc` identifies a prefix of the serial order
//! whose effects are fully committed, the versions with numbers
//! `≤ vtnc` form a **transaction-consistent** snapshot that can be
//! written out while read-write traffic continues (a checkpoint is just
//! one more reader of old versions). Restoring yields a store whose
//! every object carries the value that snapshot saw, and the version
//! counters resume above the checkpoint watermark.
//!
//! Format (little-endian, versioned magic):
//!
//! ```text
//! "MVDBCKP2" | watermark u64 | object count u64 |
//!   per object: id u64 | version count u64 |
//!     per version: number u64 | payload length u64 | payload bytes
//! | crc32 u32                      (over everything after the magic)
//! ```
//!
//! Writers emit v2; readers accept v1 (`MVDBCKP1`, identical body, no
//! trailer) for logs written before the CRC hardening. A v2 checkpoint
//! whose trailer does not match fails `restore` with `InvalidData`
//! instead of silently rebuilding a bit-flipped store, and any
//! checkpoint carrying a version numbered above its own watermark is
//! rejected the same way — such a file is internally inconsistent no
//! matter how it was produced.

use crate::store::MvStore;
use crate::value::Value;
use crate::wal::Crc32;
use crate::VersionNo;
use mvcc_model::ObjectId;
use std::io::{self, Read, Write};

const MAGIC_V1: &[u8; 8] = b"MVDBCKP1";
const MAGIC_V2: &[u8; 8] = b"MVDBCKP2";

/// Largest single value payload `restore` will believe. Guards against a
/// corrupt length field turning into a giant allocation before the CRC
/// trailer gets a chance to catch the corruption.
const MAX_VALUE_LEN: u64 = 64 << 20;

/// `Write` adapter folding every byte into a CRC32 accumulator.
struct Crc32Writer<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `Read` adapter folding every byte read into a CRC32 accumulator.
struct Crc32Reader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for Crc32Reader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

/// Summary of a checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshot watermark (the `vtnc` the checkpoint is consistent at).
    pub watermark: VersionNo,
    /// Objects written.
    pub objects: usize,
    /// Versions written.
    pub versions: usize,
    /// Payload bytes written (excluding framing).
    pub payload_bytes: usize,
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

impl MvStore {
    /// Write every committed version with number `≤ watermark` to `w`.
    ///
    /// Safe to run concurrently with writers: only committed versions at
    /// or below the watermark are read, and those are immutable. The
    /// caller should pass a watermark no larger than the current `vtnc`
    /// and must ensure GC does not prune below it during the write (the
    /// engine registers the checkpoint like a read-only transaction).
    pub fn checkpoint(
        &self,
        w: &mut impl Write,
        watermark: VersionNo,
    ) -> io::Result<CheckpointStats> {
        let objects = self.objects();
        w.write_all(MAGIC_V2)?;
        let mut cw = Crc32Writer {
            inner: w,
            crc: Crc32::new(),
        };
        put_u64(&mut cw, watermark)?;
        put_u64(&mut cw, objects.len() as u64)?;
        let mut stats = CheckpointStats {
            watermark,
            objects: 0,
            versions: 0,
            payload_bytes: 0,
        };
        for obj in objects {
            // Copy the relevant versions out under the chain lock, then
            // write without holding it.
            let versions: Vec<(VersionNo, Value)> = self.with(obj, |c| {
                c.committed()
                    .filter(|v| v.number <= watermark)
                    .map(|v| (v.number, v.value.clone()))
                    .collect()
            });
            put_u64(&mut cw, obj.get())?;
            put_u64(&mut cw, versions.len() as u64)?;
            for (number, value) in versions {
                put_u64(&mut cw, number)?;
                put_u64(&mut cw, value.len() as u64)?;
                cw.write_all(value.as_bytes())?;
                stats.versions += 1;
                stats.payload_bytes += value.len();
            }
            stats.objects += 1;
        }
        let crc = cw.crc.finish();
        let w = cw.inner;
        w.write_all(&crc.to_le_bytes())?;
        w.flush()?;
        Ok(stats)
    }

    /// Read a checkpoint into a fresh store. Returns the store and the
    /// watermark it is consistent at (the restored `vtnc`).
    pub fn restore(r: &mut impl Read) -> io::Result<(MvStore, VersionNo)> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        match &magic {
            m if m == MAGIC_V1 => Self::restore_body(r),
            m if m == MAGIC_V2 => {
                let mut cr = Crc32Reader {
                    inner: r,
                    crc: Crc32::new(),
                };
                let result = Self::restore_body(&mut cr)?;
                let computed = cr.crc.finish();
                let mut trailer = [0u8; 4];
                cr.inner.read_exact(&mut trailer)?;
                if computed != u32::from_le_bytes(trailer) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "checkpoint crc mismatch (corrupt file)",
                    ));
                }
                Ok(result)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an mvdb checkpoint (bad magic)",
            )),
        }
    }

    fn restore_body(r: &mut impl Read) -> io::Result<(MvStore, VersionNo)> {
        let watermark = get_u64(r)?;
        let n_objects = get_u64(r)?;
        let store = MvStore::new();
        for _ in 0..n_objects {
            let obj = ObjectId(get_u64(r)?);
            let n_versions = get_u64(r)?;
            store.with(obj, |c| -> io::Result<()> {
                for _ in 0..n_versions {
                    let number = get_u64(r)?;
                    let len = get_u64(r)?;
                    if len > MAX_VALUE_LEN {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "implausible value length (corrupt checkpoint)",
                        ));
                    }
                    let len = len as usize;
                    if number > watermark {
                        // A checkpoint is by definition consistent at its
                        // watermark; a version above it means the file is
                        // corrupt or was never a valid checkpoint.
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "checkpoint contains version {number} above \
                                 its watermark {watermark}"
                            ),
                        ));
                    }
                    let mut payload = vec![0u8; len];
                    r.read_exact(&mut payload)?;
                    if number == 0 {
                        c.seed(Value::from_bytes(payload));
                    } else {
                        c.insert_committed(number, Value::from_bytes(payload))
                            .map_err(|e| {
                                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
                            })?;
                    }
                }
                Ok(())
            })?;
        }
        Ok((store, watermark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn round_trip_preserves_snapshot() {
        let store = MvStore::new();
        store.seed(obj(1), Value::from_u64(10));
        store.with(obj(1), |c| {
            c.insert_committed(3, Value::from_u64(30)).unwrap()
        });
        store.with(obj(2), |c| {
            c.insert_committed(5, Value::from_u64(50)).unwrap()
        });
        // version above the watermark — must NOT be checkpointed
        store.with(obj(1), |c| {
            c.insert_committed(9, Value::from_u64(90)).unwrap()
        });

        let mut buf = Vec::new();
        let stats = store.checkpoint(&mut buf, 5).unwrap();
        assert_eq!(stats.watermark, 5);
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.versions, 4); // 1: {0,3}, 2: {0,5}

        let (restored, watermark) = MvStore::restore(&mut buf.as_slice()).unwrap();
        assert_eq!(watermark, 5);
        assert_eq!(
            restored.read_at(obj(1), 5).unwrap(),
            (3, Value::from_u64(30))
        );
        assert_eq!(restored.read_at(obj(1), 2).unwrap().0, 0);
        assert_eq!(
            restored.read_at(obj(2), 5).unwrap(),
            (5, Value::from_u64(50))
        );
        // the post-watermark version is gone
        assert_eq!(restored.read_latest(obj(1)).0, 3);
    }

    /// Every chain's committed `(number, value)` list, by object.
    fn chains(store: &MvStore) -> Vec<(ObjectId, Vec<(VersionNo, Value)>)> {
        let versions = |c: &mut crate::VersionChain| {
            c.committed().map(|v| (v.number, v.value.clone())).collect()
        };
        store
            .objects()
            .into_iter()
            .map(|o| (o, store.with(o, versions)))
            .collect()
    }

    /// Checkpoint → restore, then replaying the log's later records out
    /// of order, rebuilds chains of depth 1, 2 and 8 version for version
    /// — the newest inline, the rest in order behind it.
    #[test]
    fn checkpoint_and_replay_rebuild_identical_chains() {
        use crate::wal::{replay_into, CommitRecord};
        // Object 1 keeps only its seed (depth 1); tn 1 writes object 2
        // (depth 2); tns 1–7 write object 3 (depth 8).
        let records: Vec<CommitRecord> = (1..=7u64)
            .map(|tn| CommitRecord {
                tn,
                writes: [2, 3]
                    .into_iter()
                    .filter(|&o| o == 3 || tn == 1)
                    .map(|o| (obj(o), Value::from_u64(10 * tn + o)))
                    .collect(),
            })
            .collect();
        let seeded = || {
            let store = MvStore::new();
            for o in 1..=3 {
                store.seed(obj(o), Value::from_u64(o));
            }
            store
        };
        let source = seeded();
        for r in &records {
            for (o, v) in &r.writes {
                source.with(*o, |c| c.insert_committed(r.tn, v.clone()).unwrap());
            }
        }
        let depths: Vec<usize> = chains(&source).iter().map(|(_, vs)| vs.len()).collect();
        assert_eq!(depths, vec![1, 2, 8]);
        let mut shuffled = records.clone();
        shuffled.reverse();
        shuffled.swap(1, 4);

        for watermark in [0, 1, 4, 7] {
            let mut buf = Vec::new();
            source.checkpoint(&mut buf, watermark).unwrap();
            let (restored, w) = MvStore::restore(&mut buf.as_slice()).unwrap();
            assert_eq!(w, watermark);
            let (last, skipped) = replay_into(&restored, watermark, &shuffled).unwrap();
            assert_eq!((last, skipped), (7, watermark as usize));
            assert_eq!(chains(&restored), chains(&source), "watermark {watermark}");
        }
        // Recovery with no checkpoint: the log alone over the seeds.
        let replayed = seeded();
        replay_into(&replayed, 0, &shuffled).unwrap();
        assert_eq!(chains(&replayed), chains(&source));
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOTADUMPxxxxxxxxxxxxxxxx".to_vec();
        let err = MvStore::restore(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_input_errors() {
        let store = MvStore::new();
        store.seed(obj(1), Value::from_u64(1));
        let mut buf = Vec::new();
        store.checkpoint(&mut buf, 1).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(MvStore::restore(&mut buf.as_slice()).is_err());
    }

    /// Build checkpoint bytes by hand (used to craft v1 and corrupt files).
    fn raw_checkpoint(magic: &[u8; 8], watermark: u64, versions: &[(u64, u64, u64)]) -> Vec<u8> {
        // versions: (object, number, value) — one object per entry.
        let mut body = Vec::new();
        put_u64(&mut body, watermark).unwrap();
        put_u64(&mut body, versions.len() as u64).unwrap();
        for &(object, number, value) in versions {
            put_u64(&mut body, object).unwrap();
            put_u64(&mut body, 1).unwrap();
            put_u64(&mut body, number).unwrap();
            let payload = Value::from_u64(value);
            put_u64(&mut body, payload.len() as u64).unwrap();
            body.extend_from_slice(payload.as_bytes());
        }
        let mut out = magic.to_vec();
        out.extend_from_slice(&body);
        if magic == MAGIC_V2 {
            out.extend_from_slice(&crate::wal::crc32(&body).to_le_bytes());
        }
        out
    }

    #[test]
    fn v1_checkpoints_still_restore() {
        let bytes = raw_checkpoint(MAGIC_V1, 7, &[(1, 3, 30), (2, 7, 70)]);
        let (restored, watermark) = MvStore::restore(&mut bytes.as_slice()).unwrap();
        assert_eq!(watermark, 7);
        assert_eq!(restored.read_at(obj(1), 7).unwrap().1.as_u64(), Some(30));
        assert_eq!(restored.read_at(obj(2), 7).unwrap().1.as_u64(), Some(70));
    }

    #[test]
    fn bit_flip_fails_crc() {
        let store = MvStore::new();
        store.seed(obj(1), Value::from_u64(10));
        store.with(obj(2), |c| {
            c.insert_committed(4, Value::from_u64(40)).unwrap()
        });
        let mut buf = Vec::new();
        store.checkpoint(&mut buf, 4).unwrap();
        assert!(buf.starts_with(MAGIC_V2));
        // Flip one bit somewhere in every body/trailer byte: each must be
        // caught — either by the CRC trailer or by a structural check.
        for pos in 8..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x04;
            assert!(
                MvStore::restore(&mut corrupt.as_slice()).is_err(),
                "bit flip at byte {pos} restored silently"
            );
        }
        // The pristine file still restores.
        assert!(MvStore::restore(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn version_above_watermark_rejected() {
        for magic in [MAGIC_V1, MAGIC_V2] {
            let bytes = raw_checkpoint(magic, 5, &[(1, 3, 30), (2, 9, 90)]);
            let err = MvStore::restore(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("above"),
                "wrong error for inconsistent checkpoint: {err}"
            );
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = MvStore::new();
        let mut buf = Vec::new();
        let stats = store.checkpoint(&mut buf, 0).unwrap();
        assert_eq!(stats.objects, 0);
        let (restored, watermark) = MvStore::restore(&mut buf.as_slice()).unwrap();
        assert_eq!(watermark, 0);
        assert!(restored.objects().is_empty());
    }
}
