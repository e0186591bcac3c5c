//! The three engines under test, built exactly as a user gets them.
//!
//! No tunable is set: `DbConfig::default()` everywhere, so a later PR that
//! deletes a knob or swaps a layer is measured, not broken, by this file.
//! The single stated exception is the flush policy of `durable` (see
//! [`durable_config`]).

use crate::workload::{Workload, INITIAL, KEYS};
use mvcc_cc::{presets, Optimistic, TimestampOrdering, TwoPhaseLocking};
use mvcc_core::{ConcurrencyControl, DbConfig, FsyncPolicy, MvDatabase};
use mvcc_model::ObjectId;
use mvcc_storage::wal::FileSink;
use mvcc_storage::Value;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A protocol arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Tpl,
    To,
    Occ,
}

impl Proto {
    pub const ALL: [Proto; 3] = [Proto::Tpl, Proto::To, Proto::Occ];

    pub fn name(self) -> &'static str {
        match self {
            Proto::Tpl => "2pl",
            Proto::To => "to",
            Proto::Occ => "occ",
        }
    }
}

/// One engine per protocol, preloaded identically.
pub struct Engines {
    pub tpl: MvDatabase<TwoPhaseLocking>,
    pub to: MvDatabase<TimestampOrdering>,
    pub occ: MvDatabase<Optimistic>,
    /// Directory of the logs and checkpoints (`durable` only); removed on
    /// drop.
    wal_dir: Option<PathBuf>,
}

/// Run `$body` with `$db` bound to the engine of protocol `$proto`.
macro_rules! with_db {
    ($engines:expr, $proto:expr, |$db:ident| $body:expr) => {
        match $proto {
            $crate::engine::Proto::Tpl => {
                let $db = &$engines.tpl;
                $body
            }
            $crate::engine::Proto::To => {
                let $db = &$engines.to;
                $body
            }
            $crate::engine::Proto::Occ => {
                let $db = &$engines.occ;
                $body
            }
        }
    };
}
pub(crate) use with_db;

/// Flush policy of `durable`, stated and fixed: nothing is synced inside a
/// slice; the driver syncs once per round (group commit at the round
/// boundary). An fsync in this sandbox costs 250–670 µs and varies 2.5×
/// between runs, so `Always`/`EveryN` would gate the sandbox's disk, not
/// the program.
fn durable_config() -> DbConfig {
    DbConfig::default().with_wal_fsync(FsyncPolicy::Never)
}

/// What one between-rounds maintenance pass did.
pub struct Maintenance {
    pub gc_ns: u64,
    pub pruned: u64,
    /// Checkpoint + log rotation, when one was asked for (`durable` only).
    pub checkpoint_ns: Option<u64>,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl Engines {
    /// Construct the three engines and preload [`KEYS`] keys into each. On
    /// `durable` every engine logs to its own file under a fresh
    /// directory below `out`.
    pub fn open(workload: Workload, out: &Path) -> io::Result<Engines> {
        let engines = if workload.wal() {
            let dir = out.join(format!(
                "wal-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)?;
            let sink = |p: Proto| -> io::Result<Box<FileSink>> {
                Ok(Box::new(FileSink::create(&wal_path(&dir, p))?))
            };
            let cfg = durable_config();
            Engines {
                // The presets' constructors, plus the log.
                tpl: MvDatabase::with_wal(
                    TwoPhaseLocking::with_shards(cfg.lock_shards),
                    cfg.clone(),
                    sink(Proto::Tpl)?,
                )?,
                to: MvDatabase::with_wal(TimestampOrdering::new(), cfg.clone(), sink(Proto::To)?)?,
                occ: MvDatabase::with_wal(Optimistic::new(), cfg, sink(Proto::Occ)?)?,
                wal_dir: Some(dir),
            }
        } else {
            Engines {
                tpl: presets::vc_2pl(DbConfig::default()),
                to: presets::vc_to(DbConfig::default()),
                occ: presets::vc_occ(DbConfig::default()),
                wal_dir: None,
            }
        };
        for p in Proto::ALL {
            with_db!(engines, p, |db| {
                for k in 0..KEYS {
                    db.seed(ObjectId(k as u64), Value::from_u64(INITIAL));
                }
            });
        }
        Ok(engines)
    }

    /// Between rounds, outside every slice: garbage-collect the engine that
    /// just ran; on `durable` also make its log durable and, if `rotate`,
    /// checkpoint and rotate, which bounds the log and the writer's
    /// in-memory mirror. The driver leaves the last round of each arm
    /// unrotated so that [`verify`](Self::verify) recovers a log that still
    /// holds that round's commit records.
    pub fn maintain(&self, proto: Proto, rotate: bool) -> io::Result<Maintenance> {
        with_db!(self, proto, |db| {
            let t = Instant::now();
            let gc = db.collect_garbage();
            let gc_ns = t.elapsed().as_nanos() as u64;
            let checkpoint_ns = match &self.wal_dir {
                None => None,
                Some(dir) => {
                    db.wal().expect("durable engine").sync()?;
                    if rotate {
                        let t = Instant::now();
                        let mut w = BufWriter::new(File::create(checkpoint_path(dir, proto))?);
                        db.checkpoint_and_rotate(&mut w)?;
                        Some(t.elapsed().as_nanos() as u64)
                    } else {
                        None
                    }
                }
            };
            Ok(Maintenance {
                gc_ns,
                pruned: gc.versions_pruned as u64,
                checkpoint_ns,
            })
        })
    }

    /// End-of-run checks; returns one line per violation.
    ///
    /// * Σ of all values = preload + `increments[p]` (transfers add zero, so
    ///   on `long_reader` this is conservation of the grand total);
    /// * read-only transactions never aborted and never blocked;
    /// * on `durable`, recovery from the bytes read back — the last
    ///   checkpoint plus the synced log of the rounds since — reproduces the
    ///   same total and finds a clean log end.
    pub fn verify(&self, increments: [u64; 3]) -> io::Result<Vec<String>> {
        let mut bad = Vec::new();
        for (p, incs) in Proto::ALL.into_iter().zip(increments) {
            let expected = KEYS as u64 * INITIAL + incs;
            let (total, m) = with_db!(self, p, |db| (snapshot_total(db), db.metrics()));
            if total != Ok(expected) {
                bad.push(format!(
                    "{}: Σ values {total:?}, expected {expected}",
                    p.name()
                ));
            }
            if m.ro_aborts != 0 || m.ro_blocks != 0 {
                bad.push(format!(
                    "{}: ro_aborts={} ro_blocks={}, expected 0",
                    p.name(),
                    m.ro_aborts,
                    m.ro_blocks
                ));
            }
            if let Some(dir) = &self.wal_dir {
                let wal = std::fs::read(wal_path(dir, p))?;
                let checkpoint = std::fs::read(checkpoint_path(dir, p))?;
                let (recovered, clean_end) = match p {
                    Proto::Tpl => recovered_total(TwoPhaseLocking::new(), &checkpoint, &wal)?,
                    Proto::To => recovered_total(TimestampOrdering::new(), &checkpoint, &wal)?,
                    Proto::Occ => recovered_total(Optimistic::new(), &checkpoint, &wal)?,
                };
                if recovered != Ok(expected) || !clean_end {
                    bad.push(format!(
                        "{}: recovered Σ {recovered:?} clean_end={clean_end}, expected {expected}",
                        p.name()
                    ));
                }
            }
        }
        Ok(bad)
    }
}

impl Drop for Engines {
    fn drop(&mut self) {
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn wal_path(dir: &Path, p: Proto) -> PathBuf {
    dir.join(format!("{}.wal", p.name()))
}

fn checkpoint_path(dir: &Path, p: Proto) -> PathBuf {
    dir.join(format!("{}.ckpt", p.name()))
}

/// Σ of every key (`Err` names the first key that could not be read).
/// Nothing else runs when this is called, so any snapshot is the final
/// state; the keys are read 512 per read-only transaction because
/// `RoTxn::read` costs time linear in the reads its transaction has already
/// made (one 200k-read transaction takes 13 s).
fn snapshot_total<C: ConcurrencyControl>(db: &MvDatabase<C>) -> Result<u64, u32> {
    let mut total = 0u64;
    for first in (0..KEYS).step_by(512) {
        let mut ro = db.begin_read_only();
        for k in first..(first + 512).min(KEYS) {
            match ro.read_u64(ObjectId(k as u64)) {
                Ok(Some(v)) => total += v,
                _ => return Err(k),
            }
        }
        ro.finish();
    }
    Ok(total)
}

fn recovered_total<C: ConcurrencyControl>(
    cc: C,
    checkpoint: &[u8],
    wal: &[u8],
) -> io::Result<(Result<u64, u32>, bool)> {
    let (db, stats) = MvDatabase::recover(cc, DbConfig::default(), Some(checkpoint), wal, None)?;
    Ok((snapshot_total(&db), stats.clean_end))
}
