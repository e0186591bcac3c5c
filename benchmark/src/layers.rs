//! Per-layer probes: one single-thread loop per stand-alone layer object.
//!
//! # Every engine symbol this benchmark calls
//!
//! A PR that changes one of these signatures breaks (or silently re-defines)
//! the benchmark; this is the blast radius.
//!
//! * `mvcc_core` — `DbConfig::{default, with_wal_fsync}` and the field
//!   `DbConfig::{lock_shards, store_shards, lock_wait_timeout}`;
//!   `FsyncPolicy::Never`; `ConcurrencyControl` (as a bound);
//!   `MvDatabase::{with_wal, recover, seed, begin_read_only,
//!   begin_read_write, collect_garbage, checkpoint_and_rotate, wal, vc,
//!   metrics, store_stats}`; `CommitLog::sync`; `RoTxn::{read, read_u64,
//!   finish}`; `RwTxn::{read, read_for_update, write, commit}`;
//!   `DbError::{is_retryable, Internal}`; `RecoveryStats::clean_end`;
//!   `MetricsSnapshot::delta` and its fields `ro_begun, ro_aborts,
//!   ro_blocks, rw_begun, rw_committed, rw_aborted, rw_blocks,
//!   rw_sync_actions, lock_shard_waits, vc_epoch_folds,
//!   vc_watermark_scan_ns, vc_lock_wait_ns, gc_slot_contention, wal_bytes,
//!   wal_syncs`; `VersionControl::{from_config, start, register,
//!   start_complete, complete, lag}`; `Obs::{new, emit}`, `ObsConfig::default`,
//!   `EventKind::Begin`.
//! * `mvcc_cc` — `presets::{vc_2pl, vc_to, vc_occ}`;
//!   `TwoPhaseLocking::{new, with_shards}`, `TimestampOrdering::new`,
//!   `Optimistic::new`; `LockManager::{with_shards, acquire, release_all}`,
//!   `LockMode::Exclusive`.
//! * `mvcc_storage` — `Value::{from_u64, as_u64}`; `MvStore::{with_shards,
//!   seed, with, read_at}`, `VersionChain::insert_committed`;
//!   `StoreStats::versions_per_object`, `GcStats::versions_pruned`;
//!   `wal::{FileSink::create, MemWal::{new, bytes}, WalSink::{append, sync},
//!   WalWriter::{create, append_commit, rotate}}`.
//! * `mvcc_model` — `ObjectId`.
//!
//! (`engine.rs` and `driver.rs` use the transaction-level symbols; this
//! file uses the layer objects.)

use crate::stats::median;
use crate::trace::{Kind, Rec, Spans};
use mvcc_cc::{LockManager, LockMode, Optimistic};
use mvcc_core::{DbConfig, EventKind, FsyncPolicy, MvDatabase, Obs, ObsConfig, VersionControl};
use mvcc_model::ObjectId;
use mvcc_storage::wal::{FileSink, MemWal, WalSink, WalWriter};
use mvcc_storage::{MvStore, Value};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations per timed slice of a probe.
const OPS: u64 = 1024;
/// Keys of the stand-alone store probed by `store.read_at_ns.*`.
const STORE_KEYS: u64 = 10_000;

/// A probe's result: `(metric name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

/// Median of the nanoseconds `slice` reports, over as many slices as fit
/// in `budget` (at least five). `slice` times its own measured part, so
/// whatever else it does between slices stays untimed.
fn median_slice_ns(
    budget: Duration,
    mut slice: impl FnMut(u64) -> io::Result<u64>,
) -> io::Result<f64> {
    let until = Instant::now() + budget;
    let mut times = Vec::new();
    while times.len() < 5 || Instant::now() < until {
        times.push(slice(times.len() as u64)?);
    }
    Ok(median(&mut times))
}

/// Median time of one of [`OPS`] back-to-back calls of `op`.
fn per_op_ns(budget: Duration, mut op: impl FnMut(u64)) -> f64 {
    median_slice_ns(budget, |slice| {
        let t = Instant::now();
        for i in slice * OPS..(slice + 1) * OPS {
            op(i);
        }
        Ok(t.elapsed().as_nanos() as u64)
    })
    .expect("infallible slice")
        / OPS as f64
}

fn four_writes(base: u64) -> [(ObjectId, Value); 4] {
    [0, 1, 2, 3].map(|i| (ObjectId(base + i), Value::from_u64(base)))
}

/// Probes run by [`probes`], to split its budget.
const PROBES: u32 = 11;

/// Run every probe within about `total` altogether. `tmp` is a directory
/// inside the checkout for the fsync probe's file.
pub fn probes(total: Duration, tmp: &Path) -> io::Result<Vec<Row>> {
    let budget = total / PROBES;
    let cfg = DbConfig::default();
    let mut rows: Vec<Row> = Vec::new();

    // cc: an uncontended exclusive grant and its release.
    let locks = LockManager::with_shards(cfg.lock_shards);
    let ns = per_op_ns(budget, |i| {
        let obj = ObjectId(i % STORE_KEYS);
        locks
            .acquire(1, obj, LockMode::Exclusive, cfg.lock_wait_timeout, true)
            .expect("uncontended grant");
        locks.release_all(1, [&obj]);
    });
    rows.push(("lock.acquire_release_ns", ns, "ns"));

    // core.vc on the default (shipped) sequencer.
    let vc = VersionControl::from_config(&cfg);
    let in_order = |_| {
        let tn = vc.register();
        assert!(vc.start_complete(tn));
        black_box(vc.complete(tn));
    };
    (0..OPS).for_each(in_order);
    let ns = per_op_ns(budget, |_| {
        black_box(vc.start());
    });
    rows.push(("vc.start_ns", ns, "ns"));
    rows.push(("vc.register_complete_ns", per_op_ns(budget, in_order), "ns"));
    // 16 registered, completed newest first: every completion but the last
    // finds an older active number, and the last walks the watermark over
    // all 16. Reported per transaction.
    let ns = per_op_ns(budget, |_| {
        let mut tns = [0u64; 16];
        for tn in &mut tns {
            *tn = vc.register();
        }
        for &tn in tns.iter().rev() {
            assert!(vc.start_complete(tn));
            black_box(vc.complete(tn));
        }
    });
    rows.push(("vc.complete_reordered_ns", ns / 16.0, "ns"));

    // storage.store: snapshot reads on 1- and 8-version chains. The deep
    // read asks for version 1 of 0..=7, as a long reader holding an old
    // snapshot does.
    for (name, depth, sn) in [
        ("store.read_at_ns.depth1", 1u64, 0u64),
        ("store.read_at_ns.depth8", 8, 1),
    ] {
        let store = MvStore::with_shards(cfg.store_shards);
        for k in 0..STORE_KEYS {
            store.seed(ObjectId(k), Value::from_u64(k));
            for version in 1..depth {
                store
                    .with(ObjectId(k), |chain| {
                        chain.insert_committed(version, Value::from_u64(k))
                    })
                    .expect("versions inserted in order");
            }
        }
        let ns = per_op_ns(budget, |i| {
            // Odd stride: visits every key, no two neighbours in a row.
            black_box(store.read_at(ObjectId(i * 7919 % STORE_KEYS), sn));
        });
        rows.push((name, ns, "ns"));
    }

    // storage.wal: encode + append of a 4-write commit record to memory.
    // Rotating between slices (untimed) bounds the sink and the writer's
    // in-memory mirror.
    let mem = MemWal::new();
    let mut writer = WalWriter::create(Box::new(mem.clone()), FsyncPolicy::Never)?;
    let ns = median_slice_ns(budget, |slice| {
        let t = Instant::now();
        for tn in slice * OPS..(slice + 1) * OPS {
            writer.append_commit(tn + 1, &four_writes(tn % STORE_KEYS))?;
        }
        let ns = t.elapsed().as_nanos() as u64;
        writer.rotate(u64::MAX)?;
        Ok(ns)
    })?;
    rows.push(("wal.append_ns", ns / OPS as f64, "ns"));

    // core.durability: recovery of a 16k-record log, per record.
    const RECORDS: u64 = 16 * OPS;
    for tn in 1..=RECORDS {
        writer.append_commit(tn, &four_writes(tn % STORE_KEYS))?;
    }
    let log = mem.bytes();
    let ns = median_slice_ns(budget, |_| {
        let t = Instant::now();
        let (db, stats) =
            MvDatabase::recover(Optimistic::new(), DbConfig::default(), None, &log, None)?;
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(stats.replayed as u64, RECORDS);
        drop(db);
        Ok(ns)
    })?;
    rows.push(("wal.recover_ns_per_record", ns / RECORDS as f64, "ns"));

    // The sandbox's fsync of a 4 KiB append (not a device's).
    std::fs::create_dir_all(tmp)?;
    let path = tmp.join(format!("fsync-probe-{}", std::process::id()));
    let mut sink = FileSink::create(&path)?;
    let ns = median_slice_ns(budget, |_| {
        sink.append(&[0u8; 4096])?;
        let t = Instant::now();
        sink.sync()?;
        Ok(t.elapsed().as_nanos() as u64)
    });
    drop(sink);
    std::fs::remove_file(&path)?;
    rows.push(("wal.fsync_us", ns? / 1e3, "us"));

    // core.obs with the default config: events off.
    let obs = Obs::new(&ObsConfig::default());
    let ns = per_op_ns(budget, |i| obs.emit(EventKind::Begin, black_box(i), 0));
    rows.push(("obs.emit_off_ns", ns, "ns"));

    // The benchmark's own span recorder: one open + close.
    let mut spans = Spans::new(Instant::now(), OPS as usize);
    let ns = median_slice_ns(budget, |_| {
        let t = Instant::now();
        for _ in 0..OPS {
            let id = spans.open(Kind::RoRead);
            spans.close(id);
        }
        let ns = t.elapsed().as_nanos() as u64;
        spans.clear();
        Ok(ns)
    })?;
    rows.push(("driver.span_record_ns", ns / OPS as f64, "ns"));
    debug_assert_eq!(rows.len(), PROBES as usize);
    Ok(rows)
}
