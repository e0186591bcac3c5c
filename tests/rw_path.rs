//! The read-write path is lock grants (or TO reservations) plus a
//! buffered write set.
//!
//! Every protocol keeps its writes in the transaction's write set and
//! inserts them only at `end(T)`: two-phase locking's φ versions (paper
//! Figure 4), OCC's write phase, and timestamp ordering's writes, whose
//! reservations live in the protocol's own table. No staged version ever
//! reaches the store, and a grant on a free object allocates nothing. A counting
//! global allocator (per thread, so parallel tests do not interfere)
//! pins the allocations of a warmed RW transaction shaped like the
//! benchmark's `uniform_mix` one — 4 reads and 4 read-for-update +
//! write increments — on each preset. Run it in release too
//! (`cargo test --release --test rw_path`): the benchmark measures the
//! optimised build.
//!
//! The rest pins what buffering must keep: a 2PL writer reads its own
//! write, the last write to an object wins, nothing a transaction wrote
//! reaches the store unless it commits, and reads of a never-written
//! object materialize no chain.

use mvdb::cc::{presets, TwoPhaseLocking};
use mvdb::core::prelude::*;
use mvdb::core::FaultConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::thread;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn obj(n: u64) -> ObjectId {
    ObjectId(n)
}

fn v(n: u64) -> Value {
    Value::from_u64(n)
}

/// One `uniform_mix`-shaped RW transaction: read keys 0–3, then
/// increment keys 4–7 by read-for-update + write.
fn increment<C: ConcurrencyControl>(db: &MvDatabase<C>) -> u64 {
    let mut t = db.begin_read_write().unwrap();
    let mut sum = 0;
    for k in 0..4 {
        sum += t.read_u64(obj(k)).unwrap().unwrap();
    }
    for k in 4..8 {
        let n = t.read_for_update(obj(k)).unwrap().as_u64().unwrap();
        t.write(obj(k), v(n + 1)).unwrap();
    }
    t.commit().unwrap();
    sum
}

/// Allocations of each of `measured` consecutive warmed [`increment`]s.
/// The `warm` warm-up runs, each followed by a GC sweep if `sweep_each`,
/// give every touched lock-table slot and thread-local its steady-state
/// capacity; a final sweep then trims the chains back to their latest
/// version, as a running engine's sweeps do. A sweep may free a chain's
/// heap history, because the next install lands in the chain's inline
/// `prev` slot and allocates nothing; only a chain's third version needs
/// the heap.
fn allocs_after_sweep<C: ConcurrencyControl>(
    db: MvDatabase<C>,
    warm: u64,
    sweep_each: bool,
    measured: usize,
) -> Vec<u64> {
    for k in 0..8 {
        db.seed(obj(k), v(0));
    }
    for _ in 0..warm {
        increment(&db);
        if sweep_each {
            db.collect_garbage();
        }
    }
    db.collect_garbage();
    let counts = (0..measured)
        .map(|_| {
            let before = allocs();
            increment(&db);
            allocs() - before
        })
        .collect();
    assert_eq!(
        db.peek_latest(obj(7)).as_u64(),
        Some(warm + measured as u64)
    );
    counts
}

/// Allocations of one warmed [`increment`] after a sweep, warmed by 8
/// back-to-back increments.
fn warmed_allocs<C: ConcurrencyControl>(db: MvDatabase<C>) -> u64 {
    allocs_after_sweep(db, 8, false, 1)[0]
}

#[test]
fn warm_2pl_rw_txn_allocates_at_most_twice() {
    let n = warmed_allocs(presets::vc_2pl(DbConfig::default()));
    // Its lock set and its write set; no lock grant, no φ version.
    assert!(n <= 2, "a warmed 2PL RW transaction allocated {n} times");
}

#[test]
fn warm_to_rw_txn_allocates_at_most_once() {
    let n = warmed_allocs(presets::vc_to(DbConfig::default()));
    // Its write set; a reservation lives inline in its table entry.
    assert!(n <= 1, "a warmed TO RW transaction allocated {n} times");
}

#[test]
fn warm_occ_rw_txn_allocates_at_most_three_times() {
    let n = warmed_allocs(presets::vc_occ(DbConfig::default()));
    // Its read set (grown twice for 8 reads) and its write set.
    assert!(n <= 3, "a warmed OCC RW transaction allocated {n} times");
}

/// Two consecutive warmed transactions write the same four keys after
/// a sweep. The first install of each key lands in `prev`. The second
/// pushes `prev` onto the chain's heap history. The chains here were hot
/// before the sweep (9 versions each, a history of 8 slots), so the sweep
/// kept their drained history and the second transaction allocates no
/// more than the first. Had they been cold, it would allocate that
/// history: see [`cold_chains_allocate_their_history_on_the_third_version`].
#[test]
fn second_write_after_a_sweep_reuses_a_hot_chains_history() {
    for (name, counts, bound) in [
        (
            "2PL",
            allocs_after_sweep(presets::vc_2pl(DbConfig::default()), 8, false, 2),
            2,
        ),
        (
            "TO",
            allocs_after_sweep(presets::vc_to(DbConfig::default()), 8, false, 2),
            1,
        ),
        (
            "OCC",
            allocs_after_sweep(presets::vc_occ(DbConfig::default()), 8, false, 2),
            3,
        ),
    ] {
        assert!(
            counts.iter().all(|&n| n <= bound),
            "{name}: warmed RW transactions after a sweep allocated {counts:?} times"
        );
    }
}

/// Chains swept after every write never hold more than two versions, so
/// they own no heap history. After a sweep, the first of two consecutive
/// transactions writing the same four keys allocates nothing in the
/// store; the second starts a history for each key: two allocations
/// per key, the boxed `Vec` and its buffer.
#[test]
fn cold_chains_allocate_their_history_on_the_third_version() {
    for (name, counts) in [
        (
            "2PL",
            allocs_after_sweep(presets::vc_2pl(DbConfig::default()), 8, true, 2),
        ),
        (
            "TO",
            allocs_after_sweep(presets::vc_to(DbConfig::default()), 8, true, 2),
        ),
        (
            "OCC",
            allocs_after_sweep(presets::vc_occ(DbConfig::default()), 8, true, 2),
        ),
    ] {
        assert_eq!(counts[1], counts[0] + 8, "{name}: {counts:?}");
    }
}

#[test]
fn occ_validation_materializes_no_chain() {
    let db = presets::vc_occ(DbConfig::default());
    db.seed(obj(0), v(5));
    let objects = db.store_stats().objects;
    let mut t = db.begin_read_write().unwrap();
    // obj(1) was never written: the read and its validation are probes.
    assert_eq!(t.read(obj(1)).unwrap(), Value::empty());
    t.write(obj(0), v(6)).unwrap();
    let tn = t.commit().unwrap();
    assert_eq!(db.store().read_latest(obj(0)), (tn, v(6)));
    assert_eq!(db.store_stats().objects, objects);
}

#[test]
fn to_read_materializes_no_chain() {
    let db = presets::vc_to(DbConfig::default());
    db.seed(obj(0), v(5));
    let objects = db.store_stats().objects;
    let mut t = db.begin_read_write().unwrap();
    // obj(1) was never written: the read records its r-ts in the
    // protocol's table, not in a store chain.
    assert_eq!(t.read(obj(1)).unwrap(), Value::empty());
    t.write(obj(0), v(6)).unwrap();
    let tn = t.commit().unwrap();
    assert_eq!(db.store().read_latest(obj(0)), (tn, v(6)));
    assert_eq!(db.store_stats().objects, objects);
}

#[test]
fn tpl_write_is_buffered_read_back_and_last_write_wins() {
    let db = presets::vc_2pl(DbConfig::default());
    db.seed(obj(0), v(1));
    let mut t = db.begin_read_write().unwrap();
    t.write(obj(0), v(2)).unwrap();
    t.write(obj(1), v(3)).unwrap();
    // Nothing is staged: obj(1) has no chain, and the committed state is
    // unchanged.
    assert_eq!(db.store_stats().objects, 1);
    assert_eq!(db.store().read_latest(obj(0)), (0, v(1)));
    // The writer reads its own φ versions, with no number yet.
    assert_eq!(t.read_u64(obj(0)).unwrap(), Some(2));
    assert_eq!(t.read_for_update(obj(1)).unwrap(), v(3));
    t.write(obj(0), v(4)).unwrap();
    assert_eq!(t.read_u64(obj(0)).unwrap(), Some(4));
    let tn = t.commit().unwrap();
    assert_eq!(db.store().read_latest(obj(0)), (tn, v(4)));
    assert_eq!(db.store().read_latest(obj(1)), (tn, v(3)));
    // One version per object for the transaction, not one per write.
    assert_eq!(db.store_stats().committed_versions, 4);
}

/// Every committed value `obj` ever held, oldest first.
fn history(db: &MvDatabase<TwoPhaseLocking>, o: ObjectId) -> Vec<u64> {
    db.store().with(o, |c| {
        c.committed().filter_map(|v| v.value.as_u64()).collect()
    })
}

#[test]
fn deadlock_victims_writes_never_reach_the_store() {
    let db = Arc::new(presets::vc_2pl(DbConfig::default()));
    db.seed(obj(0), v(0));
    db.seed(obj(1), v(0));
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [(0, 1, 10), (1, 0, 20)]
        .into_iter()
        .map(|(first, second, tag)| {
            let (db, barrier) = (Arc::clone(&db), Arc::clone(&barrier));
            thread::spawn(move || {
                let mut t = db.begin_read_write().unwrap();
                t.write(obj(first), v(tag + 1)).unwrap();
                barrier.wait();
                match t.write(obj(second), v(tag + 2)) {
                    Ok(()) => t.commit().map(|_| tag),
                    Err(e) => Err(e),
                }
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let winner = match results.as_slice() {
        [Ok(w), Err(DbError::Aborted(AbortReason::Deadlock))]
        | [Err(DbError::Aborted(AbortReason::Deadlock)), Ok(w)] => *w,
        other => panic!("want one commit and one deadlock victim: {other:?}"),
    };
    // Only the seed and the winner's writes were ever committed.
    let mut seen: Vec<u64> = history(&db, obj(0));
    seen.extend(history(&db, obj(1)));
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 0, winner + 1, winner + 2]);
    assert_eq!(db.sample_gauges().locked_objects, 0);
}

#[test]
fn failed_log_commits_writes_never_reach_the_store() {
    let cfg = DbConfig::default().with_fault(FaultConfig {
        wal_disk_full: 1.0,
        ..Default::default()
    });
    let db = MvDatabase::with_wal(TwoPhaseLocking::new(), cfg, Box::new(MemWal::new())).unwrap();
    db.seed(obj(0), v(5));
    let mut t = db.begin_read_write().unwrap();
    t.write(obj(0), v(6)).unwrap();
    t.write(obj(1), v(7)).unwrap();
    assert_eq!(t.commit(), Err(DbError::Aborted(AbortReason::LogFailed)));
    assert_eq!(history(&db, obj(0)), vec![5]);
    assert_eq!(db.store().read_latest(obj(1)), (0, Value::empty()));
    let stats = db.store_stats();
    assert_eq!(stats.committed_versions, stats.objects);
    // Its locks are gone too: the objects are free for the next writer.
    let mut t = db.begin_read_write().unwrap();
    t.write(obj(0), v(8)).unwrap();
    t.write(obj(1), v(9)).unwrap();
    t.abort();
}
