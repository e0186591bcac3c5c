//! The read-only path is the paper's Figure 2 and nothing else: after
//! `VCstart`, a read is one shard probe and one inline copy.
//!
//! A counting global allocator (per thread, so parallel tests do not
//! interfere) pins the cheapest observable consequence: a warmed-up
//! 512-read snapshot scan over `u64` values allocates nothing — no trace
//! buffer without `DbConfig::trace`, no chain materialized by a read, no
//! heap payload for a small value — whether the snapshot selects each
//! chain's newest version, the inline one below it, or one in the heap
//! history — and a warmed begin/read/finish loop allocates nothing
//! either. It also pins that observability switched off costs no
//! memory: a default `Obs` allocates no event ring. Run it in release too
//! (`cargo test --release --test ro_path`): the benchmark measures the
//! optimised build.

use mvdb::cc::{presets, TwoPhaseLocking};
use mvdb::core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: u64 = 512;

/// A default engine whose `KEYS` objects each hold a committed `u64`
/// version above their seeded initial one.
fn loaded_db() -> MvDatabase<TwoPhaseLocking> {
    let db = presets::vc_2pl(DbConfig::default());
    for k in 0..KEYS {
        db.seed(ObjectId(k), Value::from_u64(k));
    }
    db.run_rw(1, |t| {
        (0..KEYS).try_for_each(|k| t.write(ObjectId(k), Value::from_u64(k + 1)))
    })
    .unwrap();
    db
}

fn scan(db: &MvDatabase<TwoPhaseLocking>) -> u64 {
    let mut ro = db.begin_read_only();
    let mut sum = 0;
    for k in 0..KEYS {
        sum += ro.read_u64(ObjectId(k)).unwrap().unwrap();
    }
    ro.finish();
    sum
}

#[test]
fn warm_snapshot_scan_allocates_nothing() {
    let db = loaded_db();
    let want = KEYS * (KEYS + 1) / 2;
    assert_eq!(scan(&db), want); // warm-up: GC-registry slot, thread-locals
    let before = allocs();
    let sum = scan(&db);
    let n = allocs() - before;
    assert_eq!(sum, want);
    assert_eq!(n, 0, "a {KEYS}-read RO scan allocated {n} times");
}

/// A warmed scan by a snapshot taken before `later` more committed
/// writes of every key still reads the loaded versions: with one later
/// write each is the chain's `prev`, with two it sits in the heap
/// history. Neither allocates. The seeded version below the snapshot is
/// gone: the first later install pruned it against the reader's pin.
#[test]
fn warm_scan_of_older_versions_allocates_nothing() {
    for later in [1, 2] {
        let db = loaded_db();
        let want = KEYS * (KEYS + 1) / 2;
        assert_eq!(scan(&db), want);
        let mut ro = db.begin_read_only();
        for round in 0..later {
            db.run_rw(1, |t| {
                (0..KEYS).try_for_each(|k| t.write(ObjectId(k), Value::from_u64(k + 2 + round)))
            })
            .unwrap();
        }
        assert_eq!(
            db.store().with(ObjectId(0), |c| c.committed_len()),
            1 + later as usize
        );
        let before = allocs();
        let mut sum = 0;
        for k in 0..KEYS {
            sum += ro.read_u64(ObjectId(k)).unwrap().unwrap();
        }
        let n = allocs() - before;
        ro.finish();
        assert_eq!(sum, want);
        assert_eq!(
            n, 0,
            "a {KEYS}-read scan {later} version(s) back allocated {n} times"
        );
    }
}

/// Begin and finish announce and retire the snapshot in a slot of
/// atomics, so a warmed loop of one-read transactions allocates nothing
/// (a registry of `BTreeMap`s allocated a node per begin).
#[test]
fn warm_begin_read_finish_loop_allocates_nothing() {
    let db = loaded_db();
    let read_one = |k: u64| {
        let mut ro = db.begin_read_only();
        let v = ro.read_u64(ObjectId(k)).unwrap().unwrap();
        ro.finish();
        v
    };
    assert_eq!(read_one(0), 1);
    let before = allocs();
    for k in 0..1000 {
        assert_eq!(read_one(k % KEYS), k % KEYS + 1);
    }
    let n = allocs() - before;
    assert_eq!(n, 0, "1000 begin/read/finish loops allocated {n} times");
}

#[test]
fn reading_an_untouched_object_materializes_nothing() {
    let db = loaded_db();
    let store = db.store();
    let (objects, stats) = (store.objects(), store.stats());
    let mut ro = db.begin_read_only();
    assert_eq!(
        ro.read_versioned(ObjectId(KEYS + 7)).unwrap(),
        (0, Value::empty())
    );
    ro.finish();
    assert_eq!(
        store.read_at(ObjectId(KEYS + 8), 1),
        Some((0, Value::empty()))
    );
    assert!(store.objects() == objects, "a read materialized a chain");
    assert_eq!(store.stats(), stats);
}

#[test]
fn dropped_ro_txn_still_counts_its_reads() {
    let db = loaded_db();
    db.reset_metrics();
    {
        let mut ro = db.begin_read_only();
        for k in 0..3 {
            ro.read(ObjectId(k)).unwrap();
        }
        // dropped without finish()
    }
    let m = db.metrics();
    assert_eq!(m.ro_reads, 3);
    assert_eq!(m.ro_begun, 1);
    assert_eq!(m.ro_finished, 1);
}

/// Events off, the bus holds counters and no ring: building a default
/// `Obs` (what every engine and the benchmark's `obs.emit_off_ns` probe
/// build) allocates under 4 KiB in all.
#[test]
fn disabled_obs_allocates_no_event_ring() {
    use mvdb::core::obs::{Obs, ObsConfig};
    let before = alloc_bytes();
    let obs = Obs::new(&ObsConfig::default());
    let bytes = alloc_bytes() - before;
    drop(obs);
    assert!(bytes < 4096, "a disabled Obs allocated {bytes} bytes");
}
