//! Version-control oracle under real concurrency: the same concurrent
//! workload must be one-copy serializable and conserve its counter
//! arithmetic for every protocol. The MVSG check fails if a registered
//! transaction number ever contradicts a conflict edge, i.e. if a
//! protocol calls `VCregister` anywhere but at its serialization point.

use mvcc_cc::{Optimistic, TimestampOrdering, TwoPhaseLocking};
use mvcc_core::{ConcurrencyControl, DbConfig, MvDatabase};
use mvcc_model::{mvsg, ObjectId};
use mvcc_storage::Value;
use std::sync::Arc;
use std::thread;

/// Concurrent increments over a handful of counters: every successful
/// commit adds exactly one, so the final sum equals the commit count —
/// any lost update (a tn ordered below a writer it read from) breaks it.
fn conserve<C: ConcurrencyControl>(db: MvDatabase<C>, threads: usize, per_thread: u64) {
    let db = Arc::new(db);
    let n_objects = 4u64;
    for o in 0..n_objects {
        db.seed(ObjectId(o), Value::from_u64(0));
    }
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            let mut done = 0;
            let mut salt = t as u64;
            while done < per_thread {
                salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
                let obj = ObjectId(salt >> 32 & (n_objects - 1));
                if db
                    .run_rw(10_000, |txn| {
                        let v = txn.read_for_update(obj)?.as_u64().unwrap_or(0);
                        txn.write(obj, Value::from_u64(v + 1))
                    })
                    .is_ok()
                {
                    done += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..n_objects)
        .map(|o| db.peek_latest(ObjectId(o)).as_u64().unwrap())
        .sum();
    assert_eq!(
        total,
        threads as u64 * per_thread,
        "{}: lost or duplicated increments",
        db.cc().name()
    );
    let history = db.trace_history().expect("tracing enabled");
    let report = mvsg::check_tn_order(&history);
    assert!(
        report.acyclic,
        "{}: trace not 1SR; cycle {:?}",
        db.cc().name(),
        report.cycle
    );
    // Version control ends fully drained and visible.
    assert_eq!(db.vc().queue_len(), 0);
    assert_eq!(db.vc().lag(), 0);
}

#[test]
fn tpl_conserves() {
    conserve(
        MvDatabase::with_config(TwoPhaseLocking::new(), DbConfig::traced()),
        6,
        40,
    );
}

#[test]
fn occ_conserves() {
    conserve(
        MvDatabase::with_config(Optimistic::new(), DbConfig::traced()),
        6,
        25,
    );
}

#[test]
fn to_conserves() {
    conserve(
        MvDatabase::with_config(TimestampOrdering::new(), DbConfig::traced()),
        6,
        25,
    );
}
