//! `end(T)` is one function for every protocol: `CcContext::end` claims
//! the version-control entry, appends the commit record, installs the
//! versions, lets the protocol release what it holds, then calls
//! `VCcomplete`. These cases hold each plug-in (2PL, TO, OCC) to the
//! same observable contract, on a log that rejects about half of its
//! appends:
//!
//! * every commit that returned `Ok` is in the log, in commit order, and
//!   visible; every other commit failed with `LogFailed` and left no
//!   pending version, no lock and no hole that pins `vtnc`;
//! * version control balances: `register == complete + discard`, and
//!   the queue drains to empty;
//! * recovering the log rebuilds exactly the live store.

use mvdb::cc::{Optimistic, TimestampOrdering, TwoPhaseLocking};
use mvdb::core::prelude::*;
use mvdb::core::FaultConfig;
use mvdb::storage::wal::scan;

const TXNS: u64 = 60;
const KEYS: u64 = 4;

/// Run `TXNS` two-key read-modify-writes on an engine whose log fails
/// about half of its appends and check the contract.
fn check<C: ConcurrencyControl>(make: impl Fn() -> C) {
    let mem = MemWal::new();
    let cfg = DbConfig::default().with_fault(FaultConfig {
        seed: 11,
        wal_disk_full: 0.5,
        ..Default::default()
    });
    let db = MvDatabase::with_wal(make(), cfg, Box::new(mem.clone())).unwrap();
    let name = db.cc().name();
    // (tn, value) of every commit that returned Ok, and the latest
    // committed value per key.
    let mut committed = Vec::new();
    let mut latest = [None; KEYS as usize];
    for i in 0..TXNS {
        let (a, b) = (ObjectId(i % KEYS), ObjectId((i + 1) % KEYS));
        let res = db.run_rw(1, |t| {
            let va = t.read_for_update(a)?.as_u64().unwrap_or(0);
            t.read(b)?;
            t.write(a, Value::from_u64(va + 1))?;
            t.write(b, Value::from_u64(i))
        });
        match res {
            Ok((tn, ())) => {
                let va = latest[a.get() as usize].map_or(0, |(_, v)| v);
                latest[a.get() as usize] = Some((tn, va + 1));
                latest[b.get() as usize] = Some((tn, i));
                committed.push(tn);
            }
            // A leaked lock or pending version would turn a later
            // transaction's failure into a wait timeout instead.
            Err(e) => assert_eq!(e, DbError::Aborted(AbortReason::LogFailed), "{name}"),
        }
    }
    let n = committed.len() as u64;
    assert!(n > 0 && n < TXNS, "{name}: seed must mix outcomes ({n})");

    let (records, stats) = scan(&mem.bytes()).unwrap();
    assert!(stats.clean_end(), "{name}: failed appends must be rewound");
    let logged: Vec<u64> = records.iter().map(|r| r.tn).collect();
    assert_eq!(logged, committed, "{name}: log = the Ok commits, in order");
    assert_eq!(db.vc().vtnc(), *committed.last().unwrap(), "{name}");
    assert_eq!(db.vc().queue_len(), 0, "{name}: queue drained");

    let m = db.metrics();
    assert_eq!(m.rw_committed, n, "{name}");
    assert_eq!(m.aborts_wal, TXNS - n, "{name}");
    assert_eq!(m.vc_complete_calls, n, "{name}");
    assert_eq!(
        m.vc_register_calls,
        m.vc_complete_calls + m.vc_discard_calls,
        "{name}: register = complete + discard"
    );

    assert_eq!(
        db.sample_gauges().pending_versions,
        0,
        "{name}: a write stayed pending"
    );

    let (recovered, rstats) =
        MvDatabase::recover(make(), DbConfig::default(), None, &mem.bytes(), None).unwrap();
    assert_eq!(rstats.replayed, committed.len(), "{name}");
    for k in 0..KEYS {
        let obj = ObjectId(k);
        let (tn, v) = latest[k as usize].expect("every key committed at least once");
        assert_eq!(
            db.store().read_latest(obj),
            (tn, Value::from_u64(v)),
            "{name}"
        );
        assert_eq!(recovered.peek_latest(obj), Value::from_u64(v), "{name}");
    }
}

#[test]
fn two_phase_locking_honours_the_end_contract() {
    check(TwoPhaseLocking::new);
}

#[test]
fn timestamp_ordering_honours_the_end_contract() {
    check(TimestampOrdering::new);
}

#[test]
fn optimistic_honours_the_end_contract() {
    check(Optimistic::new);
}
