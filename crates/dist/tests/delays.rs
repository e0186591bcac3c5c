//! Distributed correctness under injected message latency: the in-doubt
//! windows of two-phase commit get stretched by the simulated network,
//! and the protocol's visibility discipline must hold throughout.

use mvcc_dist::{Cluster, RoMode, SiteId};
use mvcc_model::{mvsg, ObjectId};
use mvcc_storage::Value;
use std::time::Duration;

#[test]
fn serializable_with_message_latency() {
    let c = Cluster::with_delay(2, Duration::from_millis(2));
    std::thread::scope(|scope| {
        // concurrent distributed committers
        for t in 0..3u64 {
            let c = &c;
            scope.spawn(move || {
                for round in 0..10u64 {
                    let mut txn = c.begin_rw();
                    let obj = ObjectId(t % 2);
                    let ok = txn
                        .write(SiteId(1), obj, Value::from_u64(round))
                        .and_then(|_| txn.write(SiteId(2), obj, Value::from_u64(round)));
                    if ok.is_ok() {
                        let _ = txn.commit();
                    }
                }
            });
        }
        // concurrent global readers
        for _ in 0..2 {
            let c = &c;
            scope.spawn(move || {
                for _ in 0..15 {
                    let mut r = c.begin_ro(RoMode::GlobalMin);
                    let a = r.read(SiteId(1), ObjectId(0));
                    let b = r.read(SiteId(2), ObjectId(0));
                    // objects written atomically at both sites must agree
                    if let (Ok(a), Ok(b)) = (a, b) {
                        assert_eq!(
                            a.as_u64(),
                            b.as_u64(),
                            "global snapshot tore a 2PC write apart"
                        );
                    }
                    r.finish();
                }
            });
        }
    });
    let h = c.trace_history().unwrap();
    let rep = mvsg::check_tn_order(&h);
    assert!(
        rep.acyclic,
        "latency exposed a visibility hole: {:?}",
        rep.cycle
    );
    for site in c.site_ids() {
        c.site(site).vc().validate().unwrap();
    }
}

#[test]
fn in_doubt_window_blocks_visibility_not_correctness() {
    // Manually stretch an in-doubt window: prepare at a site, commit a
    // younger transaction, verify the younger one stays invisible until
    // the in-doubt one resolves — then everything appears in order.
    let c = Cluster::traced(1);
    let site = SiteId(1);
    let s = c.site(site);

    // Old transaction prepares (in doubt) ...
    let mut old = s.begin().unwrap();
    s.rw_write(&mut old, ObjectId(0), Value::from_u64(1))
        .unwrap();
    let p_old = s.prepare(100, old).unwrap();

    // ... younger transaction fully commits through the normal path.
    let mut t = c.begin_rw();
    t.write(site, ObjectId(1), Value::from_u64(2)).unwrap();
    let f_young = t.commit().unwrap();
    assert!(f_young > p_old);

    // The younger commit is pinned behind the in-doubt transaction.
    let mut r = c.begin_ro(RoMode::GlobalMin);
    assert_eq!(r.read(site, ObjectId(1)).unwrap(), Value::empty());
    r.finish();

    // Resolve the in-doubt transaction; both become visible, in order.
    s.commit(100, p_old).unwrap();
    let mut r = c.begin_ro(RoMode::GlobalMin);
    assert_eq!(r.read_u64(site, ObjectId(0)).unwrap(), Some(1));
    assert_eq!(r.read_u64(site, ObjectId(1)).unwrap(), Some(2));
    r.finish();

    let h = c.trace_history().unwrap();
    assert!(mvsg::check_tn_order(&h).acyclic);
}
