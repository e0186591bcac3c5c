//! Distributed correctness under message loss and duplication: phase-2
//! commit messages are dropped and duplicated at increasing rates, so
//! participants go in doubt and the resolver must finish them from the
//! coordinator's decision log.

use mvcc_core::{FaultConfig, FaultPoint};
use mvcc_dist::{Cluster, ClusterConfig, RoMode, SiteId};
use mvcc_model::{mvsg, ObjectId};
use mvcc_storage::Value;
use std::time::Duration;

/// 60 two-site atomic writes on 3 sites, a resolver tick every 5 rounds
/// and a `GlobalMin` audit after each tick. At every fault rate the
/// audit never sees half of a write, the final tick leaves nothing in
/// doubt, every site's version control validates, and the trace is
/// one-copy serializable. Without drops nothing goes in doubt; with
/// them the resolver finishes lost decisions.
#[test]
fn message_faults_never_tear_a_snapshot_and_the_resolver_drains() {
    for (drop, duplicate) in [(0.0, 0.0), (0.1, 0.05), (0.3, 0.1)] {
        let cfg = ClusterConfig::default()
            .with_trace()
            .with_fault(FaultConfig {
                seed: 0xD157,
                msg_drop: drop,
                msg_duplicate: duplicate,
                ..Default::default()
            });
        let c = Cluster::with_config(3, cfg);
        let mut resolved = 0;
        for round in 0..60u64 {
            // Each object lives on one fixed site pair, so both replicas
            // carry identical histories and any snapshot must agree.
            // An in-doubt participant keeps its write lock until resolved;
            // 8 objects and a tick every 5 rounds clear it in time.
            let obj = ObjectId(round % 8);
            let a = SiteId((obj.0 % 3) as u16 + 1);
            let b = SiteId(((obj.0 + 1) % 3) as u16 + 1);
            let mut t = c.begin_rw();
            t.write(a, obj, Value::from_u64(round + 1)).unwrap();
            t.write(b, obj, Value::from_u64(round + 1)).unwrap();
            t.commit().unwrap();
            if round % 5 == 4 {
                resolved += c.resolve_in_doubt(Duration::ZERO).resolved_commit;
                let mut r = c.begin_ro(RoMode::GlobalMin);
                let va = r.read_u64(a, obj).unwrap();
                let vb = r.read_u64(b, obj).unwrap();
                assert_eq!(va, vb, "drop {drop}: snapshot tore a 2PC write apart");
                r.finish();
            }
        }
        resolved += c.resolve_in_doubt(Duration::ZERO).resolved_commit;
        for site in c.site_ids() {
            assert_eq!(
                c.site(site).in_doubt_len(),
                0,
                "drop {drop}: resolver must drain"
            );
            c.site(site).vc().validate().unwrap();
        }
        if drop == 0.0 {
            assert_eq!(resolved, 0, "nothing goes in doubt without drops");
        } else {
            assert!(c.faults().injected(FaultPoint::MsgDrop) > 0, "drop {drop}");
            assert!(resolved > 0, "drop {drop}: lost decisions are resolved");
        }
        let h = c.trace_history().expect("traced");
        assert!(mvsg::check_tn_order(&h).acyclic, "drop {drop}: not 1SR");
    }
}
