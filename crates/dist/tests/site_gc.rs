//! Garbage collection at the sites of a cluster: every install prunes
//! its chain against one GC floor shared by all sites, so a stream of
//! distributed increments keeps each chain short, and no site prunes a
//! version a distributed read-only transaction begun earlier can select.

use mvcc_dist::{Cluster, ClusterConfig, DistRoTxn, Gtn, RoMode, SiteId};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::collections::HashMap;
use std::time::Duration;

const SITES: u16 = 3;
/// Coprime with the six site sets below, so every object meets every set.
const OBJECTS: u64 = 7;
const STREAM: u64 = 10_000;
/// The object the in-doubt transaction holds; no increment touches it.
const HELD: ObjectId = ObjectId(OBJECTS);
/// A coordinator token no transaction of the cluster's own reaches.
const IN_DOUBT: u64 = u64::MAX >> 1;

/// Every committed `(number, value)` per `(site, object)`, in commit
/// order: the reference a snapshot read is checked against.
#[derive(Default)]
struct Model {
    history: HashMap<(SiteId, ObjectId), Vec<(u64, u64)>>,
}

impl Model {
    fn latest(&self, site: SiteId, obj: ObjectId) -> u64 {
        self.history
            .get(&(site, obj))
            .and_then(|h| h.last())
            .map_or(0, |&(_, v)| v)
    }

    /// The value a snapshot at `sn` selects: the newest commit at or
    /// below it, else the seeded 0.
    fn at(&self, site: SiteId, obj: ObjectId, sn: Gtn) -> u64 {
        self.history
            .get(&(site, obj))
            .and_then(|h| h.iter().rev().find(|&&(n, _)| n <= sn.encoded()))
            .map_or(0, |&(_, v)| v)
    }
}

fn cluster() -> Cluster {
    let c = Cluster::with_config(
        SITES,
        ClusterConfig::default().with_timeout(Duration::from_millis(50)),
    );
    for site in c.site_ids() {
        for o in 0..=OBJECTS {
            c.seed(site, ObjectId(o), Value::from_u64(0));
        }
    }
    c
}

/// Increment `obj` at every site of `sites` in one transaction.
fn increment(c: &Cluster, model: &mut Model, sites: &[u16], obj: ObjectId) {
    let mut t = c.begin_rw();
    let mut next = Vec::new();
    for &s in sites {
        let site = SiteId(s);
        let v = t.read(site, obj).unwrap().as_u64().unwrap();
        assert_eq!(v, model.latest(site, obj), "site {s} {obj:?}");
        t.write(site, obj, Value::from_u64(v + 1)).unwrap();
        next.push((site, v + 1));
    }
    let fin = t.commit().unwrap();
    for (site, v) in next {
        model
            .history
            .entry((site, obj))
            .or_default()
            .push((fin.encoded(), v));
    }
}

/// Increment number `i` of a stream: single-site and cross-site
/// transactions in turn.
fn step(c: &Cluster, model: &mut Model, i: u64) {
    const SETS: [&[u16]; 6] = [&[1], &[2], &[3], &[1, 2], &[2, 3], &[1, 2, 3]];
    increment(
        c,
        model,
        SETS[i as usize % SETS.len()],
        ObjectId(i % OBJECTS),
    );
}

fn max_versions_per_object(c: &Cluster) -> f64 {
    c.site_ids()
        .into_iter()
        .map(|s| c.site(s).store_stats().versions_per_object())
        .fold(0.0, f64::max)
}

/// Every object at every site, read by `r`, equals the model at `sn`.
fn assert_snapshot(r: &mut DistRoTxn<'_>, model: &Model, sn: Gtn, who: &str) {
    for s in 1..=SITES {
        for o in 0..OBJECTS {
            let (site, obj) = (SiteId(s), ObjectId(o));
            let got = r
                .read_u64(site, obj)
                .unwrap_or_else(|e| panic!("{who} reader at {sn}: site {s} {obj:?}: {e:?}"));
            assert_eq!(
                got,
                Some(model.at(site, obj, sn)),
                "{who} reader at {sn}: site {s} {obj:?}"
            );
        }
    }
}

#[test]
fn sites_prune_at_install_without_breaking_distributed_snapshots() {
    let c = cluster();
    let mut model = Model::default();

    // With no reader pinned, the floor trails the slowest site's vtnc by
    // a few transactions: each install drains what it replaces.
    for i in 0..STREAM {
        step(&c, &mut model, i);
        if i % 500 == 499 {
            let vpo = max_versions_per_object(&c);
            assert!(
                vpo <= 2.0,
                "after {} increments: {vpo} versions per object",
                i + 1
            );
        }
    }

    // Hold site 3 behind: an in-doubt prepare pins its vtnc while the
    // other sites move on. First every site completes one transaction
    // past the last write of object 0.
    increment(&c, &mut model, &[1, 2, 3], ObjectId(1));
    let s3 = c.site(SiteId(3));
    let mut held = s3.begin().unwrap();
    s3.rw_write(&mut held, HELD, Value::from_u64(1)).unwrap();
    s3.prepare(IN_DOUBT, held).unwrap();
    for i in 0..60 {
        // Object 0 stays untouched, so a fallback re-read of it agrees.
        increment(&c, &mut model, &[1, 2], ObjectId(1 + i % (OBJECTS - 1)));
        increment(&c, &mut model, &[3], ObjectId(1 + i % (OBJECTS - 1)));
    }

    // GlobalMin: the minimum over the sites, site 3's held vtnc.
    let mut global = c.begin_ro(RoMode::GlobalMin);
    let global_sn = global.sn().unwrap();
    // HomeSite at site 1: its snapshot runs ahead of site 3.
    let mut home = c.begin_ro(RoMode::HomeSite);
    home.read(SiteId(1), ObjectId(1)).unwrap();
    let home_sn = home.sn().unwrap();
    assert!(home_sn > global_sn, "site 3 is held behind");
    // HomeSite that meets the held site: catch-up times out and it falls
    // back to the GlobalMin snapshot.
    let mut fallen = c.begin_ro(RoMode::HomeSite);
    fallen.read(SiteId(1), ObjectId(0)).unwrap();
    fallen.read(SiteId(3), ObjectId(0)).unwrap();
    assert_eq!(c.ro_fallbacks(), 1);
    let fallen_sn = fallen.sn().unwrap();
    assert!(fallen_sn < home_sn);

    // Release site 3; from here only the readers' announcements keep
    // their snapshots above the GC floor.
    assert!(s3.resolve_abort(IN_DOUBT));
    for i in 0..STREAM {
        step(&c, &mut model, i);
    }
    assert!(
        max_versions_per_object(&c) > 2.0,
        "the readers pin the floor, so chains keep their history"
    );
    assert_snapshot(&mut global, &model, global_sn, "GlobalMin");
    assert_snapshot(&mut home, &model, home_sn, "HomeSite");
    assert_snapshot(&mut fallen, &model, fallen_sn, "HomeSite fallback");
    assert_eq!(c.ro_fallbacks(), 1);
    global.finish();
    home.finish();
    fallen.finish();

    // Retired readers release the floor: the next install of each chain
    // drains its history.
    for o in 0..OBJECTS {
        increment(&c, &mut model, &[1, 2, 3], ObjectId(o));
    }
    let vpo = max_versions_per_object(&c);
    assert!(
        vpo <= 2.0,
        "after the readers retired: {vpo} versions per object"
    );
    for s in c.site_ids() {
        c.site(s).vc().validate().unwrap();
    }
}
