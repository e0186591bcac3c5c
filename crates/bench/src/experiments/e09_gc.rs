//! E9 — Section 6: garbage collection under the `vtnc` rule.
//!
//! "The only restriction the version control mechanism imposes on the
//! garbage collection scheme is that it must not discard any version of
//! objects as young as or younger than `vtnc`." Runs of the same
//! update-heavy workload: no sweep (each commit's install still prunes
//! the versions it replaces against the published floor
//! `min(vtnc, oldest live RO)`), sweeps with that floor (safe) with and
//! without a live straggler pinning it, and a deliberately *unsafe*
//! sweep that ignores live read-only transactions — the straggler
//! snapshot observes `VersionPruned`, demonstrating why the registry
//! matters.

use crate::{scaled, scaled_ms};
use mvcc_cc::presets;
use mvcc_core::{DbConfig, DbError};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use mvcc_workload::report::Table;
use mvcc_workload::{driver, DriverConfig, WorkloadSpec};

pub(crate) fn run(fast: bool) -> String {
    let spec = WorkloadSpec {
        n_objects: 64,
        ro_fraction: 0.2,
        use_increments: true,
        seed: 9,
        ..Default::default()
    };
    let cfg_nogc = DriverConfig {
        threads: 4,
        duration: scaled_ms(fast, 250),
        max_retries: 5000,
        ..Default::default()
    };
    let cfg_gc = DriverConfig {
        gc_every: Some(scaled_ms(fast, 20)),
        ..cfg_nogc.clone()
    };

    let mut table = Table::new([
        "policy",
        "writes committed",
        "versions resident",
        "versions/object",
        "straggler snapshot",
    ]);
    let mut out = String::new();

    // --- no sweep: only installs prune ----------------------------------------
    let db = presets::vc_2pl(DbConfig::default());
    driver::seed_zeroes(&db, spec.n_objects);
    let r = driver::run(&db, &spec, &cfg_nogc);
    let stats = db.store_stats();
    table.row([
        "no sweep (installs prune)".to_string(),
        (r.rw_committed * spec.rw_ops as u64).to_string(),
        stats.committed_versions.to_string(),
        format!("{:.1}", stats.versions_per_object()),
        "n/a".into(),
    ]);

    // --- GC, no live readers pinning the watermark ---------------------------
    let db = presets::vc_2pl(DbConfig::default());
    driver::seed_zeroes(&db, spec.n_objects);
    let r = driver::run(&db, &spec.clone().with_ro_fraction(0.0), &cfg_gc);
    db.collect_garbage();
    let stats = db.store_stats();
    table.row([
        "GC, no stragglers".to_string(),
        (r.rw_committed * spec.rw_ops as u64).to_string(),
        stats.committed_versions.to_string(),
        format!("{:.1}", stats.versions_per_object()),
        "n/a".into(),
    ]);

    // --- GC with the correct watermark, pinned by a live straggler -----------
    let db = presets::vc_2pl(DbConfig::default());
    driver::seed_zeroes(&db, spec.n_objects);
    // A straggler RO transaction holds an old snapshot across the run.
    db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(999_999_999)))
        .unwrap();
    let mut straggler = db.begin_read_only();
    let r = driver::run(&db, &spec, &cfg_gc);
    db.collect_garbage();
    let stats = db.store_stats();
    let snap = straggler.read_u64(ObjectId(0));
    table.row([
        "GC pinned by live straggler".to_string(),
        (r.rw_committed * spec.rw_ops as u64).to_string(),
        stats.committed_versions.to_string(),
        format!("{:.1}", stats.versions_per_object()),
        format!("{snap:?} — intact"),
    ]);
    assert_eq!(
        snap,
        Ok(Some(999_999_999)),
        "safe GC must preserve the snapshot"
    );
    straggler.finish();
    db.collect_garbage();
    let collapsed = db.store_stats();

    // --- deliberately unsafe sweep (ignores the RO registry) ------------------
    let db = presets::vc_2pl(DbConfig::default());
    driver::seed_zeroes(&db, spec.n_objects);
    db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(999_999_999)))
        .unwrap();
    let mut straggler = db.begin_read_only();
    let writes = scaled(fast, 500);
    for i in 0..writes {
        db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(i)))
            .unwrap();
    }
    // Prune straight at vtnc, ignoring the live reader:
    db.store().collect_garbage(db.vc().vtnc());
    let unsafe_snap = straggler.read_u64(ObjectId(0));
    let stats = db.store_stats();
    table.row([
        "UNSAFE GC @ vtnc only".to_string(),
        writes.to_string(),
        stats.committed_versions.to_string(),
        format!("{:.1}", stats.versions_per_object()),
        format!("{unsafe_snap:?}"),
    ]);
    assert!(
        matches!(unsafe_snap, Err(DbError::VersionPruned { .. })),
        "ignoring live readers must break the snapshot: {unsafe_snap:?}"
    );

    out.push_str(&table.render());
    out.push_str(&format!(
        "\nafter the straggler finished, a final safe pass collapsed the store to \
         {:.1} versions/object.\nshape: the vtnc rule alone protects *future* \
         read-only transactions; the live-reader registry extends it to in-flight \
         ones — dropping it loses exactly the straggler's version.\n",
        collapsed.versions_per_object()
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn safe_gc_preserves_unsafe_gc_breaks() {
        let report = super::run(true);
        assert!(report.contains("intact"));
        assert!(report.contains("VersionPruned"));
    }
}
