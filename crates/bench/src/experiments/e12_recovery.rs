//! E12 — version-based recovery (paper §1's extensibility claims):
//! checkpoint/restore cost and fidelity. A checkpoint taken under live
//! update traffic restores to a transaction-consistent state (increment
//! totals match exactly), and the restored engine resumes numbering
//! above the checkpoint's watermark.

use crate::scaled_ms;
use mvcc_cc::{presets, TwoPhaseLocking};
use mvcc_core::{DbConfig, MvDatabase};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use mvcc_workload::report::fmt_duration;
use mvcc_workload::{driver, DriverConfig, WorkloadSpec};
use std::time::Instant;

pub(crate) fn run(fast: bool) -> String {
    let mut out = String::new();
    let cfg = DriverConfig {
        threads: 6,
        duration: scaled_ms(fast, 300),
        max_retries: 10_000,
        ..Default::default()
    };
    let db = presets::vc_2pl(DbConfig::default());
    let spec = WorkloadSpec {
        n_objects: 256,
        ro_fraction: 0.0,
        use_increments: true,
        seed: 13,
        ..Default::default()
    };
    driver::seed_zeroes(&db, spec.n_objects);
    let r = driver::run(&db, &spec, &cfg);
    let t0 = Instant::now();
    let mut buf = Vec::new();
    let stats = db.checkpoint(&mut buf).unwrap();
    let took = t0.elapsed();

    let t0 = Instant::now();
    let restored: MvDatabase<TwoPhaseLocking> = MvDatabase::restore(
        TwoPhaseLocking::new(),
        DbConfig::default(),
        &mut buf.as_slice(),
    )
    .unwrap();
    let restore_took = t0.elapsed();

    let mut ro = restored.begin_read_only();
    let total: u64 = (0..spec.n_objects)
        .map(|o| ro.read_u64(ObjectId(o)).unwrap().unwrap())
        .sum();
    let expected = r.rw_committed * spec.rw_ops as u64;
    out.push_str(&format!(
        "recovery: checkpoint of {} objects / {} versions / {} bytes took {}; \
         restore took {}; restored increment total = {} (expected {}).\n",
        stats.objects,
        stats.versions,
        buf.len(),
        fmt_duration(took),
        fmt_duration(restore_took),
        total,
        expected,
    ));
    assert_eq!(
        total, expected,
        "restored state must be transaction-consistent"
    );

    // restored engine continues where the checkpoint left off
    let (tn, ()) = restored
        .run_rw(5, |t| t.write(ObjectId(0), Value::from_u64(1)))
        .unwrap();
    out.push_str(&format!(
        "restored engine resumed at tn {tn} (> checkpoint watermark {}).\n",
        stats.watermark
    ));
    assert!(tn > stats.watermark);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn recovery_report() {
        let report = super::run(true);
        assert!(report.contains("recovery: checkpoint"));
        assert!(report.contains("resumed at tn"));
    }
}
