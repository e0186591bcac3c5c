//! E4 — Figure 4: "Execution of Local Read-write Transactions in
//! Two-phase Locking", reproduced from traced runs: `sn(T) = ∞`, version
//! φ for writes, registration at the lock point, numbering at commit.
//!
//! Version φ is the transaction's buffered write: under the X lock nobody
//! else may see it, so it stays out of the store until `end(T)` inserts
//! it with version number `tn(T)`.

use mvcc_cc::presets;
use mvcc_core::DbConfig;
use mvcc_model::{mvsg, ObjectId};
use mvcc_storage::Value;
use mvcc_workload::report::Table;

pub(crate) fn run(_fast: bool) -> String {
    let db = presets::vc_2pl(DbConfig::traced());
    db.run_rw(1, |t| t.write(ObjectId(0), Value::from_u64(7)))
        .unwrap(); // tn 1 writes x

    let mut table = Table::new(["Action Invocation", "Action Execution (observed)"]);
    let tnc_before = db.vc().tnc();
    let mut t = db.begin_read_write().unwrap();
    table.row([
        "begin(T)".to_string(),
        "sn(T) = ∞  /* for uniformity: reads follow locks, not a snapshot */".to_string(),
    ]);
    assert_eq!(
        db.vc().tnc(),
        tnc_before,
        "2PL must NOT register at begin — only at the lock point"
    );
    let x = t.read_u64(ObjectId(0)).unwrap().unwrap();
    table.row([
        "read(x)".to_string(),
        format!("r-lock(x); return x_1 with largest version <= ∞ (value {x})"),
    ]);
    t.write(ObjectId(1), Value::from_u64(x + 1)).unwrap();
    // y_φ has no number yet and is invisible before commit: it lives in
    // T's write buffer, not in the store, yet T reads it back.
    let (latest_y, _) = db.store().read_latest(ObjectId(1));
    assert_eq!(latest_y, 0, "version φ must be invisible before commit");
    assert_eq!(t.read_u64(ObjectId(1)).unwrap(), Some(x + 1));
    table.row([
        "write(y)".to_string(),
        "w-lock(y); create y_φ with version φ (no transaction number yet), \
         buffered in T: invisible to every other reader"
            .to_string(),
    ]);
    let tn = t.commit().unwrap();
    table.row([
        "end(T)".to_string(),
        format!(
            "VCregister(T,\"active\") at the lock point -> tn(T) = {tn}; commit(T); \
             perform updates with version tn(T); clear locks; VCcomplete(T) -> vtnc = {}",
            db.vc().vtnc()
        ),
    ]);

    let mut out = table.render();
    let (n, v) = db.store().read_latest(ObjectId(1));
    out.push_str(&format!(
        "\nobserved: y_φ became y_{} = {} only at commit; registration \
         happened at the lock point (tnc moved {} -> {}).\n",
        n,
        v.as_u64().unwrap(),
        tnc_before,
        db.vc().tnc()
    ));

    let h = db.trace_history().unwrap();
    let rep = mvsg::check_tn_order(&h);
    out.push_str(&format!(
        "oracle: trace one-copy serializable: {}\n",
        rep.acyclic
    ));
    assert!(rep.acyclic);
    assert_eq!(n, tn);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reproduces_figure_four() {
        let report = super::run(true);
        assert!(report.contains("sn(T) = ∞"));
        assert!(report.contains("version φ"));
        assert!(report.contains("at the lock point"));
        assert!(report.contains("one-copy serializable: true"));
    }
}
