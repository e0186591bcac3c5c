//! Overload-simulation specs: the degradation ladder under seeded
//! bursts, replayed byte-for-byte.
//!
//! These are the PR-gate overload scenarios: a burst that climbs the
//! ladder and recovers, per-tenant fairness under skewed weights, the
//! deadline-miss oracle under a GC stall, and the shedding-off control
//! run. Each spec is deterministic — the first assertion in every test
//! is that its oracles held, and the replay test pins the canonical
//! trace byte-for-byte.

use mvcc_sim::spec::Protocol;
use mvcc_sim::{run_overload, OverloadSpec};
use std::time::Duration;

/// Same spec, same seed → byte-identical canonical trace and
/// fingerprint. The overload run is a pure function of its spec.
#[test]
fn replay_is_byte_identical() {
    let spec = OverloadSpec::default();
    let a = run_overload(&spec);
    let b = run_overload(&spec);
    assert_eq!(a.trace, b.trace, "replay diverged");
    assert_eq!(a.fingerprint, b.fingerprint);
    assert!(a.passed(), "oracles failed: {:?}", a.violations);
}

/// Different seeds explore different schedules: the fingerprint moves.
#[test]
fn seeds_produce_distinct_schedules() {
    let a = run_overload(&OverloadSpec::default());
    let b = run_overload(&OverloadSpec {
        seed: 2,
        ..OverloadSpec::default()
    });
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// The canonical burst-then-recover scenario: the burst pushes the
/// ladder past `Shed`, light tenants are refused while the heavy tenant
/// keeps its floor, and after the burst the ladder walks back down to
/// `Normal` one rung at a time.
#[test]
fn burst_climbs_ladder_and_recovers() {
    for protocol in [Protocol::TwoPl, Protocol::To, Protocol::Occ] {
        let spec = OverloadSpec {
            protocol,
            ..OverloadSpec::default()
        };
        let r = run_overload(&spec);
        assert!(r.passed(), "{protocol}: {:?}", r.violations);
        assert!(
            r.max_level >= mvcc_core::PressureLevel::Shed,
            "{protocol}: burst never reached the shed rung (max {})",
            r.max_level.name()
        );
        assert_eq!(r.final_level, mvcc_core::PressureLevel::Normal);
        assert!(r.shed_rw > 0, "{protocol}: nothing was ever refused");
        assert!(r.commits > 0);
        // Recovery is visible in the transition list: the last recorded
        // transition lands on Normal.
        assert_eq!(
            r.transitions.last().map(|t| t.to),
            Some(mvcc_core::PressureLevel::Normal)
        );
    }
}

/// Fairness under skew: the quota table gives tenant 0 most of the
/// weight; at the shed rung the light tenants absorb the refusals while
/// the heavy tenant is still admitted.
#[test]
fn heavy_tenant_keeps_its_share_under_shedding() {
    let r = run_overload(&OverloadSpec::default());
    assert!(r.passed(), "{:?}", r.violations);
    let heavy = r
        .tenant_stats
        .iter()
        .find(|(t, ..)| t.0 == 0)
        .expect("heavy tenant ran");
    assert!(heavy.1 > 0, "heavy tenant starved");
    let light_shed: u64 = r
        .tenant_stats
        .iter()
        .filter(|(t, ..)| t.0 != 0)
        .map(|&(_, _, shed)| shed)
        .sum();
    assert!(light_shed > 0, "no light tenant was ever refused");
}

/// Deadline-miss oracle under a GC stall: with tight per-transaction
/// budgets and GC suspended through the burst, some transactions must
/// die with `DeadlineExceeded` — and none may silently commit past its
/// budget (that oracle is part of `passed()`).
#[test]
fn gc_stall_with_deadlines_misses_loudly_not_silently() {
    let spec = OverloadSpec {
        deadline: Some(Duration::from_millis(4)),
        ..OverloadSpec::default()
    };
    let r = run_overload(&spec);
    assert!(r.passed(), "{:?}", r.violations);
    assert!(
        r.deadline_aborts > 0,
        "tight budgets under a GC stall must produce deadline aborts"
    );
    assert!(r.commits > 0, "generous schedules still commit");
}

/// Control run with admission off: the same burst, no refusals, no
/// ladder movement: the "degradation is a choice" baseline.
#[test]
fn shedding_off_never_refuses() {
    let r = run_overload(&OverloadSpec {
        shedding: false,
        ..OverloadSpec::default()
    });
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.shed_rw, 0);
    assert_eq!(r.shed_ro, 0);
    assert!(r.transitions.is_empty());
    assert_eq!(r.max_level, mvcc_core::PressureLevel::Normal);
}
