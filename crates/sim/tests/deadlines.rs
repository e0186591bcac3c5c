//! The deadline oracle under virtual time: a transaction with a budget
//! either commits inside it or aborts with `DeadlineExceeded`, never
//! commits late (`no_silent_overrun`, checked inside every run).

use mvcc_sim::{run_spec, FaultProfile, Protocol, SimSpec};
use std::time::Duration;

/// Tight budgets on a contended spec: some transactions must die with
/// `DeadlineExceeded`, short ones must still commit, no commit may land
/// past its budget, and the run replays byte for byte.
#[test]
fn tight_deadlines_miss_loudly_commit_some_and_replay() {
    for protocol in Protocol::ALL {
        let spec = SimSpec {
            seed: 11,
            protocol,
            clients: 6,
            objects: 4,
            steps: 200,
            faults: FaultProfile::None,
            deadline: Some(Duration::from_millis(4)),
            ..SimSpec::default()
        };
        let a = run_spec(&spec);
        assert!(a.passed(), "{protocol}: {:?}", a.violations);
        assert!(
            a.deadline_aborts > 0,
            "{protocol}: tight budgets must produce deadline aborts"
        );
        assert!(a.commits > 0, "{protocol}: short transactions still commit");
        let b = run_spec(&spec);
        assert_eq!(a.trace, b.trace, "{protocol}: replay diverged");
        assert_eq!(a.summary(), b.summary());
    }
}

/// Without a deadline the spec, its summary and its trace carry no
/// deadline field, so every existing seed keeps its fingerprint.
#[test]
fn no_deadline_leaves_the_run_unmarked() {
    let r = run_spec(&SimSpec::default());
    assert!(!r.summary().contains("deadline"));
    assert!(!r.trace.contains("deadline_aborts"));
    assert_eq!(r.deadline_aborts, 0);
}
