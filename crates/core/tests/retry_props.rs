//! Property tests for [`RetryPolicy`]: the retry discipline every runner
//! (engine `run_rw_with`, workload driver) leans on.
//!
//! Three contracts, over arbitrary policies:
//!
//! * **bounded growth** — jitter-free backoff is nondecreasing in the
//!   attempt number and never exceeds `max_backoff`;
//! * **bounded jitter** — a jittered sleep never exceeds the jitter-free
//!   sleep and never undershoots `(1 − jitter)` of it;
//! * **attempt budget** — a permanently failing transaction body is
//!   attempted exactly `max(1, max_attempts)` times, and the virtual
//!   time spent sleeping equals the policy's own backoff schedule (the
//!   sleeps go through the injected clock, nowhere else);
//! * **deadline budget** — `backoff_within` grants exactly the sleeps
//!   the plain schedule would take and refuses precisely when the
//!   remaining budget cannot fund them, and `run_rw_deadline` therefore
//!   stops retrying the moment the next backoff would not fit — its
//!   virtual sleeping always totals strictly less than the budget.

use mvcc_core::cc_api::{CcContext, ConcurrencyControl, WriteSet};
use mvcc_core::{
    AbortReason, DbConfig, DbError, MvDatabase, RetryPolicy, SimClock, SplitMixRng, TxnOptions,
};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use proptest::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------------
// A trivial no-conflict protocol, just enough to drive `run_rw_with`.
// (The real protocols live in `mvcc-cc`, which depends on this crate.)

struct SerialCc;

struct SerialTxn {
    tn: u64,
    writes: WriteSet,
}

impl ConcurrencyControl for SerialCc {
    type Txn = SerialTxn;

    fn name(&self) -> &'static str {
        "serial-test"
    }

    fn begin(&self, ctx: &CcContext) -> Result<SerialTxn, DbError> {
        Ok(SerialTxn {
            tn: ctx.register(),
            writes: WriteSet::new(),
        })
    }

    fn read(
        &self,
        ctx: &CcContext,
        txn: &mut SerialTxn,
        obj: ObjectId,
    ) -> Result<(u64, Value), DbError> {
        match txn.writes.get(obj) {
            Some(v) => Ok((u64::MAX, v.clone())),
            None => Ok(ctx.store.read_latest(obj)),
        }
    }

    fn write(
        &self,
        _ctx: &CcContext,
        txn: &mut SerialTxn,
        obj: ObjectId,
        value: Value,
    ) -> Result<(), DbError> {
        txn.writes.put(obj, value);
        Ok(())
    }

    fn commit(&self, ctx: &CcContext, txn: SerialTxn) -> Result<u64, DbError> {
        ctx.end(txn.tn, &txn.writes, || ())
    }

    fn abort(&self, ctx: &CcContext, txn: SerialTxn) {
        ctx.discard(txn.tn);
    }
}

fn policy(
    max_attempts: u32,
    base_us: u64,
    max_us: u64,
    jitter_milli: u32,
    seed: u64,
) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(base_us),
        max_backoff: Duration::from_micros(max_us),
        jitter: jitter_milli as f64 / 1000.0,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Jitter-free backoff is nondecreasing in the attempt number and
    /// saturates at `max_backoff`.
    #[test]
    fn backoff_monotone_up_to_cap(
        base_us in 1u64..1_000,
        extra_us in 0u64..100_000,
        seed in any::<u64>(),
    ) {
        let p = policy(8, base_us, base_us + extra_us, 0, seed);
        let mut j = p.jitter_stream();
        let mut prev = Duration::ZERO;
        for attempt in 0..32 {
            let b = p.backoff_for(attempt, &mut j);
            prop_assert!(b >= prev, "attempt {attempt}: {b:?} < {prev:?}");
            prop_assert!(b <= p.max_backoff, "attempt {attempt}: {b:?} above cap");
            prev = b;
        }
        // Far past the doubling range the cap must be reached exactly.
        prop_assert_eq!(p.backoff_for(40, &mut j), p.max_backoff);
    }

    /// A jittered sleep stays inside `[(1 − jitter) · exp, exp]` where
    /// `exp` is the jitter-free sleep for the same attempt.
    #[test]
    fn jitter_stays_bounded(
        base_us in 1u64..1_000,
        extra_us in 0u64..100_000,
        jitter_milli in 0u32..=1_000,
        seed in any::<u64>(),
        attempt in 0u32..24,
    ) {
        let p = policy(8, base_us, base_us + extra_us, jitter_milli, seed);
        let exp = {
            let flat = policy(8, base_us, base_us + extra_us, 0, seed);
            flat.backoff_for(attempt, &mut flat.jitter_stream())
        };
        let b = p.backoff_for(attempt, &mut p.jitter_stream());
        prop_assert!(b <= exp, "jittered {b:?} above base {exp:?}");
        let floor = exp.mul_f64((1.0 - p.jitter - 1e-9).max(0.0));
        prop_assert!(b >= floor, "jittered {b:?} below floor {floor:?}");
    }

    /// Same seed, same sleep sequence — with the policy's own stream and
    /// with an injected shared rng alike.
    #[test]
    fn same_seed_same_schedule(
        seed in any::<u64>(),
        jitter_milli in 0u32..=1_000,
    ) {
        let p = policy(8, 50, 5_000, jitter_milli, seed);
        let (mut a, mut b) = (p.jitter_stream(), p.jitter_stream());
        for attempt in 0..16 {
            prop_assert_eq!(p.backoff_for(attempt, &mut a), p.backoff_for(attempt, &mut b));
        }
        let (ra, rb) = (SplitMixRng::new(seed), SplitMixRng::new(seed));
        let mut ja = p.jitter_stream_with(Some(&ra));
        let mut jb = p.jitter_stream_with(Some(&rb));
        for attempt in 0..16 {
            prop_assert_eq!(p.backoff_for(attempt, &mut ja), p.backoff_for(attempt, &mut jb));
        }
    }

    /// A permanently failing body is attempted exactly
    /// `max(1, max_attempts)` times, the runner reports the last error,
    /// and every backoff sleep lands on the injected clock with exactly
    /// the durations the policy itself predicts.
    #[test]
    fn attempt_budget_and_sleeps_respected(
        max_attempts in 0u32..12,
        base_us in 0u64..500,
        jitter_milli in 0u32..=1_000,
        seed in any::<u64>(),
    ) {
        let clock = SimClock::new();
        let db = MvDatabase::with_config(
            SerialCc,
            DbConfig::default().with_clock(clock.clone()),
        );
        let p = policy(max_attempts, base_us, base_us * 64, jitter_milli, seed);

        let mut attempts = 0u32;
        let out: Result<(u64, ()), DbError> = db.run_rw_with(&p, |_t| {
            attempts += 1;
            Err(DbError::Aborted(AbortReason::ValidationFailed))
        });

        let budget = max_attempts.max(1);
        prop_assert_eq!(attempts, budget, "attempt budget violated");
        prop_assert!(
            matches!(out, Err(DbError::Aborted(AbortReason::ValidationFailed))),
            "runner must surface the last retryable error"
        );

        // Replay the policy's own schedule: the virtual clock must have
        // accumulated exactly the predicted sleeps (no hidden waits, no
        // skipped backoffs).
        let mut j = p.jitter_stream();
        let mut want = Duration::ZERO;
        for attempt in 1..budget {
            want += p.backoff_for(attempt - 1, &mut j);
        }
        prop_assert_eq!(
            clock.elapsed_ns(),
            want.as_nanos() as u64,
            "slept {}ns, policy schedule says {}ns",
            clock.elapsed_ns(),
            want.as_nanos()
        );
    }

    /// `backoff_within` is `backoff_for` with a refusal clause: it
    /// returns exactly the schedule's sleep when that sleep fits the
    /// remaining budget, and `None` (never a truncated sleep) when it
    /// does not. Zero-vs-zero refuses: a retry funded with nothing
    /// would begin already expired.
    #[test]
    fn backoff_within_matches_schedule_and_budget(
        base_us in 0u64..1_000,
        extra_us in 0u64..100_000,
        jitter_milli in 0u32..=1_000,
        seed in any::<u64>(),
        attempt in 0u32..24,
        remaining_us in 0u64..200_000,
    ) {
        let p = policy(8, base_us, base_us + extra_us, jitter_milli, seed);
        let remaining = Duration::from_micros(remaining_us);
        // Fresh streams draw the same first value, so the two calls see
        // identical jitter.
        let want = p.backoff_for(attempt, &mut p.jitter_stream());
        let got = p.backoff_within(attempt, &mut p.jitter_stream(), remaining);
        if want >= remaining {
            prop_assert_eq!(got, None, "sleep {want:?} does not fit {remaining:?}");
        } else {
            prop_assert_eq!(got, Some(want), "granted sleep must equal the schedule's");
        }
    }

    /// `run_rw_deadline` against a permanently failing body: retrying
    /// stops exactly when the next backoff no longer fits the remaining
    /// budget, every granted sleep lands on the injected clock, and the
    /// total virtual sleep stays strictly below the budget.
    #[test]
    fn deadline_runner_stops_when_budget_cannot_fund_backoff(
        max_attempts in 1u32..12,
        base_us in 0u64..500,
        jitter_milli in 0u32..=1_000,
        seed in any::<u64>(),
        budget_us in 0u64..20_000,
    ) {
        let clock = SimClock::new();
        let db = MvDatabase::with_config(
            SerialCc,
            DbConfig::default().with_clock(clock.clone()),
        );
        let p = policy(max_attempts, base_us, base_us * 64, jitter_milli, seed);
        let budget = Duration::from_micros(budget_us);
        let opts = TxnOptions::default().with_deadline(budget);

        let mut attempts = 0u32;
        let out: Result<(u64, ()), DbError> = db.run_rw_deadline(&p, &opts, |_t| {
            attempts += 1;
            Err(DbError::Aborted(AbortReason::ValidationFailed))
        });
        prop_assert!(out.is_err(), "a permanently failing body cannot succeed");

        // Replay the policy's schedule against the budget: attempt n+1
        // happens iff its backoff fits what the earlier sleeps left.
        let mut j = p.jitter_stream();
        let mut want_attempts = 1u32;
        let mut slept = Duration::ZERO;
        for attempt in 1..max_attempts.max(1) {
            let sleep = p.backoff_for(attempt - 1, &mut j);
            if sleep >= budget.saturating_sub(slept) {
                break;
            }
            slept += sleep;
            want_attempts += 1;
        }
        prop_assert_eq!(attempts, want_attempts, "early-stop point diverged");
        prop_assert_eq!(
            clock.elapsed_ns(),
            slept.as_nanos() as u64,
            "virtual sleep must equal the granted schedule"
        );
        prop_assert!(
            slept < budget || budget.is_zero(),
            "sleeping consumed the whole deadline budget"
        );
    }

    /// A body that succeeds on attempt `k` stops retrying immediately.
    #[test]
    fn stops_at_first_success(
        succeed_at in 1u32..6,
        seed in any::<u64>(),
    ) {
        let db = MvDatabase::with_config(SerialCc, DbConfig::default());
        let p = policy(8, 0, 0, 0, seed);
        let mut attempts = 0u32;
        let out = db.run_rw_with(&p, |t| {
            attempts += 1;
            if attempts < succeed_at {
                return Err(DbError::Aborted(AbortReason::ValidationFailed));
            }
            t.write(ObjectId(0), Value::from_u64(attempts as u64))
        });
        prop_assert!(out.is_ok());
        prop_assert_eq!(attempts, succeed_at);
    }
}
