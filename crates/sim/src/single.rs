//! Single-node simulation: one engine, one WAL, cooperative clients.
//!
//! The scheduler is a single real thread multiplexing many *logical*
//! clients: each tick it picks one client by a seeded draw and advances
//! that client's in-flight transaction by exactly one operation. Blocking
//! never happens — the engine is configured with zero wait timeouts, so
//! every conflict surfaces as an immediate retryable abort — which makes
//! the interleaving (and therefore the entire run) a pure function of the
//! seed.
//!
//! Terminal oracles, checked after the step budget is spent:
//!
//! * **`vc_invariant`** — [`VersionControl::validate`] on the live queue.
//! * **`mvsg_cycle`** — the traced history is one-copy serializable
//!   (MVSG acyclic under tn version order).
//! * **`conservation`** — every workload object's latest value equals the
//!   number of successfully committed increments applied to it.
//! * **`recovery_conservation`** — replaying the (fault-injected) WAL
//!   into a fresh engine reproduces exactly the committed values: no
//!   committed write lost, no aborted write resurrected.
//! * **`reserved_keyspace`** — an object the workload never touches is
//!   still empty (catches the [`Sabotage::RogueWrite`] plant).
//!
//! One oracle is checked on every read-only read as the run goes:
//!
//! * **`ro_never_aborts`** — a snapshot read never fails, neither with
//!   `VersionPruned` (GC passed a live snapshot) nor with any other error.
//!   `ro_aborts` therefore stays 0.
//!
//! With [`SimSpec::deadline`] set, every read-write transaction carries
//! that budget, and one more oracle is checked as the run goes:
//!
//! * **`no_silent_overrun`** — a transaction either commits within its
//!   budget (in virtual time) or aborts with `DeadlineExceeded`; no
//!   commit lands after its budget is spent.
//!
//! [`VersionControl::validate`]: mvcc_core::VersionControl::validate

use crate::report::{fnv1a, RunReport, Violation};
use crate::spec::{Protocol, Sabotage, SimSpec};
use mvcc_cc::{Optimistic, TimestampOrdering, TwoPhaseLocking};
use mvcc_core::{
    AbortReason, ConcurrencyControl, DbConfig, DbError, FaultPoint, MvDatabase, ObsConfig, RoTxn,
    RwTxn, SimClock, SimRng, SplitMixRng, TxnOptions,
};
use mvcc_model::ObjectId;
use mvcc_storage::wal::MemWal;
use mvcc_storage::Value;
use std::collections::BTreeMap;
use std::time::Duration;

/// Offset past the workload keyspace for the reserved canary object.
const RESERVED_OFFSET: u64 = 0xDEAD;

/// Transaction number used by the rogue write: far above anything real
/// transactions reach in a bounded run, far below the anonymous-trace id
/// space.
const ROGUE_TN: u64 = 1 << 40;

/// Stream-splitting constant: the engine's fault/jitter rng draws from
/// `seed ^ ENGINE_STREAM` so scheduler draws and engine draws do not
/// alias even though both derive from one seed.
const ENGINE_STREAM: u64 = 0x5EED_5EED_5EED_5EED;

/// The reserved canary object for a given keyspace size.
pub fn reserved_object(objects: u64) -> ObjectId {
    ObjectId(objects + RESERVED_OFFSET)
}

/// Run one single-node simulation to completion.
pub fn run_single(spec: &SimSpec) -> RunReport {
    match spec.protocol {
        Protocol::TwoPl => drive(spec, || TwoPhaseLocking::with_shards(16)),
        Protocol::To => drive(spec, TimestampOrdering::new),
        Protocol::Occ => drive(spec, Optimistic::new),
    }
}

/// An in-flight read-write transaction owned by a logical client.
struct RwFlight<'db, C: ConcurrencyControl> {
    txn: RwTxn<'db, C>,
    plan: Vec<ObjectId>,
    pos: usize,
    wrote: Vec<ObjectId>,
    /// Virtual time at begin, for the `no_silent_overrun` oracle.
    start_ns: u64,
}

/// An in-flight read-only transaction owned by a logical client.
struct RoFlight<'db> {
    txn: RoTxn<'db>,
    plan: Vec<ObjectId>,
    pos: usize,
}

fn drive<C, F>(spec: &SimSpec, mk: F) -> RunReport
where
    C: ConcurrencyControl,
    F: Fn() -> C,
{
    let clock = SimClock::new();
    let sched = SplitMixRng::new(spec.seed);
    let mut cfg = DbConfig::default()
        .with_clock(clock.clone())
        .with_rng(SplitMixRng::shared(spec.seed ^ ENGINE_STREAM));
    cfg.trace = true;
    cfg.lock_wait_timeout = Duration::ZERO;
    cfg.read_wait_timeout = Duration::ZERO;
    cfg.register_ttl = Some(Duration::from_millis(25));
    cfg.fault = spec.faults.fault_config(spec.seed);
    cfg.obs = ObsConfig::default();
    cfg.obs.events = true;
    cfg.obs.event_capacity = 1 << 14;
    cfg.obs.attribution = spec.attribution;
    // Trace 1 in 4 read-write transactions end to end. The sampling
    // decision draws from the injected engine rng, so a replay traces
    // exactly the same transactions and the span trees land in the
    // canonical trace byte for byte.
    cfg.obs.span_sample_shift = 2;
    let event_cap = cfg.obs.event_capacity;

    let mem = MemWal::new();
    let db = MvDatabase::with_wal(mk(), cfg, Box::new(mem.clone()))
        .expect("in-memory WAL creation cannot fail");
    for o in 0..spec.objects {
        db.seed(ObjectId(o), Value::from_u64(0));
    }
    let mut expected = vec![0u64; spec.objects as usize];

    let mut rw_slots: Vec<Option<RwFlight<'_, C>>> =
        (0..spec.clients.max(1)).map(|_| None).collect();
    let mut ro_slots: Vec<Option<RoFlight<'_>>> = (0..spec.ro_clients).map(|_| None).collect();
    let total = rw_slots.len() + ro_slots.len();

    let mut steps_done = 0u64;
    let mut ticks = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut stalls = 0u64;
    let mut crashes = 0u64;
    let mut wal_aborts = 0u64;
    let mut reaped = 0u64;
    let mut ro_reads = 0u64;
    // Reported for the cluster mode's sake; `ro_never_aborts` holds it
    // at 0 here.
    let ro_aborts = 0u64;
    let mut deadline_aborts = 0u64;
    let mut violations: Vec<Violation> = Vec::new();
    let mut rogue_done = false;
    let mut traced: Vec<u64> = Vec::new();

    let max_ticks = spec.steps.saturating_mul(300).max(10_000);
    while steps_done < spec.steps && ticks < max_ticks {
        ticks += 1;

        // Plant the rogue write once, mid-run, behind the engine's back.
        if spec.sabotage == Sabotage::RogueWrite && !rogue_done && steps_done >= spec.steps / 2 {
            db.store().with(reserved_object(spec.objects), |c| {
                let _ = c.insert_committed(ROGUE_TN, Value::from_u64(0xBAD));
            });
            rogue_done = true;
        }

        let k = sched.next_below(total as u64) as usize;
        if k < rw_slots.len() {
            let slot = &mut rw_slots[k];
            match slot.take() {
                None => {
                    // Sampled transactions carry an explicit trace context
                    // so their whole lifecycle lands in one span tree.
                    let mut opts = if db.obs().span_sampled() {
                        let ctx = db.start_trace();
                        traced.push(ctx.trace_id);
                        TxnOptions::default().with_trace(ctx)
                    } else {
                        TxnOptions::default()
                    };
                    opts.deadline = spec.deadline;
                    match db.begin_read_write_with(&opts) {
                        Ok(txn) => {
                            let n = 1 + sched.next_below(3);
                            let mut plan = Vec::new();
                            for _ in 0..n {
                                let o = ObjectId(sched.next_below(spec.objects.max(1)));
                                if !plan.contains(&o) {
                                    plan.push(o);
                                }
                            }
                            *slot = Some(RwFlight {
                                txn,
                                plan,
                                pos: 0,
                                wrote: Vec::new(),
                                start_ns: clock.elapsed_ns(),
                            });
                        }
                        Err(_) => {
                            aborts += 1;
                            steps_done += 1;
                        }
                    }
                }
                Some(mut f) => {
                    if db.faults().fire(FaultPoint::StallAfterRegister) {
                        // The client vanishes mid-transaction: protocol
                        // state leaks and the reaper/timeouts must cope.
                        f.txn.stall();
                        stalls += 1;
                        steps_done += 1;
                    } else if f.pos < f.plan.len() {
                        let obj = f.plan[f.pos];
                        let res = f.txn.read_for_update(obj).and_then(|v| {
                            let cur = v.as_u64().unwrap_or(0);
                            f.txn.write(obj, Value::from_u64(cur + 1))
                        });
                        match res {
                            Ok(()) => {
                                f.wrote.push(obj);
                                f.pos += 1;
                                *slot = Some(f);
                            }
                            Err(e) if e.is_retryable() => {
                                f.txn.abort();
                                aborts += 1;
                                steps_done += 1;
                            }
                            Err(DbError::VersionPruned { .. }) => {
                                f.txn.abort();
                                aborts += 1;
                                steps_done += 1;
                            }
                            Err(DbError::Aborted(AbortReason::DeadlineExceeded)) => {
                                deadline_aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "engine_error",
                                    detail: format!("rw op on {obj:?} failed: {e}"),
                                });
                                steps_done += 1;
                            }
                        }
                    } else if db.faults().fire(FaultPoint::CrashBeforeComplete) {
                        f.txn.stall();
                        crashes += 1;
                        steps_done += 1;
                    } else {
                        match f.txn.commit() {
                            Ok(_tn) => {
                                for o in &f.wrote {
                                    expected[o.0 as usize] += 1;
                                }
                                commits += 1;
                                steps_done += 1;
                                if let Some(budget) = spec.deadline {
                                    let elapsed = clock.elapsed_ns() - f.start_ns;
                                    if elapsed > budget.as_nanos() as u64 {
                                        violations.push(Violation {
                                            oracle: "no_silent_overrun",
                                            detail: format!(
                                                "commit landed {elapsed}ns after begin, \
                                                 budget was {budget:?}"
                                            ),
                                        });
                                    }
                                }
                            }
                            Err(DbError::Aborted(AbortReason::DeadlineExceeded)) => {
                                deadline_aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) if e.is_retryable() => {
                                aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) if e.abort_reason() == Some(AbortReason::LogFailed) => {
                                wal_aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "engine_error",
                                    detail: format!("commit failed: {e}"),
                                });
                                steps_done += 1;
                            }
                        }
                    }
                }
            }
        } else {
            let slot = &mut ro_slots[k - rw_slots.len()];
            match slot.take() {
                None => {
                    let txn = db.begin_read_only();
                    let n = 1 + sched.next_below(4);
                    let mut plan = Vec::new();
                    for _ in 0..n {
                        let o = ObjectId(sched.next_below(spec.objects.max(1)));
                        if !plan.contains(&o) {
                            plan.push(o);
                        }
                    }
                    *slot = Some(RoFlight { txn, plan, pos: 0 });
                }
                Some(mut f) => {
                    if f.pos < f.plan.len() {
                        let obj = f.plan[f.pos];
                        match f.txn.read_u64(obj) {
                            Ok(_) => {
                                ro_reads += 1;
                                f.pos += 1;
                                *slot = Some(f);
                            }
                            // Read-only transactions never block and never
                            // abort: any error here, above all a version GC
                            // pruned under a live snapshot, is a violation.
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "ro_never_aborts",
                                    detail: format!(
                                        "ro read of {obj:?} at sn {} failed: {e}",
                                        f.txn.sn()
                                    ),
                                });
                                f.txn.finish();
                                steps_done += 1;
                            }
                        }
                    } else {
                        f.txn.finish();
                        steps_done += 1;
                    }
                }
            }
        }

        // Maintenance draws: virtual time, the stall reaper, GC. Each is
        // part of the schedule, so each replays with the seed.
        if sched.next_below(6) == 0 {
            clock.advance(Duration::from_millis(1 + sched.next_below(8)));
        }
        if sched.next_below(24) == 0 {
            reaped += db.reap_stalled().len() as u64;
        }
        if sched.next_below(48) == 0 {
            db.collect_garbage();
        }
    }

    // Drain whatever is still in flight so the trace and the version-
    // control queue reach a quiescent terminal state.
    for f in rw_slots.drain(..).flatten() {
        f.txn.abort();
    }
    for f in ro_slots.drain(..).flatten() {
        f.txn.finish();
    }
    clock.advance(Duration::from_millis(100));
    reaped += db.reap_stalled().len() as u64;

    // --- Terminal oracles -------------------------------------------------
    if let Err(e) = db.vc().validate() {
        violations.push(Violation {
            oracle: "vc_invariant",
            detail: e,
        });
    }
    let hist = db
        .trace_history()
        .expect("tracing is always enabled in simulation");
    let mvsg = mvcc_model::mvsg::check_tn_order(&hist);
    if !mvsg.acyclic {
        violations.push(Violation {
            oracle: "mvsg_cycle",
            detail: format!("{:?}", mvsg.cycle),
        });
    }
    for (i, &want) in expected.iter().enumerate() {
        let got = db.peek_latest(ObjectId(i as u64)).as_u64().unwrap_or(0);
        if got != want {
            violations.push(Violation {
                oracle: "conservation",
                detail: format!("object {i}: latest {got} != {want} committed increments"),
            });
        }
    }
    if let Some(v) = db.peek_latest(reserved_object(spec.objects)).as_u64() {
        violations.push(Violation {
            oracle: "reserved_keyspace",
            detail: format!(
                "reserved object {:?} holds {v:#x}; the workload never writes it",
                reserved_object(spec.objects)
            ),
        });
    }
    match MvDatabase::recover(mk(), DbConfig::default(), None, &mem.bytes(), None) {
        Ok((rdb, _stats)) => {
            for (i, &want) in expected.iter().enumerate() {
                let got = rdb.peek_latest(ObjectId(i as u64)).as_u64().unwrap_or(0);
                if got != want {
                    violations.push(Violation {
                        oracle: "recovery_conservation",
                        detail: format!("object {i}: recovered {got} != {want} committed"),
                    });
                }
            }
        }
        Err(e) => violations.push(Violation {
            oracle: "recovery_conservation",
            detail: format!("WAL replay failed: {e}"),
        }),
    }

    // --- Canonical trace --------------------------------------------------
    let mut trace = String::new();
    let mut thread_norm: BTreeMap<u64, u64> = BTreeMap::new();
    for e in db.obs().events().recent(event_cap) {
        let next = thread_norm.len() as u64;
        let th = *thread_norm.entry(e.thread).or_insert(next);
        trace.push_str(&format!(
            "s{} t{} {} th{} id{} aux{}\n",
            e.seq,
            e.t_ns,
            e.kind.name(),
            th,
            e.id,
            e.aux
        ));
    }
    // Span trees of every sampled transaction are part of the canonical
    // trace: a replay must reproduce not just the event stream but the
    // exact shape, timing and attributes of each trace. Evicted traces
    // (past the registry cap) are skipped identically on replay.
    trace.push_str("== spans ==\n");
    for &id in &traced {
        let Some(snap) = db.trace_snapshot(id) else {
            continue;
        };
        if let Err(e) = snap.validate() {
            violations.push(Violation {
                oracle: "trace_tree",
                detail: format!("trace {id}: {e}"),
            });
        }
        for s in &snap.spans {
            let next = thread_norm.len() as u64;
            let th = *thread_norm.entry(s.thread).or_insert(next);
            let attrs: String = s.attrs.iter().map(|(k, v)| format!(" {k}={v}")).collect();
            trace.push_str(&format!(
                "tr{} sp{} p{} {} [{}..{}] th{th}{attrs}\n",
                id, s.span_id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
    }
    trace.push_str("== history ==\n");
    trace.push_str(&format!("{hist}"));
    trace.push_str(&format!(
        "== counters ==\nsteps={steps_done} commits={commits} aborts={aborts} stalls={stalls} \
         crashes={crashes} wal_aborts={wal_aborts} reaped={reaped} ro_reads={ro_reads} \
         ro_aborts={ro_aborts}\n"
    ));
    if spec.deadline.is_some() {
        trace.push_str(&format!("deadline_aborts={deadline_aborts}\n"));
    }
    let fingerprint = format!("{:016x}", fnv1a(trace.as_bytes()));

    RunReport {
        spec: spec.clone(),
        steps_done,
        ticks,
        commits,
        aborts,
        stalls,
        crashes,
        wal_aborts,
        reaped,
        ro_reads,
        ro_aborts,
        deadline_aborts,
        violations,
        trace,
        fingerprint,
    }
}
