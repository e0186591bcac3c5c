//! Whole-cluster simulation: N sites, two-phase commit, lossy messaging.
//!
//! The same cooperative single-thread scheduler as
//! [`single`](crate::single), but each logical client drives a
//! [`DistRwTxn`](mvcc_dist::DistRwTxn) across several sites. Network
//! delays are charged to the injected [`SimClock`] (no wall-clock cost),
//! message drops/duplicates/delays come from the injected rng, and the
//! scheduler occasionally crash-recovers a quiesced site and runs the
//! in-doubt resolver — so a single seed replays the entire cluster's
//! behavior including every fault firing.
//!
//! Terminal oracles: per-site [`VersionControl::validate`], the MVSG
//! check over the global trace, exact conservation of committed
//! increments per `(site, object)`, and full in-doubt drainage under
//! presumed abort.
//!
//! [`VersionControl::validate`]: mvcc_core::VersionControl::validate

use crate::report::{fnv1a, RunReport, Violation};
use crate::spec::{Sabotage, SimSpec};
use mvcc_core::{DbError, SimClock, SimRng, SplitMixRng, TxnOptions};
use mvcc_dist::{Cluster, ClusterConfig, DistRoTxn, DistRwTxn, RoMode, SiteId};
use mvcc_model::ObjectId;
use mvcc_storage::Value;
use std::time::Duration;

/// Stream-splitting constant for the cluster's fault rng (distinct from
/// the single-node engine stream so cross-mode runs do not alias).
const NET_STREAM: u64 = 0xC105_7E12_0000_0001;

/// An in-flight distributed read-write transaction.
struct RwFlight<'c> {
    txn: DistRwTxn<'c>,
    plan: Vec<(SiteId, ObjectId)>,
    pos: usize,
    wrote: Vec<(SiteId, ObjectId)>,
}

/// An in-flight distributed read-only transaction.
struct RoFlight<'c> {
    txn: DistRoTxn<'c>,
    plan: Vec<(SiteId, ObjectId)>,
    pos: usize,
}

/// Run one cluster simulation to completion.
pub fn run_cluster(spec: &SimSpec) -> RunReport {
    let sites = spec.sites.max(2);
    let objects = spec.objects.max(1);
    let clock = SimClock::new();
    let sched = SplitMixRng::new(spec.seed);
    let cfg = ClusterConfig::default()
        .with_delay(Duration::from_micros(200))
        .with_timeout(Duration::ZERO)
        .with_lock_timeout(Duration::ZERO)
        .with_fault(spec.faults.fault_config(spec.seed))
        .with_trace()
        .with_clock(clock.clone())
        .with_rng(SplitMixRng::shared(spec.seed ^ NET_STREAM));
    let cluster = Cluster::with_config(sites, cfg);
    let site_ids = cluster.site_ids();
    for &s in &site_ids {
        for o in 0..objects {
            cluster.seed(s, ObjectId(o), Value::from_u64(0));
        }
    }
    // Indexed by position in `site_ids` (site ids are 1-based).
    let mut expected = vec![vec![0u64; objects as usize]; site_ids.len()];

    let ro_mode = if spec.sabotage == Sabotage::PerSiteSnapshots {
        RoMode::PerSiteSnapshots
    } else {
        RoMode::GlobalMin
    };

    let mut rw_slots: Vec<Option<RwFlight<'_>>> = (0..spec.clients.max(1)).map(|_| None).collect();
    let mut ro_slots: Vec<Option<RoFlight<'_>>> = (0..spec.ro_clients).map(|_| None).collect();
    let total = rw_slots.len() + ro_slots.len();

    let mut steps_done = 0u64;
    let mut ticks = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut ro_reads = 0u64;
    let mut ro_aborts = 0u64;
    let mut site_crashes = 0u64;
    let mut resolved_commit = 0u64;
    let mut resolved_abort = 0u64;
    let mut violations: Vec<Violation> = Vec::new();
    let mut traced: Vec<u64> = Vec::new();

    let pick_pair = |sched: &SplitMixRng| {
        (
            site_ids[sched.next_below(site_ids.len() as u64) as usize],
            ObjectId(sched.next_below(objects)),
        )
    };

    let max_ticks = spec.steps.saturating_mul(300).max(10_000);
    while steps_done < spec.steps && ticks < max_ticks {
        ticks += 1;
        let k = sched.next_below(total as u64) as usize;
        if k < rw_slots.len() {
            let slot = &mut rw_slots[k];
            match slot.take() {
                None => {
                    // 1 in 4 distributed transactions carry a trace
                    // context; the draw comes from the scheduler stream,
                    // so a replay traces exactly the same transactions
                    // and their 2PC span trees replay byte for byte.
                    let txn = if sched.next_below(4) == 0 {
                        let ctx = cluster.start_trace();
                        traced.push(ctx.trace_id);
                        cluster.begin_rw_with(&TxnOptions::default().with_trace(ctx))
                    } else {
                        cluster.begin_rw()
                    };
                    let n = 1 + sched.next_below(3);
                    let mut plan = Vec::new();
                    for _ in 0..n {
                        let p = pick_pair(&sched);
                        if !plan.contains(&p) {
                            plan.push(p);
                        }
                    }
                    *slot = Some(RwFlight {
                        txn,
                        plan,
                        pos: 0,
                        wrote: Vec::new(),
                    });
                }
                Some(mut f) => {
                    if f.pos < f.plan.len() {
                        let (s, o) = f.plan[f.pos];
                        let res = f.txn.read(s, o).and_then(|v| {
                            let cur = v.as_u64().unwrap_or(0);
                            f.txn.write(s, o, Value::from_u64(cur + 1))
                        });
                        match res {
                            Ok(()) => {
                                f.wrote.push((s, o));
                                f.pos += 1;
                                *slot = Some(f);
                            }
                            Err(e)
                                if e.is_retryable()
                                    || matches!(e, DbError::VersionPruned { .. }) =>
                            {
                                f.txn.abort();
                                aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "engine_error",
                                    detail: format!("dist rw op on {s:?}/{o:?} failed: {e}"),
                                });
                                steps_done += 1;
                            }
                        }
                    } else {
                        match f.txn.commit() {
                            Ok(_gtn) => {
                                for &(s, o) in &f.wrote {
                                    expected[s.0 as usize - 1][o.0 as usize] += 1;
                                }
                                commits += 1;
                                steps_done += 1;
                            }
                            Err(e) if e.is_retryable() => {
                                aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "engine_error",
                                    detail: format!("2pc commit failed hard: {e}"),
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
                    let txn = cluster.begin_ro(ro_mode);
                    let n = 1 + sched.next_below(4);
                    let mut plan = Vec::new();
                    for _ in 0..n {
                        let p = pick_pair(&sched);
                        if !plan.contains(&p) {
                            plan.push(p);
                        }
                    }
                    *slot = Some(RoFlight { txn, plan, pos: 0 });
                }
                Some(mut f) => {
                    if f.pos < f.plan.len() {
                        let (s, o) = f.plan[f.pos];
                        match f.txn.read_u64(s, o) {
                            Ok(_) => {
                                ro_reads += 1;
                                f.pos += 1;
                                *slot = Some(f);
                            }
                            Err(e)
                                if e.is_retryable()
                                    || matches!(e, DbError::VersionPruned { .. }) =>
                            {
                                f.txn.finish();
                                ro_aborts += 1;
                                steps_done += 1;
                            }
                            Err(e) => {
                                violations.push(Violation {
                                    oracle: "engine_error",
                                    detail: format!("dist ro read {s:?}/{o:?} failed: {e}"),
                                });
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

        // Maintenance draws (all seeded, all replayable).
        if sched.next_below(6) == 0 {
            clock.advance(Duration::from_millis(1 + sched.next_below(8)));
        }
        if sched.next_below(16) == 0 {
            let st = cluster.resolve_in_doubt(Duration::from_millis(50));
            resolved_commit += st.resolved_commit;
            resolved_abort += st.resolved_abort;
        }
        // Crash-recover a site, but only at a global quiescent point: a
        // site's prepared (in-doubt) state is volatile, so crashing with
        // a 2PC in flight models a different fault (participant amnesia)
        // than this harness asserts about.
        if sched.next_below(48) == 0
            && rw_slots.iter().all(Option::is_none)
            && ro_slots.iter().all(Option::is_none)
            && site_ids
                .iter()
                .all(|&s| cluster.site(s).in_doubt_len() == 0)
        {
            let s = site_ids[sched.next_below(site_ids.len() as u64) as usize];
            cluster.crash_site(s);
            cluster.recover_site(s);
            site_crashes += 1;
        }
    }

    for f in rw_slots.drain(..).flatten() {
        f.txn.abort();
    }
    for f in ro_slots.drain(..).flatten() {
        f.txn.finish();
    }

    // Drain every in-doubt participant under presumed abort.
    let mut sweeps = 0;
    loop {
        let st = cluster.resolve_in_doubt(Duration::ZERO);
        resolved_commit += st.resolved_commit;
        resolved_abort += st.resolved_abort;
        if st.still_in_doubt == 0 {
            break;
        }
        sweeps += 1;
        if sweeps > 64 {
            violations.push(Violation {
                oracle: "in_doubt_stuck",
                detail: format!(
                    "{} participants still in doubt after 64 sweeps",
                    st.still_in_doubt
                ),
            });
            break;
        }
        clock.advance(Duration::from_millis(10));
    }

    // --- Terminal oracles -------------------------------------------------
    for &s in &site_ids {
        if let Err(e) = cluster.site(s).vc().validate() {
            violations.push(Violation {
                oracle: "vc_invariant",
                detail: format!("site {}: {e}", s.0),
            });
        }
    }
    let hist = cluster
        .trace_history()
        .expect("tracing is always enabled in simulation");
    let mvsg = mvcc_model::mvsg::check_tn_order(&hist);
    if !mvsg.acyclic {
        violations.push(Violation {
            oracle: "mvsg_cycle",
            detail: format!("{:?}", mvsg.cycle),
        });
    }
    for &s in &site_ids {
        for o in 0..objects {
            let got = cluster
                .site(s)
                .store()
                .read_latest(ObjectId(o))
                .1
                .as_u64()
                .unwrap_or(0);
            let want = expected[s.0 as usize - 1][o as usize];
            if got != want {
                violations.push(Violation {
                    oracle: "conservation",
                    detail: format!(
                        "site {} object {o}: latest {got} != {want} committed increments",
                        s.0
                    ),
                });
            }
        }
    }

    // --- Canonical trace --------------------------------------------------
    let mut trace = String::new();
    // 2PC span trees of every sampled transaction, replayed byte for
    // byte with the seed (thread ordinals normalized by first sight).
    let mut thread_norm: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    trace.push_str("== spans ==\n");
    for &id in &traced {
        let Some(snap) = cluster.trace_snapshot(id) else {
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
        "== counters ==\nsteps={steps_done} commits={commits} aborts={aborts} ro_reads={ro_reads} \
         ro_aborts={ro_aborts} site_crashes={site_crashes} resolved_commit={resolved_commit} \
         resolved_abort={resolved_abort} messages={}\n",
        cluster.messages()
    ));
    let fingerprint = format!("{:016x}", fnv1a(trace.as_bytes()));

    RunReport {
        spec: spec.clone(),
        steps_done,
        ticks,
        commits,
        aborts,
        stalls: 0,
        crashes: site_crashes,
        wal_aborts: 0,
        reaped: 0,
        ro_reads,
        ro_aborts,
        deadline_aborts: 0,
        violations,
        trace,
        fingerprint,
    }
}
