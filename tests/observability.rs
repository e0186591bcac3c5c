//! End-to-end observability tests: flight-recorder post-mortems on a
//! forced deadlock and on a reaper force-discard, and exporter output
//! shape. These drive the real engine — the unit tests in
//! `crates/core/src/obs/` cover the pieces in isolation.

use mvdb::cc::presets;
use mvdb::core::prelude::*;
use mvdb::core::FaultConfig;
use std::path::PathBuf;
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

/// Fresh per-test flight directory under the system temp dir.
fn flight_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvdb-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Read every post-mortem written for `trigger` in `dir`.
fn postmortems(dir: &PathBuf, trigger: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&format!("postmortem-{trigger}-")) && name.ends_with(".json") {
            out.push(std::fs::read_to_string(entry.path()).unwrap());
        }
    }
    out
}

/// Minimal well-formedness check for the hand-rolled JSON: braces and
/// brackets balance and never go negative outside string literals.
fn assert_balanced_json(text: &str) {
    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_str = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_str {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            if c != '\\' {
                escaped = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        assert!(braces >= 0 && brackets >= 0, "unbalanced JSON:\n{text}");
    }
    assert_eq!(braces, 0, "unbalanced braces:\n{text}");
    assert_eq!(brackets, 0, "unbalanced brackets:\n{text}");
    assert!(!in_str, "unterminated string:\n{text}");
}

/// Two writers acquire the same two objects in opposite order; the 2PL
/// waits-for graph detects the cycle and victimizes one. The armed
/// flight recorder must dump a post-mortem containing the victim's event
/// timeline and the waits-for snapshot.
#[test]
fn forced_deadlock_writes_postmortem() {
    let dir = flight_dir("deadlock");
    let db = presets::vc_2pl(
        DbConfig::default()
            .with_events()
            .with_flight_dir(dir.clone()),
    );
    db.seed(ObjectId(0), Value::from_u64(0));
    db.seed(ObjectId(1), Value::from_u64(0));

    let barrier = Barrier::new(2);
    thread::scope(|scope| {
        for (first, second) in [(0u64, 1u64), (1u64, 0u64)] {
            let db = &db;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut txn = db.begin_read_write().unwrap();
                txn.write(ObjectId(first), Value::from_u64(first + 10))
                    .unwrap();
                // Both hold their first lock before requesting the second:
                // the lock-order inversion is now guaranteed.
                barrier.wait();
                match txn.write(ObjectId(second), Value::from_u64(second + 10)) {
                    Ok(()) => {
                        let _ = txn.commit();
                    }
                    Err(_) => txn.abort(),
                }
            });
        }
    });

    assert!(
        db.metrics().aborts_deadlock >= 1,
        "the lock-order inversion must victimize someone"
    );
    assert_eq!(db.obs().recorder().dumps_written(), 1);
    let dumps = postmortems(&dir, "deadlock");
    assert_eq!(dumps.len(), 1, "exactly one deadlock post-mortem");
    let text = &dumps[0];
    assert_balanced_json(text);
    assert!(text.contains("\"trigger\": \"deadlock\""));
    assert!(!text.contains("\"victim\": null"), "victim must be named");
    // Waits-for snapshot: the victim was waiting on the survivor.
    assert!(text.contains("\"waiter\":"), "waits_for edges missing");
    assert!(text.contains("\"holders\":["));
    // Victim timeline: at least its Begin and the lock wait that closed
    // the cycle, all carrying the victim's id.
    let timeline = text
        .split("\"victim_timeline\"")
        .nth(1)
        .and_then(|t| t.split("\"event_count\"").next())
        .expect("victim_timeline section");
    assert!(
        timeline.contains("\"kind\":\"begin\""),
        "victim's begin missing from timeline: {timeline}"
    );
    assert!(
        timeline.contains("\"kind\":\"lock_wait\""),
        "victim's blocking lock wait missing from timeline: {timeline}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that stalls right after `VCregister` pins `vtnc`; once its
/// TTL expires, `reap_stalled` force-discards it and must dump a
/// post-mortem naming the reaped tn with its full event timeline.
#[test]
fn reaper_force_discard_writes_postmortem() {
    const TTL: Duration = Duration::from_millis(20);
    let dir = flight_dir("reaper");
    let mut cfg = DbConfig::default()
        .with_events()
        .with_flight_dir(dir.clone())
        .with_register_ttl(TTL)
        .with_fault(FaultConfig {
            seed: 7,
            stall_after_register: 1.0,
            ..Default::default()
        });
    // Shift 0: publish every event — the assertions below require the
    // sampled-tier `register` publish in the victim timeline.
    cfg.obs.event_sample_shift = 0;
    let db = presets::vc_to(cfg);
    db.seed(ObjectId(0), Value::from_u64(0));

    let err = db
        .run_read_write(&[OpSpec::Write(ObjectId(0), Value::from_u64(1))])
        .unwrap_err();
    assert!(
        matches!(err, DbError::Internal(_)),
        "stall expected: {err:?}"
    );
    assert_eq!(db.vc().lag(), 1, "the stalled registration pins vtnc");

    thread::sleep(TTL + Duration::from_millis(5));
    let reaped = db.reap_stalled();
    assert_eq!(reaped.len(), 1);

    let dumps = postmortems(&dir, "reaper_fire");
    assert_eq!(dumps.len(), 1, "exactly one reaper post-mortem");
    let text = &dumps[0];
    assert_balanced_json(text);
    assert!(text.contains("\"trigger\": \"reaper_fire\""));
    assert!(text.contains(&format!("\"victim\": {}", reaped[0])));
    assert!(text.contains(&format!("force-discarded tns [{}]", reaped[0])));
    // The reaped transaction's timeline must show the registration it
    // never completed, and the reaper firing on it.
    let timeline = text
        .split("\"victim_timeline\"")
        .nth(1)
        .and_then(|t| t.split("\"event_count\"").next())
        .expect("victim_timeline section");
    assert!(
        timeline.contains("\"kind\":\"register\""),
        "stalled registration missing from timeline: {timeline}"
    );
    assert!(
        timeline.contains("\"kind\":\"reaper_fire\""),
        "forced discard missing from timeline: {timeline}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Exporter output parses: Prometheus text exposition (every sample line
/// is `name value` with a numeric value) and the JSON snapshot.
#[test]
fn exporters_render_parseable_output() {
    let db = presets::vc_2pl(DbConfig::default().with_events());
    db.seed(ObjectId(0), Value::from_u64(0));
    for i in 0..5u64 {
        db.run_rw(10, |t| t.write(ObjectId(0), Value::from_u64(i)))
            .unwrap();
    }
    let mut r = db.begin_read_only();
    let _ = r.read_u64(ObjectId(0)).unwrap();
    r.finish();

    let prom = db.prometheus_text();
    assert!(prom.contains("# TYPE mvdb_rw_committed counter"));
    assert!(prom.contains("mvdb_rw_committed 5"));
    assert!(prom.contains("# TYPE mvdb_gauge_vtnc gauge"));
    assert!(prom.contains("mvdb_phase_register_to_complete_ns_count"));
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("metric name");
        let value = parts.next().expect("metric value");
        assert!(parts.next().is_none(), "extra tokens on line: {line}");
        assert!(name.starts_with("mvdb_"), "unprefixed metric name: {line}");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value: {line}"
        );
    }

    let json = db.metrics_json();
    assert_balanced_json(&json);
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"gauges\""));
    assert!(json.contains("\"phases\""));
    assert!(json.contains("\"rw_committed\": 5"));
    assert!(json.contains("\"vtnc\": 5"));
}

// ---- end-to-end transaction tracing -----------------------------------

/// One explicitly traced commit yields a well-formed span tree: a single
/// root, an `attempt` span carrying the commit outcome, and a `vc_queue`
/// span closed with outcome "complete" — and both exporters render it.
#[test]
fn traced_commit_produces_single_rooted_span_tree() {
    let db = presets::vc_2pl(DbConfig::default().with_events());
    db.seed(ObjectId(0), Value::from_u64(0));

    let ctx = db.start_trace();
    let opts = TxnOptions::default().with_trace(ctx);
    let mut txn = db.begin_read_write_with(&opts).unwrap();
    txn.write(ObjectId(0), Value::from_u64(1)).unwrap();
    assert_eq!(txn.trace_id(), Some(ctx.trace_id));
    let tn = txn.commit().unwrap();

    let snap = db.trace_snapshot(ctx.trace_id).expect("trace retained");
    snap.validate().expect("well-formed span tree");
    assert_eq!(snap.dropped_spans, 0);

    let attempt = snap
        .spans
        .iter()
        .find(|s| s.name == "attempt")
        .expect("attempt span");
    assert!(attempt.attrs.contains(&("committed", 1)));
    assert!(attempt.attrs.contains(&("tn", tn)));

    let vc = snap
        .spans
        .iter()
        .find(|s| s.name == "vc_queue")
        .expect("vc_queue span");
    assert_eq!(vc.parent, attempt.span_id, "queue residency under attempt");
    assert!(vc.attrs.contains(&("tn", tn)));
    assert!(vc.attrs.contains(&("outcome", 0)), "0 = completed");

    let chrome = db.trace_chrome_json(ctx.trace_id).unwrap();
    assert_balanced_json(&chrome);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"attempt\""));

    // Unknown ids export nothing rather than an empty document.
    assert!(db.trace_snapshot(0xdead_beef).is_none());
}

/// A deadlock victim retried by the runner: every attempt lands in ONE
/// trace — the aborted attempt (with its fatal `lock_wait`), the backoff
/// sleep, and the committed attempt — and the flight-recorder post-mortem
/// written at the deadlock names the victim's trace id.
#[test]
fn retry_attempts_share_one_trace_and_postmortem_names_it() {
    use mvdb::core::retry::RetryPolicy;
    use std::sync::atomic::{AtomicU32, Ordering};

    let dir = flight_dir("traced-deadlock");
    let db = presets::vc_2pl(
        DbConfig::default()
            .with_events()
            .with_flight_dir(dir.clone()),
    );
    db.seed(ObjectId(0), Value::from_u64(0));
    db.seed(ObjectId(1), Value::from_u64(0));

    let traces = [db.start_trace(), db.start_trace()];
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(1),
        jitter: 0.0,
        seed: 0,
    };
    let barrier = Barrier::new(2);
    thread::scope(|scope| {
        for (i, (first, second)) in [(0u64, 1u64), (1u64, 0u64)].into_iter().enumerate() {
            let db = &db;
            let barrier = &barrier;
            let policy = &policy;
            let opts = TxnOptions::default().with_trace(traces[i]);
            scope.spawn(move || {
                let tries = AtomicU32::new(0);
                db.run_rw_deadline(policy, &opts, |t| {
                    t.write(ObjectId(first), Value::from_u64(first + 10))?;
                    // Only the first attempt synchronizes: the retry must
                    // run free or it would deadlock against nobody.
                    if tries.fetch_add(1, Ordering::Relaxed) == 0 {
                        barrier.wait();
                    }
                    t.write(ObjectId(second), Value::from_u64(second + 10))
                })
                .unwrap();
            });
        }
    });
    assert!(db.metrics().aborts_deadlock >= 1);

    // Exactly one side was victimized; find its trace.
    let snaps: Vec<_> = traces
        .iter()
        .map(|t| db.trace_snapshot(t.trace_id).expect("trace retained"))
        .collect();
    for s in &snaps {
        s.validate().expect("well-formed span tree");
    }
    let victim = snaps
        .iter()
        .find(|s| {
            s.spans
                .iter()
                .any(|sp| sp.name == "attempt" && sp.attrs.contains(&("committed", 0)))
        })
        .expect("one trace holds the aborted attempt");
    let attempts: Vec<_> = victim
        .spans
        .iter()
        .filter(|s| s.name == "attempt")
        .collect();
    assert!(
        attempts.len() >= 2,
        "aborted + retried attempt in one trace"
    );
    assert!(
        attempts.iter().any(|a| a.attrs.contains(&("committed", 1))),
        "the retry eventually committed"
    );
    assert!(
        attempts
            .iter()
            .any(|a| a.attrs.iter().any(|&(k, _)| k == "abort_reason")),
        "aborted attempt records its reason"
    );
    assert!(
        victim.spans.iter().any(|s| s.name == "backoff"),
        "backoff sleep between attempts is a span"
    );
    assert!(
        victim
            .spans
            .iter()
            .any(|s| s.name == "lock_wait" && s.attrs.contains(&("deadlock", 1))),
        "the fatal lock wait that closed the cycle is in the victim's trace"
    );

    // The post-mortem written at the deadlock carries the victim's id.
    let dumps = postmortems(&dir, "deadlock");
    assert_eq!(dumps.len(), 1);
    assert!(
        dumps[0].contains(&format!("\"trace_id\": {}", victim.trace_id)),
        "post-mortem must name the victim's trace: {}",
        &dumps[0][..dumps[0].len().min(400)]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A registration force-discarded by the reaper: the `vc_queue` span is
/// closed by the *reaper thread* (no frame on its stack) with outcome
/// "reaped", so the trace still explains where the transaction died.
#[test]
fn reaper_closes_vc_queue_span_with_reaped_outcome() {
    const TTL: Duration = Duration::from_millis(20);
    let db = presets::vc_to(DbConfig::default().with_events().with_register_ttl(TTL));
    db.seed(ObjectId(0), Value::from_u64(0));

    let ctx = db.start_trace();
    let opts = TxnOptions::default().with_trace(ctx);
    // The client hangs right after begin: under TO the registration is
    // already in the VC queue, pinning vtnc until the reaper fires.
    let txn = db.begin_read_write_with(&opts).unwrap();
    txn.stall();
    assert_eq!(db.vc().lag(), 1, "the stalled registration pins vtnc");

    thread::sleep(TTL + Duration::from_millis(5));
    let reaped = db.reap_stalled();
    assert_eq!(reaped.len(), 1);

    let snap = db.trace_snapshot(ctx.trace_id).unwrap();
    snap.validate().expect("well-formed span tree");
    let vc = snap
        .spans
        .iter()
        .find(|s| s.name == "vc_queue")
        .expect("vc_queue span closed by the reaper");
    assert!(vc.attrs.contains(&("tn", reaped[0])));
    assert!(vc.attrs.contains(&("outcome", 2)), "2 = reaped");
}

/// Distributed 2PC under an explicit trace: prepare, the decision point
/// and one commit leg per participant all land as spans in one tree, and
/// an abort records its own span.
#[test]
fn two_pc_commit_and_abort_render_as_span_trees() {
    use mvdb::dist::{Cluster, SiteId};

    let c = Cluster::new(2);
    let ctx = c.start_trace();
    let opts = TxnOptions::default().with_trace(ctx);
    let mut t = c.begin_rw_with(&opts);
    t.write(SiteId(1), ObjectId(0), Value::from_u64(1)).unwrap();
    t.write(SiteId(2), ObjectId(0), Value::from_u64(2)).unwrap();
    t.commit().unwrap();

    let snap = c.trace_snapshot(ctx.trace_id).unwrap();
    snap.validate().expect("well-formed span tree");
    let count = |name: &str| snap.spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("2pc_prepare"), 1);
    assert_eq!(count("2pc_decide"), 1);
    assert_eq!(count("2pc_commit_leg"), 2, "one leg per participant");
    let mut leg_sites: Vec<u64> = snap
        .spans
        .iter()
        .filter(|s| s.name == "2pc_commit_leg")
        .map(|s| s.attrs.iter().find(|&&(k, _)| k == "site").unwrap().1)
        .collect();
    leg_sites.sort_unstable();
    assert_eq!(leg_sites, vec![1, 2]);
    assert!(snap
        .spans
        .iter()
        .filter(|s| s.name == "2pc_commit_leg")
        .all(|s| s.attrs.contains(&("deliveries", 1))));
    let chrome = c.trace_chrome_json(ctx.trace_id).unwrap();
    assert_balanced_json(&chrome);
    assert!(chrome.contains("\"2pc_prepare\""));

    // Abort path: rollback across sites is one span.
    let ctx2 = c.start_trace();
    let opts2 = TxnOptions::default().with_trace(ctx2);
    let mut t2 = c.begin_rw_with(&opts2);
    t2.write(SiteId(1), ObjectId(1), Value::from_u64(9))
        .unwrap();
    t2.abort();
    let snap2 = c.trace_snapshot(ctx2.trace_id).unwrap();
    snap2.validate().expect("well-formed span tree");
    assert_eq!(
        snap2.spans.iter().filter(|s| s.name == "2pc_abort").count(),
        1
    );
    assert_eq!(
        snap2
            .spans
            .iter()
            .filter(|s| s.name == "2pc_prepare")
            .count(),
        0
    );
}

// ---- contention attribution -------------------------------------------

/// With attribution off, `profile_json` is fully static — pinned by a golden file so the schema (and its
/// `schema_version` stamp) cannot drift silently.
#[test]
fn profile_json_matches_golden_when_disabled() {
    let db = presets::vc_2pl(DbConfig::default());
    assert_eq!(
        db.profile_json(),
        include_str!("golden/profile_disabled.json"),
        "profile_json schema drifted; update tests/golden/profile_disabled.json \
         and bump SCHEMA_VERSION if the change is real"
    );
    let json = db.metrics_json();
    assert!(
        json.contains("\"schema_version\": 5"),
        "metrics_json must lead with the schema version: {json}"
    );
}

/// A forced lock conflict on one key surfaces that key in the hot-key
/// sketch with non-zero contended time, and the blame ledger attributes
/// the wait to the holder's token with a named phase.
#[test]
fn attribution_names_hot_key_and_blocker() {
    use std::sync::Arc;
    let db = Arc::new(presets::vc_2pl(DbConfig::default().with_attribution()));
    db.seed(ObjectId(5), Value::from_u64(0));
    let mut t1 = db.begin_read_write().unwrap();
    t1.write(ObjectId(5), Value::from_u64(1)).unwrap();
    let db2 = Arc::clone(&db);
    let h = thread::spawn(move || {
        let mut t2 = db2.begin_read_write().unwrap();
        t2.write(ObjectId(5), Value::from_u64(2)).unwrap();
        t2.commit().unwrap();
    });
    // Let the second writer block on the exclusive lock, then release.
    thread::sleep(Duration::from_millis(50));
    t1.commit().unwrap();
    h.join().unwrap();

    let profile = db.profile_json();
    assert_balanced_json(&profile);
    assert!(profile.contains("\"schema_version\": 5"));
    assert!(
        profile.contains("\"key\": 5"),
        "hot-key sketch must name the contended object: {profile}"
    );
    assert!(
        profile.contains("\"wait\": \"lock_wait\""),
        "blame ledger must carry the lock-wait row: {profile}"
    );
    assert!(
        profile.contains("\"target\": 5"),
        "the blame row must name the contended object: {profile}"
    );
    // The blocker (t1's token) was published in the phase table, so the
    // wait must not land on the unknown phase.
    assert!(
        !profile.contains("\"blocker_phase\": \"unknown\""),
        "lock wait should be attributed to a known blocker phase: {profile}"
    );

    let prom = db.prometheus_text();
    assert!(prom.contains("mvdb_hot_key_contended_ns_total{key=\"5\"}"));
    assert!(prom.contains("mvdb_hot_key_aborts_total{key=\"5\"}"));
    assert!(prom.contains("# TYPE mvdb_blame_wait_ns_total counter"));
    assert!(prom.contains("mvdb_blame_attributed_ns_total{wait=\"lock_wait\"}"));
}

/// With attribution on, the Prometheus export still carries the
/// version-control queue gauges next to the attribution families.
#[test]
fn attribution_keeps_vcqueue_gauges() {
    let db = presets::vc_2pl(DbConfig::default().with_attribution());
    db.seed(ObjectId(0), Value::from_u64(0));
    for i in 0..4u64 {
        db.run_rw(10, |t| t.write(ObjectId(0), Value::from_u64(i)))
            .unwrap();
    }
    let profile = db.profile_json();
    assert_balanced_json(&profile);
    let prom = db.prometheus_text();
    assert!(prom.contains("mvdb_gauge_vcqueue_depth"));
}

/// Fidelity of contention attribution on a skewed workload: 2PL writers
/// draw 4 distinct keys from Zipf(1.2) over 1024 objects, so ranks 0..5
/// are the planted hot keys. The hot-key sketch must rank every planted
/// key in its top 10 by contended nanoseconds, and the blame ledger must
/// attribute ≥ 90 % of lock-wait time to a named blocker.
///
/// Each writer locks its keys in ascending order and then sleeps 100 µs
/// holding them, so lock-wait time is holders' sleep, not CPU time. With
/// CPU-bound writers on fewer cores than threads, a lock holder's lost
/// timeslice dominates the ranking instead: a cold key with two waits can
/// collect more wait time than rank 4 with thirty-seven.
#[test]
fn attribution_ranks_planted_hot_keys_and_names_lock_blockers() {
    use mvdb::core::WaitPoint;
    use mvdb::workload::{KeyDist, KeySampler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Instant;

    const OBJECTS: u64 = 1024;
    const PLANTED: u64 = 5;
    let db = presets::vc_2pl(DbConfig::default().with_attribution());
    for k in 0..OBJECTS {
        db.seed(ObjectId(k), Value::from_u64(0));
    }
    let sampler = KeySampler::new(KeyDist::Zipf { theta: 1.2 }, OBJECTS);
    let deadline = Instant::now() + Duration::from_millis(300);
    thread::scope(|s| {
        for seed in 0..8u64 {
            let (db, sampler) = (&db, &sampler);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(19 + seed);
                while Instant::now() < deadline {
                    let mut keys = sampler.sample_distinct(&mut rng, 4);
                    keys.sort_unstable();
                    db.run_rw(100, |t| {
                        for &k in &keys {
                            t.write(ObjectId(k), Value::from_u64(seed))?;
                        }
                        thread::sleep(Duration::from_micros(100));
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });

    let attr = db.obs().attr().expect("attribution enabled").clone();
    let blame = attr.blame().snapshot();
    assert!(
        blame.samples[WaitPoint::LockWait as usize] > 0,
        "zipfian hotspot produced no lock waits at all"
    );
    let top10 = attr.topk().hot_keys(10);
    for planted in 0..PLANTED {
        assert!(
            top10.iter().any(|e| e.key == planted),
            "planted key {planted} missing from top10 {top10:?}"
        );
    }
    let ratio = blame.attributed_ratio(WaitPoint::LockWait);
    assert!(
        ratio >= 0.9,
        "only {:.1}% of lock-wait time attributed",
        ratio * 100.0
    );
}
