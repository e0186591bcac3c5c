//! Flight recorder: post-mortem JSON dumps on exceptional events.
//!
//! When something goes wrong — a deadlock victimization, a reaper
//! force-discard, a recovery, an invariant violation — the recorder dumps
//! the last N events from the bus, the victim's own event timeline, a
//! waits-for-graph snapshot (when the protocol has one), and the
//! version-control state to a JSON file. Dumps happen only when a flight
//! directory is configured; otherwise every trigger is a cheap no-op.
//! JSON is hand-rolled (the workspace's serde shim is a no-op).

use super::event::{abort_reason_name, Event, EventBus, EventKind};
use super::export::json_escape;
use super::gauges::VcView;
use super::AttrSnapshot;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a dump was taken. Becomes part of the file name and the JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A deadlock ring formed and a victim was chosen.
    Deadlock,
    /// The stall reaper force-discarded expired registrations.
    ReaperFire,
    /// The engine recovered from a checkpoint + WAL replay.
    Recovery,
    /// An engine invariant failed (e.g. `VersionControl::validate`).
    InvariantViolation,
}

impl FlightTrigger {
    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            FlightTrigger::Deadlock => "deadlock",
            FlightTrigger::ReaperFire => "reaper_fire",
            FlightTrigger::Recovery => "recovery",
            FlightTrigger::InvariantViolation => "invariant_violation",
        }
    }
}

/// Context attached to a dump beyond the event window.
#[derive(Debug, Clone, Default)]
pub struct DumpContext {
    /// The victimized actor id (lock token / tn), if any. Its full event
    /// timeline (all ring events with this id) is included in the dump.
    pub victim: Option<u64>,
    /// Free-form detail line (error text, victim description).
    pub detail: String,
    /// Waits-for graph edges `(waiter, holders)` at trigger time.
    pub waits_for: Option<Vec<(u64, Vec<u64>)>>,
    /// Version-control state at trigger time.
    pub vc: Option<VcView>,
    /// Transaction-trace id active on the triggering thread, if any —
    /// lets tooling join a post-mortem to the victim's span tree.
    pub trace_id: Option<u64>,
}

/// The recorder itself: a directory, a window size, and a dump counter.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: Option<PathBuf>,
    window: usize,
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder writing `window`-event dumps into `dir`; disabled when
    /// `dir` is `None`.
    pub fn new(dir: Option<PathBuf>, window: usize) -> FlightRecorder {
        FlightRecorder {
            dir,
            window: window.max(16),
            seq: AtomicU64::new(0),
        }
    }

    /// Whether dumps are enabled.
    pub fn armed(&self) -> bool {
        self.dir.is_some()
    }

    /// Number of dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Take a post-mortem dump. Returns the file path, or `None` when the
    /// recorder is disarmed or the write failed (dump failures must never
    /// take down the engine — they are logged to stderr and dropped).
    pub fn dump(
        &self,
        trigger: FlightTrigger,
        bus: &EventBus,
        ctx: &DumpContext,
    ) -> Option<PathBuf> {
        self.dump_with(trigger, bus, ctx, None)
    }

    /// [`dump`](Self::dump) plus the contention-attribution tables —
    /// the hot-key/hot-shard top-K and the folded blame profile — when
    /// attribution is enabled at trigger time.
    pub fn dump_with(
        &self,
        trigger: FlightTrigger,
        bus: &EventBus,
        ctx: &DumpContext,
        attr: Option<&AttrSnapshot>,
    ) -> Option<PathBuf> {
        let dir = self.dir.as_deref()?;
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let events = bus.recent(self.window);
        let json = render_dump(trigger, &events, ctx, attr);
        let path = dir.join(format!(
            "postmortem-{}-{}-{}.json",
            trigger.name(),
            std::process::id(),
            n
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| write_atomic(&path, &json)) {
            eprintln!("flight recorder: failed to write {}: {e}", path.display());
            return None;
        }
        Some(path)
    }
}

/// Write via a temp file + rename so a crash mid-dump never leaves a
/// half-written post-mortem that tooling would try to parse.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn push_event(out: &mut String, ev: &Event) {
    out.push_str(&format!(
        "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"thread\":{},\"id\":{},\"aux\":{}",
        ev.seq,
        ev.t_ns,
        ev.kind.name(),
        ev.thread,
        ev.id,
        ev.aux
    ));
    if ev.kind == EventKind::Abort {
        out.push_str(&format!(",\"reason\":\"{}\"", abort_reason_name(ev.aux)));
    }
    out.push('}');
}

fn render_dump(
    trigger: FlightTrigger,
    events: &[Event],
    ctx: &DumpContext,
    attr: Option<&AttrSnapshot>,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"trigger\": \"{}\",\n", trigger.name()));
    out.push_str(&format!(
        "  \"detail\": \"{}\",\n",
        json_escape(&ctx.detail)
    ));
    match ctx.victim {
        Some(v) => out.push_str(&format!("  \"victim\": {v},\n")),
        None => out.push_str("  \"victim\": null,\n"),
    }
    match ctx.trace_id {
        Some(t) => out.push_str(&format!("  \"trace_id\": {t},\n")),
        None => out.push_str("  \"trace_id\": null,\n"),
    }
    match &ctx.vc {
        Some(vc) => {
            out.push_str(&format!(
                "  \"vc\": {{\"tnc\":{},\"vtnc\":{},\"vtnc_lag\":{},\"queue_depth\":{},\"head_tn\":{},\"head_age_us\":{}}},\n",
                vc.tnc,
                vc.vtnc,
                vc.vtnc_lag(),
                vc.queue_depth,
                vc.head_tn.map_or("null".into(), |t| t.to_string()),
                vc.head_age_us.map_or("null".into(), |a| a.to_string()),
            ));
        }
        None => out.push_str("  \"vc\": null,\n"),
    }
    match &ctx.waits_for {
        Some(edges) => {
            out.push_str("  \"waits_for\": [");
            for (i, (waiter, holders)) in edges.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let hs: Vec<String> = holders.iter().map(|h| h.to_string()).collect();
                out.push_str(&format!(
                    "{{\"waiter\":{},\"holders\":[{}]}}",
                    waiter,
                    hs.join(",")
                ));
            }
            out.push_str("],\n");
        }
        None => out.push_str("  \"waits_for\": null,\n"),
    }
    match attr {
        Some(a) => {
            // Top 10 of each table — a post-mortem wants the worst
            // offenders, not the full export (that is profile_json).
            out.push_str("  \"hot_keys\": [");
            for (i, e) in a.hot_keys.iter().take(10).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"key\":{},\"hits\":{},\"contended_ns\":{},\"aborts\":{}}}",
                    e.key, e.hits, e.contended_ns, e.aborts
                ));
            }
            out.push_str("],\n  \"blame_folded\": [");
            for (i, r) in a.blame.rows.iter().take(10).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(&r.folded())));
            }
            out.push_str("],\n");
        }
        None => {
            out.push_str("  \"hot_keys\": null,\n  \"blame_folded\": null,\n");
        }
    }
    if let Some(victim) = ctx.victim {
        out.push_str("  \"victim_timeline\": [\n");
        let mut first = true;
        for ev in events.iter().filter(|e| e.id == victim) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    ");
            push_event(&mut out, ev);
        }
        out.push_str("\n  ],\n");
    } else {
        out.push_str("  \"victim_timeline\": [],\n");
    }
    out.push_str(&format!("  \"event_count\": {},\n", events.len()));
    out.push_str("  \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    ");
        push_event(&mut out, ev);
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_is_noop() {
        let r = FlightRecorder::new(None, 64);
        let bus = EventBus::new(64, true);
        assert!(!r.armed());
        assert!(r
            .dump(FlightTrigger::Deadlock, &bus, &DumpContext::default())
            .is_none());
        assert_eq!(r.dumps_written(), 0);
    }

    #[test]
    fn dump_contains_victim_timeline_and_waits_for() {
        let dir = std::env::temp_dir().join(format!("mvdb-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new(Some(dir.clone()), 64);
        let bus = EventBus::new(64, true);
        bus.emit(EventKind::Begin, 7, 0);
        bus.emit(EventKind::LockWait, 7, 42);
        bus.emit(EventKind::Begin, 9, 0);
        bus.emit(EventKind::Abort, 7, 2);
        let ctx = DumpContext {
            victim: Some(7),
            detail: "victim \"7\" in 2-cycle".into(),
            waits_for: Some(vec![(7, vec![9]), (9, vec![7])]),
            trace_id: Some(3),
            vc: Some(VcView {
                tnc: 3,
                vtnc: 1,
                queue_depth: 2,
                head_tn: Some(2),
                head_age_us: Some(10),
            }),
        };
        let path = r.dump(FlightTrigger::Deadlock, &bus, &ctx).expect("dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trigger\": \"deadlock\""));
        assert!(text.contains("\"victim\": 7"));
        assert!(text.contains("\"trace_id\": 3"));
        assert!(text.contains("\"reason\":\"deadlock\""));
        assert!(text.contains("{\"waiter\":7,\"holders\":[9]}"));
        assert!(text.contains("\"vtnc_lag\":2"));
        assert!(text.contains("victim \\\"7\\\" in 2-cycle"));
        // Victim timeline has exactly the three events with id 7.
        let timeline = text.split("\"victim_timeline\"").nth(1).unwrap();
        let timeline = timeline.split("\"event_count\"").next().unwrap();
        assert_eq!(timeline.matches("\"id\":7").count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_with_attribution_includes_tables() {
        use crate::obs::{blame::TxnPhase, blame::WaitPoint, Attribution};
        let dir = std::env::temp_dir().join(format!("mvdb-obs-attr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new(Some(dir.clone()), 64);
        let bus = EventBus::new(64, true);
        let attr = Attribution::new();
        attr.topk().record_key(42, 900, true);
        attr.blame().set_phase(5, TxnPhase::Validate);
        attr.blame().record(WaitPoint::LockWait, 42, 5, 900);
        let snap = attr.snapshot();
        let path = r
            .dump_with(
                FlightTrigger::Deadlock,
                &bus,
                &DumpContext::default(),
                Some(&snap),
            )
            .expect("dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"hot_keys\": [{\"key\":42,"));
        assert!(text.contains("lock_wait;blocker_validate;target_42 900"));
        // And without attribution the sections are null, not absent.
        let plain = r
            .dump(FlightTrigger::Deadlock, &bus, &DumpContext::default())
            .expect("dump");
        let text = std::fs::read_to_string(&plain).unwrap();
        assert!(text.contains("\"hot_keys\": null"));
        assert!(text.contains("\"blame_folded\": null"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
