//! Exporters: Prometheus text, JSON snapshots, and trace JSON.
//!
//! All emitters are pure functions over snapshots — counters from
//! [`MetricsSnapshot::fields`], gauges from [`GaugeSample::fields`],
//! per-phase latency histograms from [`PhaseSnapshot`], per-kind event
//! counts from [`EventCounts`], and span trees from [`TraceSnapshot`] —
//! so they can run from a reporter hook, a test, or an end-of-run dump
//! without touching engine internals. JSON is hand-rolled: the
//! workspace's vendored serde shim is a no-op.
//!
//! The Prometheus output is conformant text exposition: every family has
//! `# HELP`/`# TYPE`, and phase latencies are true histograms with
//! cumulative `le` buckets ending in `+Inf` (equal to `_count`).
//! [`parse_exposition`] is a strict validator used by the round-trip
//! tests and CI.

use super::blame::WaitPoint;
use super::event::{EventKind, KIND_COUNT};
use super::gauges::GaugeSample;
use super::phases::PhaseSnapshot;
use super::topk::SketchEntry;
use super::trace::TraceSnapshot;
use super::AttrSnapshot;
use crate::metrics::MetricsSnapshot;
use mvcc_storage::Histogram;

/// Version of the JSON shapes emitted by [`json_snapshot`] and
/// [`profile_json`]. Bumped whenever a key is added, removed, or
/// renamed, so downstream scrapers can detect shape changes.
pub const SCHEMA_VERSION: u64 = 5;

/// Per-kind event counters plus the published total, for exporters.
#[derive(Debug, Clone, Default)]
pub struct EventCounts {
    /// Exact emit count per kind (sampling-independent).
    pub counts: [u64; KIND_COUNT],
    /// Events published into the ring (post-sampling).
    pub published: u64,
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Append one phase histogram as a conformant Prometheus histogram:
/// cumulative `le` buckets (inclusive upper bounds from the log₂
/// bucketing) up to the highest occupied bucket, then `+Inf`, `_sum`,
/// `_count`.
fn push_histogram(out: &mut String, base: &str, h: &Histogram) {
    out.push_str(&format!(
        "# HELP {base} engine phase latency (ns)\n# TYPE {base} histogram\n"
    ));
    let counts = h.bucket_counts();
    let highest = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate().take(highest + 1) {
        cum += c;
        out.push_str(&format!(
            "{base}_bucket{{le=\"{}\"}} {cum}\n",
            Histogram::bucket_upper_bound(i)
        ));
    }
    out.push_str(&format!("{base}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{base}_sum {}\n", h.sum_ns()));
    out.push_str(&format!("{base}_count {}\n", h.count()));
}

/// Render everything in the Prometheus text exposition format
/// (`# HELP`/`# TYPE` headers, `mvdb_`-prefixed metric names, phase
/// latencies as cumulative-bucket histograms, per-kind event counters).
pub fn prometheus_text(
    metrics: &MetricsSnapshot,
    gauges: Option<&GaugeSample>,
    phases: Option<&PhaseSnapshot>,
    events: Option<&EventCounts>,
    attr: Option<&AttrSnapshot>,
) -> String {
    let mut out = String::with_capacity(8192);
    for (name, value) in metrics.fields() {
        out.push_str(&format!(
            "# HELP mvdb_{name} engine counter\n# TYPE mvdb_{name} counter\nmvdb_{name} {value}\n"
        ));
    }
    if let Some(g) = gauges {
        for (name, value) in g.fields() {
            out.push_str(&format!(
                "# HELP mvdb_gauge_{name} engine gauge\n# TYPE mvdb_gauge_{name} gauge\nmvdb_gauge_{name} {value}\n"
            ));
        }
    }
    if let Some(e) = events {
        out.push_str(
            "# HELP mvdb_events_total events emitted per kind (exact, sampling-independent)\n\
             # TYPE mvdb_events_total counter\n",
        );
        for kind in EventKind::all() {
            out.push_str(&format!(
                "mvdb_events_total{{kind=\"{}\"}} {}\n",
                kind.name(),
                e.counts[kind as usize]
            ));
        }
        out.push_str(&format!(
            "# HELP mvdb_events_published_total events published into the ring (post-sampling)\n\
             # TYPE mvdb_events_published_total counter\n\
             mvdb_events_published_total {}\n",
            e.published
        ));
    }
    if let Some(p) = phases {
        for (phase, h) in p.phases() {
            push_histogram(&mut out, &format!("mvdb_phase_{phase}_ns"), h);
        }
    }
    if let Some(a) = attr {
        push_sketch_family(&mut out, "mvdb_hot_key", "key", &a.hot_keys);
        push_sketch_family(&mut out, "mvdb_hot_shard", "shard", &a.hot_shards);
        out.push_str(
            "# HELP mvdb_blame_wait_ns_total blocked ns by wait point and blocker phase\n\
             # TYPE mvdb_blame_wait_ns_total counter\n",
        );
        // Aggregate rows by (wait, phase): one sample per label set.
        let mut by_pair: std::collections::BTreeMap<(&str, &str), u64> =
            std::collections::BTreeMap::new();
        for r in &a.blame.rows {
            *by_pair
                .entry((r.wait.name(), r.blocker_phase.name()))
                .or_default() += r.wait_ns;
        }
        for ((wait, phase), ns) in by_pair {
            out.push_str(&format!(
                "mvdb_blame_wait_ns_total{{wait=\"{wait}\",blocker_phase=\"{phase}\"}} {ns}\n"
            ));
        }
        for (name, help, values) in [
            (
                "mvdb_blame_attributed_ns_total",
                "blocked ns attributed to a named blocker",
                &a.blame.attributed_ns,
            ),
            (
                "mvdb_blame_unattributed_ns_total",
                "blocked ns with no blocker identity",
                &a.blame.unattributed_ns,
            ),
            (
                "mvdb_blame_samples_total",
                "completed waits recorded",
                &a.blame.samples,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (i, v) in values.iter().enumerate() {
                out.push_str(&format!("{name}{{wait=\"{}\"}} {v}\n", wait_point_name(i)));
            }
        }
    }
    out
}

fn wait_point_name(i: usize) -> &'static str {
    [
        WaitPoint::LockWait,
        WaitPoint::PendingWait,
        WaitPoint::VisibilityWait,
    ][i]
        .name()
}

/// Append one top-K sketch as three labeled counter families:
/// `{base}_contended_ns_total`, `{base}_hits_total`, `{base}_aborts_total`.
fn push_sketch_family(out: &mut String, base: &str, label: &str, entries: &[SketchEntry]) {
    for (suffix, help, get) in [
        (
            "contended_ns_total",
            "ns spent blocked, by hottest",
            (|e: &SketchEntry| e.contended_ns) as fn(&SketchEntry) -> u64,
        ),
        ("hits_total", "contention encounters", |e: &SketchEntry| {
            e.hits
        }),
        ("aborts_total", "contention aborts", |e: &SketchEntry| {
            e.aborts
        }),
    ] {
        out.push_str(&format!(
            "# HELP {base}_{suffix} {help}\n# TYPE {base}_{suffix} counter\n"
        ));
        for e in entries {
            out.push_str(&format!(
                "{base}_{suffix}{{{label}=\"{}\"}} {}\n",
                e.key,
                get(e)
            ));
        }
    }
}

/// Strictly validate Prometheus text exposition, as produced by
/// [`prometheus_text`]. Checks line syntax, metric/label name charsets,
/// numeric values, `# TYPE` present before a family's first sample, and
/// histogram conformance (cumulative non-decreasing buckets ending in a
/// `+Inf` bucket equal to `_count`). Returns the number of sample lines.
pub fn parse_exposition(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // family name -> declared type
    let mut types: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    // histogram family -> (bucket cumulative counts in order, count value)
    type HistState = (Vec<(String, f64)>, Option<f64>);
    let mut hists: std::collections::BTreeMap<String, HistState> =
        std::collections::BTreeMap::new();
    let mut samples = 0usize;

    let family_of = |name: &str, types: &std::collections::BTreeMap<String, String>| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                if let Some(t) = types.get(stripped) {
                    if t == "histogram" || t == "summary" {
                        return stripped.to_string();
                    }
                }
            }
        }
        name.to_string()
    };

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let keyword = it.next().unwrap_or("");
            let name = it.next().unwrap_or("");
            let payload = it.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&payload) {
                        return Err(format!("line {n}: unknown TYPE {payload:?}"));
                    }
                    if types
                        .insert(name.to_string(), payload.to_string())
                        .is_some()
                    {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comment must start with '# '"));
        }
        // Sample line: name[{labels}] value
        let (ident, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value: {line:?}"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: bad value {v:?}"))?,
        };
        let (name, labels) = match ident.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (ident, None),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let mut le: Option<String> = None;
        if let Some(labels) = labels {
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: bad label pair {pair:?}"))?;
                if !valid_name(k) {
                    return Err(format!("line {n}: bad label name {k:?}"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: unquoted label value {v:?}"))?;
                if k == "le" {
                    le = Some(v.to_string());
                }
            }
        }
        let family = family_of(name, &types);
        let declared = types
            .get(&family)
            .ok_or_else(|| format!("line {n}: sample {name} before its # TYPE"))?;
        if declared == "histogram" {
            let entry = hists.entry(family.clone()).or_default();
            if name.ends_with("_bucket") {
                let le = le.ok_or_else(|| format!("line {n}: histogram bucket without le"))?;
                entry.0.push((le, value));
            } else if name.ends_with("_count") {
                entry.1 = Some(value);
            }
        }
        samples += 1;
    }
    for (family, (buckets, count)) in &hists {
        if buckets.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        let mut prev = f64::NEG_INFINITY;
        let mut prev_bound = f64::NEG_INFINITY;
        for (le, cum) in buckets {
            let bound: f64 = match le.as_str() {
                "+Inf" => f64::INFINITY,
                v => v
                    .parse()
                    .map_err(|_| format!("histogram {family}: bad le {v:?}"))?,
            };
            if bound <= prev_bound {
                return Err(format!("histogram {family}: le ladder not increasing"));
            }
            if *cum < prev {
                return Err(format!("histogram {family}: buckets not cumulative"));
            }
            prev = *cum;
            prev_bound = bound;
        }
        let (last_le, last_cum) = buckets.last().unwrap();
        if last_le != "+Inf" {
            return Err(format!("histogram {family}: missing +Inf bucket"));
        }
        match count {
            Some(c) if c == last_cum => {}
            Some(c) => {
                return Err(format!(
                    "histogram {family}: +Inf bucket {last_cum} != _count {c}"
                ))
            }
            None => return Err(format!("histogram {family}: missing _count")),
        }
    }
    Ok(samples)
}

/// Render everything as one JSON object:
/// `{"schema_version":N,"counters":{...},"gauges":{...}|null,"phases":{...}|null,"events":{...}|null}`.
pub fn json_snapshot(
    metrics: &MetricsSnapshot,
    gauges: Option<&GaugeSample>,
    phases: Option<&PhaseSnapshot>,
    events: Option<&EventCounts>,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"counters\": {{"
    ));
    for (i, (name, value)) in metrics.fields().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {value}"));
    }
    out.push_str("\n  },\n  \"gauges\": ");
    match gauges {
        Some(g) => {
            out.push('{');
            for (i, (name, value)) in g.fields().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    \"{name}\": {value}"));
            }
            out.push_str("\n  }");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"phases\": ");
    match phases {
        Some(p) => {
            out.push('{');
            for (i, (phase, h)) in p.phases().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    \"{phase}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                    h.count(),
                    h.sum_ns(),
                    h.p50().as_nanos(),
                    h.p99().as_nanos(),
                    h.max().as_nanos()
                ));
            }
            out.push_str("\n  }");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"events\": ");
    match events {
        Some(e) => {
            out.push('{');
            out.push_str("\n    \"counts\": {");
            for (i, kind) in EventKind::all().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      \"{}\": {}",
                    kind.name(),
                    e.counts[kind as usize]
                ));
            }
            out.push_str(&format!(
                "\n    }},\n    \"published\": {}\n  }}",
                e.published
            ));
        }
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    out
}

fn push_sketch_entries(out: &mut String, entries: &[SketchEntry], indent: &str) {
    out.push('[');
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{indent}  {{\"key\": {}, \"hits\": {}, \"contended_ns\": {}, \"aborts\": {}}}",
            e.key, e.hits, e.contended_ns, e.aborts
        ));
    }
    if !entries.is_empty() {
        out.push('\n');
        out.push_str(indent);
    }
    out.push(']');
}

fn push_wait_point_array(out: &mut String, values: &[u64; super::blame::WAIT_POINTS]) {
    out.push('{');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {v}", wait_point_name(i)));
    }
    out.push('}');
}

/// Render the contention-attribution profile as one JSON object. `attr`
/// is `None` when attribution is disabled:
/// `{"schema_version":N,"attribution":{...}|null}`.
///
/// The blame profile carries each folded row both structured and in
/// pprof "folded" form (`wait;blocker_phase;target wait_ns`), so
/// flame-graph tooling can consume `rows[].folded` directly.
pub fn profile_json(attr: Option<&AttrSnapshot>) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"attribution\": "
    ));
    match attr {
        Some(a) => {
            out.push_str("{\n    \"hot_keys\": ");
            push_sketch_entries(&mut out, &a.hot_keys, "    ");
            out.push_str(",\n    \"hot_shards\": ");
            push_sketch_entries(&mut out, &a.hot_shards, "    ");
            out.push_str(",\n    \"blame\": {\n      \"samples\": ");
            push_wait_point_array(&mut out, &a.blame.samples);
            out.push_str(",\n      \"attributed_ns\": ");
            push_wait_point_array(&mut out, &a.blame.attributed_ns);
            out.push_str(",\n      \"unattributed_ns\": ");
            push_wait_point_array(&mut out, &a.blame.unattributed_ns);
            out.push_str(",\n      \"rows\": [");
            for (i, r) in a.blame.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {{\"wait\": \"{}\", \"blocker_phase\": \"{}\", \"target\": {}, \
                     \"samples\": {}, \"wait_ns\": {}, \"folded\": \"{}\"}}",
                    r.wait.name(),
                    r.blocker_phase.name(),
                    r.target.map_or("null".into(), |t| t.to_string()),
                    r.samples,
                    r.wait_ns,
                    json_escape(&r.folded())
                ));
            }
            if !a.blame.rows.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n      \"top_blockers\": ");
            push_sketch_entries(&mut out, &a.blame.top_blockers, "      ");
            out.push_str("\n    }\n  }");
        }
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    out
}

/// Render a trace as Chrome `trace_event` JSON (open in
/// `chrome://tracing` or Perfetto): one complete (`ph:"X"`) event per
/// span, timestamps in microseconds, span tree in `args`.
pub fn chrome_trace_json(trace: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = s.start_ns / 1000;
        let ts_frac = s.start_ns % 1000;
        let dur_ns = s.end_ns.saturating_sub(s.start_ns);
        let dur_us = dur_ns / 1000;
        let dur_frac = dur_ns % 1000;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"mvdb\",\"ph\":\"X\",\"ts\":{ts_us}.{ts_frac:03},\
             \"dur\":{dur_us}.{dur_frac:03},\"pid\":1,\"tid\":{},\"args\":{{\
             \"trace_id\":{},\"span_id\":{},\"parent\":{}",
            json_escape(s.name),
            s.thread,
            trace.trace_id,
            s.span_id,
            s.parent
        ));
        for (k, v) in &s.attrs {
            // The fixed arg keys win: a colliding span attr (the root
            // span carries `trace_id`) would produce duplicate JSON keys.
            if matches!(*k, "trace_id" | "span_id" | "parent") {
                continue;
            }
            out.push_str(&format!(",\"{}\":{v}", json_escape(k)));
        }
        out.push_str("}}");
    }
    out.push_str(&format!(
        "\n],\"metadata\":{{\"trace_id\":{},\"dropped_spans\":{}}}}}\n",
        trace.trace_id, trace.dropped_spans
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::obs::trace::{Span, ROOT_SPAN};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    fn sample_events() -> EventCounts {
        let mut e = EventCounts::default();
        e.counts[EventKind::Begin as usize] = 12;
        e.counts[EventKind::Abort as usize] = 3;
        e.published = 7;
        e
    }

    #[test]
    fn prometheus_text_has_all_sections_and_validates() {
        let m = Metrics::new();
        m.local().rw_committed.fetch_add(5, Ordering::Relaxed);
        let phases = super::super::phases::PhaseHistograms::new();
        phases.wal_append.record(Duration::from_micros(3));
        phases.wal_append.record(Duration::from_micros(90));
        let gauges = GaugeSample {
            live_versions: 11,
            ..Default::default()
        };
        let text = prometheus_text(
            &m.snapshot(),
            Some(&gauges),
            Some(&phases.snapshot()),
            Some(&sample_events()),
            None,
        );
        assert!(text.contains("mvdb_rw_committed 5"));
        assert!(text.contains("# TYPE mvdb_rw_committed counter"));
        assert!(text.contains("mvdb_gauge_live_versions 11"));
        assert!(text.contains("# TYPE mvdb_gauge_live_versions gauge"));
        assert!(text.contains("# TYPE mvdb_phase_wal_append_ns histogram"));
        assert!(text.contains("mvdb_phase_wal_append_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mvdb_phase_wal_append_ns_count 2"));
        assert!(text.contains("mvdb_events_total{kind=\"begin\"} 12"));
        assert!(text.contains("mvdb_events_published_total 7"));
        let samples = parse_exposition(&text).expect("conformant exposition");
        assert!(samples > 10);
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
            assert!(parts.next().is_some(), "no metric name: {line}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let phases = super::super::phases::PhaseHistograms::new();
        for us in [1u64, 1, 2, 50, 800] {
            phases.ro_read.record(Duration::from_micros(us));
        }
        let m = Metrics::new();
        let text = prometheus_text(&m.snapshot(), None, Some(&phases.snapshot()), None, None);
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("mvdb_phase_ro_read_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.len() >= 2);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative");
        assert_eq!(*buckets.last().unwrap(), 5, "+Inf bucket == count");
        parse_exposition(&text).unwrap();
    }

    #[test]
    fn parser_rejects_malformed_exposition() {
        for (bad, why) in [
            ("mvdb_x 1\n", "sample before TYPE"),
            ("# TYPE mvdb_x counter\nmvdb_x one\n", "non-numeric value"),
            ("# TYPE mvdb_x counter\nmvdb_x{le=0} 1\n", "unquoted label"),
            ("# TYPE mvdb_x counter\nmvdb_x{le=\"0\" 1\n", "unterminated labels"),
            ("# TYPE mvdb_x banana\nmvdb_x 1\n", "unknown type"),
            ("#TYPE mvdb_x counter\n", "malformed comment"),
            (
                "# TYPE mvdb_x histogram\nmvdb_x_bucket{le=\"1\"} 2\nmvdb_x_bucket{le=\"+Inf\"} 1\nmvdb_x_count 1\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE mvdb_x histogram\nmvdb_x_bucket{le=\"1\"} 1\nmvdb_x_count 1\n",
                "missing +Inf",
            ),
            (
                "# TYPE mvdb_x histogram\nmvdb_x_bucket{le=\"+Inf\"} 2\nmvdb_x_count 1\n",
                "+Inf != count",
            ),
        ] {
            assert!(parse_exposition(bad).is_err(), "accepted malformed: {why}");
        }
    }

    fn sample_attr() -> AttrSnapshot {
        use crate::obs::{blame::TxnPhase, Attribution};
        let attr = Attribution::new();
        attr.topk().record_key(42, 1000, true);
        attr.topk().record_key(7, 250, false);
        attr.topk().record_shard(3, 1250);
        attr.blame().set_phase(9, TxnPhase::Commit);
        attr.blame().record(WaitPoint::LockWait, 42, 9, 1000);
        attr.blame().record(WaitPoint::VisibilityWait, 11, 0, 300);
        attr.snapshot()
    }

    #[test]
    fn prometheus_attr_sections_validate() {
        let m = Metrics::new();
        let attr = sample_attr();
        let text = prometheus_text(&m.snapshot(), None, None, None, Some(&attr));
        assert!(text.contains("mvdb_hot_key_contended_ns_total{key=\"42\"} 1000"));
        assert!(text.contains("mvdb_hot_key_aborts_total{key=\"42\"} 1"));
        assert!(text.contains("mvdb_hot_shard_contended_ns_total{shard=\"3\"} 1250"));
        assert!(text.contains(
            "mvdb_blame_wait_ns_total{wait=\"lock_wait\",blocker_phase=\"commit\"} 1000"
        ));
        assert!(text.contains("mvdb_blame_attributed_ns_total{wait=\"lock_wait\"} 1000"));
        assert!(text.contains("mvdb_blame_unattributed_ns_total{wait=\"visibility_wait\"} 300"));
        assert!(text.contains("mvdb_blame_samples_total{wait=\"lock_wait\"} 1"));
        parse_exposition(&text).expect("conformant exposition with attribution");
    }

    #[test]
    fn profile_json_shape() {
        // Disabled: the section is null, schema version present.
        let text = profile_json(None);
        assert!(text.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(text.contains("\"attribution\": null"));

        let attr = sample_attr();
        let text = profile_json(Some(&attr));
        assert!(text.contains("\"hot_keys\""));
        assert!(text.contains("\"key\": 42"));
        assert!(text.contains("\"folded\": \"lock_wait;blocker_commit;target_42 1000\""));
        assert!(text.contains("\"attributed_ns\": {\"lock_wait\": 1000"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn json_snapshot_shape() {
        let m = Metrics::new();
        m.local().ro_begun.fetch_add(2, Ordering::Relaxed);
        let text = json_snapshot(&m.snapshot(), None, None, Some(&sample_events()));
        assert!(text.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(text.contains("\"counters\""));
        assert!(text.contains("\"ro_begun\": 2"));
        assert!(text.contains("\"gauges\": null"));
        assert!(text.contains("\"phases\": null"));
        assert!(text.contains("\"begin\": 12"));
        assert!(text.contains("\"published\": 7"));
        // Balanced braces (cheap well-formedness check without serde).
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    fn sample_trace() -> TraceSnapshot {
        TraceSnapshot {
            trace_id: 5,
            spans: vec![
                Span {
                    span_id: ROOT_SPAN,
                    parent: 0,
                    name: "txn",
                    start_ns: 1_000,
                    end_ns: 9_500,
                    thread: 0,
                    attrs: vec![("trace_id", 5)],
                },
                Span {
                    span_id: 2,
                    parent: ROOT_SPAN,
                    name: "attempt",
                    start_ns: 1_200,
                    end_ns: 9_500,
                    thread: 3,
                    attrs: vec![("committed", 1)],
                },
                Span {
                    span_id: 3,
                    parent: 2,
                    name: "lock_wait",
                    start_ns: 2_000,
                    end_ns: 4_000,
                    thread: 3,
                    attrs: vec![("object", 7)],
                },
            ],
            dropped_spans: 0,
        }
    }

    #[test]
    fn chrome_trace_json_is_balanced_and_complete() {
        let text = chrome_trace_json(&sample_trace());
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"lock_wait\""));
        assert!(text.contains("\"ts\":1.200"), "µs with ns fraction");
        assert!(text.contains("\"object\":7"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }
}
