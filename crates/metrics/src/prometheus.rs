//! Prometheus text exposition for a [`MetricRegistry`], plus a JSONL
//! snapshot line for the periodic file sink.
//!
//! Metric names in the registry are dotted (`"live.tasks_finished"`) and
//! may carry labels with the conventional brace syntax
//! (`"live.tasks_finished{executor=\"2\"}"`). The renderer converts dots
//! to underscores, sanitizes anything the exposition format forbids,
//! escapes label values, and emits one `# HELP` / `# TYPE` pair per metric
//! family in stable (sorted) order:
//!
//! ```text
//! # HELP live_tasks_finished SAE metric live_tasks_finished
//! # TYPE live_tasks_finished counter
//! live_tasks_finished{executor="2"} 17
//! ```
//!
//! Integer and float counters both render as `counter`; gauges as `gauge`;
//! histograms as `summary` with `_count` and `_sum` series. There is no
//! HTTP endpoint — callers write the string wherever they want it scraped
//! from, which is all the loopback runtime needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{MetricRegistry, RegistrySnapshot};

/// The `Content-Type` an HTTP endpoint serving [`render_prometheus`]
/// output must send: Prometheus text exposition format version 0.0.4.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Sanitizes a metric-family name: `[a-zA-Z_:][a-zA-Z0-9_:]*`, with dots
/// and dashes folded to underscores.
fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Sanitizes a label key: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn sanitize_label_key(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry name into `(family, label_block)` where `label_block`
/// is already sanitized/escaped and includes the braces (empty when the
/// name carries no labels). A malformed label block is folded into the
/// family name instead of being dropped.
fn split_name(raw: &str) -> (String, String) {
    let Some(open) = raw.find('{') else {
        return (sanitize_name(raw), String::new());
    };
    let Some(body) = raw[open..]
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
    else {
        return (sanitize_name(raw), String::new());
    };
    let mut labels = Vec::new();
    for pair in body.split(',') {
        let Some((k, v)) = pair.split_once('=') else {
            return (sanitize_name(raw), String::new());
        };
        let v = v.trim_matches('"');
        labels.push(format!(
            "{}=\"{}\"",
            sanitize_label_key(k.trim()),
            escape_label_value(v)
        ));
    }
    (
        sanitize_name(&raw[..open]),
        format!("{{{}}}", labels.join(",")),
    )
}

/// Formats a sample value. Prometheus accepts `NaN`, `+Inf` and `-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Merges a `quantile="q"` label into a registry name's label block,
/// appending a fresh block when the name carries none.
fn with_quantile_label(raw: &str, q: &str) -> String {
    match raw.strip_suffix('}') {
        Some(prefix) if raw.contains('{') => format!("{prefix},quantile=\"{q}\"}}"),
        _ => format!("{raw}{{quantile=\"{q}\"}}"),
    }
}

/// One exposition family: its TYPE plus every `name{labels} value` line.
#[derive(Default)]
struct Family {
    lines: BTreeMap<String, String>,
}

fn push_sample(
    families: &mut BTreeMap<String, Family>,
    raw_name: &str,
    suffix: &str,
    value: String,
) {
    let (family, labels) = split_name(raw_name);
    let fam = families.entry(family.clone()).or_default();
    let series = format!("{family}{suffix}{labels}");
    fam.lines
        .insert(series.clone(), format!("{series} {value}"));
}

fn render_section(out: &mut String, kind: &str, families: &BTreeMap<String, Family>) {
    for (family, fam) in families {
        let _ = writeln!(out, "# HELP {family} SAE metric {family}");
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for line in fam.lines.values() {
            let _ = writeln!(out, "{line}");
        }
    }
}

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4).
///
/// Output is deterministic for a given registry state: families and series
/// appear in sorted order, counters first, then gauges, then histogram
/// summaries.
pub fn render_prometheus(registry: &MetricRegistry) -> String {
    let snap = registry.snapshot();
    let mut counters: BTreeMap<String, Family> = BTreeMap::new();
    for (name, v) in &snap.counters {
        push_sample(&mut counters, name, "", v.to_string());
    }
    for (name, v) in &snap.float_counters {
        push_sample(&mut counters, name, "", fmt_value(*v));
    }
    let mut gauges: BTreeMap<String, Family> = BTreeMap::new();
    for (name, v) in &snap.gauges {
        push_sample(&mut gauges, name, "", fmt_value(*v));
    }
    let mut summaries: BTreeMap<String, Family> = BTreeMap::new();
    for (name, h) in registry.histogram_snapshots() {
        push_sample(&mut summaries, &name, "_count", h.count.to_string());
        push_sample(
            &mut summaries,
            &name,
            "_sum",
            fmt_value(h.mean * h.count as f64),
        );
        // Summary quantile series: the bare family name with a
        // `quantile` label merged into any labels the series carries.
        for q in ["0.5", "0.95", "0.99"] {
            if let Some(v) = h.quantile(q.parse().expect("literal quantile")) {
                push_sample(
                    &mut summaries,
                    &with_quantile_label(&name, q),
                    "",
                    fmt_value(v),
                );
            }
        }
    }
    let mut out = String::new();
    render_section(&mut out, "counter", &counters);
    render_section(&mut out, "gauge", &gauges);
    render_section(&mut out, "summary", &summaries);
    out
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Serializes a snapshot as one JSON object (no trailing newline) for the
/// periodic JSONL metrics sink: `{"t":...,"counters":{...},...}`.
///
/// `t` is seconds since the job epoch, matching the decision journal's
/// clock.
pub fn snapshot_jsonl_line(snapshot: &RegistrySnapshot, t: f64) -> String {
    fn obj<V, F: Fn(&V) -> String>(map: &BTreeMap<String, V>, fmt: F) -> String {
        let body = map
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape_json(k), fmt(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
    format!(
        "{{\"t\":{},\"counters\":{},\"float_counters\":{},\"gauges\":{},\"histogram_counts\":{}}}",
        fmt_json_f64(t),
        obj(&snapshot.counters, |v| v.to_string()),
        obj(&snapshot.float_counters, |v| fmt_json_f64(*v)),
        obj(&snapshot.gauges, |v| fmt_json_f64(*v)),
        obj(&snapshot.histogram_counts, |v| v.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_help_type_and_samples_per_family() {
        let reg = MetricRegistry::new();
        reg.counter("live.tasks_finished").add(7);
        reg.gauge("live.queue_depth").set(3.0);
        let text = render_prometheus(&reg);
        assert!(text.contains("# HELP live_tasks_finished SAE metric live_tasks_finished\n"));
        assert!(text.contains("# TYPE live_tasks_finished counter\n"));
        assert!(
            text.contains("\nlive_tasks_finished 7\n")
                || text.starts_with("live_tasks_finished 7\n")
                || text.contains("live_tasks_finished 7\n")
        );
        assert!(text.contains("# TYPE live_queue_depth gauge\n"));
        assert!(text.contains("live_queue_depth 3\n"));
    }

    #[test]
    fn labels_are_parsed_and_escaped() {
        let reg = MetricRegistry::new();
        reg.counter("live.frames{executor=\"2\",dir=\"a\\b\"}")
            .inc();
        reg.counter("live.frames{executor=\"0\",dir=\"x\"y\"}")
            .inc();
        let text = render_prometheus(&reg);
        // One family header for both series.
        assert_eq!(text.matches("# TYPE live_frames counter").count(), 1);
        assert!(text.contains("live_frames{executor=\"2\",dir=\"a\\\\b\"} 1"));
        assert!(text.contains("live_frames{executor=\"0\",dir=\"x\\\"y\"} 1"));
    }

    #[test]
    fn ordering_is_stable_and_sorted() {
        let reg = MetricRegistry::new();
        reg.counter("b.second").inc();
        reg.counter("a.first").inc();
        reg.gauge("z.gauge").set(1.0);
        let first = render_prometheus(&reg);
        let second = render_prometheus(&reg);
        assert_eq!(first, second);
        let a = first.find("a_first").unwrap();
        let b = first.find("b_second").unwrap();
        let z = first.find("z_gauge").unwrap();
        assert!(a < b && b < z, "sections out of order:\n{first}");
    }

    #[test]
    fn histograms_render_as_summary_count_and_sum() {
        let reg = MetricRegistry::new();
        let h = reg.histogram("live.heartbeat_gap_seconds");
        h.record(0.5);
        h.record(1.5);
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE live_heartbeat_gap_seconds summary\n"));
        assert!(text.contains("live_heartbeat_gap_seconds_count 2\n"));
        assert!(text.contains("live_heartbeat_gap_seconds_sum 2\n"));
    }

    #[test]
    fn weird_names_are_sanitized_not_dropped() {
        let reg = MetricRegistry::new();
        reg.counter("1bad name-with.stuff").inc();
        reg.counter("broken{label").inc();
        let text = render_prometheus(&reg);
        assert!(text.contains("_bad_name_with_stuff 1"));
        assert!(text.contains("broken_label 1"));
    }

    #[test]
    fn exposition_lines_are_well_formed() {
        let reg = MetricRegistry::new();
        reg.counter("live.tasks{executor=\"0\"}").add(2);
        reg.float_counter("live.bytes").add(1.5);
        reg.gauge("pool.size").set(8.0);
        reg.histogram("lat").record(1.0);
        for line in render_prometheus(&reg).lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                let mut parts = line.splitn(4, ' ');
                assert_eq!(parts.next(), Some("#"));
                assert!(matches!(parts.next(), Some("HELP") | Some("TYPE")));
                assert!(parts.next().is_some());
            } else {
                let (series, value) = line.rsplit_once(' ').unwrap();
                assert!(!series.contains(' ') || series.contains('"'));
                assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            }
        }
    }

    #[test]
    fn exposition_content_type_is_version_0_0_4() {
        // The scrape contract: exactly the text format's registered
        // media type, version, and charset, in that order.
        assert_eq!(
            EXPOSITION_CONTENT_TYPE,
            "text/plain; version=0.0.4; charset=utf-8"
        );
        let mut parts = EXPOSITION_CONTENT_TYPE.split("; ");
        assert_eq!(parts.next(), Some("text/plain"));
        assert_eq!(parts.next(), Some("version=0.0.4"));
        assert_eq!(parts.next(), Some("charset=utf-8"));
        assert_eq!(parts.next(), None);
    }

    #[test]
    fn histograms_emit_quantile_samples() {
        let reg = MetricRegistry::new();
        let h = reg.histogram("lat");
        for i in 1..=100 {
            h.record(i as f64);
        }
        let text = render_prometheus(&reg);
        for q in ["0.5", "0.95", "0.99"] {
            let needle = format!("lat{{quantile=\"{q}\"}} ");
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
        // Quantile samples are monotone in q for this distribution.
        let sample = |q: &str| -> f64 {
            let needle = format!("lat{{quantile=\"{q}\"}} ");
            let at = text.find(&needle).unwrap() + needle.len();
            text[at..].lines().next().unwrap().parse().unwrap()
        };
        assert!(sample("0.5") <= sample("0.95"));
        assert!(sample("0.95") <= sample("0.99"));
    }

    #[test]
    fn quantile_label_merges_into_existing_label_blocks() {
        let reg = MetricRegistry::new();
        reg.histogram("task.secs{executor=\"1\"}").record(2.0);
        let text = render_prometheus(&reg);
        assert!(
            text.contains("task_secs{executor=\"1\",quantile=\"0.5\"} 2"),
            "quantile label not merged:\n{text}"
        );
        assert!(text.contains("task_secs_count{executor=\"1\"} 1"));
    }

    #[test]
    fn jsonl_line_is_deterministic_and_flat() {
        let reg = MetricRegistry::new();
        reg.counter("c.one").add(1);
        reg.gauge("g\"q").set(2.5);
        let line = snapshot_jsonl_line(&reg.snapshot(), 1.25);
        assert_eq!(line, snapshot_jsonl_line(&reg.snapshot(), 1.25));
        assert!(line.starts_with("{\"t\":1.25,"));
        assert!(line.contains("\"c.one\":1"));
        assert!(line.contains("\"g\\\"q\":2.5"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn concurrent_updates_during_render_do_not_panic() {
        let reg = MetricRegistry::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    reg.counter(&format!("smoke.c{}{{thread=\"{t}\"}}", i % 7))
                        .inc();
                    reg.gauge("smoke.g").set(i as f64);
                    reg.histogram("smoke.h").record(i as f64);
                }
            }));
        }
        for _ in 0..50 {
            let text = render_prometheus(&reg);
            assert!(text.is_empty() || text.starts_with("# HELP"));
        }
        for h in handles {
            h.join().unwrap();
        }
        let text = render_prometheus(&reg);
        assert!(text.contains("smoke_c0{thread=\"0\"}"));
        assert!(text.contains("smoke_h_count 2000\n"));
    }
}
