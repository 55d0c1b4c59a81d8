//! Trace files: a run's [`TraceRecord`]s on disk, and back.
//!
//! Three renderings, all built on the vendored `serde` JSON token writers:
//!
//! * **JSONL** ([`export_jsonl`]) — one record per line, lossless, read
//!   back by [`import_jsonl`] (property-tested round trip). `trace`,
//!   `run e14 --out` and the examples write it; `trace-analyze` reads it.
//! * **Chrome `trace_event`** ([`export_chrome`]) — a
//!   `{"traceEvents": [...]}` document loadable in `chrome://tracing` /
//!   Perfetto. Timestamps are *virtual* (one microsecond per sequence
//!   number), so the timeline shows deterministic ordering and nesting;
//!   real wall-clock durations ride in each span-end's `args.dur_ns`.
//! * **Chrome, one track per device** ([`export_chrome_devices`]) — the
//!   cross-device span DAG of [`TraceGraph`] as complete slices.
//!
//! A trace file read back from disk is untrusted input. [`import_jsonl`]
//! parses each line with `serde_json`, whose nesting cap
//! ([`serde_json::MAX_DEPTH`]) turns a deeply nested line into an
//! [`ImportError`] naming that line instead of a stack overflow. A line
//! maps to a record by these rules:
//!
//! * a non-negative integer field is `U64`, a negative one `I64`;
//! * a number with a fraction or an exponent is `F64`, and `null` is
//!   `F64(NaN)` (the exporters write a non-finite float as `null`);
//! * a field that is an array or an object is an error;
//! * of a repeated record key (`kind`, `tick`, ...) the first wins, while
//!   `fields` keeps every entry in order, repeats included, as a
//!   [`TraceRecord`]'s field list may.

use std::fmt::{self, Write as _};

use serde::json::{write_i64, write_str, write_u64};
use serde::Value;

use crate::telemetry::{
    FieldValue, Level, Name, RecordKind, TraceGraph, TraceNode, TraceRecord, VirtualTs,
};

/// The opening of both Chrome documents.
const CHROME_HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

fn write_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => write_u64(out, *v),
        FieldValue::I64(v) => write_i64(out, *v),
        // `{:?}`, not the ledger's `json::write_f64`: trace files render
        // 1e20 as `1e20`, not as 21 digits.
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(s) => write_str(out, s),
    }
}

/// A JSON object of `fields`, then of the unsigned integers `tail`.
fn write_object(out: &mut String, fields: &[(Name, FieldValue)], tail: &[(&str, u64)]) {
    out.push('{');
    let mut sep = "";
    for (key, value) in fields {
        out.push_str(sep);
        sep = ",";
        write_str(out, key);
        out.push(':');
        write_field_value(out, value);
    }
    for &(key, value) in tail {
        out.push_str(sep);
        sep = ",";
        write_str(out, key);
        out.push(':');
        write_u64(out, value);
    }
    out.push('}');
}

fn write_record(out: &mut String, rec: &TraceRecord) {
    out.push_str("{\"kind\":");
    write_str(out, rec.kind.name());
    out.push_str(",\"name\":");
    write_str(out, &rec.name);
    out.push_str(",\"tick\":");
    write_u64(out, rec.ts.tick);
    out.push_str(",\"seq\":");
    write_u64(out, rec.ts.seq);
    out.push_str(",\"depth\":");
    write_u64(out, rec.depth);
    out.push_str(",\"level\":");
    write_str(out, rec.level.name());
    if let Some(dur) = rec.dur_ns {
        out.push_str(",\"dur_ns\":");
        write_u64(out, dur);
    }
    if !rec.fields.is_empty() {
        out.push_str(",\"fields\":");
        write_object(out, &rec.fields, &[]);
    }
    out.push('}');
}

/// Export records as JSONL, one record per line in emission order.
pub fn export_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        write_record(&mut out, rec);
        out.push('\n');
    }
    out
}

/// A JSONL import failure, localized to its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace import failed at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ImportError {}

/// Re-import a JSONL trace produced by [`export_jsonl`]. Blank lines are
/// skipped; any malformed line aborts with its line number.
pub fn import_jsonl(text: &str) -> Result<Vec<TraceRecord>, ImportError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = serde_json::from_str::<Value>(line)
            .map_err(|e| e.to_string())
            .and_then(|value| record_from_value(&value));
        records.push(record.map_err(|message| ImportError {
            line: idx + 1,
            message,
        })?);
    }
    Ok(records)
}

fn record_from_value(value: &Value) -> Result<TraceRecord, String> {
    if value.as_map().is_none() {
        return Err("record line is not a JSON object".into());
    }
    let str_of = |key: &str| value.get(key).and_then(Value::as_str);
    let u64_of = |key: &str| value.get(key).and_then(Value::as_u64);
    let kind_name = str_of("kind").ok_or("missing `kind`")?;
    let kind = RecordKind::parse(kind_name).ok_or_else(|| format!("unknown kind `{kind_name}`"))?;
    let name = Name::Owned(str_of("name").ok_or("missing `name`")?.to_string());
    let tick = u64_of("tick").ok_or("missing `tick`")?;
    let seq = u64_of("seq").ok_or("missing `seq`")?;
    let depth = u64_of("depth").ok_or("missing `depth`")?;
    let level_name = str_of("level").ok_or("missing `level`")?;
    let level = Level::parse(level_name).ok_or_else(|| format!("unknown level `{level_name}`"))?;
    let dur_ns = match value.get("dur_ns") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("`dur_ns` is not an unsigned integer")?),
    };
    let mut fields = Vec::new();
    if let Some(raw) = value.get("fields") {
        let entries = raw.as_map().ok_or("`fields` is not an object")?;
        for (key, value) in entries {
            let fv = match value {
                Value::Int(v) => u64::try_from(*v).map_or(FieldValue::I64(*v), FieldValue::U64),
                Value::UInt(v) => FieldValue::U64(*v),
                Value::Float(v) => FieldValue::F64(*v),
                Value::Null => FieldValue::F64(f64::NAN),
                Value::Bool(v) => FieldValue::Bool(*v),
                Value::Str(s) => FieldValue::Str(s.clone()),
                Value::Seq(_) | Value::Map(_) => {
                    return Err(format!("field `{key}` has a non-scalar value"))
                }
            };
            fields.push((Name::Owned(key.to_string()), fv));
        }
    }
    Ok(TraceRecord {
        kind,
        name,
        ts: VirtualTs { tick, seq },
        level,
        depth,
        dur_ns,
        fields,
    })
}

/// Export records as a Chrome `trace_event` document for `chrome://tracing`
/// or Perfetto. Span starts/ends map to `B`/`E` events, point events to
/// instants; `ts` is virtual time at one microsecond per sequence number.
pub fn export_chrome(records: &[TraceRecord]) -> String {
    let mut out = String::from(CHROME_HEAD);
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match rec.kind {
            RecordKind::SpanStart => "B",
            RecordKind::SpanEnd => "E",
            RecordKind::Event => "i",
        };
        out.push_str("{\"name\":");
        write_str(&mut out, &rec.name);
        out.push_str(",\"cat\":\"apdm\",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        write_u64(&mut out, rec.ts.seq);
        out.push_str(",\"pid\":0,\"tid\":0");
        if rec.kind == RecordKind::Event {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        let tick = ("tick", rec.ts.tick);
        match rec.dur_ns {
            Some(dur) => write_object(&mut out, &rec.fields, &[tick, ("dur_ns", dur)]),
            None => write_object(&mut out, &rec.fields, &[tick]),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Export context-carrying records as a Chrome `trace_event` document with
/// **one track per device**: every [`TraceGraph`] node becomes a complete
/// (`X`) slice on its device's track, lasting until the trace's next node
/// (min 1). Timestamps follow the [`export_chrome`] convention of one
/// virtual microsecond per sequence number; the real tick rides in `args`.
pub fn export_chrome_devices(records: &[TraceRecord]) -> String {
    let graph = TraceGraph::build(records);
    let mut out = String::from(CHROME_HEAD);
    let mut sep = "";
    // Track-naming metadata, one row per device.
    let mut devices: Vec<u64> = graph
        .traces()
        .iter()
        .flat_map(|&t| graph.nodes(t).iter().map(|n| n.device))
        .collect();
    devices.sort_unstable();
    devices.dedup();
    for dev in devices {
        out.push_str(sep);
        sep = ",";
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        write_u64(&mut out, dev);
        out.push_str(",\"args\":{\"name\":\"device ");
        write_u64(&mut out, dev);
        out.push_str("\"}}");
    }
    for trace in graph.traces() {
        let mut nodes: Vec<&TraceNode> = graph.nodes(trace).iter().collect();
        nodes.sort_by_key(|n| (n.tick, n.seq));
        for (i, node) in nodes.iter().enumerate() {
            let dur = nodes
                .get(i + 1)
                .map_or(1, |next| next.seq.saturating_sub(node.seq).max(1));
            out.push_str(sep);
            sep = ",";
            out.push_str("{\"name\":");
            write_str(&mut out, &node.name);
            out.push_str(",\"cat\":\"apdm\",\"ph\":\"X\",\"ts\":");
            write_u64(&mut out, node.seq);
            out.push_str(",\"dur\":");
            write_u64(&mut out, dur);
            out.push_str(",\"pid\":0,\"tid\":");
            write_u64(&mut out, node.device);
            out.push_str(",\"args\":");
            let args = [
                ("trace", node.trace),
                ("span", node.span),
                ("parent", node.parent),
                ("tick", node.tick),
            ];
            write_object(&mut out, &[], &args);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TraceContext;

    fn rec(kind: RecordKind, name: &str, seq: u64) -> TraceRecord {
        TraceRecord {
            kind,
            name: Name::Owned(name.to_string()),
            ts: VirtualTs { tick: 3, seq },
            level: Level::Info,
            depth: 1,
            dur_ns: match kind {
                RecordKind::SpanEnd => Some(12_345),
                _ => None,
            },
            fields: vec![
                (Name::Owned("device".to_string()), FieldValue::U64(7)),
                (
                    Name::Owned("action".to_string()),
                    FieldValue::Str("strike \"x\"".into()),
                ),
                (Name::Owned("dx".to_string()), FieldValue::I64(-2)),
                (Name::Owned("rate".to_string()), FieldValue::F64(0.25)),
                (Name::Owned("ok".to_string()), FieldValue::Bool(true)),
            ],
        }
    }

    /// One line holding the record-level keys, then `fields`.
    fn line_with_fields(fields: &str) -> String {
        format!(
            "{{\"kind\":\"event\",\"name\":\"x\",\"tick\":0,\"seq\":0,\"depth\":0,\
             \"level\":\"info\",\"fields\":{fields}}}"
        )
    }

    /// The fields of the single record `line` imports to.
    fn imported_fields(line: &str) -> Vec<(Name, FieldValue)> {
        let mut records = import_jsonl(line).unwrap();
        assert_eq!(records.len(), 1);
        records.remove(0).fields
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let records = vec![
            rec(RecordKind::SpanStart, "phase.guard", 0),
            rec(RecordKind::Event, "harm", 1),
            rec(RecordKind::SpanEnd, "phase.guard", 2),
        ];
        let jsonl = export_jsonl(&records);
        assert_eq!(jsonl.lines().count(), 3);
        let back = import_jsonl(&jsonl).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn u64_extremes_survive_the_wire() {
        let mut r = rec(RecordKind::SpanEnd, "x", 0);
        r.dur_ns = Some(u64::MAX);
        r.fields = vec![(Name::Owned("big".to_string()), FieldValue::U64(u64::MAX))];
        let back = import_jsonl(&export_jsonl(&[r.clone()])).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn import_localizes_the_bad_line() {
        let good = export_jsonl(&[rec(RecordKind::Event, "e", 0)]);
        let text = format!("{good}{{not json\n");
        let err = import_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn import_rejects_unknown_kinds() {
        let text = "{\"kind\":\"mystery\",\"name\":\"x\",\"tick\":0,\"seq\":0,\"depth\":0,\"level\":\"info\"}\n";
        let err = import_jsonl(text).unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
    }

    #[test]
    fn import_decodes_escaped_strings() {
        let fields = imported_fields(&line_with_fields(
            "{\"k\\u0041\":\"a\\n\\t\\\"b\\\\\\u0041é\\ud83e\\udd80\"}",
        ));
        assert_eq!(
            fields,
            [(
                Name::Owned("kA".into()),
                FieldValue::Str("a\n\t\"b\\Aé🦀".into())
            )]
        );
    }

    #[test]
    fn import_maps_numbers_to_field_values() {
        let fields = imported_fields(&line_with_fields(
            "{\"max\":18446744073709551615,\"i\":9223372036854775807,\"zero\":0,\"neg\":-3,\
             \"min\":-9223372036854775808,\"half\":1.5,\"exp\":1e3,\"whole\":2.0,\"huge\":1e400,\
             \"nan\":null}",
        ));
        let values: Vec<&FieldValue> = fields.iter().map(|(_, v)| v).collect();
        assert_eq!(values[0], &FieldValue::U64(u64::MAX));
        assert_eq!(values[1], &FieldValue::U64(i64::MAX as u64));
        assert_eq!(values[2], &FieldValue::U64(0));
        assert_eq!(values[3], &FieldValue::I64(-3));
        assert_eq!(values[4], &FieldValue::I64(i64::MIN));
        assert_eq!(values[5], &FieldValue::F64(1.5));
        assert_eq!(values[6], &FieldValue::F64(1000.0));
        assert_eq!(values[7], &FieldValue::F64(2.0));
        assert_eq!(values[8], &FieldValue::F64(f64::INFINITY));
        assert!(matches!(values[9], FieldValue::F64(v) if v.is_nan()));
    }

    #[test]
    fn a_repeated_record_key_keeps_its_first_value_and_fields_keep_every_entry() {
        let line = "{\"kind\":\"event\",\"name\":\"first\",\"name\":\"second\",\"tick\":1,\
                    \"seq\":2,\"depth\":0,\"level\":\"info\",\"tick\":9,\
                    \"fields\":{\"a\":1,\"a\":2}}";
        let records = import_jsonl(line).unwrap();
        assert_eq!(records[0].name, "first");
        assert_eq!(records[0].ts, VirtualTs { tick: 1, seq: 2 });
        assert_eq!(
            records[0].fields,
            [
                (Name::Owned("a".into()), FieldValue::U64(1)),
                (Name::Owned("a".into()), FieldValue::U64(2)),
            ]
        );
    }

    #[test]
    fn a_non_scalar_field_is_an_error_naming_its_line() {
        let good = export_jsonl(&[rec(RecordKind::Event, "e", 0)]);
        for bad in ["[1]", "{\"x\":1}", "[]"] {
            let text = format!("{good}{}\n", line_with_fields(&format!("{{\"f\":{bad}}}")));
            let err = import_jsonl(&text).unwrap_err();
            assert_eq!(err.line, 2, "{bad}: {err}");
            assert!(
                err.message.contains("field `f` has a non-scalar value"),
                "{err}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_an_import_error_naming_its_line() {
        let good = export_jsonl(&[rec(RecordKind::Event, "e", 0)]);
        let depth = 100_000;
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        let text = format!(
            "{good}{}\n{good}",
            line_with_fields(&format!("{{\"f\":{nested}}}"))
        );
        let err = import_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let records = vec![
            rec(RecordKind::SpanStart, "tick", 0),
            rec(RecordKind::Event, "harm", 1),
            rec(RecordKind::SpanEnd, "tick", 2),
        ];
        let doc = export_chrome(&records);
        assert!(doc.starts_with("{\"displayTimeUnit\""));
        assert!(doc.contains("\"ph\":\"B\""));
        assert!(doc.contains("\"ph\":\"E\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"dur_ns\":12345"));
        assert!(doc.ends_with("]}"));
        let events = serde_json::from_str::<Value>(&doc).unwrap();
        let events = events.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn chrome_devices_export_parses_and_tracks_devices() {
        let root = TraceContext::root(7, true);
        let send = root.child(0);
        let recv = send.child(0);
        let records: Vec<TraceRecord> = [("req.submit", root, 0), ("comms.send", send, 0)]
            .into_iter()
            .chain([("comms.recv", recv, 1)])
            .enumerate()
            .map(|(seq, (name, ctx, device))| {
                let mut fields = Vec::new();
                ctx.push_fields(device, &mut fields);
                TraceRecord {
                    fields,
                    ..rec(RecordKind::Event, name, seq as u64)
                }
            })
            .collect();
        let doc = export_chrome_devices(&records);
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"tid\":1"));
        assert!(doc.contains("device 1"));
        let events = serde_json::from_str::<Value>(&doc).unwrap();
        let events = events.get("traceEvents").and_then(Value::as_seq).unwrap();
        // Two track names, then one slice per node.
        assert_eq!(events.len(), 5);
    }
}
