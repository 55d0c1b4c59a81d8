//! A checkpoint read back from disk is untrusted input: `resume` parses
//! whatever a crashed, truncated or tampered segment holds. Seeded
//! mutations of committed golden checkpoint lines go through the same
//! path `resume` takes — [`Ledger::from_jsonl_recovering`], then
//! [`ServeCheckpoint::from_frame`] on every snapshot, then
//! [`PolicyDecisionService::restore`] for every frame that decodes — and
//! each must end in an error, a ledger whose chain fails, or a restored
//! service. None may panic, and none may abort the process (deep nesting
//! once overflowed the parser's stack). A restored service must also be
//! able to run: an admission queue no live service could hold is refused
//! by `restore`, not left to panic or spin in the first tick, and a queued
//! request whose row does not resolve against the checkpoint's schema and
//! action tables is refused by `from_frame`.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use apdm::ledger::{Ledger, RunEvent, SegmentedRecorder};
use apdm::serve::{
    standard_stacks, CheckpointError, E16Config, PolicyDecisionService, ReqRow, ServeCheckpoint,
    WorkloadGen, WorkloadOracle,
};
use serde::Value;

/// The golden segments whose second line is a serve checkpoint: the
/// canonical cell's, whose four lanes are empty, and the overloaded cell's,
/// whose lanes hold 39 queued requests.
const FIXTURES: [&str; 2] = ["e16-42.seg0006.jsonl", OVERLOADED];

/// The fixture whose checkpoint holds rows.
const OVERLOADED: &str = "e16-42-overload.seg0027.jsonl";

fn fixture_lines(name: &str) -> Vec<String> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.lines().map(str::to_string).collect()
}

/// Where a mutant ended up.
#[derive(Debug, Default)]
struct Tally {
    /// `from_jsonl_recovering` refused the text.
    parse_errors: usize,
    /// Parsed, but `verify_chain` found the damage.
    chain_failures: usize,
    /// Snapshot frames `from_frame` refused.
    frame_errors: usize,
    /// Snapshot frames `from_frame` refused as malformed (a subset of
    /// `frame_errors`).
    malformed_frames: usize,
    /// Snapshot frames that decoded to a checkpoint.
    checkpoints: usize,
    /// Decoded checkpoints a service was restored from.
    restored: usize,
    /// Decoded checkpoints `restore` refused as not fitting the
    /// configuration.
    mismatches: usize,
    /// Decoded checkpoints `restore` refused as inconsistent in
    /// themselves (an admission queue no live service could hold).
    malformed: usize,
    /// Frames `from_frame` refused inside a chain that verifies: the
    /// service wrote every verified byte, so this must never happen.
    verified_but_undecodable: usize,
}

impl Tally {
    /// Run `text` down the resume path, counting where it ends.
    fn feed(&mut self, text: &str) {
        let ledger = match Ledger::from_jsonl_recovering(text) {
            Ok((ledger, _torn)) => ledger,
            Err(_) => {
                self.parse_errors += 1;
                return;
            }
        };
        let verified = ledger.verify_chain().is_ok();
        if !verified {
            self.chain_failures += 1;
        }
        // Decode every frame, verified or not: a reader that skipped the
        // chain check must still get an error, not a panic.
        for record in ledger.records() {
            if let RunEvent::Snapshot(frame) = &record.event {
                match ServeCheckpoint::from_frame(frame) {
                    Ok(checkpoint) => {
                        self.checkpoints += 1;
                        self.restore(&checkpoint);
                    }
                    Err(_) if verified => self.verified_but_undecodable += 1,
                    Err(e) => {
                        self.frame_errors += 1;
                        if matches!(e, CheckpointError::Malformed(_)) {
                            self.malformed_frames += 1;
                        }
                    }
                }
            }
        }
    }

    /// Restore the configuration the fixtures were written under (the
    /// canonical `checkpoint --seed 42` cell; the overloaded cell differs
    /// only in its offered load) from `checkpoint`.
    fn restore(&mut self, checkpoint: &ServeCheckpoint) {
        let e16 = fixture_config();
        let budget = e16.budgets[0];
        let cfg = e16.serve_config(budget, 1);
        let recorder = SegmentedRecorder::new(
            &e16.run_name(budget),
            cfg.seed,
            cfg.shards as u64,
            cfg.rotation.unwrap_or_default(),
        );
        let stacks = standard_stacks(cfg.shards, cfg.cache);
        match PolicyDecisionService::restore(cfg, stacks, WorkloadOracle, checkpoint, recorder) {
            Ok(_) => self.restored += 1,
            Err(CheckpointError::Mismatch(_)) => self.mismatches += 1,
            Err(CheckpointError::Malformed(_)) => self.malformed += 1,
            Err(e) => panic!("restore returned a format error: {e}"),
        }
    }
}

/// The E16 configuration the fixtures were written under.
fn fixture_config() -> E16Config {
    E16Config {
        seed: 42,
        ..E16Config::smoke()
    }
}

/// SplitMix64, for seeded offsets and flip masks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Every mutant of `line`, labelled: truncations at every 997th byte,
/// single-byte flips at 256 seeded offsets, an inner number replaced by
/// nesting just inside and far past the parser's depth cap, and the
/// [`reshaped`] and [`unresolvable`] checkpoints.
fn mutants(line: &str) -> Vec<(String, Vec<u8>)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for cut in (997..bytes.len()).step_by(997) {
        out.push((format!("truncated at {cut}"), bytes[..cut].to_vec()));
    }
    let mut rng = Rng(0x5eed_0006);
    for _ in 0..256 {
        let at = (rng.next() % bytes.len() as u64) as usize;
        let mask = (rng.next() % 255 + 1) as u8;
        let mut flipped = bytes.to_vec();
        flipped[at] ^= mask;
        out.push((format!("byte {at} ^ {mask:#04x}"), flipped));
    }
    let key = "\"meter_spent\":";
    let start = line.find(key).expect("checkpoint has a meter") + key.len();
    let end = start
        + line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number ends");
    for depth in [64, 200_000] {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        let text = format!("{}{nested}{}", &line[..start], &line[end..]);
        out.push((
            format!("meter_spent nested {depth} deep"),
            text.into_bytes(),
        ));
    }
    out.extend(reshaped(line));
    if has_rows(line) {
        out.extend(unresolvable(line));
    }
    out
}

/// The fields of a JSON map.
type Fields = Vec<(Cow<'static, str>, Value)>;

/// An in-place change to a checkpoint's fields.
type Edit = fn(&mut Fields);

/// The checkpoint map inside a snapshot record's value.
fn checkpoint_of(record: &mut Value) -> &mut Fields {
    let mut value = record;
    for key in ["event", "Snapshot", "world"] {
        let Value::Map(fields) = value else {
            panic!("no `{key}` in the checkpoint record")
        };
        value = &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1;
    }
    let Value::Map(fields) = value else {
        panic!("the checkpoint is a map")
    };
    fields
}

/// `edits` applied one at a time to the checkpoint line `line`.
fn edited(line: &str, edits: &[(&str, Edit)]) -> Vec<(String, Vec<u8>)> {
    let record: Value = serde_json::from_str(line).expect("the checkpoint line parses");
    edits
        .iter()
        .map(|(label, edit)| {
            let mut mutant = record.clone();
            edit(checkpoint_of(&mut mutant));
            let text = serde_json::to_string(&mutant).expect("serializes");
            (label.to_string(), text.into_bytes())
        })
        .collect()
}

/// Checkpoints that decode but do not fit the configuration — a shard's
/// backpressure counter dropped, and a shard added — and checkpoints whose
/// admission queue no live service could hold: a rotated tenant without a
/// lane (`dequeue` would panic), queued requests outside the rotation
/// (`tick` would spin on them forever), and a tenant with two lanes (the
/// dropped lane's requests still counted, so the queue would claim work it
/// cannot find).
fn reshaped(line: &str) -> Vec<(String, Vec<u8>)> {
    let edits: [(&str, Edit); INCONSISTENT_QUEUES + 2] = [
        ("one backpressure counter short", |cp| {
            pop(cp, "shard_inflight")
        }),
        ("one shard more", |cp| {
            field(cp, "shard_inflight").push(Value::Int(0));
        }),
        ("a rotated tenant without a lane", |cp| {
            field(cp, "rotation").push(Value::Int(99));
        }),
        ("queued requests outside the rotation", |cp| {
            let row = queued_row(cp);
            let lane = Value::Map(vec![
                ("tenant".into(), Value::Int(99)),
                ("deficit".into(), Value::Int(0)),
                ("queue".into(), Value::Seq(vec![row])),
            ]);
            field(cp, "lanes").push(lane);
        }),
        ("a tenant with two lanes", |cp| {
            let row = queued_row(cp);
            let lanes = field(cp, "lanes");
            let mut twin = lanes[0].clone();
            let tenant = twin.get("tenant").expect("a lane names its tenant").clone();
            queue_of(&mut twin).push(row);
            lanes.insert(0, twin);
            // Backlogged, so rotated: two lanes are the only flaw.
            let rotation = field(cp, "rotation");
            if !rotation.contains(&tenant) {
                rotation.push(tenant);
            }
        }),
    ];
    edited(line, &edits)
}

/// How many of [`reshaped`]'s mutants come last and hold an inconsistent
/// admission queue.
const INCONSISTENT_QUEUES: usize = 3;

/// Does the checkpoint line hold any queued request?
fn has_rows(line: &str) -> bool {
    line.contains("\"queue\":[[")
}

/// A row's columns, in order.
const COLUMNS: [&str; 9] = [
    "id",
    "device",
    "schema",
    "values",
    "proposed",
    "alternatives",
    "submitted_at",
    "deadline",
    "ctx",
];

/// Checkpoints whose rows do not read or do not resolve against their
/// tables, each made from a line that holds rows: a row one column short
/// or long; value bits as a string, a float, negative or past `u64`; an
/// index out of range, `u64::MAX`, negative or a float; `values` shorter
/// or longer than the schema; and a table entry no row uses.
fn unresolvable(line: &str) -> Vec<(String, Vec<u8>)> {
    let edits: [(&str, Edit); 16] = [
        ("a row one column short", |cp| {
            first_row(cp).pop();
        }),
        ("a row one column long", |cp| {
            first_row(cp).push(Value::Null);
        }),
        ("value bits as a string", |cp| {
            let bits = Value::Str(1f64.to_bits().to_string());
            set_in_first_row(cp, "values", Value::Seq(vec![bits]));
        }),
        ("value bits as a float", |cp| {
            set_in_first_row(cp, "values", Value::Seq(vec![Value::Float(1.0)]));
        }),
        ("negative value bits", |cp| {
            set_in_first_row(cp, "values", Value::Seq(vec![Value::Int(-1)]));
        }),
        ("value bits past u64", |cp| {
            let mark = Value::Str(PAST_U64_MARK.into());
            set_in_first_row(cp, "values", Value::Seq(vec![mark]));
        }),
        ("schema index out of range", |cp| {
            let n = field(cp, "schemas").len();
            set_in_first_row(cp, "schema", Value::UInt(n as u64));
        }),
        ("schema index u64::MAX", |cp| {
            set_in_first_row(cp, "schema", Value::UInt(u64::MAX));
        }),
        ("proposed index out of range", |cp| {
            let n = field(cp, "actions").len();
            set_in_first_row(cp, "proposed", Value::UInt(n as u64));
        }),
        ("alternative index u64::MAX", |cp| {
            set_in_first_row(cp, "alternatives", Value::Seq(vec![Value::UInt(u64::MAX)]));
        }),
        ("negative proposed index", |cp| {
            set_in_first_row(cp, "proposed", Value::Int(-1));
        }),
        ("float schema index", |cp| {
            set_in_first_row(cp, "schema", Value::Float(0.0));
        }),
        ("values shorter than the schema", |cp| {
            set_in_first_row(cp, "values", Value::Seq(Vec::new()));
        }),
        ("values longer than the schema", |cp| {
            let bits = |v: f64| Value::UInt(v.to_bits());
            set_in_first_row(cp, "values", Value::Seq(vec![bits(0.5), bits(1.5)]));
        }),
        ("an unused schema", |cp| {
            let schema = field(cp, "schemas")[0].clone();
            field(cp, "schemas").push(schema);
        }),
        ("an unused action", |cp| {
            let action = field(cp, "actions")[0].clone();
            field(cp, "actions").push(action);
        }),
    ];
    let mut mutants = edited(line, &edits);
    let mark = format!("\"{PAST_U64_MARK}\"");
    for (label, bytes) in &mut mutants {
        let text = String::from_utf8(std::mem::take(bytes)).expect("utf-8");
        assert_eq!(text.contains(&mark), label == "value bits past u64");
        *bytes = text.replace(&mark, "18446744073709551616").into_bytes();
    }
    mutants
}

/// Stands in a mutant's value tree for the integer 2^64, which a `Value`
/// cannot hold; the mutant's text spells the integer itself.
const PAST_U64_MARK: &str = "<2^64>";

/// The columns of the first queued request.
fn first_row(checkpoint: &mut Fields) -> &mut Vec<Value> {
    let row = field(checkpoint, "lanes")
        .iter_mut()
        .flat_map(queue_of)
        .next()
        .expect("the checkpoint holds a queued request");
    let Value::Seq(columns) = row else {
        panic!("a row is an array")
    };
    assert_eq!(columns.len(), COLUMNS.len(), "a row has every column");
    columns
}

/// Replace column `key` of the first queued request.
fn set_in_first_row(checkpoint: &mut Fields, key: &str, value: Value) {
    let at = COLUMNS.iter().position(|c| *c == key).expect(key);
    first_row(checkpoint)[at] = value;
}

/// A queued request as a row of `checkpoint`, its schema and proposed
/// action appended to the tables for it: the fixture cell's own first
/// request.
fn queued_row(checkpoint: &mut Fields) -> Value {
    let e16 = fixture_config();
    let mut gen = WorkloadGen::new(e16.spec(e16.budgets[0]));
    let req = gen.tick_requests(1).remove(0);
    let mut append = |key: &str, entry: Value| {
        let table = field(checkpoint, key);
        table.push(entry);
        table.len() - 1
    };
    let row = ReqRow {
        id: req.id,
        device: req.device,
        schema: append("schemas", to_value(req.state.schema())),
        values: req.state.values().to_vec(),
        proposed: append("actions", to_value(&req.proposed)),
        alternatives: Vec::new(),
        submitted_at: req.submitted_at,
        deadline: req.deadline,
        ctx: None,
    };
    to_value(&row)
}

fn to_value<T: serde::Serialize>(value: &T) -> Value {
    serde_json::to_value(value).expect("serializes")
}

/// The request queue of one lane.
fn queue_of(lane: &mut Value) -> &mut Vec<Value> {
    let Value::Map(fields) = lane else {
        panic!("a lane is a map")
    };
    field(fields, "queue")
}

/// The list under `key` in a checkpoint map.
fn field<'a>(checkpoint: &'a mut Fields, key: &str) -> &'a mut Vec<Value> {
    match checkpoint.iter_mut().find(|(k, _)| k == key) {
        Some((_, Value::Seq(items))) => items,
        _ => panic!("the checkpoint has no list `{key}`"),
    }
}

fn pop(checkpoint: &mut Fields, key: &str) {
    field(checkpoint, key).pop();
}

/// `line` in place of line 2 of its segment `lines`.
fn with_checkpoint(lines: &[String], line: &str) -> String {
    [lines[0].as_str(), line]
        .into_iter()
        .chain(lines[2..].iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn mutated_checkpoint_lines_never_panic_on_the_resume_path() {
    for name in FIXTURES {
        let lines = fixture_lines(name);
        let checkpoint = &lines[1];
        assert!(
            checkpoint.contains("\"Snapshot\""),
            "{name} line 2 is the checkpoint"
        );
        let mut tally = Tally::default();
        for (label, bytes) in mutants(checkpoint) {
            // A flip can break UTF-8, which reading the file as a `String`
            // refuses outright; a lossy read keeps such a mutant in play.
            let mutant = String::from_utf8_lossy(&bytes);
            // Inside its segment (a damaged interior line), and as the
            // final line (what torn-tail recovery may drop).
            let interior = with_checkpoint(&lines, &mutant);
            let tail = format!("{}\n{mutant}\n", lines[0]);
            for text in [interior, tail] {
                catch_unwind(AssertUnwindSafe(|| tally.feed(&text)))
                    .unwrap_or_else(|_| panic!("{name}: mutant `{label}` panicked"));
            }
        }
        // Truncations and deep nesting are refused, flips reach all three
        // ends, and every checkpoint that decodes is restored or refused
        // by `restore`.
        assert!(tally.parse_errors > 0, "{name}: {tally:?}");
        assert!(tally.chain_failures > 0, "{name}: {tally:?}");
        assert!(tally.frame_errors > 0, "{name}: {tally:?}");
        assert!(tally.checkpoints > 0, "{name}: {tally:?}");
        assert_eq!(tally.verified_but_undecodable, 0, "{name}: {tally:?}");
        assert_eq!(
            tally.restored + tally.mismatches + tally.malformed,
            tally.checkpoints,
            "{name}: {tally:?}"
        );
        assert!(
            tally.restored > 0 && tally.mismatches > 0 && tally.malformed > 0,
            "{name}: {tally:?}"
        );
    }
}

#[test]
fn inconsistent_admission_queues_are_refused_by_restore() {
    for name in FIXTURES {
        let lines = fixture_lines(name);
        let reshaped = reshaped(&lines[1]);
        for (label, bytes) in &reshaped[reshaped.len() - INCONSISTENT_QUEUES..] {
            let mutant = String::from_utf8(bytes.clone()).expect("a reshaped mutant is UTF-8");
            let mut tally = Tally::default();
            catch_unwind(AssertUnwindSafe(|| {
                tally.feed(&with_checkpoint(&lines, &mutant))
            }))
            .unwrap_or_else(|_| panic!("{name}: mutant `{label}` panicked"));
            assert_eq!(
                (tally.checkpoints, tally.malformed),
                (1, 1),
                "{name}: mutant `{label}`: {tally:?}"
            );
        }
    }
}

#[test]
fn unresolvable_rows_are_refused_by_from_frame() {
    let lines = fixture_lines(OVERLOADED);
    assert!(has_rows(&lines[1]), "{OVERLOADED} queues requests");
    for (label, bytes) in unresolvable(&lines[1]) {
        let mutant = String::from_utf8(bytes).expect("an edited mutant is UTF-8");
        let mut tally = Tally::default();
        catch_unwind(AssertUnwindSafe(|| {
            tally.feed(&with_checkpoint(&lines, &mutant))
        }))
        .unwrap_or_else(|_| panic!("mutant `{label}` panicked"));
        assert_eq!(
            (tally.checkpoints, tally.malformed_frames),
            (0, 1),
            "mutant `{label}`: {tally:?}"
        );
    }
}

#[test]
fn the_unmutated_checkpoint_line_resumes() {
    for name in FIXTURES {
        let lines = fixture_lines(name);
        let mut tally = Tally::default();
        tally.feed(&(lines.join("\n") + "\n"));
        assert_eq!(
            tally.parse_errors + tally.chain_failures,
            0,
            "{name}: {tally:?}"
        );
        assert_eq!(
            (tally.checkpoints, tally.frame_errors),
            (1, 0),
            "{name}: {tally:?}"
        );
        assert_eq!(
            (tally.restored, tally.mismatches),
            (1, 0),
            "{name}: {tally:?}"
        );
    }
}
