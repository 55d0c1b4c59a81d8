//! A checkpoint read back from disk is untrusted input: `resume` parses
//! whatever a crashed, truncated or tampered segment holds. Seeded
//! mutations of a committed golden checkpoint line go through the same
//! path `resume` takes — [`Ledger::from_jsonl_recovering`], then
//! [`ServeCheckpoint::from_frame`] on every snapshot, then
//! [`PolicyDecisionService::restore`] for every frame that decodes — and
//! each must end in an error, a ledger whose chain fails, or a restored
//! service. None may panic, and none may abort the process (deep nesting
//! once overflowed the parser's stack). A restored service must also be
//! able to run: an admission queue no live service could hold is refused
//! by `restore`, not left to panic or spin in the first tick.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use apdm::ledger::{Ledger, RunEvent, SegmentedRecorder};
use apdm::serve::{
    standard_stacks, CheckpointError, E16Config, PolicyDecisionService, ReqSnap, ServeCheckpoint,
    WorkloadGen, WorkloadOracle,
};
use serde::Value;

/// The golden segment whose second line is a serve checkpoint.
const FIXTURE: &str = "e16-42.seg0006.jsonl";

fn fixture_lines() -> Vec<String> {
    let path = format!("{}/tests/fixtures/{FIXTURE}", env!("CARGO_MANIFEST_DIR"));
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
                    Err(_) => self.frame_errors += 1,
                }
            }
        }
    }
}

impl Tally {
    /// Restore the configuration the fixture was written under (the
    /// canonical `checkpoint --seed 42` cell) from `checkpoint`.
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

/// The E16 configuration the fixture was written under.
fn fixture_config() -> E16Config {
    E16Config {
        seed: 42,
        ..E16Config::smoke()
    }
}

/// A queued request of tenant 0 as a checkpoint holds it: the fixture's
/// own first request.
fn queued_request() -> Value {
    let e16 = fixture_config();
    let mut gen = WorkloadGen::new(e16.spec(e16.budgets[0]));
    let mut req = gen.tick_requests(1).remove(0);
    req.tenant.0 = 0;
    serde_json::to_value(&ReqSnap::from(&req)).expect("a request serializes")
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
/// single-byte flips at 256 seeded offsets, and an inner number replaced
/// by nesting just inside and far past the parser's depth cap.
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

/// Checkpoints that decode but do not fit the configuration — a shard's
/// backpressure counter dropped, a memo cache dropped, one cache turned
/// off, and a shard added — and checkpoints whose admission queue no live
/// service could hold (the fixture's lanes are all empty and its rotation
/// too): a rotated tenant without a lane (`dequeue` would panic), queued
/// requests outside the rotation (`tick` would spin on them forever), and
/// a tenant with two lanes (the dropped lane's requests still counted, so
/// the queue would claim work it cannot find).
fn reshaped(line: &str) -> Vec<(String, Vec<u8>)> {
    let record: Value = serde_json::from_str(line).expect("the checkpoint line parses");
    let edits: [(&str, Edit); INCONSISTENT_QUEUES + 4] = [
        ("one backpressure counter short", |cp| {
            pop(cp, "shard_inflight")
        }),
        ("one memo cache short", |cp| pop(cp, "caches")),
        ("one memo cache off", |cp| {
            field(cp, "caches")[0] = Value::Null;
        }),
        ("one shard more", |cp| {
            field(cp, "shard_inflight").push(Value::Int(0));
            let caches = field(cp, "caches");
            caches.push(caches[0].clone());
        }),
        ("a rotated tenant without a lane", |cp| {
            field(cp, "rotation").push(Value::Int(99));
        }),
        ("queued requests outside the rotation", |cp| {
            queue_of(&mut field(cp, "lanes")[0]).push(queued_request());
        }),
        ("a tenant with two lanes", |cp| {
            let lanes = field(cp, "lanes");
            let mut twin = lanes[0].clone();
            queue_of(&mut twin).push(queued_request());
            lanes.insert(0, twin);
            field(cp, "rotation").push(Value::Int(0));
        }),
    ];
    edits
        .into_iter()
        .map(|(label, edit)| {
            let mut mutant = record.clone();
            edit(checkpoint_of(&mut mutant));
            let text = serde_json::to_string(&mutant).expect("serializes");
            (label.to_string(), text.into_bytes())
        })
        .collect()
}

/// How many of [`reshaped`]'s mutants come last and hold an inconsistent
/// admission queue.
const INCONSISTENT_QUEUES: usize = 3;

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

#[test]
fn mutated_checkpoint_lines_never_panic_on_the_resume_path() {
    let lines = fixture_lines();
    let checkpoint = &lines[1];
    assert!(
        checkpoint.contains("\"Snapshot\""),
        "{FIXTURE} line 2 is the checkpoint"
    );
    let mut tally = Tally::default();
    for (label, bytes) in mutants(checkpoint) {
        // A flip can break UTF-8, which reading the file as a `String`
        // refuses outright; a lossy read keeps such a mutant in play.
        let mutant = String::from_utf8_lossy(&bytes);
        // Inside its segment (a damaged interior line), and as the final
        // line (what torn-tail recovery may drop).
        let interior = [&lines[0], mutant.as_ref()]
            .into_iter()
            .chain(lines[2..].iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join("\n");
        let tail = format!("{}\n{mutant}\n", lines[0]);
        for text in [interior, tail] {
            catch_unwind(AssertUnwindSafe(|| tally.feed(&text)))
                .unwrap_or_else(|_| panic!("mutant `{label}` panicked"));
        }
    }
    // Truncations and deep nesting are refused, flips reach all three ends,
    // and every checkpoint that decodes is restored or refused by `restore`.
    assert!(tally.parse_errors > 0, "{tally:?}");
    assert!(tally.chain_failures > 0, "{tally:?}");
    assert!(tally.frame_errors > 0, "{tally:?}");
    assert!(tally.checkpoints > 0, "{tally:?}");
    assert_eq!(tally.verified_but_undecodable, 0, "{tally:?}");
    assert_eq!(
        tally.restored + tally.mismatches + tally.malformed,
        tally.checkpoints,
        "{tally:?}"
    );
    assert!(
        tally.restored > 0 && tally.mismatches > 0 && tally.malformed > 0,
        "{tally:?}"
    );
}

#[test]
fn inconsistent_admission_queues_are_refused_by_restore() {
    let lines = fixture_lines();
    let reshaped = reshaped(&lines[1]);
    for (label, bytes) in &reshaped[reshaped.len() - INCONSISTENT_QUEUES..] {
        let mutant = String::from_utf8(bytes.clone()).expect("a reshaped mutant is UTF-8");
        let text = [&lines[0], &mutant]
            .into_iter()
            .chain(&lines[2..])
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n");
        let mut tally = Tally::default();
        catch_unwind(AssertUnwindSafe(|| tally.feed(&text)))
            .unwrap_or_else(|_| panic!("mutant `{label}` panicked"));
        assert_eq!(
            (tally.checkpoints, tally.malformed),
            (1, 1),
            "mutant `{label}`: {tally:?}"
        );
    }
}

#[test]
fn the_unmutated_checkpoint_line_resumes() {
    let lines = fixture_lines();
    let mut tally = Tally::default();
    tally.feed(&(lines.join("\n") + "\n"));
    assert_eq!(tally.parse_errors + tally.chain_failures, 0, "{tally:?}");
    assert_eq!((tally.checkpoints, tally.frame_errors), (1, 0), "{tally:?}");
    assert_eq!((tally.restored, tally.mismatches), (1, 0), "{tally:?}");
}
