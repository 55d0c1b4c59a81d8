//! Ledger bytes checked against references that do not go through the
//! streaming JSON writer:
//!
//! - the E16 golden segments under `tests/fixtures/`, committed as written
//!   by the `Value`-tree encoder (`apdm-experiments checkpoint --seed 42`),
//!   regenerated here in-process and compared byte for byte;
//! - one segment of the same cell overloaded (40 requests per tick), whose
//!   checkpoint pins the encoding of queued requests as rows over the
//!   schema and action tables;
//! - `serde_json::to_string_via_value`, the reference encoder, compared with
//!   the streaming `serde_json::to_string` on random run events and serve
//!   checkpoints full of edge values, whose text the streaming decoder
//!   (`serde_json::from_str`) and the reference decoder
//!   (`serde_json::from_str_via_value`) must read back alike;
//! - `u64::to_string`, compared with the integer writer every number and
//!   digest goes through.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use apdm::guards::GuardVerdict;
use apdm::ledger::{DeviceSnap, Ledger, LedgerRecord, RawJson, RunEvent, SnapshotFrame};
use apdm::policy::{Action, AuditEntry, AuditKind, Obligation};
use apdm::serve::{
    CtxSnap, E16Config, LaneSnap, ReqRow, ServeCheckpoint, ServeStats, CHECKPOINT_FORMAT,
};
use apdm::statespace::{State, StateDelta, StateSchema, VarId};

/// The committed golden segment files, `(index, file name)`.
const FIXTURES: [(u64, &str); 4] = [
    (5, "e16-42.seg0005.jsonl"),
    (6, "e16-42.seg0006.jsonl"),
    (7, "e16-42.seg0007.jsonl"),
    (8, "e16-42.seg0008.jsonl"),
];

/// Head digest of the golden run's final segment.
const GOLDEN_HEAD: u64 = 0x1f3a_0d12_df7a_a3ba;

/// The committed segment of the overloaded cell, `(index, file name)`: its
/// checkpoint holds 39 queued requests across the lanes, with alternatives
/// and three distinct actions.
const OVERLOAD_FIXTURE: (u64, &str) = (27, "e16-42-overload.seg0027.jsonl");

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The canonical rotating serve cell `apdm-experiments checkpoint --seed 42`
/// writes: E16's smoke shape.
fn golden_config() -> E16Config {
    E16Config {
        seed: 42,
        ..E16Config::smoke()
    }
}

/// The retained segments and final head of `cfg`'s first budget cell, run
/// on one worker thread.
fn cell_segments(cfg: &E16Config) -> (Vec<(u64, String)>, u64) {
    let (_, ledger, _) = cfg.run_uninterrupted(cfg.budgets[0], 1, true, |_, _| {});
    ledger.verify().expect("golden ledger verifies");
    (ledger.to_jsonl_segments(), ledger.head_digest())
}

#[test]
fn e16_golden_segments_regenerate_byte_identically() {
    let (segments, head) = cell_segments(&golden_config());
    let indices: Vec<u64> = segments.iter().map(|(index, _)| *index).collect();
    assert_eq!(indices, FIXTURES.map(|(index, _)| index));
    for ((index, text), (_, name)) in segments.iter().zip(FIXTURES) {
        assert!(
            *text == fixture(name),
            "segment {index} differs from tests/fixtures/{name}"
        );
    }
    assert_eq!(head, GOLDEN_HEAD, "head {head:016x}");
}

#[test]
fn overloaded_golden_segment_regenerates_byte_identically() {
    let (segments, _) = cell_segments(&E16Config {
        per_tick: 40,
        ..golden_config()
    });
    let (index, name) = OVERLOAD_FIXTURE;
    let (_, text) = segments
        .iter()
        .find(|(i, _)| *i == index)
        .expect("the overloaded cell retains the fixture's segment");
    assert!(
        *text == fixture(name),
        "segment {index} differs from tests/fixtures/{name}"
    );
    // What the fixture is for: a checkpoint whose rows use the tables.
    let ledger = Ledger::from_jsonl(text).expect("fixture parses");
    let RunEvent::Snapshot(frame) = &ledger.records()[1].event else {
        panic!("{name} line 2 is the checkpoint")
    };
    let checkpoint = ServeCheckpoint::from_frame(frame).expect("the checkpoint decodes");
    let rows: Vec<&ReqRow> = checkpoint.lanes.iter().flat_map(|l| &l.queue).collect();
    assert_eq!(rows.len(), 39);
    assert!(
        checkpoint
            .lanes
            .iter()
            .filter(|l| !l.queue.is_empty())
            .count()
            > 1
    );
    assert!(rows.iter().any(|r| !r.alternatives.is_empty()));
    assert_eq!((checkpoint.schemas.len(), checkpoint.actions.len()), (1, 3));
}

#[test]
fn golden_fixture_lines_match_both_encoders() {
    for (_, name) in FIXTURES.into_iter().chain([OVERLOAD_FIXTURE]) {
        let text = fixture(name);
        let ledger = Ledger::from_jsonl(&text).expect("fixture parses");
        ledger.verify_chain().expect("fixture chain verifies");
        assert_eq!(ledger.to_jsonl(), text, "{name} re-exports identically");
        for (record, line) in ledger.records().iter().zip(text.lines()) {
            assert_eq!(serde_json::to_string_via_value(record).unwrap(), line);
        }
    }
}

/// SplitMix64: a tiny deterministic source for building random values.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn u64(&mut self) -> u64 {
        const EDGES: [u64; 7] = [0, 1, 9, 10, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            1 => self.next() % 1000,
            _ => self.next(),
        }
    }

    fn i64(&mut self) -> i64 {
        const EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
        match self.below(2) {
            0 => EDGES[self.below(EDGES.len())],
            _ => self.next() as i64,
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// Any float, non-finite ones included (they serialize as `null`).
    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => EDGE_FLOATS[self.below(EDGE_FLOATS.len())],
            1 => f64::from_bits(self.next()),
            _ => (self.next() % 2000) as f64 / 8.0 - 125.0,
        }
    }

    /// A finite float inside `[-1e21, 1e21]`, for state values.
    fn bounded_f64(&mut self) -> f64 {
        let f = self.f64();
        if f.is_finite() && f.abs() <= 1e21 {
            f
        } else {
            0.1
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 16] = [
            "",
            "a",
            "plain text",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "😀",
            "ünïcode",
            "\u{2028}",
            "/",
        ];
        (0..self.below(5))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.bool()),
            2 => Value::Int(self.i64()),
            3 => Value::UInt(self.u64()),
            4 => Value::Float(self.f64()),
            5 => Value::Str(self.string()),
            6 => Value::Seq((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Map(
                (0..self.below(4))
                    .map(|_| (self.string().into(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }

    fn action(&mut self) -> Action {
        let mut delta = StateDelta::empty();
        for var in 0..self.below(3) {
            delta = delta.and(VarId(var), self.f64());
        }
        let mut action = Action::adjust(self.string(), delta);
        if self.bool() {
            action = action.physical();
        }
        for _ in 0..self.below(3) {
            action = action.with_param(self.string(), self.string());
        }
        action
    }

    fn verdict(&mut self, variant: usize) -> GuardVerdict {
        match variant % 4 {
            0 => GuardVerdict::Allow,
            1 => GuardVerdict::AllowWithObligations(
                (0..self.below(3))
                    .map(|_| {
                        if self.bool() {
                            Obligation::after(self.action(), self.u64())
                        } else {
                            Obligation::during(self.action())
                        }
                    })
                    .collect(),
            ),
            2 => GuardVerdict::Deny {
                reason: self.string(),
            },
            _ => GuardVerdict::Replace {
                action: self.action(),
                reason: self.string(),
            },
        }
    }

    fn state(&mut self) -> State {
        let vars = 1 + self.below(3);
        let mut schema = StateSchema::builder();
        for var in 0..vars {
            schema = schema.var(format!("v{var}{}", self.string()), -1e21, 1e21);
        }
        let values: Vec<f64> = (0..vars).map(|_| self.bounded_f64()).collect();
        schema.build().state(&values).expect("values inside bounds")
    }

    fn run_event(&mut self, variant: usize) -> RunEvent {
        match variant % 15 {
            0 => RunEvent::RunStarted {
                experiment: self.string(),
                seed: self.u64(),
                devices: self.u64(),
            },
            1 => RunEvent::Proposal {
                device: self.u64(),
                action: self.string().into(),
            },
            2 => RunEvent::Verdict {
                device: self.u64(),
                action: self.string().into(),
                verdict: self.string().into(),
                reason: self.string(),
            },
            3 => RunEvent::Execution {
                device: self.u64(),
                action: self.string().into(),
            },
            4 => RunEvent::ObligationExecuted {
                device: self.u64(),
                action: self.string().into(),
            },
            5 => RunEvent::Deactivation {
                device: self.u64(),
                reason: self.string(),
            },
            6 => RunEvent::FaultInjected {
                device: self.u64(),
                pathway: self.string(),
            },
            7 => RunEvent::TamperAttempt {
                device: self.u64(),
                compromised: self.bool(),
            },
            8 => RunEvent::Degraded {
                device: self.u64(),
                mode: self.string(),
                isolated: self.bool(),
            },
            9 => RunEvent::Harm {
                human: self.u64(),
                cause: self.string(),
                device: self.bool().then(|| self.u64()),
            },
            10 => RunEvent::Audit(AuditEntry {
                seq: self.u64(),
                tick: self.u64(),
                subject: self.string(),
                kind: [
                    AuditKind::Decision,
                    AuditKind::BreakGlass,
                    AuditKind::GuardIntervention,
                    AuditKind::ObligationViolation,
                    AuditKind::Deactivation,
                    AuditKind::Note,
                ][self.below(6)],
                detail: self.string(),
            }),
            11 => RunEvent::Snapshot(SnapshotFrame {
                tick: self.u64(),
                rng: [self.u64(), self.u64(), self.u64(), self.u64()],
                world: RawJson::of(&self.value(3)),
                metrics: RawJson::of(&self.value(2)),
                devices: (0..self.below(3))
                    .map(|_| DeviceSnap {
                        id: self.u64(),
                        values: (0..self.below(4)).map(|_| self.f64()).collect(),
                        active: self.bool(),
                        x: self.i64() as i32,
                        y: self.i64() as i32,
                        tamper: self.value(1),
                    })
                    .collect(),
            }),
            12 => RunEvent::SegmentOpened {
                segment: self.u64(),
                prev_head: self.u64(),
                prev_records: self.u64(),
            },
            13 => RunEvent::SegmentSealed {
                segment: self.u64(),
                records: self.u64(),
            },
            _ => RunEvent::RunFinished {
                ticks: self.u64(),
                harms: self.u64(),
            },
        }
    }

    /// A table index: usually a small one, sometimes any `usize` (the
    /// encoders do not care whether it resolves).
    fn index(&mut self) -> usize {
        match self.below(4) {
            0 => self.u64() as usize,
            _ => self.below(4),
        }
    }

    fn checkpoint(&mut self) -> ServeCheckpoint {
        let schemas = (0..self.below(3))
            .map(|_| self.state().schema().clone())
            .collect();
        let actions = (0..self.below(4)).map(|_| self.action()).collect();
        let lanes = (0..self.below(4))
            .map(|_| LaneSnap {
                tenant: self.u32(),
                deficit: self.u32(),
                queue: (0..self.below(3))
                    .map(|_| ReqRow {
                        id: self.u64(),
                        device: self.u64(),
                        schema: self.index(),
                        values: (0..self.below(4)).map(|_| self.f64()).collect(),
                        proposed: self.index(),
                        alternatives: (0..self.below(3)).map(|_| self.index()).collect(),
                        submitted_at: self.u64(),
                        deadline: self.bool().then(|| self.u64()),
                        ctx: self.bool().then(|| CtxSnap {
                            trace_id: self.u64(),
                            span_id: self.u64(),
                            parent_id: self.u64(),
                            sampled: self.bool(),
                        }),
                    })
                    .collect(),
            })
            .collect();
        ServeCheckpoint {
            format: CHECKPOINT_FORMAT,
            tick: self.u64(),
            schemas,
            actions,
            lanes,
            rotation: (0..self.below(4)).map(|_| self.u32()).collect(),
            meter_credit: self.i64(),
            meter_spent: self.u64(),
            shard_inflight: (0..self.below(5)).map(|_| self.u64()).collect(),
            stats: ServeStats {
                submitted: self.u64(),
                decided: self.u64(),
                shed_deadline: self.u64(),
                max_queue_depth: self.u64(),
                deferrals: self.u64(),
                ..ServeStats::default()
            },
        }
    }
}

const EDGE_FLOATS: [f64; 12] = [
    -0.0,
    0.0,
    1e21,
    5e-324,
    0.1,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
    f64::MIN_POSITIVE,
    -1.5e-7,
    123_456_789.0,
];

/// Assert the streaming writer and the reference encoder agree on `value`.
fn assert_same_bytes<T: Serialize>(value: &T) {
    let streamed = serde_json::to_string(value).unwrap();
    let reference = serde_json::to_string_via_value(value).unwrap();
    assert_eq!(streamed, reference);
}

/// Assert the streaming decoder and the reference decoder read the JSON of
/// `value` alike: both refuse it (a non-finite float is written as `null`,
/// which no float field reads) or both read values of the same bytes.
fn assert_same_decoding<T: Serialize + Deserialize>(value: &T) {
    let text = serde_json::to_string(value).unwrap();
    let reencode = |read: T| serde_json::to_string(&read).unwrap();
    let streamed = serde_json::from_str::<T>(&text).map(reencode);
    let reference = serde_json::from_str_via_value::<T>(&text).map(reencode);
    assert_eq!(streamed.ok(), reference.ok(), "{text}");
}

/// The integer writer's text for `n`.
fn written(n: u64) -> String {
    let mut out = String::new();
    serde::json::write_u64(&mut out, n);
    out
}

proptest! {
    #[test]
    fn run_events_stream_like_the_value_route(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        for variant in 0..15 {
            let event = gen.run_event(variant);
            assert_same_bytes(&event);
            assert_same_decoding(&event);
            let record = LedgerRecord {
                seq: gen.u64(),
                tick: gen.u64(),
                event,
                digest: gen.u64(),
            };
            assert_same_bytes(&record);
            assert_same_decoding(&record);
        }
    }

    #[test]
    fn serve_checkpoints_stream_like_the_value_route(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let checkpoint = gen.checkpoint();
        assert_same_bytes(&checkpoint);
        assert_same_decoding(&checkpoint);
        let snapshot = RunEvent::Snapshot(checkpoint.to_frame());
        assert_same_bytes(&snapshot);
        assert_same_decoding(&snapshot);
    }

    #[test]
    fn integers_are_written_as_to_string_writes_them(n in any::<u64>(), shift in 0u32..64) {
        let n = n >> shift;
        prop_assert_eq!(written(n), n.to_string());
        let signed = n as i64;
        let mut out = String::new();
        serde::json::write_i64(&mut out, signed);
        prop_assert_eq!(out, signed.to_string());
    }
}

#[test]
fn integers_are_written_as_to_string_writes_them_at_every_length() {
    let mut cases = vec![0, 1, 2, u64::MAX, u64::MAX - 1];
    let mut power = 1u64;
    while let Some(next) = power.checked_mul(10) {
        power = next;
        cases.extend([power - 1, power, power + 1]);
    }
    for n in cases {
        assert_eq!(written(n), n.to_string());
    }
    for n in [i64::MIN, i64::MIN + 1, -1, -10, -99, -100] {
        let mut out = String::new();
        serde::json::write_i64(&mut out, n);
        assert_eq!(out, n.to_string());
    }
}

#[test]
fn edge_values_stream_like_the_value_route() {
    let mut gen = Gen(7);
    for &f in &EDGE_FLOATS {
        assert_same_bytes(&f);
        assert_same_bytes(&Value::Float(f));
    }
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        u64::MAX.to_string()
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        i64::MIN.to_string()
    );
    for variant in 0..4 {
        assert_same_bytes(&gen.verdict(variant));
    }
    assert_same_bytes(&vec![0, i64::MAX as u64 + 1, u64::MAX]);
    assert_same_bytes(&RunEvent::Snapshot(SnapshotFrame {
        tick: u64::MAX,
        rng: [0, 1, i64::MAX as u64 + 1, u64::MAX],
        world: RawJson::of(&Value::Seq(
            EDGE_FLOATS.iter().map(|&f| Value::Float(f)).collect(),
        )),
        metrics: RawJson::of(&Value::Map(vec![
            ("\"quoted\"\n".into(), Value::Int(i64::MIN)),
            ("ünï😀".into(), Value::UInt(u64::MAX)),
        ])),
        devices: vec![DeviceSnap {
            id: 0,
            values: EDGE_FLOATS.to_vec(),
            active: true,
            x: i32::MIN,
            y: i32::MAX,
            tamper: Value::Str("\u{0}\u{1f}\u{7f}\\".into()),
        }],
    }));
}
