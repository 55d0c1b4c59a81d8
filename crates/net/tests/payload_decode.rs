//! The typed JSON route against its reference. `serde_json::from_str`
//! reads a payload straight into its type through `Deserialize::from_json`;
//! `serde_json::from_str_via_value` parses a `Value` tree first and then
//! rebuilds the type from it. Both must accept the same texts with the same
//! value: the hand cases below pin the acceptance rules of
//! `docs/PROTOCOL.md` ("Payload schemas"), and seeded mutants of real
//! frame payloads, ledger lines and a checkpoint probe everything else.
//! Deep nesting on the typed route must be an error, never an abort.

use std::fmt::Debug;

use apdm_guards::GuardVerdict;
use apdm_ledger::{Ledger, LedgerRecord, RunEvent};
use apdm_net::wire::{
    decode_payload, encode_payload, DecisionSnap, ErrorPayload, HelloPayload, Role, TickPayload,
};
use apdm_serve::{CtxSnap, E16Config, ReqSnap, ServeCheckpoint, ShedReason, WorkloadGen};
use serde::{Deserialize, Serialize, Value};

/// Decode `text` as a `T` both ways and require the same outcome: both
/// `Ok` with values that encode to the same bytes, or both `Err`. Returns
/// the typed route's result, its error as text.
fn agree<T: Deserialize + Serialize + Debug>(text: &str) -> Result<T, String> {
    let streamed = serde_json::from_str::<T>(text);
    let reference = serde_json::from_str_via_value::<T>(text);
    match (&streamed, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "the routes read {text:?} as different values"
        ),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "the routes disagree on {text:?}:\n  streamed:  {streamed:?}\n  reference: {reference:?}"
        ),
    }
    streamed.map_err(|e| e.to_string())
}

/// [`agree`] for one payload type, as a table entry.
type Check = fn(&str) -> bool;

/// [`agree`], for a table of payload types: whether `text` decoded.
fn check<T: Deserialize + Serialize + Debug>(text: &str) -> bool {
    agree::<T>(text).is_ok()
}

/// Requests as the workload generator makes them, every fourth from the
/// second traced and given a deadline.
fn requests() -> Vec<ReqSnap> {
    let e16 = E16Config::smoke();
    let mut gen = WorkloadGen::new(e16.spec(e16.budgets[0]));
    let mut out: Vec<ReqSnap> = (1..4)
        .flat_map(|tick| gen.tick_requests(tick))
        .map(|req| ReqSnap::from(&req))
        .collect();
    for (i, snap) in out.iter_mut().enumerate().skip(1).step_by(4) {
        snap.ctx = Some(CtxSnap {
            trace_id: 0xfeed_0000 + i as u64,
            span_id: i as u64 + 1,
            parent_id: 0,
            sampled: i % 8 == 0,
        });
        snap.deadline = Some(40 + i as u64);
    }
    out
}

/// Decisions of every verdict shape, plus a shed.
fn decisions(reqs: &[ReqSnap]) -> Vec<DecisionSnap> {
    let verdicts = [
        GuardVerdict::Allow,
        GuardVerdict::Deny {
            reason: "pre-action check: \"unsafe\"\n".into(),
        },
        GuardVerdict::Replace {
            action: reqs[0].proposed.clone(),
            reason: "substituted".into(),
        },
        GuardVerdict::AllowWithObligations(Vec::new()),
    ];
    verdicts
        .into_iter()
        .enumerate()
        .map(|(i, verdict)| DecisionSnap {
            request_id: 900 + i as u64,
            tenant: i as u32,
            device: 7,
            action: reqs[i].proposed.name().to_string(),
            verdict,
            shed: (i == 1).then_some(ShedReason::Capacity),
            submitted_at: 3,
            decided_at: 4,
        })
        .collect()
}

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The checkpoint (`world`) of the overloaded golden segment, which holds
/// queued requests.
fn checkpoint_world() -> String {
    let text = fixture("e16-42-overload.seg0027.jsonl");
    let ledger = Ledger::from_jsonl(&text).expect("the fixture parses");
    ledger
        .records()
        .iter()
        .find_map(|r| match &r.event {
            RunEvent::Snapshot(frame) => Some(frame.world.as_str().to_string()),
            _ => None,
        })
        .expect("the fixture holds a checkpoint")
}

fn text<T: Serialize>(value: &T) -> String {
    String::from_utf8(encode_payload(value)).expect("payloads are UTF-8")
}

/// `json` with the value under the first `"key":` replaced by `value`.
fn replace_value(json: &str, key: &str, value: &str) -> String {
    fn walk(v: &mut Value, key: &str, value: &Value) -> bool {
        match v {
            Value::Map(entries) => {
                for (k, item) in entries.iter_mut() {
                    if k == key {
                        *item = value.clone();
                        return true;
                    }
                    if walk(item, key, value) {
                        return true;
                    }
                }
                false
            }
            Value::Seq(items) => items.iter_mut().any(|item| walk(item, key, value)),
            _ => false,
        }
    }
    let mut tree: Value = serde_json::from_str(json).expect("valid JSON");
    let value: Value = serde_json::from_str(value).expect("valid replacement");
    assert!(walk(&mut tree, key, &value), "no `{key}` in {json}");
    serde_json::to_string(&tree).unwrap()
}

/// `json` with whitespace between every two tokens and around the text.
fn spaced(json: &str) -> String {
    let mut out = String::from(" \n");
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            out.push(c);
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '{' | '}' | '[' | ']' | ':' | ',' => {
                out.push_str("\t ");
                out.push(c);
                out.push_str("\r\n ");
            }
            '"' => {
                in_string = true;
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out.push_str(" \t");
    out
}

#[test]
fn hand_cases_follow_the_documented_acceptance_rules() {
    let reqs = requests();
    let req = text(&reqs[0]);

    // The first of a repeated key wins, even over one that would not
    // decode; unknown keys, nested or not, are skipped.
    assert_eq!(
        agree::<TickPayload>(r#"{"tick":1,"tick":2}"#),
        Ok(TickPayload { tick: 1 })
    );
    assert_eq!(
        agree::<TickPayload>(r#"{"tick":1,"tick":"two"}"#),
        Ok(TickPayload { tick: 1 })
    );
    assert_eq!(
        agree::<TickPayload>(r#"{"zz":[1,{"a":null,"b":[]}],"tick":3,"more":"x\"}"}"#),
        Ok(TickPayload { tick: 3 })
    );
    let doubled = format!(r#"{{"id":77,{}"#, &req[1..]);
    assert_eq!(agree::<ReqSnap>(&doubled).unwrap().id, 77);

    // An absent optional field is `null`; an absent required one refuses.
    let mut plain = reqs[0].clone();
    plain.deadline = None;
    let full = text(&plain);
    let bare = full
        .replace(r#","deadline":null"#, "")
        .replace(r#","ctx":null"#, "");
    assert_eq!(bare.len() + 27, full.len(), "{full}");
    assert_eq!(agree::<ReqSnap>(&bare), Ok(plain));
    assert!(agree::<TickPayload>("{}").is_err());

    // Keys are unescaped before they are matched.
    let escaped = req.replacen(r#""id":"#, r#""\u0069d":"#, 1);
    assert_ne!(escaped, req);
    assert_eq!(agree::<ReqSnap>(&escaped), Ok(reqs[0].clone()));

    // Whitespace between every token, and around the text.
    for snap in &reqs[..4] {
        assert_eq!(agree::<ReqSnap>(&spaced(&text(snap))).as_ref(), Ok(snap));
    }
    for d in decisions(&reqs) {
        assert_eq!(agree::<DecisionSnap>(&spaced(&text(&d))), Ok(d));
    }

    // An integer where an `f64` is expected.
    let integral = replace_value(&req, "values", "[3,-1,18446744073709551615]");
    let read = agree::<ReqSnap>(&integral).expect("integers read as floats");
    assert_eq!(read.state.values(), [3.0, -1.0, 18446744073709551615.0]);

    // A unit variant written as a one-entry map ignores its payload; a
    // struct variant whose payload is not an object, or a data variant
    // named by a bare string, reads its fields from `null`.
    let allow = text(&decisions(&reqs)[0]);
    assert!(allow.contains(r#""verdict":"Allow""#), "{allow}");
    for payload in ["1", "[1,2]", r#"{"k":"v"}"#, "null"] {
        let mapped = allow.replace(r#""Allow""#, &format!(r#"{{"Allow":{payload}}}"#));
        assert_eq!(
            agree::<DecisionSnap>(&mapped).unwrap().verdict,
            GuardVerdict::Allow
        );
    }
    for verdict in [
        r#"{"Deny":5}"#,
        r#"{"Deny":["reason"]}"#,
        r#""Deny""#,
        r#""AllowWithObligations""#,
        r#"{"Replace":"x"}"#,
        r#"{"Maybe":1}"#,
        r#""Maybe""#,
        r#"{}"#,
        r#"{"Allow":null,"Deny":{"reason":"x"}}"#,
        "7",
    ] {
        let mapped = allow.replace(r#""Allow""#, verdict);
        assert!(agree::<DecisionSnap>(&mapped).is_err(), "{mapped}");
    }
    assert_eq!(
        agree::<Option<GuardVerdict>>(r#"{"Deny":{"reason":"r","extra":[]}}"#),
        Ok(Some(GuardVerdict::Deny { reason: "r".into() }))
    );

    // Tuples of the wrong arity, inside a request and alone.
    for params in [
        r#"[["k"]]"#,
        r#"[["k","v","w"]]"#,
        "[[]]",
        r#"[["k","v"],"kv"]"#,
    ] {
        let bad = replace_value(&req, "params", params);
        assert!(agree::<ReqSnap>(&bad).is_err(), "{bad}");
    }
    assert_eq!(
        agree::<(u8, String)>(r#"[1,"a",null]"#),
        Err("serde_json: expected a 2-tuple, got 3 elements".to_string())
    );
    assert_eq!(
        agree::<(u8, String)>("[1]"),
        Err("serde_json: expected a 2-tuple, got 1 elements".to_string())
    );

    // Trailing bytes refuse; trailing whitespace does not.
    assert!(agree::<ReqSnap>(&format!("{req} x")).is_err());
    assert!(agree::<ReqSnap>(&format!("{req}{req}")).is_err());
    assert_eq!(
        agree::<ReqSnap>(&format!("{req} \n\t")),
        Ok(reqs[0].clone())
    );
    assert_eq!(
        agree::<TickPayload>(r#"{"tick":1}]"#),
        Err("serde_json: trailing characters at byte 10".to_string())
    );

    // The other payloads, and a request cut short.
    let hello = HelloPayload {
        role: Role::Observer,
        client: 0,
        clients: 2,
    };
    assert_eq!(agree::<HelloPayload>(&text(&hello)), Ok(hello));
    let error = ErrorPayload {
        code: 5,
        detail: "tick \u{1}\u{7f}é😀".into(),
    };
    assert_eq!(agree::<ErrorPayload>(&text(&error)), Ok(error));
    assert!(agree::<ReqSnap>(&req[..req.len() - 1]).is_err());
}

/// SplitMix64, for seeded mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `text` inserted into `out` at byte `at`.
fn insert(out: &mut Vec<u8>, at: usize, text: &str) {
    out.splice(at..at, text.bytes());
}

/// `count` seeded mutants of `text`: byte flips, truncations, splices of a
/// slice of `donor`, runs of `[` or `{` far past the depth cap, and
/// edits that mostly keep the text valid, so the routes also meet on
/// values they accept: balanced nesting around the cap under an unknown
/// key, an unknown entry, a `null` repeat of a key just before it, a changed
/// digit and a stray space.
fn mutants(text: &str, donor: &str, count: usize, rng: &mut Rng) -> Vec<String> {
    let bytes = text.as_bytes();
    // Just inside each object that starts with a key, and where each
    // later key starts.
    let opens: Vec<usize> = text.match_indices("{\"").map(|(i, _)| i + 1).collect();
    let keys: Vec<usize> = text
        .match_indices(",\"")
        .map(|(i, _)| i + 1)
        .chain(opens.iter().copied())
        .collect();
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    (0..count)
        .map(|i| {
            let at = rng.below(bytes.len() + 1);
            let open = opens[rng.below(opens.len())];
            let mut out = bytes.to_vec();
            match i % 8 {
                0 => {
                    if at < bytes.len() {
                        out[at] ^= (rng.below(255) + 1) as u8;
                    }
                }
                1 => out.truncate(at),
                2 => {
                    let from = rng.below(donor.len());
                    let to = from + rng.below(donor.len() - from + 1);
                    let end = (at + rng.below(16)).min(bytes.len());
                    out.splice(at..end, donor.as_bytes()[from..to].iter().copied());
                }
                3 => {
                    let run = if rng.below(2) == 0 { "[" } else { "{\"k\":" };
                    insert(&mut out, at, &run.repeat(200 + rng.below(2_000)));
                }
                4 => {
                    let depth = serde_json::MAX_DEPTH - 6 + rng.below(8);
                    let (down, up) = if rng.below(2) == 0 {
                        ("[", "]")
                    } else {
                        ("{\"a\":", "}")
                    };
                    insert(
                        &mut out,
                        open,
                        &format!("\"zz\":{}0{},", down.repeat(depth), up.repeat(depth)),
                    );
                }
                5 => insert(
                    &mut out,
                    open,
                    r#""zz":[1,{"b":"\u0041\n"},null,-2.5e3,true],"#,
                ),
                6 => {
                    let key = keys[rng.below(keys.len())];
                    let key_end = key + 1 + text[key + 1..].find('"').expect("a key ends");
                    insert(&mut out, key, &format!("{}:null,", &text[key..=key_end]));
                }
                _ => {
                    if let Some(&digit) = digits.get(rng.below(digits.len())) {
                        out[digit] = b'0' + rng.below(10) as u8;
                    }
                    insert(&mut out, at, " ");
                }
            }
            String::from_utf8_lossy(&out).into_owned()
        })
        .collect()
}

#[test]
fn seeded_mutants_decode_alike_on_both_routes() {
    let reqs = requests();
    let mut bases: Vec<(&str, String, Check)> = Vec::new();
    for snap in &reqs[..4] {
        bases.push(("ReqSnap", text(snap), check::<ReqSnap>));
    }
    for d in decisions(&reqs) {
        bases.push(("DecisionSnap", text(&d), check::<DecisionSnap>));
    }
    let hello = HelloPayload {
        role: Role::Workload,
        client: 1,
        clients: 2,
    };
    bases.push(("HelloPayload", text(&hello), check::<HelloPayload>));
    bases.push((
        "TickPayload",
        text(&TickPayload { tick: 12 }),
        check::<TickPayload>,
    ));
    let error = ErrorPayload {
        code: 2,
        detail: "bad \"frame\"".into(),
    };
    bases.push(("ErrorPayload", text(&error), check::<ErrorPayload>));
    for name in ["e16-42.seg0005.jsonl", "e16-42-overload.seg0027.jsonl"] {
        for line in fixture(name).lines().take(4) {
            bases.push(("LedgerRecord", line.to_string(), check::<LedgerRecord>));
        }
    }
    bases.push((
        "ServeCheckpoint",
        checkpoint_world(),
        check::<ServeCheckpoint>,
    ));

    let mut rng = Rng(0x0dec_0de5);
    let (mut total, mut decoded) = (0, 0);
    for (i, (label, base, check)) in bases.iter().enumerate() {
        assert!(check(base), "{label}: {base}");
        let donor = &bases[(i + 1) % bases.len()].1;
        for mutant in mutants(base, donor, 150, &mut rng) {
            let caught = std::panic::catch_unwind(|| check(&mutant));
            decoded += usize::from(caught.expect("the routes agree"));
            total += 1;
        }
    }
    // Both outcomes are well represented: a mutant that still decodes
    // (an inserted value under an unknown key, a flip inside a string or
    // a digit) is compared value for value.
    assert!(total >= 2_000, "only {total} mutants");
    assert!(
        decoded * 10 >= total,
        "only {decoded} of {total} mutants decode"
    );
    assert!(decoded * 2 <= total, "{decoded} of {total} mutants decode");
}

/// 1,000,000 levels of nesting spliced into a request: a depth error on
/// the typed route wherever it stands, and never a stack overflow.
#[test]
fn deep_nesting_in_a_request_is_a_depth_error() {
    let req = text(&requests()[0]);
    let deep = |open: &str| open.repeat(1_000_000);
    let cases = [
        (
            "under an unknown key",
            format!(r#"{{"zz":{}{}"#, deep("["), &req[1..]),
        ),
        (
            "under params",
            req.replacen(r#""params":[]"#, &format!(r#""params":{}"#, deep("[")), 1),
        ),
        (
            "under ctx",
            req.replacen(
                r#""ctx":null"#,
                &format!(r#""ctx":{}"#, deep(r#"{"trace_id":"#)),
                1,
            ),
        ),
    ];
    for (label, text) in cases {
        assert_ne!(text.len(), req.len(), "{label}: nothing spliced");
        assert!(
            decode_payload::<ReqSnap>(text.as_bytes()).is_none(),
            "{label}"
        );
        let err = serde_json::from_str::<ReqSnap>(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("nesting deeper than"), "{label}: {err}");
    }
}

/// A valid ledger record with a 200,000-deep value in one of its event's
/// fields: `from_jsonl` names the line and the depth.
#[test]
fn deep_nesting_in_a_ledger_record_is_a_depth_error() {
    // The first line of a golden segment: a `SegmentOpened` record.
    let segment = fixture("e16-42.seg0005.jsonl");
    let line = segment.lines().next().expect("a segment has lines");
    let nested = "[".repeat(200_000) + &"]".repeat(200_000);
    let spliced = line.replacen(r#""segment":5"#, &format!(r#""segment":{nested}"#), 1);
    assert_ne!(spliced, line, "the record opens segment 5");
    let err = Ledger::from_jsonl(&format!("{spliced}\n{line}\n")).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("line 1") && message.contains("nesting deeper than"),
        "{message}"
    );
}

/// On a line with both a type error and a syntax error, the routes may
/// name different ones: the typed route stops at the first field (in text
/// order) that fails to decode, while the reference parses the whole line
/// before reading any field. They still agree that the line is refused.
#[test]
fn a_type_error_before_a_syntax_error_is_the_one_the_typed_route_names() {
    let text = r#"{"seq":"x","tick":"#;
    let streamed = serde_json::from_str::<LedgerRecord>(text)
        .unwrap_err()
        .to_string();
    let reference = serde_json::from_str_via_value::<LedgerRecord>(text)
        .unwrap_err()
        .to_string();
    assert_eq!(
        streamed,
        "serde_json: expected unsigned integer, got string"
    );
    assert_eq!(reference, "serde_json: unexpected end of input");
    let err = Ledger::from_jsonl(&format!("{text}\n"))
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "ledger import failed at line 1: serde_json: expected unsigned integer, got string"
    );
}
