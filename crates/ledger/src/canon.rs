//! The canonical record: the bytes a record's chain digest covers.
//!
//! Ledger format 2 hashes a compact binary form of `(seq, tick, event)`
//! rather than the record's JSON text, so an append neither writes JSON
//! nor feeds FNV-1a the keys, quotes and decimal digits of a JSON line.
//! The JSONL export is unchanged; only what [`chain_digest`] reads is.
//!
//! A record is `varint(seq) ‖ varint(tick) ‖ tag ‖ fields`, the fields in
//! declaration order:
//!
//! | field                                  | bytes                          |
//! |----------------------------------------|--------------------------------|
//! | `u64`                                  | LEB128 varint                  |
//! | `i32` (`DeviceSnap.x`, `.y`)           | zigzag LEB128 varint           |
//! | `bool`                                 | one byte, `0` or `1`           |
//! | `prev_head`                            | 8 bytes, little-endian         |
//! | `String`, `Name`                       | `varint(len) ‖ UTF-8 bytes`    |
//! | `RawJson`                              | `varint(len) ‖ its text`       |
//! | `Option<T>`                            | `0`, or `1 ‖ T`                |
//! | `[u64; 4]` (`rng`)                     | four varints                   |
//! | `Vec<DeviceSnap>`                      | `varint(count) ‖ each device`  |
//! | `AuditEntry`, `DeviceSnap.values`, `DeviceSnap.tamper` | `varint(len) ‖ compact JSON` |
//!
//! `tag` is one byte per [`RunEvent`] variant, numbered in declaration
//! order from `RunStarted = 0` to `RunFinished = 14`, and fixed from format
//! 2 on. Every variable-length field carries its length, so no two records
//! share canonical bytes.
//!
//! Fields that can hold a float stay JSON text. The export writes a
//! non-finite float as `null`, so a float hashed by its bits would not
//! survive an export→import round trip; the canonical bytes of a record
//! must equal those of the record read back from its JSONL line.
//!
//! [`chain_digest`]: crate::hash::chain_digest

use std::cell::RefCell;

use serde::{json, Serialize};

use crate::event::{DeviceSnap, RunEvent, SnapshotFrame};

/// The ledger format this build writes and verifies: 2, chain digests over
/// the canonical record of this module. Format 1 digested each record's
/// compact JSON text `[seq,tick,event]`.
pub const LEDGER_FORMAT: u64 = 2;

/// A reusable canonical-record writer.
#[derive(Default)]
struct Canon {
    bytes: Vec<u8>,
    /// Scratch for a JSON-text field, written before its length is known.
    json: String,
}

impl Canon {
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    fn i32(&mut self, v: i32) {
        self.u64(u64::from(((v << 1) ^ (v >> 31)) as u32));
    }

    fn bool(&mut self, v: bool) {
        self.bytes.push(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    fn json<T: Serialize + ?Sized>(&mut self, value: &T) {
        let mut text = std::mem::take(&mut self.json);
        text.clear();
        value.write_json(&mut text);
        self.str(&text);
        self.json = text;
    }

    fn device(&mut self, d: &DeviceSnap) {
        self.u64(d.id);
        self.json(&d.values);
        self.bool(d.active);
        self.i32(d.x);
        self.i32(d.y);
        self.json(&d.tamper);
    }

    fn snapshot(&mut self, f: &SnapshotFrame) {
        self.u64(f.tick);
        for word in f.rng {
            self.u64(word);
        }
        self.str(f.world.as_str());
        self.str(f.metrics.as_str());
        self.u64(f.devices.len() as u64);
        for device in &f.devices {
            self.device(device);
        }
    }

    /// Replace the buffer's contents with the canonical record.
    fn record(&mut self, seq: u64, tick: u64, event: &RunEvent) {
        self.bytes.clear();
        self.u64(seq);
        self.u64(tick);
        match event {
            RunEvent::RunStarted {
                experiment,
                seed,
                devices,
            } => {
                self.bytes.push(0);
                self.str(experiment);
                self.u64(*seed);
                self.u64(*devices);
            }
            RunEvent::Proposal { device, action } => {
                self.bytes.push(1);
                self.u64(*device);
                self.str(action);
            }
            RunEvent::Verdict {
                device,
                action,
                verdict,
                reason,
            } => {
                self.bytes.push(2);
                self.u64(*device);
                self.str(action);
                self.str(verdict);
                self.str(reason);
            }
            RunEvent::Execution { device, action } => {
                self.bytes.push(3);
                self.u64(*device);
                self.str(action);
            }
            RunEvent::ObligationExecuted { device, action } => {
                self.bytes.push(4);
                self.u64(*device);
                self.str(action);
            }
            RunEvent::Deactivation { device, reason } => {
                self.bytes.push(5);
                self.u64(*device);
                self.str(reason);
            }
            RunEvent::FaultInjected { device, pathway } => {
                self.bytes.push(6);
                self.u64(*device);
                self.str(pathway);
            }
            RunEvent::TamperAttempt {
                device,
                compromised,
            } => {
                self.bytes.push(7);
                self.u64(*device);
                self.bool(*compromised);
            }
            RunEvent::Degraded {
                device,
                mode,
                isolated,
            } => {
                self.bytes.push(8);
                self.u64(*device);
                self.str(mode);
                self.bool(*isolated);
            }
            RunEvent::Harm {
                human,
                cause,
                device,
            } => {
                self.bytes.push(9);
                self.u64(*human);
                self.str(cause);
                match device {
                    None => self.bytes.push(0),
                    Some(device) => {
                        self.bytes.push(1);
                        self.u64(*device);
                    }
                }
            }
            RunEvent::Audit(entry) => {
                self.bytes.push(10);
                self.json(entry);
            }
            RunEvent::Snapshot(frame) => {
                self.bytes.push(11);
                self.snapshot(frame);
            }
            RunEvent::SegmentOpened {
                segment,
                prev_head,
                prev_records,
            } => {
                self.bytes.push(12);
                self.u64(*segment);
                self.bytes.extend_from_slice(&prev_head.to_le_bytes());
                self.u64(*prev_records);
            }
            RunEvent::SegmentSealed { segment, records } => {
                self.bytes.push(13);
                self.u64(*segment);
                self.u64(*records);
            }
            RunEvent::RunFinished { ticks, harms } => {
                self.bytes.push(14);
                self.u64(*ticks);
                self.u64(*harms);
            }
        }
    }
}

thread_local! {
    /// Every append and every verified record writes its canonical bytes
    /// here, so the hot path allocates nothing once the buffers have grown
    /// to the largest record (a checkpoint).
    static CANON: RefCell<Canon> = RefCell::new(Canon::default());
}

/// Run `f` over the canonical record of `(seq, tick, event)`.
pub(crate) fn with_canonical_record<R>(
    seq: u64,
    tick: u64,
    event: &RunEvent,
    f: impl FnOnce(&[u8]) -> R,
) -> R {
    CANON.with(|canon| {
        let mut canon = canon.borrow_mut();
        canon.record(seq, tick, event);
        f(&canon.bytes)
    })
}

/// The text format 1 digested: compact JSON of `[seq,tick,event]`. Kept
/// only to recognize a format-1 ledger by its first record; nothing is
/// verified through it.
pub(crate) fn format_1_payload(seq: u64, tick: u64, event: &RunEvent) -> String {
    let mut out = String::from("[");
    json::write_u64(&mut out, seq);
    out.push(',');
    json::write_u64(&mut out, tick);
    out.push(',');
    event.write_json(&mut out);
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RawJson;
    use apdm_policy::{AuditEntry, AuditKind};
    use serde::Value;

    fn canonical(seq: u64, tick: u64, event: &RunEvent) -> Vec<u8> {
        with_canonical_record(seq, tick, event, <[u8]>::to_vec)
    }

    fn verdict(action: &str, verdict: &str, reason: &str) -> RunEvent {
        RunEvent::Verdict {
            device: 3,
            action: action.into(),
            verdict: verdict.into(),
            reason: reason.into(),
        }
    }

    #[test]
    fn a_verdict_is_its_fields_length_prefixed() {
        let bytes = canonical(300, 5, &verdict("strike", "deny", "harm"));
        let mut expected = vec![0xac, 0x02, 5, 2, 3];
        for s in ["strike", "deny", "harm"] {
            expected.push(s.len() as u8);
            expected.extend_from_slice(s.as_bytes());
        }
        assert_eq!(bytes, expected);
    }

    #[test]
    fn varints_are_leb128() {
        let finished = |ticks| canonical(0, 0, &RunEvent::RunFinished { ticks, harms: 0 });
        assert_eq!(finished(127), [0, 0, 14, 0x7f, 0]);
        assert_eq!(finished(128), [0, 0, 14, 0x80, 0x01, 0]);
        assert_eq!(
            finished(1 << 63),
            [0, 0, 14, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0]
        );
        let mut max = vec![0, 0, 14];
        max.extend([0xff; 9]);
        max.extend([0x01, 0]);
        assert_eq!(finished(u64::MAX), max);
    }

    #[test]
    fn split_strings_do_not_collide() {
        assert_ne!(
            canonical(1, 1, &verdict("ab", "c", "r")),
            canonical(1, 1, &verdict("a", "bc", "r"))
        );
        assert_ne!(
            canonical(1, 1, &verdict("a", "b", "")),
            canonical(1, 1, &verdict("a", "", "b"))
        );
    }

    #[test]
    fn varint_boundaries_do_not_collide() {
        let pairs = [
            (127, 128),
            (128, 16_383),
            (1 << 63, (1 << 63) - 1),
            (0, u64::MAX),
        ];
        for (a, b) in pairs {
            let ticks = |ticks| canonical(0, 0, &RunEvent::RunFinished { ticks, harms: 1 });
            assert_ne!(ticks(a), ticks(b), "{a} vs {b}");
            // Where one field ends and the next begins is never ambiguous.
            assert_ne!(
                canonical(a, b, &RunEvent::RunFinished { ticks: 0, harms: 0 }),
                canonical(b, a, &RunEvent::RunFinished { ticks: 0, harms: 0 })
            );
        }
    }

    #[test]
    fn an_empty_field_is_not_a_missing_one() {
        let harm = |device| RunEvent::Harm {
            human: 1,
            cause: String::new(),
            device,
        };
        assert_ne!(
            canonical(0, 0, &harm(None)),
            canonical(0, 0, &harm(Some(0)))
        );
        // An empty reason is its length, 0: never nothing.
        let empty = canonical(0, 0, &verdict("a", "deny", ""));
        let named = canonical(0, 0, &verdict("a", "deny", "x"));
        assert_eq!(empty.last(), Some(&0));
        assert_eq!(empty[..empty.len() - 1], named[..named.len() - 2]);
    }

    #[test]
    fn variants_with_equal_fields_differ_by_tag() {
        let [p, e, o] = [
            RunEvent::Proposal {
                device: 4,
                action: "dig".into(),
            },
            RunEvent::Execution {
                device: 4,
                action: "dig".into(),
            },
            RunEvent::ObligationExecuted {
                device: 4,
                action: "dig".into(),
            },
        ]
        .map(|event| canonical(9, 9, &event));
        assert!(p != e && e != o && p != o);
        assert_eq!((p[2], e[2], o[2]), (1, 3, 4));
        assert_eq!((&p[3..], &p[3..]), (&e[3..], &o[3..]));
    }

    #[test]
    fn float_bearing_fields_are_their_json_text() {
        let snap = RunEvent::Snapshot(SnapshotFrame {
            tick: 1,
            rng: [1, 2, 3, 4],
            world: RawJson::of(&Value::Float(f64::NAN)),
            metrics: RawJson::of(&()),
            devices: vec![DeviceSnap {
                id: 7,
                values: vec![-0.0, 0.5],
                active: true,
                x: -1,
                y: 1,
                tamper: Value::Null,
            }],
        });
        let mut expected = vec![0, 0, 11, 1, 1, 2, 3, 4];
        for text in ["null", "null"] {
            expected.push(text.len() as u8);
            expected.extend_from_slice(text.as_bytes());
        }
        expected.extend([1, 7]);
        expected.push(10);
        expected.extend_from_slice(b"[-0.0,0.5]");
        expected.extend([1, 1, 2, 4]);
        expected.extend_from_slice(b"null");
        assert_eq!(canonical(0, 0, &snap), expected);

        let entry = AuditEntry {
            seq: 1,
            tick: 2,
            subject: "d".into(),
            kind: AuditKind::Note,
            detail: "x".into(),
        };
        let text = serde_json::to_string(&entry).unwrap();
        let bytes = canonical(0, 0, &RunEvent::Audit(entry));
        assert_eq!(bytes[..4], [0, 0, 10, text.len() as u8]);
        assert_eq!(&bytes[4..], text.as_bytes());
    }

    #[test]
    fn format_1_payload_is_the_records_json_array() {
        assert_eq!(
            format_1_payload(2, 7, &RunEvent::RunFinished { ticks: 7, harms: 0 }),
            r#"[2,7,{"RunFinished":{"ticks":7,"harms":0}}]"#
        );
    }
}
