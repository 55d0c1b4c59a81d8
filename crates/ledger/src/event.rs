//! The one event vocabulary every layer records through.
//!
//! `RunEvent` subsumes the bespoke bookkeeping that used to live in three
//! places (guard audit entries, metrics counters, experiment report rows):
//! guard verdicts, executed actions, fault injections, tamper attempts,
//! break-glass grants, deactivations and harms all land here, and
//! [`AuditEntry`] records flow through the single [`RunEvent::Audit`]
//! bridge instead of a parallel struct.

use crate::name::Name;
use apdm_policy::AuditEntry;
use serde::{Deserialize, Serialize, Value};

/// One occurrence in a recorded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// The run began (always record 0 of a ledger).
    RunStarted {
        /// Experiment or scenario name.
        experiment: String,
        /// Master seed of the run.
        seed: u64,
        /// Number of devices in the fleet.
        devices: u64,
    },
    /// A device's policy engine proposed an action.
    Proposal {
        /// Proposing device.
        device: u64,
        /// Proposed action name (interned — see [`crate::name`]).
        action: Name,
    },
    /// A guard stack intervened on a proposal (deny / replace / obligations).
    Verdict {
        /// Subject device.
        device: u64,
        /// The proposed action the verdict concerns.
        action: Name,
        /// Verdict kind: `deny`, `replace:<substitute>`, or
        /// `allow+obligations`.
        verdict: Name,
        /// The guard's reason (empty for obligation-only verdicts).
        reason: String,
    },
    /// An action actually executed against the world.
    Execution {
        /// Executing device.
        device: u64,
        /// Effective action name (post-guard).
        action: Name,
    },
    /// A previously incurred obligation executed.
    ObligationExecuted {
        /// Obligated device.
        device: u64,
        /// Obligation action name.
        action: Name,
    },
    /// A device was deactivated (Section VI.C).
    Deactivation {
        /// Deactivated device.
        device: u64,
        /// Why (controller reason).
        reason: String,
    },
    /// A fault-injection pathway fired (Section IV).
    FaultInjected {
        /// Target device.
        device: u64,
        /// Pathway name.
        pathway: String,
    },
    /// An attacker probed a guard's tamper status (Section IV backdoors /
    /// reprogramming vs Section VI's tamper-proofness premise).
    TamperAttempt {
        /// Device whose guard was probed.
        device: u64,
        /// Whether the guard is compromised after the attempt.
        compromised: bool,
    },
    /// A device's connectivity-dependent safety machinery changed
    /// degradation state (isolated from / reconnected to its coordinator)
    /// under its configured fail mode (experiment E12).
    Degraded {
        /// The device whose comms state changed.
        device: u64,
        /// The engaged fail mode (`open`, `closed`, `local-fallback`).
        mode: String,
        /// `true` when the device became isolated, `false` on reconnect.
        isolated: bool,
    },
    /// A human came to harm.
    Harm {
        /// Harmed human id.
        human: u64,
        /// Harm cause (display form).
        cause: String,
        /// Responsible device, when attributable.
        device: Option<u64>,
    },
    /// A policy-layer audit entry (the single bridge for
    /// [`apdm_policy::AuditLog`] content: break-glass grants/denials, guard
    /// interventions, obligation violations, operator notes).
    Audit(AuditEntry),
    /// A checkpoint frame.
    Snapshot(SnapshotFrame),
    /// A rotated ledger segment opened (always record 0 of every segment
    /// after the first). The frame anchors the predecessor segment: its
    /// head digest and record count are chained into this segment, so a
    /// rewrite of any sealed predecessor breaks the anchor even after the
    /// predecessor itself has been pruned by retention.
    SegmentOpened {
        /// Zero-based index of the segment this record opens.
        segment: u64,
        /// Head digest of the predecessor segment (its anchor).
        prev_head: u64,
        /// Record count of the predecessor segment, seal included.
        prev_records: u64,
    },
    /// A rotated segment sealed (always the final record of every segment
    /// except the last, which seals with [`RunEvent::RunFinished`]).
    SegmentSealed {
        /// Zero-based index of the segment this record seals.
        segment: u64,
        /// Record count of the sealed segment, this seal included.
        records: u64,
    },
    /// The run ended (always the final record of a sealed ledger).
    RunFinished {
        /// Ticks simulated.
        ticks: u64,
        /// Total harms over the run.
        harms: u64,
    },
}

impl RunEvent {
    /// Stable lowercase tag for displays and filters.
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::RunStarted { .. } => "run-started",
            RunEvent::Proposal { .. } => "proposal",
            RunEvent::Verdict { .. } => "verdict",
            RunEvent::Execution { .. } => "execution",
            RunEvent::ObligationExecuted { .. } => "obligation-executed",
            RunEvent::Deactivation { .. } => "deactivation",
            RunEvent::FaultInjected { .. } => "fault-injected",
            RunEvent::TamperAttempt { .. } => "tamper-attempt",
            RunEvent::Degraded { .. } => "degraded",
            RunEvent::Harm { .. } => "harm",
            RunEvent::Audit(_) => "audit",
            RunEvent::Snapshot(_) => "snapshot",
            RunEvent::SegmentOpened { .. } => "segment-opened",
            RunEvent::SegmentSealed { .. } => "segment-sealed",
            RunEvent::RunFinished { .. } => "run-finished",
        }
    }

    /// Is this a checkpoint frame?
    pub fn is_snapshot(&self) -> bool {
        matches!(self, RunEvent::Snapshot(_))
    }
}

/// Frozen per-device state inside a [`SnapshotFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSnap {
    /// Device id.
    pub id: u64,
    /// State-vector values in schema order.
    pub values: Vec<f64>,
    /// Whether the device was active.
    pub active: bool,
    /// World x position.
    pub x: i32,
    /// World y position.
    pub y: i32,
    /// Opaque guard-integrity payload (the sim layer stores the pre-action
    /// check's `TamperStatus` here; `Null` when no guard is installed).
    pub tamper: Value,
}

/// A JSON fragment held as its canonical compact text: the bytes
/// [`serde_json::to_string_via_value`] renders for some [`Value`].
///
/// A snapshot's payloads are written once, when the frame is taken, and
/// read back only on resume, so the frame keeps their text rather than a
/// [`Value`] tree: appending, hashing or exporting the frame copies the
/// text verbatim, and dropping it frees one `String`. The only ways in are
/// [`RawJson::of`] (the streaming writer) and [`Deserialize`] (which
/// re-renders a parsed value), so the text is always canonical and a frame
/// serializes to the same bytes whichever way it was built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(String);

impl RawJson {
    /// The compact JSON of `value`, written once.
    pub fn of<T: Serialize + ?Sized>(value: &T) -> Self {
        let mut text = String::new();
        value.write_json(&mut text);
        RawJson(text)
    }

    /// Parse the fragment as a `T`.
    pub fn parse<T: Deserialize>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_str(&self.0)
    }
}

impl Serialize for RawJson {
    /// Parses the text back. A fragment of a parsed document nests no
    /// deeper than the parser allows, so this fails only for a fragment
    /// [`of`](RawJson::of) an in-memory value nested past
    /// `serde_json::MAX_DEPTH`.
    fn to_value(&self) -> Value {
        self.parse()
            .expect("a RawJson holds the canonical JSON of a Value")
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl Deserialize for RawJson {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(RawJson::of(value))
    }
}

/// A checkpoint: everything needed to resume a run at `tick + 1`.
///
/// World and metrics are embedded as canonical JSON text ([`RawJson`]) so
/// this crate does not depend on the sim layer and a rotation builds no
/// tree; the owning layer parses them with its own `Deserialize` impls on
/// resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFrame {
    /// Tick *after* which the frame was taken (resume at `tick + 1`).
    pub tick: u64,
    /// The run RNG's four xoshiro256++ state words.
    pub rng: [u64; 4],
    /// Serialized `World`.
    pub world: RawJson,
    /// Serialized run `Metrics`.
    pub metrics: RawJson,
    /// Per-device state in id order.
    pub devices: Vec<DeviceSnap>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_policy::AuditKind;

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            RunEvent::RunStarted {
                experiment: "e9".into(),
                seed: 7,
                devices: 3,
            },
            RunEvent::Proposal {
                device: 1,
                action: "strike".into(),
            },
            RunEvent::Verdict {
                device: 1,
                action: "strike".into(),
                verdict: "deny".into(),
                reason: "harm".into(),
            },
            RunEvent::Harm {
                human: 4,
                cause: "direct strike".into(),
                device: Some(1),
            },
            RunEvent::Degraded {
                device: 6,
                mode: "local-fallback".into(),
                isolated: true,
            },
            RunEvent::Audit(AuditEntry {
                seq: 0,
                tick: 3,
                subject: "device-1".into(),
                kind: AuditKind::GuardIntervention,
                detail: "denied".into(),
            }),
            RunEvent::Snapshot(SnapshotFrame {
                tick: 10,
                rng: [1, 2, 3, 4],
                world: RawJson::of(&()),
                metrics: RawJson::of(&()),
                devices: vec![DeviceSnap {
                    id: 0,
                    values: vec![0.5],
                    active: true,
                    x: -2,
                    y: 7,
                    tamper: Value::Null,
                }],
            }),
            RunEvent::SegmentOpened {
                segment: 3,
                prev_head: 0xdead_beef_cafe_f00d,
                prev_records: 512,
            },
            RunEvent::SegmentSealed {
                segment: 3,
                records: 640,
            },
            RunEvent::RunFinished {
                ticks: 100,
                harms: 2,
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: RunEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "roundtrip failed for {json}");
        }
    }

    /// Values whose canonical text exercises every token writer: edge
    /// floats (non-finite ones render as `null`), integers past `i64`,
    /// escaped and non-ASCII strings, empty and nested containers.
    fn fragments() -> Vec<Value> {
        let floats = [-0.0, 1e21, 5e-324, 0.1, f64::NAN, f64::NEG_INFINITY, 2.0];
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::UInt(u64::MAX),
            Value::Str("\"q\"\\\n\u{1}\u{7f}é😀".into()),
            Value::Seq(floats.iter().map(|&f| Value::Float(f)).collect()),
            Value::Map(vec![
                ("".into(), Value::Map(Vec::new())),
                ("k\"ey".into(), Value::Seq(vec![Value::Seq(Vec::new())])),
            ]),
        ]
    }

    #[test]
    fn raw_json_is_the_reference_encoding() {
        for value in fragments() {
            let raw = RawJson::of(&value);
            assert_eq!(raw.0, serde_json::to_string_via_value(&value).unwrap());
            assert_eq!(serde_json::to_string_via_value(&raw).unwrap(), raw.0);
        }
        let device = DeviceSnap {
            id: 3,
            values: vec![0.5, -0.0],
            active: false,
            x: i32::MIN,
            y: 4,
            tamper: Value::Str("x".into()),
        };
        let raw = RawJson::of(&device);
        assert_eq!(raw.0, serde_json::to_string_via_value(&device).unwrap());
        assert_eq!(raw.parse::<DeviceSnap>().unwrap(), device);
    }

    #[test]
    fn raw_json_from_a_parsed_value_writes_its_source_text() {
        for value in fragments() {
            let text = serde_json::to_string(&value).unwrap();
            let parsed: Value = serde_json::from_str(&text).unwrap();
            let raw = RawJson::from_value(&parsed).unwrap();
            let mut written = String::new();
            raw.write_json(&mut written);
            assert_eq!(written, text);
            assert_eq!(raw.to_value(), parsed);
        }
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(
            RunEvent::Proposal {
                device: 0,
                action: Name::default()
            }
            .kind(),
            "proposal"
        );
        assert_eq!(
            RunEvent::RunFinished { ticks: 0, harms: 0 }.kind(),
            "run-finished"
        );
        assert!(RunEvent::Snapshot(SnapshotFrame {
            tick: 0,
            rng: [0; 4],
            world: RawJson::of(&()),
            metrics: RawJson::of(&()),
            devices: vec![],
        })
        .is_snapshot());
    }
}
