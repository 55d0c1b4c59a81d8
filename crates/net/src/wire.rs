//! JSON payload types carried inside frames, plus the protocol's close
//! codes.
//!
//! Every non-empty frame payload is one of these types serialized as UTF-8
//! JSON. Requests travel whole as [`ReqSnap`], the serializable mirror of
//! [`DecisionRequest`](apdm_serve::DecisionRequest) (a checkpoint stores
//! queued requests as rows over its schema and action tables instead).
//! Decisions travel as [`DecisionSnap`], a mirror of
//! [`Decision`] minus the trace context (which rides
//! in the frame header instead, see `docs/PROTOCOL.md`).

use apdm_guards::GuardVerdict;
use apdm_serve::{Decision, ShedReason, TenantId};
use apdm_telemetry::TraceContext;
use serde::{Deserialize, Serialize};

pub use apdm_serve::ReqSnap;

/// Encode a payload value as UTF-8 JSON bytes. Infallible for the
/// protocol's own payload types (they contain nothing unserializable).
pub fn encode_payload<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("protocol payloads always encode")
        .into_bytes()
}

/// Decode a UTF-8 JSON payload. `None` on any failure — invalid UTF-8 and
/// schema mismatches alike — so callers stay fail-closed without caring
/// which layer refused.
pub fn decode_payload<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    let text = std::str::from_utf8(bytes).ok()?;
    serde_json::from_str(text).ok()
}

/// Close/error codes carried in [`ErrorPayload::code`] and recorded in the
/// boundary audit ledger. See `docs/PROTOCOL.md` for the full semantics.
pub mod close_code {
    /// Peer spoke an unsupported protocol version.
    pub const BAD_VERSION: u16 = 1;
    /// Frame-level garbage: bad magic, unknown type, reserved context
    /// bits, or CRC mismatch. The stream may be desynchronized, so the
    /// connection is dropped.
    pub const MALFORMED: u16 = 2;
    /// Declared payload length exceeded the protocol maximum.
    pub const OVERSIZE: u16 = 3;
    /// Peer stalled mid-frame past the read timeout, or disconnected
    /// leaving a torn frame.
    pub const STALLED: u16 = 4;
    /// Well-formed frame at the wrong time (e.g. `Request` before `Hello`,
    /// `TickDone` for a tick other than the one being collected).
    pub const PROTOCOL: u16 = 5;
    /// Attributable bad request: the envelope was valid, so the request was
    /// answered with a fail-closed deny and audited; the connection stays
    /// open. This code appears in audit records, never in an `Error` frame.
    pub const REJECTED: u16 = 6;
    /// Server is shutting down (end of run).
    pub const SHUTDOWN: u16 = 7;

    /// Human-readable tag for a close code (audit records, logs).
    pub fn name(code: u16) -> &'static str {
        match code {
            BAD_VERSION => "bad-version",
            MALFORMED => "malformed",
            OVERSIZE => "oversize",
            STALLED => "stalled",
            PROTOCOL => "protocol",
            REJECTED => "rejected",
            SHUTDOWN => "shutdown",
            _ => "unknown",
        }
    }
}

/// What a connecting client is for. Declared in the `Hello` payload and
/// enforced by the server: only `Workload` clients may submit requests and
/// participate in the tick barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Drives a deterministic slice of the workload and joins the
    /// per-tick barrier.
    Workload,
    /// May only `Ping`; any `Request` it sends is rejected fail-closed.
    Observer,
}

/// Payload of a `Hello` frame (client → server, first frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloPayload {
    /// The client's declared role.
    pub role: Role,
    /// This client's index in `0..clients` (workload partition key).
    /// Ignored for observers.
    pub client: u32,
    /// Total number of workload clients the sender believes are driving
    /// the run. Must match the server's configuration.
    pub clients: u32,
}

/// Payload of a `Welcome` frame (server → client, answers `Hello`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WelcomePayload {
    /// Protocol version the server speaks.
    pub version: u8,
    /// Number of workload clients the server expects.
    pub clients: u32,
}

/// Payload of `TickDone` and `TickAck` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickPayload {
    /// The tick this barrier message refers to.
    pub tick: u64,
}

/// Payload of an `Error` frame (server → client, usually the last frame
/// before the server closes the connection).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorPayload {
    /// One of the [`close_code`] constants.
    pub code: u16,
    /// Human-readable detail. Informational only — clients must key off
    /// `code`.
    pub detail: String,
}

/// Serializable mirror of [`Decision`] for the wire. The trace context is
/// **not** part of the payload — it rides in the frame header, so the
/// payload bytes of a decision are identical whether or not the request
/// was traced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionSnap {
    /// The request this answers.
    pub request_id: u64,
    /// Billed tenant.
    pub tenant: u32,
    /// Subject device.
    pub device: u64,
    /// Name of the proposed action the verdict concerns.
    pub action: String,
    /// The guard verdict (always a deny when `shed` is set).
    pub verdict: GuardVerdict,
    /// Set when the service refused to evaluate the request.
    pub shed: Option<ShedReason>,
    /// Tick the request entered the service.
    pub submitted_at: u64,
    /// Tick the decision was rendered.
    pub decided_at: u64,
}

impl From<&Decision> for DecisionSnap {
    fn from(d: &Decision) -> DecisionSnap {
        DecisionSnap {
            request_id: d.request_id,
            tenant: d.tenant.0,
            device: d.device,
            action: d.action.clone(),
            verdict: d.verdict.clone(),
            shed: d.shed,
            submitted_at: d.submitted_at,
            decided_at: d.decided_at,
        }
    }
}

impl DecisionSnap {
    /// Rehydrate a full [`Decision`], reattaching the trace context that
    /// arrived in the frame header.
    pub fn into_decision(self, ctx: Option<TraceContext>) -> Decision {
        Decision {
            request_id: self.request_id,
            tenant: TenantId(self.tenant),
            device: self.device,
            action: self.action,
            verdict: self.verdict,
            shed: self.shed,
            submitted_at: self.submitted_at,
            decided_at: self.decided_at,
            ctx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_through_json() {
        let hello = HelloPayload {
            role: Role::Workload,
            client: 1,
            clients: 4,
        };
        let json = serde_json::to_string(&hello).unwrap();
        // The exact bytes matter: docs/PROTOCOL.md's worked example and any
        // non-Rust client implementation depend on this encoding.
        assert_eq!(json, r#"{"role":"Workload","client":1,"clients":4}"#);
        assert_eq!(serde_json::from_str::<HelloPayload>(&json).unwrap(), hello);

        let err = ErrorPayload {
            code: close_code::OVERSIZE,
            detail: "payload length 70000 exceeds 65536".into(),
        };
        let json = serde_json::to_string(&err).unwrap();
        assert_eq!(serde_json::from_str::<ErrorPayload>(&json).unwrap(), err);
    }

    #[test]
    fn decision_snap_round_trips_with_header_ctx() {
        let snap = DecisionSnap {
            request_id: 9,
            tenant: 2,
            device: 11,
            action: "strike".into(),
            verdict: GuardVerdict::Deny {
                reason: "harm".into(),
            },
            shed: None,
            submitted_at: 3,
            decided_at: 4,
        };
        let json = encode_payload(&snap);
        let back: DecisionSnap = decode_payload(&json).unwrap();
        assert_eq!(back, snap);
        let ctx = TraceContext::root(5, true);
        let decision = back.into_decision(Some(ctx));
        assert_eq!(decision.ctx, Some(ctx));
        assert_eq!(DecisionSnap::from(&decision), snap);
        assert_eq!(decision.verdict_name(), "deny");
    }

    #[test]
    fn close_codes_have_stable_names() {
        for (code, name) in [
            (close_code::BAD_VERSION, "bad-version"),
            (close_code::MALFORMED, "malformed"),
            (close_code::OVERSIZE, "oversize"),
            (close_code::STALLED, "stalled"),
            (close_code::PROTOCOL, "protocol"),
            (close_code::REJECTED, "rejected"),
            (close_code::SHUTDOWN, "shutdown"),
        ] {
            assert_eq!(close_code::name(code), name);
        }
        assert_eq!(close_code::name(999), "unknown");
    }
}
