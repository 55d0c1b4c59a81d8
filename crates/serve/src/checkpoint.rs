//! Checkpoint/restore of the decision service.
//!
//! A [`ServeCheckpoint`] freezes everything the decision stream depends on
//! — admission-queue lanes and DRR deficits, the work meter, per-shard
//! backpressure costs and the batch cursor (inside [`ServeStats`]) — as one
//! serializable value that rides the run ledger as a [`SnapshotFrame`] at
//! segment-rotation points. A restarted process restores from the latest
//! frame and resumes mid-run, producing a decision stream and a sealed
//! ledger **bit-identical** to an uninterrupted run at any thread count
//! (experiment E16 sweeps this).
//!
//! **Format version.** Every checkpoint starts with a `format` field,
//! [`CHECKPOINT_FORMAT`] (3: no memo caches). Format 2 stored each shard's
//! memo-cache fingerprints and hit/miss counters; format 1, which stored
//! `{fp, verdict}` entries, had no `format` field.
//! [`ServeCheckpoint::from_frame`] checks the field before decoding
//! anything else and refuses any other format with
//! [`CheckpointError::Format`], so recovery can say why it will not resume
//! instead of quietly restarting the run.
//!
//! What is deliberately *not* checkpointed, because it is telemetry or a
//! speed device rather than decision state: [`SchedSummary`](crate::SchedSummary)
//! (its makespans and `virtual_steals` depend on the thread count, which a
//! restarted process is free to change), the per-shard wait counts, the
//! SLO monitor, and the guard stacks' verdict memo caches with their
//! hit/miss counters. The meter charges every evaluated request the same,
//! hit or miss, so a restored process starts with cold caches and decides
//! exactly as the uninterrupted one would. Restoring any of these would
//! couple the ledger bytes to knobs the determinism contract says must not
//! matter. The checkpointed [`ServeStats`] therefore always has
//! `cache_hits` and `cache_misses` at 0.
//!
//! The serving layer has no RNG and no world model, so the frame's `rng`,
//! `metrics` and `devices` fields are zeroed/empty; the checkpoint rides
//! entirely in `world`, as JSON text written once at rotation and parsed
//! only on resume.

use std::fmt;

use apdm_ledger::{RawJson, SnapshotFrame};
use apdm_policy::Action;
use apdm_statespace::State;
use apdm_telemetry::TraceContext;
use serde::{Deserialize, Serialize, Value};

use crate::request::{DecisionRequest, TenantId};
use crate::service::ServeStats;

/// Serializable mirror of [`TraceContext`] (the telemetry crate is
/// deliberately dependency-free, so the mirror lives here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtxSnap {
    /// Id of the end-to-end operation every hop shares.
    pub trace_id: u64,
    /// Id of the current span (this hop).
    pub span_id: u64,
    /// Span id of the causing hop; `0` at the root.
    pub parent_id: u64,
    /// Whether this trace records.
    pub sampled: bool,
}

impl From<TraceContext> for CtxSnap {
    fn from(ctx: TraceContext) -> Self {
        CtxSnap {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            sampled: ctx.sampled,
        }
    }
}

impl From<CtxSnap> for TraceContext {
    fn from(snap: CtxSnap) -> Self {
        TraceContext {
            trace_id: snap.trace_id,
            span_id: snap.span_id,
            parent_id: snap.parent_id,
            sampled: snap.sampled,
        }
    }
}

/// Serializable mirror of one queued [`DecisionRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReqSnap {
    /// Caller-assigned request id.
    pub id: u64,
    /// Billed tenant.
    pub tenant: u32,
    /// Subject device (also the shard key).
    pub device: u64,
    /// The device's perceived state.
    pub state: State,
    /// The proposed action under judgment.
    pub proposed: Action,
    /// Alternatives the device's logic could take instead.
    pub alternatives: Vec<Action>,
    /// Tick the request entered the service.
    pub submitted_at: u64,
    /// Absolute deadline tick, if any.
    pub deadline: Option<u64>,
    /// Trace context at the point of capture, if the request was traced.
    pub ctx: Option<CtxSnap>,
}

impl From<&DecisionRequest> for ReqSnap {
    fn from(req: &DecisionRequest) -> Self {
        ReqSnap {
            id: req.id,
            tenant: req.tenant.0,
            device: req.device,
            state: req.state.clone(),
            proposed: req.proposed.clone(),
            alternatives: req.alternatives.clone(),
            submitted_at: req.submitted_at,
            deadline: req.deadline,
            ctx: req.ctx.map(CtxSnap::from),
        }
    }
}

impl From<ReqSnap> for DecisionRequest {
    fn from(snap: ReqSnap) -> Self {
        DecisionRequest {
            id: snap.id,
            tenant: TenantId(snap.tenant),
            device: snap.device,
            state: snap.state,
            proposed: snap.proposed,
            alternatives: snap.alternatives,
            submitted_at: snap.submitted_at,
            deadline: snap.deadline,
            ctx: snap.ctx.map(TraceContext::from),
        }
    }
}

/// One admission lane: a tenant's DRR deficit plus its queued requests,
/// front of the queue first. Empty lanes are captured too, so the restored
/// queue is structurally identical to the original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneSnap {
    /// The lane's tenant.
    pub tenant: u32,
    /// Unspent DRR credit.
    pub deficit: u32,
    /// Queued requests, dequeue order.
    pub queue: Vec<ReqSnap>,
}

/// The checkpoint format this build writes and reads: 3, no memo caches.
/// Format 2 stored memo caches as fingerprints; format 1 stored them as
/// `{fp, verdict}` entries and carried no `format` field.
pub const CHECKPOINT_FORMAT: u32 = 3;

/// Why a checkpoint cannot be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint taken after `tick` is in another format than
    /// [`CHECKPOINT_FORMAT`]: `found` is its `format` field, or `None` when
    /// it has none (format 1).
    Format {
        /// The frame's tick.
        tick: u64,
        /// The `format` field; `None` when absent (or not an unsigned
        /// integer).
        found: Option<u64>,
    },
    /// The frame does not decode as a checkpoint.
    Malformed(String),
    /// The checkpoint decodes but does not fit the service configuration
    /// it is restored into (another shard count).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format { tick, found } => {
                match found {
                    None => write!(
                        f,
                        "the checkpoint at tick {tick} is serve checkpoint format 1 \
                         (no `format` field; memo caches stored as verdicts)"
                    )?,
                    Some(v) => write!(
                        f,
                        "the checkpoint at tick {tick} is serve checkpoint format {v}"
                    )?,
                }
                write!(
                    f,
                    ", but this build reads only format {CHECKPOINT_FORMAT} \
                     (no memo caches)"
                )
            }
            CheckpointError::Malformed(e) => write!(f, "malformed serve checkpoint: {e}"),
            CheckpointError::Mismatch(e) => {
                write!(f, "serve checkpoint does not fit the configuration: {e}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Everything a [`PolicyDecisionService`](crate::PolicyDecisionService)
/// needs to resume mid-run with a bit-identical future. See the module
/// docs for what is deliberately excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCheckpoint {
    /// The checkpoint format, [`CHECKPOINT_FORMAT`] for every checkpoint
    /// this build writes; [`from_frame`](Self::from_frame) refuses others.
    pub format: u32,
    /// The tick after which the checkpoint was taken; a restored service
    /// resumes at `tick + 1`.
    pub tick: u64,
    /// Admission lanes in tenant order (empty lanes included).
    pub lanes: Vec<LaneSnap>,
    /// DRR rotation order of backlogged tenants (front is being served).
    pub rotation: Vec<u32>,
    /// The work meter's credit (may be negative: outstanding debt).
    pub meter_credit: i64,
    /// The work meter's lifetime spend.
    pub meter_spent: u64,
    /// Estimated in-flight cost per shard — the backpressure signal.
    pub shard_inflight: Vec<u64>,
    /// Lifetime counters. `stats.batches` doubles as the steal-plan cursor,
    /// so it must be restored exactly for balanced scheduling to replay.
    /// The cache counters are 0: they are not decision state.
    pub stats: ServeStats,
}

/// A ledger [`SnapshotFrame`] carrying a checkpoint as its `world` text.
/// The serving layer draws no randomness and owns no world/device state,
/// so those frame fields are zeroed; the checkpoint rides in `world`.
fn frame(tick: u64, world: RawJson) -> SnapshotFrame {
    SnapshotFrame {
        tick,
        rng: [0; 4],
        world,
        metrics: RawJson::of(&()),
        devices: Vec::new(),
    }
}

impl ServeCheckpoint {
    /// Package the checkpoint as a ledger [`SnapshotFrame`].
    pub fn to_frame(&self) -> SnapshotFrame {
        frame(self.tick, RawJson::of(self))
    }

    /// Rebuild a checkpoint from a ledger frame written by
    /// [`to_frame`](ServeCheckpoint::to_frame) or by a rotating service.
    /// The `format` field is checked first, so a checkpoint of another
    /// format is a [`CheckpointError::Format`] whatever else it holds.
    pub fn from_frame(frame: &SnapshotFrame) -> Result<Self, CheckpointError> {
        let value: Value = frame
            .world
            .parse()
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if value.as_map().is_none() {
            return Err(CheckpointError::Malformed(format!(
                "expected a map, got {}",
                value.kind()
            )));
        }
        let found = value.get("format").and_then(Value::as_u64);
        if found != Some(u64::from(CHECKPOINT_FORMAT)) {
            return Err(CheckpointError::Format {
                tick: frame.tick,
                found,
            });
        }
        ServeCheckpoint::from_value(&value).map_err(|e| CheckpointError::Malformed(e.to_string()))
    }
}

// Borrowed mirrors of the checkpoint types over a live service. A rotation
// writes these straight from the admission lanes into the
// frame's `world` text, so no copy of that state is built on the way. Each
// mirror lists the same fields in the same order as its owned counterpart,
// which makes the two serialize identically (the service tests check this
// through a `from_frame` → `to_frame` round trip).

/// Borrowed [`ReqSnap`].
#[derive(Serialize)]
pub(crate) struct ReqView<'a> {
    id: u64,
    tenant: u32,
    device: u64,
    state: &'a State,
    proposed: &'a Action,
    alternatives: &'a [Action],
    submitted_at: u64,
    deadline: Option<u64>,
    ctx: Option<CtxSnap>,
}

impl<'a> From<&'a DecisionRequest> for ReqView<'a> {
    fn from(req: &'a DecisionRequest) -> Self {
        ReqView {
            id: req.id,
            tenant: req.tenant.0,
            device: req.device,
            state: &req.state,
            proposed: &req.proposed,
            alternatives: &req.alternatives,
            submitted_at: req.submitted_at,
            deadline: req.deadline,
            ctx: req.ctx.map(CtxSnap::from),
        }
    }
}

/// Borrowed [`LaneSnap`].
#[derive(Serialize)]
pub(crate) struct LaneView<'a> {
    pub(crate) tenant: u32,
    pub(crate) deficit: u32,
    pub(crate) queue: Vec<ReqView<'a>>,
}

/// Borrowed [`ServeCheckpoint`].
#[derive(Serialize)]
pub(crate) struct CheckpointView<'a> {
    pub(crate) format: u32,
    pub(crate) tick: u64,
    pub(crate) lanes: Vec<LaneView<'a>>,
    pub(crate) rotation: Vec<u32>,
    pub(crate) meter_credit: i64,
    pub(crate) meter_spent: u64,
    pub(crate) shard_inflight: &'a [u64],
    pub(crate) stats: ServeStats,
}

impl CheckpointView<'_> {
    /// The ledger frame of this checkpoint, identical to the
    /// [`ServeCheckpoint::to_frame`] of its owned copy.
    pub(crate) fn to_frame(&self) -> SnapshotFrame {
        frame(self.tick, RawJson::of(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::schema;
    use apdm_statespace::StateDelta;

    fn sample() -> ServeCheckpoint {
        ServeCheckpoint {
            format: CHECKPOINT_FORMAT,
            tick: 17,
            lanes: vec![
                LaneSnap {
                    tenant: 0,
                    deficit: 3,
                    queue: vec![ReqSnap {
                        id: 9,
                        tenant: 0,
                        device: 4,
                        state: schema().state(&[1.0]).unwrap(),
                        proposed: Action::adjust("patrol", StateDelta::empty()),
                        alternatives: vec![Action::adjust("east", StateDelta::empty())],
                        submitted_at: 15,
                        deadline: Some(23),
                        ctx: Some(CtxSnap {
                            trace_id: 1,
                            span_id: 2,
                            parent_id: 0,
                            sampled: true,
                        }),
                    }],
                },
                LaneSnap {
                    tenant: 2,
                    deficit: 0,
                    queue: Vec::new(),
                },
            ],
            rotation: vec![0],
            meter_credit: -12,
            meter_spent: 480,
            shard_inflight: vec![0, 6, 0, 2],
            stats: ServeStats {
                submitted: 40,
                batches: 7,
                ..ServeStats::default()
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_a_ledger_frame() {
        let cp = sample();
        let frame = cp.to_frame();
        assert_eq!(frame.tick, 17);
        assert_eq!(frame.rng, [0; 4]);
        let back = ServeCheckpoint::from_frame(&frame).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn request_snapshots_roundtrip() {
        let req = DecisionRequest {
            id: 3,
            tenant: TenantId(1),
            device: 8,
            state: schema().state(&[2.0]).unwrap(),
            proposed: Action::adjust("patrol", StateDelta::empty()),
            alternatives: Vec::new(),
            submitted_at: 4,
            deadline: None,
            ctx: Some(TraceContext {
                trace_id: 7,
                span_id: 8,
                parent_id: 6,
                sampled: false,
            }),
        };
        let snap = ReqSnap::from(&req);
        let back = DecisionRequest::from(snap);
        assert_eq!(back, req);
    }

    #[test]
    fn a_malformed_frame_is_a_snapshot_error() {
        let frame = SnapshotFrame {
            tick: 0,
            rng: [0; 4],
            world: RawJson::of(&true),
            metrics: RawJson::of(&()),
            devices: Vec::new(),
        };
        assert!(matches!(
            ServeCheckpoint::from_frame(&frame),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn another_format_is_refused_by_name() {
        let current = RawJson::of(&sample()).parse::<Value>().unwrap();
        let Value::Map(fields) = current else {
            panic!("a checkpoint is a map")
        };
        // Format 1 had no `format` field; format 2 and a future format have
        // another value.
        let v1 = Value::Map(fields[1..].to_vec());
        let with_format = |v: i64| {
            let mut fields = fields.clone();
            fields[0].1 = Value::Int(v);
            Value::Map(fields)
        };
        for (world, found) in [
            (v1, None),
            (with_format(2), Some(2)),
            (with_format(4), Some(4)),
        ] {
            let err = ServeCheckpoint::from_frame(&frame(17, RawJson::of(&world))).unwrap_err();
            assert_eq!(err, CheckpointError::Format { tick: 17, found });
            assert!(
                err.to_string().contains("this build reads only format 3"),
                "{err}"
            );
        }
    }
}
