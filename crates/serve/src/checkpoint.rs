//! Checkpoint/restore of the decision service.
//!
//! A [`ServeCheckpoint`] freezes everything the decision stream depends on
//! — admission-queue lanes and DRR deficits, the work meter, per-shard
//! backpressure costs, the batch cursor (inside [`ServeStats`]) and every
//! shard's guard-verdict memo cache — as one serializable value that rides
//! the run ledger as a [`SnapshotFrame`] at segment-rotation points. A
//! restarted process restores from the latest frame and resumes mid-run,
//! producing a decision stream and a sealed ledger **bit-identical** to an
//! uninterrupted run at any thread count (experiment E16 sweeps this).
//!
//! **Memo caches are checkpointed as fingerprints.** A shard's
//! [`CacheSnap`] is its cache's key set in ascending order plus its
//! lifetime `hits`/`misses`, not the memoized verdicts: a verdict is a pure
//! function of its fingerprint, and the cache's only effect that must
//! survive a restart is which checks hit, because hits and misses are
//! metered at different costs (`cost_hit` / `cost_miss`). On resume a
//! restored fingerprint counts as a hit, and its verdict is recomputed from
//! the live request on first use (see
//! [`VerdictCache`]). This keeps a checkpoint to roughly 20 bytes per
//! memoized context, where repeating each verdict (Deny/Replace reason
//! text included) cost several times that.
//!
//! **Format version.** Every checkpoint starts with a `format` field,
//! [`CHECKPOINT_FORMAT`] (2: fingerprint caches). Format 1, which stored
//! `{fp, verdict}` entries, had no such field. [`ServeCheckpoint::from_frame`]
//! checks the field before decoding anything else and refuses any other
//! format with [`CheckpointError::Format`], so recovery can say why it
//! will not resume instead of quietly restarting the run.
//!
//! What is deliberately *not* checkpointed, because it is telemetry rather
//! than decision state: [`SchedSummary`](crate::SchedSummary) (its
//! `makespan_units` / `virtual_steals` depend on the thread count, which a
//! restarted process is free to change), the per-shard wait samples, and
//! the SLO monitor. Restoring them would couple the ledger bytes to knobs
//! the determinism contract says must not matter.
//!
//! The serving layer has no RNG and no world model, so the frame's `rng`,
//! `metrics` and `devices` fields are zeroed/empty; the checkpoint rides
//! entirely in `world`, as JSON text written once at rotation and parsed
//! only on resume.

use std::fmt;

use apdm_guards::VerdictCache;
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

/// One shard's guard-verdict memo cache: its fingerprints in ascending
/// order plus the hit/miss counters (the counters feed the deterministic
/// cost model, so they are decision state, not telemetry). Verdicts are
/// not stored; see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnap {
    /// Memoized request fingerprints, ascending.
    pub fps: Vec<u64>,
    /// Lifetime cache hits.
    pub hits: u64,
    /// Lifetime cache misses.
    pub misses: u64,
}

impl From<&VerdictCache> for CacheSnap {
    fn from(cache: &VerdictCache) -> Self {
        let (hits, misses) = cache.stats();
        CacheSnap {
            fps: cache.fingerprints().collect(),
            hits,
            misses,
        }
    }
}

/// The checkpoint format this build writes and reads: 2, memo caches as
/// fingerprints. Format 1 (memo caches as `{fp, verdict}` entries) carried
/// no `format` field.
pub const CHECKPOINT_FORMAT: u32 = 2;

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
    /// it is restored into (shard count, cache count, cache on/off).
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
                     (memo caches stored as fingerprints)"
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
    pub stats: ServeStats,
    /// Per-shard memo caches; `None` for shards running with the cache off.
    pub caches: Vec<Option<CacheSnap>>,
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
// writes these straight from the admission lanes and memo caches into the
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
    pub(crate) caches: Vec<Option<CacheSnap>>,
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
            caches: vec![
                Some(CacheSnap {
                    fps: vec![7, 0xfeed_f00d],
                    hits: 5,
                    misses: 9,
                }),
                None,
            ],
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
        // Format 1 had no `format` field; a future format has another value.
        let v1 = Value::Map(fields[1..].to_vec());
        let mut v3 = fields.clone();
        v3[0].1 = Value::Int(3);
        for (world, found) in [(v1, None), (Value::Map(v3), Some(3))] {
            let err = ServeCheckpoint::from_frame(&frame(17, RawJson::of(&world))).unwrap_err();
            assert_eq!(err, CheckpointError::Format { tick: 17, found });
            assert!(
                err.to_string().contains("this build reads only format 2"),
                "{err}"
            );
        }
    }
}
