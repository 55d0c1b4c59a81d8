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
//! **Queued requests as rows.** Most of a busy checkpoint is its queued
//! requests, and most of a request is its state's [`StateSchema`] and its
//! actions, which a queue repeats over and over. So a checkpoint holds two
//! tables, `schemas` and `actions`, each entry written once in order of
//! first appearance (lanes in tenant order, each queue front first; per
//! request its schema, then its proposed action, then its alternatives),
//! and each queued request is a [`ReqRow`]: a positional array in a fixed
//! column order,
//! `[id, device, schema, [value bits…], proposed, [alternatives…], submitted_at, deadline|null, ctx|null]`,
//! whose `schema`, `proposed` and `alternatives` are indices into the
//! tables. A row carries no tenant: its lane names it. Entries are interned
//! by content, floats compared bit for bit, so the tables depend only on
//! the queue's contents — not on the thread count, the memo cache or
//! whether the process was restored.
//!
//! **State values as bits.** A row writes each state value as the integer
//! [`f64::to_bits`] gives, not as a decimal: an integer is several times
//! cheaper to write than the shortest decimal of a full-precision float,
//! and every value comes back exactly — `-0.0`, infinities and NaN
//! payloads included, which a JSON number cannot spell. The tables stay
//! legible decimals; they hold a handful of entries.
//!
//! **One pass.** A rotating service writes its checkpoint straight from
//! the admission lanes into the frame's `world` text: rows first, interning
//! table entries as it meets them, then the tables. That is why `lanes`
//! precedes `schemas` and `actions` in the object. The owned
//! [`ServeCheckpoint`] serializes to the same bytes.
//!
//! **Format version.** Every checkpoint starts with a `format` field,
//! [`CHECKPOINT_FORMAT`] (5: positional rows with exact value bits).
//! Format 4 wrote each row as an object with decimal values and its tables
//! before its lanes; format 3 wrote each queued request whole, with its
//! tenant; format 2 also stored each shard's memo-cache fingerprints and
//! hit/miss counters; format 1, which stored `{fp, verdict}` entries, had
//! no `format` field. [`ServeCheckpoint::from_frame`] checks the field
//! before decoding anything else and refuses any other format with
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

use apdm_ledger::{RawJson, SnapshotFrame, LEDGER_FORMAT};
use apdm_policy::Action;
use apdm_statespace::{State, StateSchema};
use apdm_telemetry::TraceContext;
use serde::{json, Deserialize, Serialize, Value};

use crate::admission::AdmissionQueue;
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

/// Serializable mirror of one whole [`DecisionRequest`], state schema,
/// actions and tenant included: the request payload of `apdm-net`'s
/// `Request` frames. A checkpoint stores queued requests as [`ReqRow`]s
/// instead.
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

/// One queued [`DecisionRequest`] as a checkpoint row: its state's schema
/// and its actions are indices into the checkpoint's
/// [`schemas`](ServeCheckpoint::schemas) and
/// [`actions`](ServeCheckpoint::actions), and its tenant is its lane's.
///
/// It serializes as a positional array, the fields in declaration order,
/// with each of `values` written as its [`f64::to_bits`] integer (see the
/// module docs). Reading refuses a row of another arity and a value that
/// is not an unsigned integer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqRow {
    /// Caller-assigned request id.
    pub id: u64,
    /// Subject device (also the shard key).
    pub device: u64,
    /// The state's schema: an index into the schema table.
    pub schema: usize,
    /// The state's values, one per schema variable.
    pub values: Vec<f64>,
    /// The proposed action: an index into the action table.
    pub proposed: usize,
    /// The alternatives, in order: indices into the action table.
    pub alternatives: Vec<usize>,
    /// Tick the request entered the service.
    pub submitted_at: u64,
    /// Absolute deadline tick, if any.
    pub deadline: Option<u64>,
    /// Trace context at the point of capture, if the request was traced.
    pub ctx: Option<CtxSnap>,
}

/// The columns of a row, [`ReqRow`]'s fields in order.
const ROW_COLUMNS: usize = 9;

/// One row's columns, borrowed from an owned [`ReqRow`] or from a queued
/// request: the only writer of a row's text.
struct Row<'a, A> {
    id: u64,
    device: u64,
    schema: usize,
    values: &'a [f64],
    proposed: usize,
    alternatives: A,
    submitted_at: u64,
    deadline: Option<u64>,
    ctx: Option<CtxSnap>,
}

impl<A: Iterator<Item = usize>> Row<'_, A> {
    fn write(self, out: &mut String) {
        out.push('[');
        json::write_u64(out, self.id);
        out.push(',');
        json::write_u64(out, self.device);
        out.push(',');
        json::write_u64(out, self.schema as u64);
        out.push_str(",[");
        for (i, value) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_u64(out, value.to_bits());
        }
        out.push_str("],");
        json::write_u64(out, self.proposed as u64);
        out.push_str(",[");
        for (i, index) in self.alternatives.enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_u64(out, index as u64);
        }
        out.push_str("],");
        json::write_u64(out, self.submitted_at);
        out.push(',');
        self.deadline.write_json(out);
        out.push(',');
        self.ctx.write_json(out);
        out.push(']');
    }
}

impl Serialize for ReqRow {
    /// The written text, parsed back, so `Row::write` is the one
    /// spelling of a row's columns.
    fn to_value(&self) -> Value {
        RawJson::of(self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        Row {
            id: self.id,
            device: self.device,
            schema: self.schema,
            values: &self.values,
            proposed: self.proposed,
            alternatives: self.alternatives.iter().copied(),
            submitted_at: self.submitted_at,
            deadline: self.deadline,
            ctx: self.ctx,
        }
        .write(out);
    }
}

impl Deserialize for ReqRow {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let columns = value
            .as_seq()
            .ok_or_else(|| serde::Error::expected("a row array", value))?;
        let [id, device, schema, values, proposed, alternatives, submitted_at, deadline, ctx] =
            columns
        else {
            return Err(serde::Error::custom(format!(
                "a row of {} columns, not {ROW_COLUMNS}",
                columns.len()
            )));
        };
        Ok(ReqRow {
            id: u64::from_value(id)?,
            device: u64::from_value(device)?,
            schema: usize::from_value(schema)?,
            values: Vec::<u64>::from_value(values)?
                .into_iter()
                .map(f64::from_bits)
                .collect(),
            proposed: usize::from_value(proposed)?,
            alternatives: Vec::from_value(alternatives)?,
            submitted_at: u64::from_value(submitted_at)?,
            deadline: Option::from_value(deadline)?,
            ctx: Option::from_value(ctx)?,
        })
    }
}

/// One admission lane: a tenant's DRR deficit plus its queued requests,
/// front of the queue first. Empty lanes are captured too, so the restored
/// queue is structurally identical to the original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneSnap {
    /// The lane's tenant, which every request in it bills.
    pub tenant: u32,
    /// Unspent DRR credit.
    pub deficit: u32,
    /// Queued requests, dequeue order.
    pub queue: Vec<ReqRow>,
}

/// The checkpoint format this build writes and reads: 5, queued requests
/// as positional rows over schema and action tables, state values as
/// their bits. Format 4 wrote rows as objects with decimal values; format
/// 3 wrote each queued request whole; format 2 also stored memo caches as
/// fingerprints; format 1 stored them as `{fp, verdict}` entries and
/// carried no `format` field.
pub const CHECKPOINT_FORMAT: u32 = 5;

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
    /// The frame does not decode as a checkpoint, or its rows do not
    /// resolve against its tables.
    Malformed(String),
    /// The checkpoint decodes but does not fit the service configuration
    /// it is restored into (another shard count).
    Mismatch(String),
    /// The segment holding the checkpoint is ledger format `found`, whose
    /// digests this build does not verify (see
    /// [`Corruption::older_format`](apdm_ledger::Corruption::older_format)).
    LedgerFormat {
        /// The segment's ledger format.
        found: u64,
    },
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
                     (queued requests are positional rows with exact value bits)"
                )
            }
            CheckpointError::Malformed(e) => write!(f, "malformed serve checkpoint: {e}"),
            CheckpointError::Mismatch(e) => {
                write!(f, "serve checkpoint does not fit the configuration: {e}")
            }
            CheckpointError::LedgerFormat { found } => write!(
                f,
                "the checkpoint's segment is ledger format {found} (its digests cover \
                 each record's JSON text); this build reads format {LEDGER_FORMAT}"
            ),
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
    /// Admission lanes in tenant order (empty lanes included). They come
    /// before the tables they refer to, the order a rotation writes them.
    pub lanes: Vec<LaneSnap>,
    /// Every distinct state schema of a queued request, in order of first
    /// appearance.
    pub schemas: Vec<StateSchema>,
    /// Every distinct proposed or alternative action of a queued request,
    /// in order of first appearance.
    pub actions: Vec<Action>,
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

/// A lane of restored requests: `(tenant, deficit, queue front first)`,
/// the shape [`AdmissionQueue::restore`](crate::AdmissionQueue::restore)
/// takes.
pub(crate) type RestoredLane = (TenantId, u32, Vec<DecisionRequest>);

impl ServeCheckpoint {
    /// Package the checkpoint as a ledger [`SnapshotFrame`].
    pub fn to_frame(&self) -> SnapshotFrame {
        frame(self.tick, RawJson::of(self))
    }

    /// Rebuild a checkpoint from a ledger frame written by
    /// [`to_frame`](ServeCheckpoint::to_frame) or by a rotating service.
    /// The `format` field is checked first, so a checkpoint of another
    /// format is a [`CheckpointError::Format`] whatever else it holds. A
    /// checkpoint whose rows do not resolve against its tables is
    /// [`CheckpointError::Malformed`]: an index out of range, `values` of
    /// another length than the row's schema, or a table entry no row
    /// uses.
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
        let checkpoint = ServeCheckpoint::from_value(&value)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        checkpoint.queued_requests()?;
        Ok(checkpoint)
    }

    /// Every lane with its rows rebuilt as requests, in lane order. The
    /// requests of one schema share that table entry's variable list.
    ///
    /// Tables and rows come off disk, so they must be what a writer
    /// leaves: every index in range, every row's `values` as long as its
    /// schema, and every table entry used by some row. The first violation
    /// is [`CheckpointError::Malformed`].
    pub(crate) fn queued_requests(&self) -> Result<Vec<RestoredLane>, CheckpointError> {
        let mut used = Used {
            schemas: vec![false; self.schemas.len()],
            actions: vec![false; self.actions.len()],
        };
        let mut lanes = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let tenant = TenantId(lane.tenant);
            let queue = lane
                .queue
                .iter()
                .map(|row| self.resolve(row, tenant, &mut used))
                .collect::<Result<_, _>>()?;
            lanes.push((tenant, lane.deficit, queue));
        }
        for (table, used) in [("schema", &used.schemas), ("action", &used.actions)] {
            if let Some(index) = used.iter().position(|&u| !u) {
                return Err(CheckpointError::Malformed(format!(
                    "{table} {index} is used by no queued request"
                )));
            }
        }
        Ok(lanes)
    }

    /// One row as the request it stands for, marking the entries it uses.
    fn resolve(
        &self,
        row: &ReqRow,
        tenant: TenantId,
        used: &mut Used,
    ) -> Result<DecisionRequest, CheckpointError> {
        let malformed =
            |what: String| CheckpointError::Malformed(format!("queued request {}: {what}", row.id));
        let schema = self.schemas.get(row.schema).ok_or_else(|| {
            malformed(format!(
                "schema {} of a {}-entry table",
                row.schema,
                self.schemas.len()
            ))
        })?;
        used.schemas[row.schema] = true;
        let state = schema
            .state_verbatim(row.values.clone())
            .map_err(|e| malformed(e.to_string()))?;
        let mut action = |index: usize| match self.actions.get(index) {
            Some(action) => {
                used.actions[index] = true;
                Ok(action.clone())
            }
            None => Err(malformed(format!(
                "action {index} of a {}-entry table",
                self.actions.len()
            ))),
        };
        Ok(DecisionRequest {
            id: row.id,
            tenant,
            device: row.device,
            state,
            proposed: action(row.proposed)?,
            alternatives: row
                .alternatives
                .iter()
                .map(|&index| action(index))
                .collect::<Result<_, _>>()?,
            submitted_at: row.submitted_at,
            deadline: row.deadline,
            ctx: row.ctx.map(TraceContext::from),
        })
    }
}

/// Which table entries the rows resolved so far refer to.
struct Used {
    schemas: Vec<bool>,
    actions: Vec<bool>,
}

/// A live service's checkpoint, written in one pass straight from its
/// admission queue into the frame's `world` text: no copy of the queue,
/// and no per-row or per-lane buffer. It writes the same bytes as the
/// [`ServeCheckpoint`] it stands for: its `write_json` spells out that
/// type's keys in their declaration order, a second spelling of the
/// layout that the service test
/// `checkpoint_frame_serializes_like_its_owned_copy` keeps in step
/// through a `from_frame` → `to_frame` round trip.
pub(crate) struct LiveCheckpoint<'a> {
    pub(crate) tick: u64,
    pub(crate) queue: &'a AdmissionQueue,
    /// The work meter's `(credit, spent)`.
    pub(crate) meter: (i64, u64),
    pub(crate) shard_inflight: &'a [u64],
    pub(crate) stats: ServeStats,
}

impl LiveCheckpoint<'_> {
    /// The ledger frame of this checkpoint, identical to the
    /// [`ServeCheckpoint::to_frame`] of its owned copy. `capacity` is the
    /// starting size of the text buffer (the last checkpoint's length is a
    /// good guess).
    pub(crate) fn to_frame(&self, capacity: usize) -> SnapshotFrame {
        frame(self.tick, RawJson::of_sized(self, capacity))
    }
}

impl Serialize for LiveCheckpoint<'_> {
    /// The written text, parsed back: a checkpoint is only ever written.
    fn to_value(&self) -> Value {
        RawJson::of(self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"format\":");
        json::write_u64(out, u64::from(CHECKPOINT_FORMAT));
        out.push_str(",\"tick\":");
        json::write_u64(out, self.tick);
        out.push_str(",\"lanes\":[");
        let mut tables = Tables::default();
        for (i, (tenant, deficit, queue)) in self.queue.lanes().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            json::write_u64(out, u64::from(tenant.0));
            out.push_str(",\"deficit\":");
            json::write_u64(out, u64::from(deficit));
            out.push_str(",\"queue\":[");
            for (j, req) in queue.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                tables.write_row(req, out);
            }
            out.push_str("]}");
        }
        out.push_str("],\"schemas\":");
        json::write_seq(out, tables.schemas);
        out.push_str(",\"actions\":");
        json::write_seq(out, tables.actions);
        out.push_str(",\"rotation\":[");
        for (i, tenant) in self.queue.rotation().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_u64(out, u64::from(tenant.0));
        }
        out.push_str("],\"meter_credit\":");
        json::write_i64(out, self.meter.0);
        out.push_str(",\"meter_spent\":");
        json::write_u64(out, self.meter.1);
        out.push_str(",\"shard_inflight\":");
        json::write_seq(out, self.shard_inflight);
        out.push_str(",\"stats\":");
        self.stats.write_json(out);
        out.push('}');
    }
}

/// The schema and action tables of a checkpoint being written, each entry
/// once, in order of first appearance.
#[derive(Default)]
struct Tables<'a> {
    schemas: Vec<&'a StateSchema>,
    actions: Vec<&'a Action>,
}

impl<'a> Tables<'a> {
    /// Write a queued request as a row, interning what it refers to.
    /// Lanes must come in tenant order and requests front first, the order
    /// a reader walks them.
    fn write_row(&mut self, req: &'a DecisionRequest, out: &mut String) {
        let schema = intern(&mut self.schemas, req.state.schema(), same_schema);
        let proposed = intern(&mut self.actions, &req.proposed, same_action);
        let actions = &mut self.actions;
        Row {
            id: req.id,
            device: req.device,
            schema,
            values: req.state.values(),
            proposed,
            alternatives: req
                .alternatives
                .iter()
                .map(|action| intern(actions, action, same_action)),
            submitted_at: req.submitted_at,
            deadline: req.deadline,
            ctx: req.ctx.map(CtxSnap::from),
        }
        .write(out);
    }
}

/// The index of `item` in `table`, appending it if no entry is `same`. A
/// linear scan: a checkpoint's tables hold a handful of entries.
fn intern<'a, T: ?Sized>(table: &mut Vec<&'a T>, item: &'a T, same: fn(&T, &T) -> bool) -> usize {
    match table.iter().position(|entry| same(entry, item)) {
        Some(index) => index,
        None => {
            table.push(item);
            table.len() - 1
        }
    }
}

// Interning equality: two entries are the same when they serialize to the
// same bytes, so floats compare bit for bit (`==` would merge `0.0` and
// `-0.0`, which serialize apart).

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Schemas built once and shared (the usual case) compare by pointer.
fn same_schema(a: &StateSchema, b: &StateSchema) -> bool {
    std::ptr::eq(a.vars(), b.vars())
        || (a.len() == b.len()
            && a.vars().iter().zip(b.vars()).all(|(x, y)| {
                x.name() == y.name() && same_f64(x.lo(), y.lo()) && same_f64(x.hi(), y.hi())
            }))
}

fn same_action(a: &Action, b: &Action) -> bool {
    let (x, y) = (a.delta().changes(), b.delta().changes());
    a.name() == b.name()
        && a.is_physical() == b.is_physical()
        && x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|((xv, xd), (yv, yd))| xv == yv && same_f64(*xd, *yd))
        && a.params() == b.params()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::schema;
    use apdm_statespace::{StateDelta, VarId};

    fn row(id: u64, schema: usize, proposed: usize, alternatives: Vec<usize>) -> ReqRow {
        ReqRow {
            id,
            device: 4,
            schema,
            values: vec![1.0],
            proposed,
            alternatives,
            submitted_at: 15,
            deadline: Some(23),
            ctx: Some(CtxSnap {
                trace_id: 1,
                span_id: 2,
                parent_id: 0,
                sampled: true,
            }),
        }
    }

    fn sample() -> ServeCheckpoint {
        ServeCheckpoint {
            format: CHECKPOINT_FORMAT,
            tick: 17,
            schemas: vec![schema()],
            actions: vec![
                Action::adjust("patrol", StateDelta::empty()),
                Action::adjust("east", StateDelta::empty()),
            ],
            lanes: vec![
                LaneSnap {
                    tenant: 0,
                    deficit: 3,
                    queue: vec![row(9, 0, 0, vec![1]), row(10, 0, 1, Vec::new())],
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
    fn a_row_is_a_positional_array_with_value_bits() {
        let mut row = row(9, 0, 1, vec![0, 1]);
        row.values = vec![1.0, -0.0, f64::NAN, f64::NEG_INFINITY];
        let text = RawJson::of(&row).as_str().to_string();
        assert_eq!(
            text,
            format!(
                "[9,4,0,[{},{},{},{}],1,[0,1],15,23,\
                 {{\"trace_id\":1,\"span_id\":2,\"parent_id\":0,\"sampled\":true}}]",
                1f64.to_bits(),
                (-0f64).to_bits(),
                f64::NAN.to_bits(),
                f64::NEG_INFINITY.to_bits()
            )
        );
        let back: ReqRow = serde_json::from_str(&text).unwrap();
        let bits = |r: &ReqRow| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&row));
        row.deadline = None;
        row.ctx = None;
        let text = RawJson::of(&row).as_str().to_string();
        assert!(text.ends_with(",15,null,null]"), "{text}");
    }

    #[test]
    fn rows_of_another_shape_do_not_read() {
        let good = RawJson::of(&row(9, 0, 0, Vec::new())).as_str().to_string();
        assert!(serde_json::from_str::<ReqRow>(&good).is_ok());
        let bits = 1f64.to_bits();
        for text in [
            // Too short, too long, an object, not a row at all.
            good.replacen(",15,", ",", 1),
            good.replacen("[9,", "[9,9,", 1),
            r#"{"id":9}"#.to_string(),
            "9".to_string(),
            // Value bits as a string, a float, negative, past u64.
            good.replacen(&bits.to_string(), &format!("\"{bits}\""), 1),
            good.replacen(&bits.to_string(), "1.0", 1),
            good.replacen(&bits.to_string(), "-1", 1),
            good.replacen(&bits.to_string(), "18446744073709551616", 1),
        ] {
            assert_ne!(text, good);
            assert!(serde_json::from_str::<ReqRow>(&text).is_err(), "{text}");
        }
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
    fn rows_resolve_to_requests_of_their_lane_sharing_one_schema() {
        let cp = ServeCheckpoint::from_frame(&sample().to_frame()).unwrap();
        let lanes = cp.queued_requests().unwrap();
        assert_eq!(lanes.len(), 2);
        let (tenant, deficit, queue) = &lanes[0];
        assert_eq!((*tenant, *deficit, queue.len()), (TenantId(0), 3, 2));
        assert!(lanes[1].2.is_empty());
        let first = &queue[0];
        assert_eq!(first.tenant, TenantId(0));
        assert_eq!(first.state, schema().state(&[1.0]).unwrap());
        assert_eq!(first.proposed.name(), "patrol");
        assert_eq!(first.alternatives, vec![cp.actions[1].clone()]);
        assert_eq!(queue[1].proposed.name(), "east");
        // One schema entry, one variable list, however many requests.
        for req in queue {
            assert!(std::ptr::eq(
                req.state.schema().vars(),
                cp.schemas[0].vars()
            ));
        }
    }

    #[test]
    fn rows_that_do_not_resolve_are_malformed() {
        type Edit = fn(&mut ServeCheckpoint);
        let edits: [(&str, Edit); 7] = [
            ("schema out of range", |cp| cp.lanes[0].queue[0].schema = 1),
            ("schema u64::MAX", |cp| {
                cp.lanes[0].queue[0].schema = usize::MAX
            }),
            ("proposed out of range", |cp| {
                cp.lanes[0].queue[1].proposed = 2
            }),
            ("alternative out of range", |cp| {
                cp.lanes[0].queue[0].alternatives.push(7)
            }),
            ("values too short", |cp| cp.lanes[0].queue[0].values.clear()),
            ("values too long", |cp| {
                cp.lanes[0].queue[1].values.push(2.0)
            }),
            ("an unused action", |cp| {
                cp.actions.push(Action::adjust("west", StateDelta::empty()))
            }),
        ];
        for (label, edit) in edits {
            let mut cp = sample();
            edit(&mut cp);
            let err = cp.queued_requests().unwrap_err();
            assert!(
                matches!(err, CheckpointError::Malformed(_)),
                "{label}: {err}"
            );
            let err = ServeCheckpoint::from_frame(&cp.to_frame()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Malformed(_)),
                "{label}: {err}"
            );
        }
        let mut unused = sample();
        unused.schemas.push(schema());
        assert_eq!(
            unused.queued_requests().unwrap_err().to_string(),
            "malformed serve checkpoint: schema 1 is used by no queued request"
        );
    }

    #[test]
    fn interning_keeps_entries_that_serialize_apart() {
        let req = |proposed: Action, alternatives: Vec<Action>| DecisionRequest {
            id: 0,
            tenant: TenantId(0),
            device: 0,
            state: schema().state(&[1.0]).unwrap(),
            proposed,
            alternatives,
            submitted_at: 1,
            deadline: None,
            ctx: None,
        };
        let step = |dx: f64| Action::adjust("east", StateDelta::single(VarId(0), dx));
        let queue = [
            req(step(0.0), vec![step(-0.0), step(0.0)]),
            req(step(-0.0), vec![step(1.0).physical()]),
            req(step(1.0), Vec::new()),
        ];
        let mut tables = Tables::default();
        let written: Vec<ReqRow> = queue
            .iter()
            .map(|req| {
                let mut text = String::new();
                tables.write_row(req, &mut text);
                serde_json::from_str(&text).expect("a written row reads back")
            })
            .collect();
        // `0.0 == -0.0`, but they serialize apart, so they are two entries;
        // a physical action is not its non-physical twin. Each request
        // built its own schema from the same declaration: one entry.
        assert_eq!(tables.schemas.len(), 1);
        let actions: Vec<String> = tables
            .actions
            .iter()
            .map(|a| RawJson::of(*a).as_str().to_string())
            .collect();
        assert_eq!(actions.len(), 4, "{actions:?}");
        let rows: Vec<(usize, &[usize])> = written
            .iter()
            .map(|r| (r.proposed, &r.alternatives[..]))
            .collect();
        assert_eq!(rows, [(0, &[1, 0][..]), (1, &[2][..]), (3, &[][..])]);
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
        // Format 1 had no `format` field; formats 2 to 4 and a future
        // format have another value.
        let v1 = Value::Map(fields[1..].to_vec());
        let with_format = |v: i64| {
            let mut fields = fields.clone();
            fields[0].1 = Value::Int(v);
            Value::Map(fields)
        };
        for (world, found) in [
            (v1, None),
            (with_format(2), Some(2)),
            (with_format(3), Some(3)),
            (with_format(4), Some(4)),
            (with_format(6), Some(6)),
        ] {
            let err = ServeCheckpoint::from_frame(&frame(17, RawJson::of(&world))).unwrap_err();
            assert_eq!(err, CheckpointError::Format { tick: 17, found });
            assert!(
                err.to_string().contains("this build reads only format 5"),
                "{err}"
            );
        }
    }
}
