//! The policy decision service: admission → micro-batch → shard → verdict.
//!
//! One [`PolicyDecisionService`] is the runtime policy decision point of
//! the paper's architecture (§IV–VI) packaged as a standalone serving
//! layer: operators (tenants) submit [`DecisionRequest`]s, the service
//! queues them under admission control, forms micro-batches, shards each
//! batch by device id across persistent per-shard [`GuardStack`]s (each
//! with its own verdict memo cache), and renders [`Decision`]s. Every
//! decision — served or shed — is appended to a hash-chained
//! [`apdm_ledger`] run ledger, so the audit trail survives the process.
//!
//! ## Data flow
//!
//! ```text
//! submit(req) ──quota/capacity──shed──▶ Deny("shed:quota|capacity")
//!      │ admitted
//!      ▼
//! AdmissionQueue (per-tenant lanes, DRR drain)
//!      │ tick(now): while meter.can_dispatch() && batch ready
//!      ▼
//! dequeue ──deadline expired──shed──▶ Deny("shed:deadline")
//!      │ batch of ≤ max_batch
//!      ▼
//! shard by device % shards ──run_sharded_balanced(threads)──▶ GuardStack::check
//!      │ verdicts reassembled in batch order                  (per-shard memo cache)
//!      ▼
//! Decision stream + ledger Verdict records + telemetry
//! ```
//!
//! ## Determinism
//!
//! The decision stream and the sealed ledger are a pure function of the
//! submit stream and the configuration — never of the worker thread count:
//! requests map to shards by device id (not by worker), each shard's stack
//! (and memo cache) is touched only by its own shard's requests, and
//! verdicts are reassembled in batch order. The property tests assert
//! byte-identical ledgers across thread counts.
//!
//! ## Fail-closed overload behaviour
//!
//! Every shed path routes through [`Decision::shed`], which can only
//! construct a denial. Overload makes the service refuse work — it can
//! never make it approve work it did not evaluate.

use std::collections::BTreeMap;
use std::time::Instant;

use apdm_guards::{GuardContext, GuardStack, GuardVerdict, HarmOracle};
use apdm_ledger::{
    NamePool, RotationPolicy, RunEvent, SegmentedLedger, SegmentedRecorder, SnapshotFrame,
};
use apdm_policy::Action;
use apdm_telemetry as telemetry;
use apdm_telemetry::{SloMonitor, SloSpec, TraceContext};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfig, AdmissionQueue};
use crate::batcher::{BatchPolicy, CostModel, Meter};
use crate::checkpoint::{CheckpointError, LiveCheckpoint, ServeCheckpoint};
use crate::request::{Decision, DecisionRequest, ShedReason, TenantId};

/// One shard's contribution to a batch: `(batch_index, verdict)` pairs.
type ShardOutput = Vec<(usize, GuardVerdict)>;

/// Exact counts of virtual queue waits: `wait (cost units) → requests`.
/// Memory is bounded by the number of distinct waits, not of requests.
pub type WaitCounts = BTreeMap<u64, u64>;

/// Everything [`PolicyDecisionService::evaluate`] learns about one batch.
struct EvalOutcome {
    /// Verdicts in batch order.
    verdicts: Vec<GuardVerdict>,
    /// Virtual makespan of the batch under each schedule,
    /// `[static, balanced]`, in cost units (deterministic).
    makespan: [u64; 2],
    /// Chunks the balanced schedule moved off their home worker.
    virtual_steals: u64,
    /// Chunks that actually ran elsewhere (wall-timing dependent).
    actual_steals: u64,
    /// Per-request virtual start offset (shard start + within-shard
    /// prefix) under each schedule, `[static, balanced]`, indexed by batch
    /// position.
    offsets: Vec<[u64; 2]>,
}

thread_local! {
    static QUEUE_TICKS: telemetry::CachedHistogram =
        const { telemetry::CachedHistogram::new("serve.latency.queue_ticks") };
    static BATCH_SIZE: telemetry::CachedHistogram =
        const { telemetry::CachedHistogram::new("serve.batch.size") };
    static EVAL_NS: telemetry::CachedHistogram =
        const { telemetry::CachedHistogram::new("serve.eval.ns") };
}

/// Seed mixed into the per-batch steal order so the claim sequence differs
/// from the fleet's while staying a pure function of the service seed and
/// the batch counter.
const SERVE_STEAL_SEED: u64 = 0x5E4E_57EA;

/// Full configuration of one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Seed recorded in the run ledger header (the service itself draws no
    /// randomness; the seed names the workload that drove it).
    pub seed: u64,
    /// Worker threads for batch evaluation (0 = auto via `APDM_THREADS` /
    /// hardware). Never affects results, only wall-clock.
    pub threads: usize,
    /// Fixed shard count — the determinism unit. Requests map to shard
    /// `device % shards` regardless of `threads`.
    pub shards: usize,
    /// Admission bounds and DRR fairness.
    pub admission: AdmissionConfig,
    /// Micro-batch close policy.
    pub batch: BatchPolicy,
    /// Deterministic work accounting.
    pub cost: CostModel,
    /// Enable the per-shard guard-verdict memo cache.
    pub cache: bool,
    /// Evaluate the standard SLOs ([`standard_slos`]) every this many ticks
    /// (burn-rate windows are delimited by the evaluations). `0` disables
    /// SLO monitoring; it is also inert unless telemetry is installed.
    pub slo_every: u64,
    /// Cross-shard admission backpressure: cap each batch's intake from
    /// shards whose estimated in-flight cost exceeds twice their fair
    /// share of the tick capacity, deferring the excess to the front of
    /// its lane. Changes *which* requests share a batch (deterministically,
    /// identically at every thread count), not any verdict.
    pub backpressure: bool,
    /// Segment rotation for the run ledger. `None` records one unbounded
    /// segment (the pre-E16 behaviour), which
    /// [`SegmentedLedger::into_single`] turns into a plain ledger after
    /// [`finish_segmented`]. When set, the service checks the budget
    /// at the end of every tick's dispatch work and rolls to a new
    /// anchored segment headed by a checkpoint frame, so a crashed
    /// process can resume from the last rotation point.
    ///
    /// [`finish_segmented`]: PolicyDecisionService::finish_segmented
    pub rotation: Option<RotationPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            threads: 0,
            shards: 8,
            admission: AdmissionConfig::default(),
            batch: BatchPolicy::default(),
            cost: CostModel::default(),
            cache: true,
            slo_every: 0,
            backpressure: false,
            rotation: None,
        }
    }
}

/// The serving layer's standard objectives, evaluated every
/// [`ServeConfig::slo_every`] ticks:
///
/// * `serve.queue_wait` — 99% of decided requests wait at most 15 ticks in
///   the admission queue (threshold on a log2-bucket edge for exactness).
/// * `serve.shed_rate` — at most 5% of submissions are shed.
pub fn standard_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::latency("serve.queue_wait", "serve.latency.queue_ticks", 15, 0.99),
        SloSpec::counter_ratio(
            "serve.shed_rate",
            "serve.shed.total",
            "serve.submitted",
            0.95,
        ),
    ]
}

/// Slot deriving each pipeline stage's span from its predecessor. The
/// stages form a linear chain (each stage's parent is the previous stage),
/// so a single slot never collides — it is only ever used once per parent.
const STAGE_SLOT: u64 = 1;

/// Advance a request's trace by one pipeline stage: derive the next hop in
/// the causal chain and, when this trace records, emit the stage event.
/// Derivation is unconditional (cheap hash mix), so causality survives
/// stages running on threads without a telemetry dispatch.
fn stage_event(
    ctx: Option<TraceContext>,
    name: &'static str,
    device: u64,
    extra: &[(&'static str, u64)],
) -> Option<TraceContext> {
    let next = ctx?.child(STAGE_SLOT);
    if telemetry::enabled() && next.sampled {
        let mut fields: Vec<(telemetry::Name, telemetry::FieldValue)> = extra
            .iter()
            .map(|&(k, v)| (telemetry::Name::Borrowed(k), telemetry::FieldValue::U64(v)))
            .collect();
        next.push_fields(device, &mut fields);
        telemetry::emit_event(name, telemetry::Level::Debug, fields);
    }
    Some(next)
}

/// The registry gauge names of `shards` shards' in-flight cost:
/// `serve.shard.inflight.NN`.
fn shard_gauge_names(shards: usize) -> Vec<String> {
    (0..shards)
        .map(|s| format!("serve.shard.inflight.{s:02}"))
        .collect()
}

/// Exact counters over one service lifetime: the service's only count.
/// When a telemetry dispatch is installed, their growth is published into
/// the registry's `serve.*` counters at the end of every tick and when the
/// run is sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests offered via [`PolicyDecisionService::submit`].
    pub submitted: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests actually evaluated by a guard stack.
    pub decided: u64,
    /// Evaluated verdicts that allowed the proposal (with or without
    /// obligations).
    pub allowed: u64,
    /// Evaluated guard denials (shed denials are counted separately).
    pub denied: u64,
    /// Evaluated substitutions.
    pub replaced: u64,
    /// Sheds at admission: global queue full.
    pub shed_capacity: u64,
    /// Sheds at admission: tenant over quota.
    pub shed_quota: u64,
    /// Sheds at dispatch: deadline expired in the queue.
    pub shed_deadline: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Verdict-cache hits summed over all shards' stacks since this
    /// process built them (0 with the cache off). Telemetry: the meter
    /// charges a hit like a miss, and a checkpoint does not carry it.
    pub cache_hits: u64,
    /// Verdict-cache misses, counted like `cache_hits`.
    pub cache_misses: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
    /// Work units charged against the meter.
    pub cost_spent: u64,
    /// Requests pushed to a later batch by cross-shard backpressure (each
    /// one re-queued at the front of its lane). Computed from cost
    /// *estimates*, so the count is identical at every thread count.
    pub deferrals: u64,
}

impl ServeStats {
    /// All sheds, every one of which resolved to a denial.
    pub fn shed_total(&self) -> u64 {
        self.shed_capacity + self.shed_quota + self.shed_deadline
    }
}

/// Aggregate scheduling telemetry over one service lifetime.
///
/// Every batch executes once, through [`apdm_par::run_sharded_balanced`],
/// and is described by two deterministic *virtual* schedules of the same
/// shard costs:
///
/// * **static** ([`apdm_par::static_schedule`]): worker `w` owns a fixed
///   contiguous block of shards, so a hot shard queues behind its
///   block-mates. A comparison baseline; it never steals.
/// * **balanced**: the work-stealing schedule the batch actually ran
///   under — shards claimed heaviest-first in a seeded order, so a hot
///   shard starts at once instead of waiting out its block.
///
/// The makespans and `virtual_steals` are bit-reproducible for a given
/// thread count. `actual_steals` observes real thread timing and may vary
/// run to run — report it, never assert on it, and never let it near the
/// ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchedSummary {
    /// Sum of per-batch virtual makespans under the static schedule, in
    /// cost units.
    pub static_makespan_units: u64,
    /// Sum of per-batch virtual makespans under the balanced schedule, in
    /// cost units.
    pub balanced_makespan_units: u64,
    /// Chunks the balanced schedule assigned away from their static home
    /// worker.
    pub virtual_steals: u64,
    /// Chunks that actually ran on a different worker than the balanced
    /// schedule predicted (wall-timing dependent).
    pub actual_steals: u64,
}

/// The sharded, micro-batching, fail-closed policy decision service. See
/// the module docs for the data flow.
#[derive(Debug)]
pub struct PolicyDecisionService<O> {
    cfg: ServeConfig,
    threads: usize,
    queue: AdmissionQueue,
    meter: Meter,
    /// One persistent guard stack per shard; shard `s` judges every request
    /// with `device % shards == s`, so its memo cache and audit trail are
    /// independent of worker scheduling.
    stacks: Vec<GuardStack>,
    oracle: O,
    recorder: SegmentedRecorder,
    stats: ServeStats,
    /// `stats` as of the last publish into the telemetry registry.
    published: ServeStats,
    slo: SloMonitor,
    /// Estimated in-flight cost per shard, decayed by the shard's fair
    /// share each tick — the backpressure signal.
    shard_inflight: Vec<u64>,
    /// Registry gauge name of each shard's `shard_inflight`. Built on the
    /// first traced tick, so later traced ticks format no names and an
    /// untraced service never builds them.
    shard_gauges: Vec<String>,
    /// Per-shard virtual queue-wait counts since the last
    /// [`drain_shard_waits`](Self::drain_shard_waits), `[static,
    /// balanced]`. Bounded by the distinct wait values, so a service that
    /// is never drained does not grow with the requests it decides.
    shard_waits: Vec<[WaitCounts; 2]>,
    sched: SchedSummary,
    /// Byte length of the last checkpoint's JSON: the starting capacity
    /// of the next one's buffer. A speed hint only.
    checkpoint_len: usize,
    /// Interned action and verdict names of the ledger's `Verdict`
    /// records.
    names: NamePool,
    /// Where a verdict's name is spelled before it is interned.
    name_scratch: String,
}

impl<O: HarmOracle + Copy + Send + Sync> PolicyDecisionService<O> {
    /// Build a service from per-shard guard stacks. `stacks.len()` fixes
    /// the shard count; `cfg.shards` must agree. The `cache` flag is
    /// applied to every stack here so callers cannot accidentally mix
    /// cached and uncached shards.
    pub fn new(cfg: ServeConfig, mut stacks: Vec<GuardStack>, oracle: O, name: &str) -> Self {
        assert_eq!(
            cfg.shards,
            stacks.len(),
            "cfg.shards must match the stack count"
        );
        assert!(cfg.shards > 0, "a service needs at least one shard");
        for stack in &mut stacks {
            stack.set_cache_enabled(cfg.cache);
        }
        PolicyDecisionService {
            threads: apdm_par::resolve_threads(cfg.threads),
            queue: AdmissionQueue::new(cfg.admission),
            meter: Meter::new(&cfg.cost),
            stacks,
            oracle,
            recorder: SegmentedRecorder::new(
                name,
                cfg.seed,
                cfg.shards as u64,
                cfg.rotation.unwrap_or_default(),
            ),
            stats: ServeStats::default(),
            published: ServeStats::default(),
            slo: standard_slos()
                .into_iter()
                .fold(SloMonitor::new(), SloMonitor::with_objective),
            shard_inflight: vec![0; cfg.shards],
            shard_gauges: Vec::new(),
            shard_waits: vec![Default::default(); cfg.shards],
            sched: SchedSummary::default(),
            checkpoint_len: 0,
            names: NamePool::new(),
            name_scratch: String::new(),
            cfg,
        }
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Counters so far, with the cache counters summed over the stacks.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.stats;
        for (hits, misses) in self.stacks.iter().filter_map(GuardStack::cache_stats) {
            stats.cache_hits += hits;
            stats.cache_misses += misses;
        }
        stats
    }

    /// Schedule telemetry so far (see [`SchedSummary`] for what is safe
    /// to assert on).
    pub fn sched_summary(&self) -> SchedSummary {
        self.sched
    }

    /// Take the per-shard virtual queue-wait counts accumulated since the
    /// last drain, `[static, balanced]` per shard. Each decided request
    /// counts once in each, at its wait in cost units under that schedule
    /// (see [`SchedSummary`]): `queue ticks × capacity_per_tick` + the
    /// virtual offset of its batch within the tick + its shard's virtual
    /// start + its position within the shard. Deterministic for a fixed
    /// thread count.
    pub fn drain_shard_waits(&mut self) -> Vec<[WaitCounts; 2]> {
        std::mem::replace(
            &mut self.shard_waits,
            vec![Default::default(); self.cfg.shards],
        )
    }

    /// Offer a request. `None` means admitted (the decision will come out
    /// of a later [`tick`](Self::tick)); `Some` is an immediate fail-closed
    /// denial, recorded in the ledger: a shed (queue full or tenant over
    /// quota), or a request whose state does not fit its schema
    /// ([`DecisionRequest::state_fits_schema`]), which is never queued.
    pub fn submit(&mut self, mut req: DecisionRequest, now: u64) -> Option<Decision> {
        self.stats.submitted += 1;
        // The admission stage rules on every request — admitted or shed —
        // so its span is minted before the queue decides.
        req.ctx = stage_event(req.ctx, "serve.admit", req.device, &[]);
        if !req.state_fits_schema() {
            let decision = Decision::bad_state(&req, now);
            self.record(&decision, now);
            return Some(decision);
        }
        match self.queue.submit(req) {
            None => {
                self.stats.admitted += 1;
                self.stats.max_queue_depth =
                    self.stats.max_queue_depth.max(self.queue.len() as u64);
                None
            }
            Some((req, reason)) => Some(self.shed(&req, reason, now)),
        }
    }

    /// Run one service tick: refill the work meter, dispatch every batch
    /// that is ready and affordable, and return the decisions rendered this
    /// tick (deadline sheds interleaved before the batch they were culled
    /// from). Decision order is deterministic.
    pub fn tick(&mut self, now: u64) -> Vec<Decision> {
        self.meter.refill();
        // Backpressure bookkeeping: each shard drains its fair share of
        // the tick capacity; a shard holding more than twice that share of
        // estimated in-flight work is saturated, and its intake per batch
        // is capped at roughly twice its fair slice of the batch.
        let shards = self.cfg.shards;
        let fair_share = (self.cfg.cost.capacity_per_tick / shards as u64).max(1);
        let saturation = 2 * fair_share;
        let shard_cap = (2 * self.cfg.batch.max_batch / shards).max(1);
        for inflight in &mut self.shard_inflight {
            *inflight = inflight.saturating_sub(fair_share);
        }
        // Room for one full batch, a steady tick's whole output; a backlog
        // tick grows past it rather than reserving the queue's depth.
        let mut decisions = Vec::with_capacity(self.queue.len().min(self.cfg.batch.max_batch));
        // Virtual time already consumed by earlier batches this tick under
        // each schedule, `[static, balanced]`: the wait overlay's per-tick
        // base offsets.
        let mut tick_offset = [0u64; 2];
        loop {
            if !self.meter.can_dispatch() || self.queue.is_empty() {
                break;
            }
            let oldest = self.queue.oldest_submitted().expect("non-empty queue");
            if !self
                .cfg
                .batch
                .ready(self.queue.len(), now.saturating_sub(oldest))
            {
                break;
            }
            // Form the batch: up to max_batch live requests, shedding any
            // that expired while queued (uncharged — no guard work ran)
            // and deferring the overflow of saturated shards. The scan is
            // bounded by the deferral count so a queue full of hot-shard
            // requests cannot make batch formation quadratic.
            let mut batch = Vec::with_capacity(self.cfg.batch.max_batch);
            let mut deferred: Vec<DecisionRequest> = Vec::new();
            let mut shard_take = vec![0usize; shards];
            while batch.len() < self.cfg.batch.max_batch
                && deferred.len() < self.cfg.batch.max_batch
            {
                match self.queue.dequeue() {
                    None => break,
                    Some(req) if req.expired(now) => {
                        decisions.push(self.shed(&req, ShedReason::Deadline, now));
                    }
                    Some(req) => {
                        let s = (req.device % shards as u64) as usize;
                        if self.cfg.backpressure
                            && self.shard_inflight[s] >= saturation
                            && shard_take[s] >= shard_cap
                        {
                            deferred.push(req);
                        } else {
                            shard_take[s] += 1;
                            batch.push(req);
                        }
                    }
                }
            }
            let deferrals = deferred.len() as u64;
            if deferrals > 0 {
                self.stats.deferrals += deferrals;
                self.queue.requeue_front(deferred);
            }
            if batch.is_empty() {
                if deferrals > 0 {
                    // Everything dispatchable is behind a saturated shard;
                    // give the decay a tick rather than spinning.
                    break;
                }
                // Everything dequeued had expired; re-examine the queue.
                continue;
            }
            let size = batch.len() as u64;
            for req in &mut batch {
                req.ctx = stage_event(req.ctx, "serve.batch", req.device, &[("size", size)]);
            }
            let started = Instant::now();
            let eval = self.evaluate(&batch, now);
            // Shard-stage spans are minted on the driver thread *after* the
            // parallel section (workers carry no telemetry dispatch); the
            // virtual timestamp is the same tick either way.
            for req in &mut batch {
                req.ctx = stage_event(
                    req.ctx,
                    "serve.shard",
                    req.device,
                    &[("shard", req.device % shards as u64)],
                );
            }
            self.meter.charge(self.cfg.cost.batch_cost(size));
            self.stats.batches += 1;
            self.stats.cost_spent = self.meter.spent();
            self.sched.static_makespan_units += eval.makespan[0];
            self.sched.balanced_makespan_units += eval.makespan[1];
            self.sched.virtual_steals += eval.virtual_steals;
            self.sched.actual_steals += eval.actual_steals;
            if telemetry::enabled() {
                BATCH_SIZE.with(|h| h.record(batch.len() as u64));
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                EVAL_NS.with(|h| h.record(ns));
            }
            for ((req, verdict), offset) in batch.iter().zip(eval.verdicts).zip(eval.offsets) {
                let s = (req.device % shards as u64) as usize;
                self.shard_inflight[s] += self.cfg.cost.estimate(1);
                let queued = now.saturating_sub(req.submitted_at) * self.cfg.cost.capacity_per_tick;
                for (i, counts) in self.shard_waits[s].iter_mut().enumerate() {
                    *counts
                        .entry(queued + tick_offset[i] + offset[i])
                        .or_default() += 1;
                }
                decisions.push(self.decide(req, verdict, now));
            }
            tick_offset[0] += eval.makespan[0];
            tick_offset[1] += eval.makespan[1];
        }
        // Rotation is checked once per tick, after all of the tick's
        // dispatch work — a deterministic point, so an uninterrupted run
        // and a crash-resumed run see identical segment boundaries and
        // write identical checkpoint frames. The frame follows the anchor
        // as part of the new segment's header (it describes state, not an
        // occurrence), so it never re-triggers the budget by itself.
        if self.recorder.should_rotate() {
            self.recorder.rotate(now);
            let frame = self.checkpoint_frame(now);
            self.checkpoint_len = frame.world.as_str().len();
            self.recorder.record(now, RunEvent::Snapshot(frame));
            self.recorder.mark_header();
        }
        self.publish_stats();
        if telemetry::enabled() {
            if self.shard_gauges.is_empty() {
                self.shard_gauges = shard_gauge_names(self.shard_inflight.len());
            }
            let depth = self.queue.len() as f64;
            let sched = self.sched;
            telemetry::with_registry(|reg| {
                reg.gauge("serve.queue.depth").set(depth);
                for (name, &inflight) in self.shard_gauges.iter().zip(&self.shard_inflight) {
                    reg.gauge(name).set(inflight as f64);
                }
                reg.gauge("serve.sched.virtual_steals")
                    .set(sched.virtual_steals as f64);
                reg.gauge("serve.sched.actual_steals")
                    .set(sched.actual_steals as f64);
            });
            if self.cfg.slo_every > 0 && now.is_multiple_of(self.cfg.slo_every) {
                self.slo.evaluate();
            }
        }
        decisions
    }

    /// Seal the run and return every retained ledger segment plus the
    /// final counters. `now` is the tick recorded on the closing record.
    /// With rotation off (the default) this is one segment and
    /// [`SegmentedLedger::into_single`] recovers the plain ledger.
    pub fn finish_segmented(mut self, now: u64) -> (SegmentedLedger, ServeStats) {
        self.publish_stats();
        let stats = self.stats();
        // The service executes nothing itself, so the ledger's harm count
        // is structurally zero: only verdicts flow through here.
        (self.recorder.finish(now, 0), stats)
    }

    /// Add the growth of [`ServeStats`] since the last publish to the
    /// registry's `serve.*` counters (when a dispatch is installed).
    /// Counters still at zero are not created.
    fn publish_stats(&mut self) {
        let (now, was) = (self.stats, self.published);
        self.published = now;
        if !telemetry::enabled() {
            return;
        }
        telemetry::with_registry(|reg| {
            for (name, delta) in [
                ("serve.submitted", now.submitted - was.submitted),
                ("serve.decided", now.decided - was.decided),
                ("serve.shed.capacity", now.shed_capacity - was.shed_capacity),
                ("serve.shed.quota", now.shed_quota - was.shed_quota),
                ("serve.shed.deadline", now.shed_deadline - was.shed_deadline),
                ("serve.shed.total", now.shed_total() - was.shed_total()),
                ("serve.deferred", now.deferrals - was.deferrals),
            ] {
                if delta > 0 {
                    reg.counter(name).add(delta);
                }
            }
        });
    }

    /// The run recorder: the open ledger segment and any retained sealed
    /// segments. Crash-tolerant embedders persist these after every tick.
    pub fn recorder(&self) -> &SegmentedRecorder {
        &self.recorder
    }

    /// Freeze everything the decision stream depends on — admission lanes
    /// and deficits, the DRR rotation, the work meter, per-shard
    /// backpressure costs and the batch cursor — as of the end of tick
    /// `now`, as the ledger frame a rotation records. The frame's `world`
    /// is JSON text written straight from the live state, with no
    /// intermediate copy: each queued request is a row that refers to the
    /// checkpoint's schema and action tables, interned on the way.
    /// [`ServeCheckpoint::from_frame`] reads it back, and a service
    /// [`restore`](Self::restore)d from that resumes at `now + 1` with a
    /// bit-identical decision and ledger future. Thread count, scheduling
    /// telemetry, SLO state and the memo caches are deliberately excluded:
    /// they must not influence results, so they must not ride the
    /// checkpoint.
    pub fn checkpoint_frame(&self, now: u64) -> SnapshotFrame {
        LiveCheckpoint {
            tick: now,
            queue: &self.queue,
            meter: self.meter.export(),
            shard_inflight: &self.shard_inflight,
            stats: self.stats,
        }
        .to_frame(self.checkpoint_len)
    }

    /// Rebuild a service mid-run from a [`ServeCheckpoint`] and a resumed
    /// recorder (see [`SegmentedRecorder::resume`]). `cfg` and `stacks`
    /// must match the crashed process's configuration; `cfg.threads` is
    /// free to differ — the restored service still produces the identical
    /// decision stream. Telemetry-side state (scheduling summary, wait
    /// counts, SLO windows) and the memo caches restart fresh, as in
    /// [`new`](Self::new): they were never part of the determinism
    /// contract, so `cfg.cache` may differ from the crashed process's too.
    ///
    /// A checkpoint for another shard count is a
    /// [`CheckpointError::Mismatch`]. Rows that do not resolve against the
    /// checkpoint's tables are [`CheckpointError::Malformed`], and so is an
    /// admission queue no live queue could be in (see
    /// [`AdmissionQueue::restore`]): the restored service could panic or
    /// spin forever on its first tick.
    ///
    /// # Panics
    ///
    /// When `stacks.len()` differs from `cfg.shards`, as [`new`](Self::new).
    pub fn restore(
        cfg: ServeConfig,
        mut stacks: Vec<GuardStack>,
        oracle: O,
        checkpoint: &ServeCheckpoint,
        recorder: SegmentedRecorder,
    ) -> Result<Self, CheckpointError> {
        assert_eq!(
            cfg.shards,
            stacks.len(),
            "cfg.shards must match the stack count"
        );
        let counters = checkpoint.shard_inflight.len();
        if counters != cfg.shards {
            return Err(CheckpointError::Mismatch(format!(
                "{counters} backpressure counters for {} shards",
                cfg.shards
            )));
        }
        for stack in &mut stacks {
            stack.set_cache_enabled(cfg.cache);
        }
        let lanes = checkpoint.queued_requests()?;
        let rotation = checkpoint.rotation.iter().map(|&t| TenantId(t)).collect();
        let queue = AdmissionQueue::restore(cfg.admission, lanes, rotation)
            .map_err(|e| CheckpointError::Malformed(format!("admission queue: {e}")))?;
        // The stacks count their own cache hits and misses.
        let stats = ServeStats {
            cache_hits: 0,
            cache_misses: 0,
            ..checkpoint.stats
        };
        Ok(PolicyDecisionService {
            threads: apdm_par::resolve_threads(cfg.threads),
            queue,
            meter: Meter::restore(&cfg.cost, checkpoint.meter_credit, checkpoint.meter_spent),
            stacks,
            oracle,
            recorder,
            stats,
            // The registry counts this process's work, not the crashed one's.
            published: stats,
            slo: standard_slos()
                .into_iter()
                .fold(SloMonitor::new(), SloMonitor::with_objective),
            shard_inflight: checkpoint.shard_inflight.clone(),
            shard_gauges: Vec::new(),
            shard_waits: vec![Default::default(); cfg.shards],
            sched: SchedSummary::default(),
            checkpoint_len: 0,
            names: NamePool::new(),
            name_scratch: String::new(),
            cfg,
        })
    }

    /// Evaluate one batch: bucket requests by shard, run the shards across
    /// the worker pool, reassemble verdicts in batch order. Alongside the
    /// verdicts, returns the batch's
    /// makespan under both deterministic virtual schedules (see
    /// [`SchedSummary`]), the balanced schedule's steals and each request's
    /// virtual start offset under both for the wait overlay.
    fn evaluate(&mut self, batch: &[DecisionRequest], now: u64) -> EvalOutcome {
        let shards = self.cfg.shards;
        let cost_model = self.cfg.cost;
        let mut buckets: Vec<Vec<(usize, &DecisionRequest)>> = vec![Vec::new(); shards];
        // A request's within-shard virtual offset is the estimated cost of
        // the same-shard requests queued ahead of it in this batch.
        let mut offsets = vec![[0u64; 2]; batch.len()];
        for (idx, req) in batch.iter().enumerate() {
            let bucket = &mut buckets[(req.device % shards as u64) as usize];
            offsets[idx] = [cost_model.estimate(bucket.len() as u64); 2];
            bucket.push((idx, req));
        }
        let shard_costs: Vec<u64> = buckets
            .iter()
            .map(|b| cost_model.estimate(b.len() as u64))
            .collect();
        let oracle = self.oracle;
        let mut work: Vec<(&mut GuardStack, Vec<(usize, &DecisionRequest)>)> =
            self.stacks.iter_mut().zip(buckets).collect();
        let run_slice = |_: usize,
                         slice: &mut [(&mut GuardStack, Vec<(usize, &DecisionRequest)>)]|
         -> ShardOutput {
            let mut out = Vec::with_capacity(slice.iter().map(|(_, items)| items.len()).sum());
            // One subject and one alternatives buffer for the whole slice.
            let mut subject = String::new();
            let mut alternatives: Vec<&Action> = Vec::new();
            for (stack, items) in slice.iter_mut() {
                for &(idx, req) in items.iter() {
                    subject.clear();
                    subject.push('d');
                    serde::json::write_u64(&mut subject, req.device);
                    alternatives.clear();
                    alternatives.extend(&req.alternatives);
                    let ctx = GuardContext {
                        tick: now,
                        subject: &subject,
                        state: &req.state,
                        alternatives: &alternatives,
                        world_token: 0,
                    };
                    out.push((idx, stack.check(&ctx, &req.proposed, oracle)));
                }
            }
            out
        };
        let plan = apdm_par::StealPlan::new(self.cfg.seed ^ SERVE_STEAL_SEED, self.stats.batches);
        let run = apdm_par::run_sharded_balanced(
            self.threads,
            plan,
            &mut work,
            |(_, items)| cost_model.estimate(items.len() as u64),
            run_slice,
        );
        // The wait overlay describes both virtual schedules of this one
        // execution; the verdicts do not depend on which worker judged a
        // shard. The static schedule gives each shard its own chunk.
        let ranges: Vec<(usize, usize)> = (0..shards).map(|i| (i, i + 1)).collect();
        let static_partition = apdm_par::static_schedule(self.threads, &ranges, &shard_costs);
        // A balanced chunk may span several shards; shards inside it start
        // back to back from the chunk's virtual start.
        let mut balanced_starts = vec![0u64; shards];
        for chunk in &run.schedule.chunks {
            let mut t = chunk.start;
            for s in chunk.range.0..chunk.range.1 {
                balanced_starts[s] = t;
                t += shard_costs[s];
            }
        }
        for (offset, req) in offsets.iter_mut().zip(batch) {
            let s = (req.device % shards as u64) as usize;
            offset[0] += static_partition.chunks[s].start;
            offset[1] += balanced_starts[s];
        }
        let mut verdicts: Vec<Option<GuardVerdict>> = vec![None; batch.len()];
        for pairs in run.results {
            for (idx, verdict) in pairs {
                debug_assert!(verdicts[idx].is_none(), "duplicate verdict slot {idx}");
                verdicts[idx] = Some(verdict);
            }
        }
        let verdicts = verdicts
            .into_iter()
            .map(|v| v.expect("every batch slot judged"))
            .collect();
        EvalOutcome {
            verdicts,
            makespan: [static_partition.makespan, run.schedule.makespan],
            virtual_steals: run.schedule.steals,
            actual_steals: run.actual_steals,
            offsets,
        }
    }

    /// Render, count, audit and instrument one evaluated decision.
    fn decide(&mut self, req: &DecisionRequest, verdict: GuardVerdict, now: u64) -> Decision {
        let mut decision = Decision::evaluated(req, verdict, now);
        decision.ctx = stage_event(req.ctx, "serve.ledger", req.device, &[]);
        self.stats.decided += 1;
        match &decision.verdict {
            GuardVerdict::Allow | GuardVerdict::AllowWithObligations(_) => self.stats.allowed += 1,
            GuardVerdict::Deny { .. } => self.stats.denied += 1,
            GuardVerdict::Replace { .. } => self.stats.replaced += 1,
        }
        if telemetry::enabled() {
            QUEUE_TICKS.with(|h| h.record(decision.queue_ticks()));
        }
        self.record(&decision, now);
        decision
    }

    /// Render, count, audit and instrument one shed denial.
    fn shed(&mut self, req: &DecisionRequest, reason: ShedReason, now: u64) -> Decision {
        let mut decision = Decision::shed(req, reason, now);
        decision.ctx = stage_event(req.ctx, "serve.shed", req.device, &[]);
        match reason {
            ShedReason::Capacity => self.stats.shed_capacity += 1,
            ShedReason::Quota => self.stats.shed_quota += 1,
            ShedReason::Deadline => self.stats.shed_deadline += 1,
        }
        self.record(&decision, now);
        decision
    }

    /// Append one decision to the run ledger. The action and verdict
    /// names are interned in the service's [`NamePool`], which holds at
    /// most [`NAME_POOL_CAP`](apdm_ledger::NAME_POOL_CAP) names: a record
    /// of already-seen names allocates none, and past the cap a new name
    /// is allocated per record.
    fn record(&mut self, decision: &Decision, now: u64) {
        let action = self.names.intern(&decision.action);
        self.name_scratch.clear();
        decision.verdict.write_name(&mut self.name_scratch);
        let verdict = self.names.intern(&self.name_scratch);
        self.recorder.record(
            now,
            RunEvent::Verdict {
                device: decision.device,
                action,
                verdict,
                reason: decision.reason().to_string(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TenantId;
    use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};
    use apdm_ledger::Name;
    use apdm_policy::Action;
    use apdm_statespace::{StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder().var("x", 0.0, 10.0).build()
    }

    fn req(
        id: u64,
        device: u64,
        action: Action,
        now: u64,
        deadline: Option<u64>,
    ) -> DecisionRequest {
        DecisionRequest {
            id,
            tenant: TenantId((id % 2) as u32),
            device,
            state: schema().state(&[1.0]).unwrap(),
            proposed: action,
            alternatives: Vec::new(),
            submitted_at: now,
            deadline,
            ctx: None,
        }
    }

    fn service(cfg: ServeConfig) -> PolicyDecisionService<WorkloadOracle> {
        let stacks = standard_stacks(cfg.shards, cfg.cache);
        PolicyDecisionService::new(cfg, stacks, WorkloadOracle, "test")
    }

    #[test]
    fn harmless_requests_are_allowed_and_audited() {
        let mut svc = service(ServeConfig {
            batch: BatchPolicy::unbatched(),
            ..ServeConfig::default()
        });
        assert!(svc
            .submit(
                req(0, 3, Action::adjust("patrol", StateDelta::empty()), 1, None),
                1
            )
            .is_none());
        let decisions = svc.tick(1);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].verdict, GuardVerdict::Allow);
        assert_eq!(decisions[0].shed, None);
        let (ledger, stats) = svc.finish_segmented(1);
        let ledger = ledger.into_single().expect("rotation off");
        assert!(ledger.verify().is_ok());
        assert_eq!(stats.decided, 1);
        assert_eq!(stats.allowed, 1);
        // RunStarted + 1 verdict + RunFinished.
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn harmful_requests_are_denied_by_the_guard() {
        let mut svc = service(ServeConfig {
            batch: BatchPolicy::unbatched(),
            ..ServeConfig::default()
        });
        svc.submit(
            req(0, 3, Action::adjust("strike", StateDelta::empty()), 1, None),
            1,
        );
        let decisions = svc.tick(1);
        assert!(!decisions[0].verdict.permits_execution());
        assert_eq!(decisions[0].shed, None, "a guard denial is not a shed");
        assert_eq!(svc.stats().denied, 1);
    }

    /// A request whose state has fewer components than its schema declares
    /// (a deserialized `State` is not checked on arrival) is denied at
    /// `submit` and never reaches a guard stack, which would index past
    /// its values.
    #[test]
    fn a_malformed_state_is_denied_at_submit_and_never_evaluated() {
        let mut svc = service(ServeConfig::default());
        let mut reqs = WorkloadGen::new(WorkloadSpec {
            per_tick: 4,
            arrival_ticks: 1,
            ..WorkloadSpec::default()
        })
        .tick_requests(1);
        let json = serde_json::to_string(&reqs[0].state).unwrap();
        let at = json.find("\"values\":[").unwrap() + "\"values\":[".len();
        let end = at + json[at..].find(']').unwrap();
        assert!(end > at, "the state has components to strip");
        reqs[0].state = serde_json::from_str(&[&json[..at], &json[end..]].concat()).unwrap();
        let bad_id = reqs[0].id;

        let mut decisions: Vec<Decision> = Vec::new();
        for r in reqs {
            decisions.extend(svc.submit(r, 1));
        }
        let mut now = 1;
        loop {
            decisions.extend(svc.tick(now));
            if svc.queue_depth() == 0 {
                break;
            }
            now += 1;
        }
        assert_eq!(decisions.len(), 4);
        let deny = &decisions[0];
        assert_eq!(deny.request_id, bad_id, "answered at submit");
        assert!(!deny.verdict.permits_execution());
        assert_eq!(deny.reason(), "serve:reject:bad-state");
        assert_eq!(deny.shed, None, "a malformed request is not a shed");
        let (ledger, stats) = svc.finish_segmented(now);
        assert_eq!((stats.submitted, stats.admitted, stats.decided), (4, 3, 3));
        assert_eq!(stats.shed_total(), 0);
        let ledger = ledger.into_single().expect("rotation off");
        assert!(ledger.verify().is_ok());
        // RunStarted + 4 verdicts (the deny included) + RunFinished.
        assert_eq!(ledger.len(), 6);
    }

    #[test]
    fn capacity_overflow_sheds_closed() {
        let mut svc = service(ServeConfig {
            admission: AdmissionConfig {
                capacity: 2,
                tenant_quota: 10,
                quantum: 4,
            },
            ..ServeConfig::default()
        });
        let mut shed = Vec::new();
        for id in 0..5 {
            let r = req(
                id,
                id,
                Action::adjust("patrol", StateDelta::empty()),
                1,
                None,
            );
            if let Some(d) = svc.submit(r, 1) {
                shed.push(d);
            }
        }
        assert_eq!(shed.len(), 3);
        for d in &shed {
            assert!(!d.verdict.permits_execution(), "shed must fail closed");
            assert_eq!(d.shed, Some(ShedReason::Capacity));
        }
        assert_eq!(svc.stats().shed_capacity, 3);
    }

    #[test]
    fn expired_requests_are_shed_at_dispatch_without_charge() {
        let mut svc = service(ServeConfig {
            batch: BatchPolicy::unbatched(),
            ..ServeConfig::default()
        });
        svc.submit(
            req(
                0,
                1,
                Action::adjust("patrol", StateDelta::empty()),
                1,
                Some(2),
            ),
            1,
        );
        // Nothing happens on time...
        assert!(svc.tick(5).len() == 1);
        let stats = svc.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.decided, 0);
        assert_eq!(
            stats.batches, 0,
            "no guard work ran for the expired request"
        );
    }

    #[test]
    fn batching_holds_young_partial_batches() {
        let mut svc = service(ServeConfig {
            batch: BatchPolicy {
                max_batch: 8,
                max_wait: 3,
            },
            ..ServeConfig::default()
        });
        svc.submit(
            req(0, 1, Action::adjust("patrol", StateDelta::empty()), 1, None),
            1,
        );
        assert!(svc.tick(1).is_empty(), "partial batch waits");
        assert!(svc.tick(2).is_empty(), "still young");
        let decisions = svc.tick(4);
        assert_eq!(decisions.len(), 1, "aged out at max_wait");
        assert_eq!(decisions[0].queue_ticks(), 3);
    }

    #[test]
    fn backpressure_defers_hot_shard_overflow_without_losing_requests() {
        let run = |threads: usize| {
            let mut svc = service(ServeConfig {
                threads,
                backpressure: true,
                ..ServeConfig::default()
            });
            let mut decisions = Vec::new();
            let mut id = 0;
            for now in 1..=8u64 {
                for _ in 0..12 {
                    // Every request hits device 3 → one hot shard.
                    let r = req(
                        id,
                        3,
                        Action::adjust("patrol", StateDelta::empty()),
                        now,
                        None,
                    );
                    if let Some(d) = svc.submit(r, now) {
                        decisions.push(d);
                    }
                    id += 1;
                }
                decisions.extend(svc.tick(now));
            }
            for now in 9..=200u64 {
                decisions.extend(svc.tick(now));
                if svc.queue_depth() == 0 {
                    break;
                }
            }
            let stats = svc.stats();
            let waits = svc.drain_shard_waits();
            let (ledger, _) = svc.finish_segmented(200);
            (decisions, ledger.to_jsonl_segments(), stats, waits)
        };
        let (d1, l1, s1, _) = run(1);
        let (d4, l4, s4, _) = run(4);
        assert!(s1.deferrals > 0, "a single hot shard must defer");
        assert_eq!(
            s1.decided + s1.shed_total(),
            s1.submitted,
            "no request may be lost to deferral"
        );
        // The thread count changes neither the decision stream, the ledger
        // bytes, nor the (estimate-based) stats.
        assert_eq!(d1, d4);
        assert_eq!(l1, l4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn wait_overlay_samples_every_decided_request() {
        let mut svc = service(ServeConfig::default());
        let mut decided = 0u64;
        for now in 1..=20u64 {
            for i in 0..6u64 {
                let r = req(
                    now * 10 + i,
                    i * 7 + now,
                    Action::adjust("patrol", StateDelta::empty()),
                    now,
                    None,
                );
                svc.submit(r, now);
            }
            decided += svc.tick(now).len() as u64;
        }
        let waits = svc.drain_shard_waits();
        for schedule in 0..2 {
            let samples: u64 = waits.iter().flat_map(|w| w[schedule].values()).sum();
            assert_eq!(samples, decided, "one wait per decision and schedule");
        }
        let summary = svc.sched_summary();
        assert!(summary.static_makespan_units > 0 && summary.balanced_makespan_units > 0);
        // Drained: a second drain is empty.
        let again = svc.drain_shard_waits();
        assert!(again.iter().flatten().all(WaitCounts::is_empty));
    }

    #[test]
    fn wait_counts_stay_bounded_on_a_long_steady_run() {
        // A steady, cache-friendly stream below capacity, like a hot fleet:
        // the wait counts of 8N ticks hold no more distinct waits than a
        // fixed bound, however many requests they count.
        let mut svc = service(ServeConfig {
            backpressure: true,
            ..ServeConfig::default()
        });
        let mut gen = WorkloadGen::new(WorkloadSpec {
            per_tick: 16,
            arrival_ticks: u64::MAX / 2,
            ..WorkloadSpec::default()
        });
        let entries = |svc: &PolicyDecisionService<WorkloadOracle>| -> usize {
            svc.shard_waits.iter().flatten().map(WaitCounts::len).sum()
        };
        let n = 50u64;
        let mut at_n = 0;
        for now in 1..=8 * n {
            for r in gen.tick_requests(now) {
                svc.submit(r, now);
            }
            svc.tick(now);
            if now == n {
                at_n = entries(&svc);
            }
        }
        let decided = svc.stats().decided;
        assert!(
            decided > 8 * n * 8,
            "the run must decide most of its stream"
        );
        let at_8n = entries(&svc);
        assert!(at_n > 0);
        assert!(
            at_8n <= 2 * at_n,
            "{at_n} distinct waits after {n} ticks, {at_8n} after {}",
            8 * n
        );
    }

    /// The registry's `serve.*` counters, by name.
    fn published_counters() -> std::collections::BTreeMap<String, u64> {
        let reg = telemetry::current_registry().expect("dispatch installed");
        reg.counter_values()
            .into_iter()
            .filter(|(name, _)| name.starts_with("serve."))
            .collect()
    }

    /// Every published counter equals its [`ServeStats`] field; a counter
    /// whose field is still zero is absent.
    fn assert_published(stats: &ServeStats, when: &str) {
        let expected: std::collections::BTreeMap<String, u64> = [
            ("serve.submitted", stats.submitted),
            ("serve.decided", stats.decided),
            ("serve.shed.capacity", stats.shed_capacity),
            ("serve.shed.quota", stats.shed_quota),
            ("serve.shed.deadline", stats.shed_deadline),
            ("serve.shed.total", stats.shed_total()),
            ("serve.deferred", stats.deferrals),
        ]
        .into_iter()
        .filter(|&(_, value)| value > 0)
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        assert_eq!(published_counters(), expected, "{when}");
    }

    #[test]
    fn registry_counters_equal_serve_stats_after_every_tick() {
        let _guard = telemetry::install(std::rc::Rc::new(telemetry::RingCollector::new(8)));
        let mut svc = service(ServeConfig {
            admission: AdmissionConfig {
                capacity: 24,
                tenant_quota: 20,
                quantum: 4,
            },
            cost: CostModel {
                capacity_per_tick: 16,
                ..CostModel::default()
            },
            backpressure: true,
            slo_every: 4,
            ..ServeConfig::default()
        });
        let mut id = 0;
        for now in 1..=12u64 {
            for i in 0..20u64 {
                // Tenant 0 floods one hot device past its quota; tenant 1
                // spreads out with deadlines too tight for the backlog.
                let tenant = u32::from(i % 3 == 0);
                let mut r = req(
                    id,
                    if tenant == 0 { 3 } else { i + now },
                    Action::adjust("patrol", StateDelta::empty()),
                    now,
                    (tenant == 1).then_some(now),
                );
                r.tenant = TenantId(tenant);
                svc.submit(r, now);
                id += 1;
            }
            svc.tick(now);
            assert_published(&svc.stats(), &format!("after tick {now}"));
        }
        let mut now = 12;
        while svc.queue_depth() > 0 {
            now += 1;
            svc.tick(now);
            assert_published(&svc.stats(), &format!("after drain tick {now}"));
        }
        // A request offered after the last tick is published at the seal.
        svc.submit(
            req(
                id,
                1,
                Action::adjust("patrol", StateDelta::empty()),
                now,
                None,
            ),
            now,
        );
        let (_, stats) = svc.finish_segmented(now);
        assert_published(&stats, "after finish_segmented");
        for (field, value) in [
            ("decided", stats.decided),
            ("shed_capacity", stats.shed_capacity),
            ("shed_quota", stats.shed_quota),
            ("shed_deadline", stats.shed_deadline),
            ("deferrals", stats.deferrals),
        ] {
            assert!(value > 0, "workload never exercised {field}: {stats:?}");
        }
    }

    #[test]
    fn checkpoint_frame_serializes_like_its_owned_copy() {
        let mut svc = service(ServeConfig {
            backpressure: true,
            ..ServeConfig::default()
        });
        let mut backlog_seen = false;
        let mut id = 0;
        for now in 1..=10u64 {
            for device in 0..30u64 {
                let action = match device % 3 {
                    0 => Action::adjust("strike", StateDelta::empty()),
                    1 => Action::adjust("east", StateDelta::single(VarId(0), 1.0)),
                    _ => Action::adjust("patrol", StateDelta::empty()),
                };
                let mut r = req(
                    id,
                    device % 7,
                    action,
                    now,
                    (id % 3 != 0).then_some(now + 20),
                );
                r.alternatives = vec![Action::adjust("west", StateDelta::single(VarId(0), -1.0))];
                r.ctx = (id % 2 == 0).then_some(TraceContext {
                    trace_id: id,
                    span_id: id + 1,
                    parent_id: 0,
                    sampled: id % 4 == 0,
                });
                svc.submit(r, now);
                id += 1;
            }
            svc.tick(now);
            let frame = svc.checkpoint_frame(now);
            let owned = ServeCheckpoint::from_frame(&frame).expect("frame decodes");
            assert_eq!(owned.to_frame(), frame, "tick {now}");
            // One schema and four actions, however deep the queue.
            assert!(owned.schemas.len() <= 1 && owned.actions.len() <= 4);
            backlog_seen |= owned.lanes.iter().any(|l| !l.queue.is_empty());
        }
        assert!(backlog_seen, "the checkpoint must cover queued requests");
    }

    #[test]
    fn queued_values_survive_a_checkpoint_bit_for_bit() {
        let cfg = ServeConfig::default();
        let mut svc = service(cfg);
        let schema = StateSchema::builder()
            .var("a", 0.0, 10.0)
            .var("b", 0.0, 10.0)
            .var("c", 0.0, 10.0)
            .var("d", 0.0, 10.0)
            .var("e", 0.0, 10.0)
            .var("f", 0.0, 10.0)
            .build();
        // A NaN with a payload and its sign bit set, too.
        let payload = f64::from_bits(0xfff8_0000_0000_beef);
        let values = [
            -0.0,
            f64::NAN,
            payload,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
        ];
        let mut r = req(0, 3, Action::adjust("patrol", StateDelta::empty()), 1, None);
        r.state = schema.state_verbatim(values.to_vec()).unwrap();
        assert!(svc.submit(r, 1).is_none(), "admitted, not decided");
        let checkpoint = ServeCheckpoint::from_frame(&svc.checkpoint_frame(1)).unwrap();
        let recorder = SegmentedRecorder::new(
            "test",
            cfg.seed,
            cfg.shards as u64,
            RotationPolicy::default(),
        );
        let restored = PolicyDecisionService::restore(
            cfg,
            standard_stacks(cfg.shards, cfg.cache),
            WorkloadOracle,
            &checkpoint,
            recorder,
        )
        .expect("restore");
        let queued: Vec<&DecisionRequest> =
            restored.queue.lanes().flat_map(|(_, _, q)| q).collect();
        assert_eq!(queued.len(), 1);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(queued[0].state.values()), bits(&values));
    }

    /// The in-flight gauges a traced tick publishes, one per shard.
    fn published_shard_gauges() -> Vec<String> {
        let reg = telemetry::current_registry().expect("dispatch installed");
        reg.gauge_values()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("serve.shard."))
            .collect()
    }

    #[test]
    fn traced_ticks_publish_one_inflight_gauge_per_shard() {
        let cfg = ServeConfig {
            shards: 12,
            ..ServeConfig::default()
        };
        let expected: Vec<String> = (0..12)
            .map(|s| format!("serve.shard.inflight.{s:02}"))
            .collect();
        assert_eq!(expected[11], "serve.shard.inflight.11");
        let mut svc = service(cfg);
        for id in 0..8 {
            let action = Action::adjust("patrol", StateDelta::empty());
            svc.submit(req(id, id, action, 1, None), 1);
        }
        // An untraced tick builds no names.
        svc.tick(1);
        assert!(svc.shard_gauges.is_empty());
        let _guard = telemetry::install(std::rc::Rc::new(telemetry::RingCollector::new(8)));
        for now in 2..=3 {
            svc.tick(now);
        }
        assert_eq!(published_shard_gauges(), expected);
        // A restored service publishes under the same names.
        let checkpoint = ServeCheckpoint::from_frame(&svc.checkpoint_frame(3)).unwrap();
        let recorder = SegmentedRecorder::new(
            "test",
            cfg.seed,
            cfg.shards as u64,
            RotationPolicy::default(),
        );
        let mut restored = PolicyDecisionService::restore(
            cfg,
            standard_stacks(cfg.shards, cfg.cache),
            WorkloadOracle,
            &checkpoint,
            recorder,
        )
        .expect("restore");
        restored.tick(4);
        assert_eq!(published_shard_gauges(), expected);
        assert_eq!(restored.shard_gauges, expected);
    }

    #[test]
    fn restore_refuses_a_checkpoint_of_another_shape() {
        let cfg = ServeConfig::default();
        let mut svc = service(cfg);
        for id in 0..12 {
            let action = Action::adjust("patrol", StateDelta::empty());
            svc.submit(req(id, id % 5, action, 1, None), 1);
        }
        // The batch closes on age at tick 3.
        for now in 1..=3 {
            svc.tick(now);
        }
        let good = ServeCheckpoint::from_frame(&svc.checkpoint_frame(3)).unwrap();
        let restore = |cfg: ServeConfig, checkpoint: &ServeCheckpoint| {
            let recorder = SegmentedRecorder::new(
                "test",
                cfg.seed,
                cfg.shards as u64,
                RotationPolicy::default(),
            );
            PolicyDecisionService::restore(
                cfg,
                standard_stacks(cfg.shards, cfg.cache),
                WorkloadOracle,
                checkpoint,
                recorder,
            )
            .map(|svc| svc.stats())
        };
        // The restored process starts with cold caches and counts its own
        // hits and misses, with the cache on or off.
        let cold = ServeStats {
            cache_hits: 0,
            cache_misses: 0,
            ..svc.stats()
        };
        assert!(svc.stats().cache_misses > 0);
        let uncached = ServeConfig {
            cache: false,
            ..cfg
        };
        assert_eq!(restore(cfg, &good), Ok(cold));
        assert_eq!(restore(uncached, &good), Ok(cold));
        let mut fewer_shards = good.clone();
        fewer_shards.shard_inflight.pop();
        assert!(
            matches!(
                restore(cfg, &fewer_shards),
                Err(CheckpointError::Mismatch(_))
            ),
            "{:?}",
            restore(cfg, &fewer_shards)
        );
    }

    #[test]
    fn the_name_pool_stops_at_its_cap_and_every_record_names_its_action() {
        let mut svc = service(ServeConfig::default());
        let mut decisions = Vec::new();
        let mut now = 0;
        for id in 0..10_000u64 {
            now = id / 16 + 1;
            let action = Action::adjust(format!("act-{id}"), StateDelta::empty());
            decisions.extend(svc.submit(req(id, id % 48, action, now, None), now));
            if id % 16 == 15 {
                decisions.extend(svc.tick(now));
            }
        }
        while svc.queue_depth() > 0 {
            now += 1;
            decisions.extend(svc.tick(now));
        }
        assert_eq!(svc.names.len(), apdm_ledger::NAME_POOL_CAP);
        let (ledger, stats) = svc.finish_segmented(now);
        assert_eq!(stats.decided + stats.shed_total(), 10_000);
        let ledger = ledger.into_single().expect("rotation off");
        let records: Vec<(&Name, &Name)> = ledger
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                RunEvent::Verdict {
                    action, verdict, ..
                } => Some((action, verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 10_000, "one record per request");
        for (decision, (action, verdict)) in decisions.iter().zip(records) {
            assert_eq!(action.as_str(), format!("act-{}", decision.request_id));
            assert_eq!(verdict.as_str(), decision.verdict_name());
        }
    }

    #[test]
    fn verdict_stream_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut svc = service(ServeConfig {
                threads,
                ..ServeConfig::default()
            });
            let mut decisions = Vec::new();
            let mut id = 0;
            for now in 1..=6u64 {
                for device in 0..10u64 {
                    let action = if device % 3 == 0 {
                        Action::adjust("strike", StateDelta::empty())
                    } else {
                        Action::adjust("east", StateDelta::single(VarId(0), 1.0))
                    };
                    if let Some(d) = svc.submit(req(id, device, action, now, Some(now + 8)), now) {
                        decisions.push(d);
                    }
                    id += 1;
                }
                decisions.extend(svc.tick(now));
            }
            // Drain.
            for now in 7..=40u64 {
                decisions.extend(svc.tick(now));
                if svc.queue_depth() == 0 {
                    break;
                }
            }
            let (ledger, stats) = svc.finish_segmented(40);
            (decisions, ledger.to_jsonl_segments(), stats)
        };
        let (d1, l1, s1) = run(1);
        let (d4, l4, s4) = run(4);
        assert_eq!(d1, d4, "decision streams must not depend on threads");
        assert_eq!(l1, l4, "ledgers must be byte-identical across threads");
        assert_eq!(s1, s4);
        assert!(s1.decided > 0);
    }
}
