use std::collections::BTreeMap;
use std::time::Instant;

use apdm_device::{Device, DeviceId};
use apdm_guards::tamper::{TamperStatus, Tamperable};
use apdm_guards::{DeactivationController, GuardContext, GuardStack, GuardVerdict};
use apdm_ledger::{
    DeviceSnap, LedgerError, Name, NamePool, RawJson, RunEvent, SegmentedRecorder, SnapshotFrame,
};
use apdm_policy::{Action, Event, Obligation, ObligationTrigger};
use apdm_telemetry as telemetry;
use serde::{Deserialize, Serialize, Value};

/// The six per-tick phases of [`Fleet::step`], in emission order. Work for
/// one phase is interleaved across the per-device loop, so durations are
/// *accumulated* per phase and emitted as pre-measured spans at tick end
/// (restructuring the loop into sequential phases would reorder the
/// recorded ledger and change experiment results).
const PHASE_NAMES: [&str; 6] = [
    "phase.sense",
    "phase.propose",
    "phase.guard",
    "phase.execute",
    "phase.world-step",
    "phase.ledger-append",
];
/// Wall-clock phase attribution is measured on one tick in this many: the
/// six phase spans are *emitted* every tick (their presence and virtual
/// ordering are part of the trace contract), but only measured ticks pay
/// the lap clock reads and carry `dur_ns` / feed the `phase.*.ns`
/// histograms.
const PHASE_TIMING_SAMPLE_PERIOD: u32 = 4;

/// Seed for the decide phase's deterministic steal order. A fixed constant:
/// the order must be a pure function of the tick so sequential and parallel
/// runs of the *same scenario* agree, while still varying between ticks.
const FLEET_STEAL_SEED: u64 = 0xF1EE_7BA1;

const SENSE: usize = 0;
const PROPOSE: usize = 1;
const GUARD: usize = 2;
const EXECUTE: usize = 3;
const WORLD_STEP: usize = 4;
const LEDGER_APPEND: usize = 5;

thread_local! {
    /// Cached per-phase histogram handles (`phase.<name>.ns`), aligned with
    /// `PHASE_NAMES`; resolved once per installed registry.
    static PHASE_HIST: [telemetry::CachedHistogram; 6] = const {
        [
            telemetry::CachedHistogram::new("phase.sense.ns"),
            telemetry::CachedHistogram::new("phase.propose.ns"),
            telemetry::CachedHistogram::new("phase.guard.ns"),
            telemetry::CachedHistogram::new("phase.execute.ns"),
            telemetry::CachedHistogram::new("phase.world-step.ns"),
            telemetry::CachedHistogram::new("phase.ledger-append.ns"),
        ]
    };
}

/// Lap-based phase attribution: one clock read per instrumented segment.
///
/// Each [`lap`](PhaseClock::lap) charges everything since the previous lap
/// — the wrapped work plus the thin glue between segments — to the closing
/// phase, so the phase sums approximate the whole tick while costing half
/// the clock reads of a start/stop pair per segment. Free (no clock reads
/// after construction) when telemetry is off.
struct PhaseClock {
    enabled: bool,
    last: Instant,
    acc: [u64; PHASE_NAMES.len()],
}

impl PhaseClock {
    fn start(enabled: bool) -> Self {
        PhaseClock {
            enabled,
            last: Instant::now(),
            acc: [0; PHASE_NAMES.len()],
        }
    }

    #[inline]
    fn lap<R>(&mut self, phase: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let out = f();
        let now = Instant::now();
        self.acc[phase] += u64::try_from((now - self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        out
    }
}

/// Record an event (constructed lazily) into the recorder, if attached,
/// charging the cost to the `phase.ledger-append` accumulator.
#[inline]
fn record_timed(
    recorder: &mut Option<SegmentedRecorder>,
    clock: &mut PhaseClock,
    tick: u64,
    make: impl FnOnce() -> RunEvent,
) {
    if let Some(rec) = recorder.as_mut() {
        clock.lap(LEDGER_APPEND, || rec.record(tick, make()));
    }
}

use crate::oracle::{actions, OracleQuality, WorldOracle};
use crate::queue::EventQueue;
use crate::world::{Cell, World};
use crate::Metrics;

/// A device bound into the fleet: the device itself, its guard stack and its
/// position in the world.
#[derive(Debug)]
pub struct GuardedDevice {
    /// The device (Figure 2 model).
    pub device: Device,
    /// The per-device guard stack (Sections VI.A–B).
    pub stack: GuardStack,
    /// World position.
    pub pos: Cell,
    /// Cached `id.to_string()`: the guard/audit subject label. Computed
    /// once at [`Fleet::add`] instead of once per event.
    pub(crate) subject: String,
    /// Per-device name interner for recorded action names. Device-local so
    /// decide-phase workers intern without cross-thread contention.
    pub(crate) names: NamePool,
}

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Prediction quality of every device's harm oracle.
    pub oracle: OracleQuality,
    /// Strike radius (Chebyshev) for direct-harm actions.
    pub strike_radius: i32,
    /// Worker threads for the decide phase of [`Fleet::step`]: `1` runs the
    /// classic sequential engine, `0` resolves from `APDM_THREADS` or the
    /// machine's available parallelism (see [`apdm_par::resolve_threads`]).
    /// Either way the committed tick — and hence the ledger — is identical.
    pub threads: usize,
    /// Install a guard-verdict memo cache ([`apdm_guards::VerdictCache`])
    /// on every member's stack as it is added.
    pub cache: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            oracle: OracleQuality::Myopic,
            strike_radius: 1,
            threads: 1,
            cache: false,
        }
    }
}

/// Everything the read-only decide phase concluded about one device, queued
/// for the single-threaded commit phase. Outcomes commit in event order, so
/// a parallel decide phase produces a ledger byte-identical to the
/// sequential engine's.
#[derive(Debug)]
struct TickOutcome {
    /// Index into the tick's `events` slice — the commit sort key.
    event_idx: usize,
    id: DeviceId,
    /// Interned name of the proposed action.
    proposed: Name,
    verdict: GuardVerdict,
    /// The action that will actually execute (interned name + action),
    /// `None` when the guard denied outright.
    effective: Option<(Name, Action)>,
    /// Obligations to incur at commit (rule's own + guard-imposed); empty
    /// when nothing executes.
    obligations: Vec<Obligation>,
}

/// One unit of decide-phase work: a device paired with its event.
struct WorkItem<'a> {
    event_idx: usize,
    event: &'a Event,
    member: &'a mut GuardedDevice,
}

/// Mix a device's position into the fleet-wide observation token: the harm
/// oracle's answers depend on where the device stands, so two devices in
/// different cells must not share a cached verdict fingerprint.
fn mix_device_token(world_token: u64, pos: Cell) -> u64 {
    let mut h = world_token ^ 0x9e37_79b9_7f4a_7c15;
    for v in [pos.0 as u64, pos.1 as u64] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fleet of guarded devices operating in a [`World`].
///
/// Each tick ([`step`](Fleet::step)) runs the full Figure-2 loop with
/// guards on the propose/apply seam, structured as a deterministic
/// two-phase tick:
///
/// 1. due obligations execute (mitigations are never starved by new work);
/// 2. **decide** (read-only, parallelizable): each active device's logic
///    proposes an action for its event;
/// 3. its [`GuardStack`] rules (harm oracle + state check) against the
///    start-of-tick world, possibly substituting an alternative drawn from
///    the device's other matching rules;
/// 4. **commit** (single-threaded, event order): the effective action
///    executes — world effects (strike / dig / warn / move) and the
///    device's own state delta;
/// 5. the deactivation controller (Section VI.C) observes the new state;
/// 6. the world advances (humans walk, holes claim, heat ignites).
///
/// Because the decide phase never touches the world and the commit phase
/// applies outcomes in event order, running steps 2–3 across threads
/// ([`FleetConfig::threads`]) changes nothing observable: metrics, world
/// trajectory and the recorded ledger are bit-identical to the sequential
/// engine.
///
/// The fleet keeps the run's ground-truth [`Metrics`].
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    members: BTreeMap<DeviceId, GuardedDevice>,
    deactivation: Option<DeactivationController>,
    obligations_due: EventQueue<(DeviceId, u64, Action)>,
    metrics: Metrics,
    /// Index into `world.harms()` up to which harms were already copied into
    /// the metrics (strikes record harm outside `World::step`).
    harvested_harms: usize,
    /// Optional flight recorder (crate `apdm-ledger`); every proposal,
    /// verdict, execution, deactivation and harm lands in its hash chain.
    recorder: Option<SegmentedRecorder>,
    /// Decides which ticks pay for wall-clock phase measurement.
    phase_sampler: telemetry::Sampler,
    /// Per-device count of break-glass audit entries already forwarded into
    /// the recorder (guard interventions are first-class [`RunEvent::Verdict`]
    /// records, so only the break-glass log flows through the audit bridge).
    forwarded_breakglass: BTreeMap<DeviceId, usize>,
    /// Interner for verdict labels (`deny`, `replace:<name>`, …) recorded at
    /// commit; commit is single-threaded, so one fleet-wide pool suffices.
    verdict_names: NamePool,
    /// Reusable formatting buffer for composed verdict labels.
    scratch: String,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig) -> Self {
        Fleet {
            config,
            members: BTreeMap::new(),
            deactivation: None,
            obligations_due: EventQueue::new(),
            metrics: Metrics::new(),
            harvested_harms: 0,
            recorder: None,
            forwarded_breakglass: BTreeMap::new(),
            phase_sampler: telemetry::Sampler::every(PHASE_TIMING_SAMPLE_PERIOD),
            verdict_names: NamePool::new(),
            scratch: String::new(),
        }
    }

    /// Install a fleet-wide deactivation controller (Section VI.C).
    pub fn set_deactivation(&mut self, controller: DeactivationController) {
        self.deactivation = Some(controller);
    }

    /// Attach a flight recorder; from now on every proposal, verdict,
    /// execution, obligation, deactivation and harm is appended to its
    /// hash-chained ledger.
    pub fn set_recorder(&mut self, recorder: SegmentedRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detach the recorder (typically to seal it with
    /// [`SegmentedRecorder::finish`]).
    pub fn take_recorder(&mut self) -> Option<SegmentedRecorder> {
        self.recorder.take()
    }

    /// Append a driver-side event (tamper probes, fault injections,
    /// checkpoint frames) to the attached recorder; a no-op without one.
    pub fn record_event(&mut self, tick: u64, event: RunEvent) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(tick, event);
        }
    }

    /// Add a guarded device at a position. When the fleet's config asks for
    /// verdict caching, a memo cache is installed on the stack here.
    pub fn add(&mut self, device: Device, mut stack: GuardStack, pos: Cell) -> DeviceId {
        let id = device.id();
        if self.config.cache {
            stack.set_cache_enabled(true);
        }
        self.members.insert(
            id,
            GuardedDevice {
                device,
                stack,
                pos,
                subject: id.to_string(),
                names: NamePool::new(),
            },
        );
        id
    }

    /// Aggregate guard-verdict cache `(hits, misses)` across the fleet, or
    /// `None` when no member carries a cache.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        let mut any = false;
        let (mut hits, mut misses) = (0u64, 0u64);
        for member in self.members.values() {
            if let Some((h, m)) = member.stack.cache_stats() {
                any = true;
                hits += h;
                misses += m;
            }
        }
        any.then_some((hits, misses))
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// A member by id.
    pub fn member(&self, id: DeviceId) -> Option<&GuardedDevice> {
        self.members.get(&id)
    }

    /// Mutable member access (fault injection).
    pub fn member_mut(&mut self, id: DeviceId) -> Option<&mut GuardedDevice> {
        self.members.get_mut(&id)
    }

    /// Iterate members in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &GuardedDevice)> {
        self.members.iter()
    }

    /// Iterate members mutably (fault injection sweeps).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&DeviceId, &mut GuardedDevice)> {
        self.members.iter_mut()
    }

    /// The run's ground-truth metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of active (non-deactivated) devices.
    pub fn active_count(&self) -> usize {
        self.members
            .values()
            .filter(|m| m.device.is_active())
            .count()
    }

    /// Capture a checkpoint frame: world, metrics, per-device state (values,
    /// activity, position, guard tamper status) and the run RNG's state
    /// words. Obligation queues and deactivation-controller streak counters
    /// are not captured — take snapshots at ticks where no obligations are
    /// pending, as the recorded scenarios in [`crate::recorder`] do.
    pub fn snapshot(&self, tick: u64, world: &World, rng_words: [u64; 4]) -> SnapshotFrame {
        let devices = self
            .members
            .iter()
            .map(|(id, member)| DeviceSnap {
                id: id.0,
                values: member.device.state().values().to_vec(),
                active: member.device.is_active(),
                x: member.pos.0,
                y: member.pos.1,
                tamper: member
                    .stack
                    .preaction()
                    .map_or(Value::Null, |pre| Serialize::to_value(&pre.tamper_status())),
            })
            .collect();
        SnapshotFrame {
            tick,
            rng: rng_words,
            world: RawJson::of(world),
            metrics: RawJson::of(&self.metrics),
            devices,
        }
    }

    /// Restore fleet state from a checkpoint. The fleet must have been
    /// rebuilt with the same membership first (same constructor, same
    /// seeds); `world` must already be re-hydrated from the same frame so
    /// harm harvesting re-aligns.
    pub fn restore_snapshot(
        &mut self,
        frame: &SnapshotFrame,
        world: &World,
    ) -> Result<(), LedgerError> {
        self.metrics = frame
            .metrics
            .parse()
            .map_err(|e| LedgerError::Snapshot(format!("metrics: {e}")))?;
        self.harvested_harms = world.harms().len();
        for snap in &frame.devices {
            let Some(member) = self.members.get_mut(&DeviceId(snap.id)) else {
                return Err(LedgerError::Snapshot(format!("unknown device {}", snap.id)));
            };
            member
                .device
                .restore_state(&snap.values)
                .map_err(|e| LedgerError::Snapshot(format!("device {}: {e}", snap.id)))?;
            if !snap.active {
                member.device.deactivate();
            }
            member.pos = (snap.x, snap.y);
            if !matches!(snap.tamper, Value::Null) {
                if let Some(pre) = member.stack.preaction_mut() {
                    let status: TamperStatus = Deserialize::from_value(&snap.tamper)
                        .map_err(|e| LedgerError::Snapshot(format!("tamper {}: {e}", snap.id)))?;
                    pre.set_tamper_status(status);
                }
            }
        }
        Ok(())
    }

    /// Advance the fleet and world one tick. `events` are the per-device
    /// stimuli for this tick (scenarios usually send each active device a
    /// `tick` event; at most one event per device is processed).
    ///
    /// The tick runs in two phases. The **decide** phase (propose → sense →
    /// guard) is read-only against the start-of-tick world, so it runs the
    /// per-device work either inline or across a scoped thread pool
    /// ([`FleetConfig::threads`]), producing one `TickOutcome` per
    /// deciding device. The **commit** phase is always single-threaded and
    /// applies outcomes in event order: world effects, metrics, obligations
    /// and ledger appends happen in exactly the sequence the sequential
    /// engine would produce, which is what makes the parallel engine's
    /// ledger digest bit-identical to the sequential one's.
    pub fn step(&mut self, world: &mut World, tick: u64, events: &[(DeviceId, Event)]) {
        let telem = telemetry::enabled();
        if telem {
            telemetry::set_tick(tick);
        }
        let _tick_span = telemetry::span!("tick", n = tick);
        // Lap clock feeding the per-phase accumulators (PHASE_* consts);
        // only sampled ticks measure, the rest run clock-free.
        let measured = telem && self.phase_sampler.sample();
        let mut clock = PhaseClock::start(measured);

        // 1. Execute due obligations (unguarded: they are mitigations the
        // guard itself demanded).
        let due = clock.lap(SENSE, || self.obligations_due.pop_due(tick));
        for (id, ob_id, action) in due {
            if let Some(member) = self.members.get_mut(&id) {
                clock.lap(EXECUTE, || {
                    Self::execute_world_effect(&self.config, member, &action, world, tick);
                    member.device.obligations_mut().fulfill(ob_id, tick);
                });
                self.metrics.obligation_executions += 1;
                record_timed(&mut self.recorder, &mut clock, tick, || {
                    RunEvent::ObligationExecuted {
                        device: id.0,
                        action: member.names.intern(action.name()),
                    }
                });
            }
        }

        // 2–4. Decide phase: read-only against the start-of-tick world.
        let outcomes = self.decide(world, tick, events, &mut clock);

        // 5. Commit phase: apply outcomes in event order.
        for outcome in outcomes {
            self.commit_outcome(world, tick, outcome, &mut clock);
        }

        // 6. The world advances; every harm not yet harvested (including
        // strike harms recorded earlier in this tick) lands in the metrics.
        clock.lap(WORLD_STEP, || world.step(tick));
        let new_harms = world.harms()[self.harvested_harms..].to_vec();
        for harm in new_harms {
            record_timed(&mut self.recorder, &mut clock, harm.tick, || {
                RunEvent::Harm {
                    human: harm.human as u64,
                    cause: harm.cause.to_string(),
                    device: harm.device,
                }
            });
            self.metrics.record_harm(harm);
        }
        self.harvested_harms = world.harms().len();
        self.metrics.ticks = tick;

        // Obligation deadlines.
        clock.lap(WORLD_STEP, || {
            let mut overdue = 0;
            for member in self.members.values_mut() {
                let before = member.device.obligations().overdue_count();
                member.device.obligations_mut().advance(tick);
                overdue += member.device.obligations().overdue_count() - before;
            }
            self.metrics.obligations_overdue += overdue as u64;
        });

        if telem {
            for (name, &dur) in PHASE_NAMES.iter().zip(clock.acc.iter()) {
                telemetry::complete_span(name, measured.then_some(dur), Vec::new());
            }
            if measured {
                PHASE_HIST.with(|hists| {
                    for (hist, &dur) in hists.iter().zip(clock.acc.iter()) {
                        hist.record(dur);
                    }
                });
            }
        }
    }

    /// The read-only half of the tick: propose, sense and guard every
    /// active device against an immutable snapshot of the world, returning
    /// outcomes sorted by event index. With `threads > 1` the work list is
    /// sharded contiguously (devices arrive in event order, which scenarios
    /// emit in stable `DeviceId` order) across a scoped thread pool.
    ///
    /// Parallel workers run their own lap clocks; their per-phase
    /// accumulators are summed into the caller's, so measured phase
    /// durations report aggregate CPU time across workers rather than wall
    /// time. Worker threads also run with telemetry disabled (dispatch is
    /// thread-local), so per-stage guard spans are only emitted by the
    /// sequential engine — the ledger stream is unaffected either way.
    fn decide(
        &mut self,
        world: &World,
        tick: u64,
        events: &[(DeviceId, Event)],
        clock: &mut PhaseClock,
    ) -> Vec<TickOutcome> {
        let config = self.config;
        // SENSE: snapshot the oracle-visible world and assemble the work
        // list, dropping inactive and unknown devices *before* any PROPOSE
        // lap so dead devices never charge the propose histogram.
        let (mut work, world_token) = clock.lap(SENSE, || {
            let world_token = world.observation_token();
            let mut by_id: BTreeMap<DeviceId, &mut GuardedDevice> = self
                .members
                .iter_mut()
                .map(|(&id, member)| (id, member))
                .collect();
            let mut work: Vec<WorkItem<'_>> = Vec::with_capacity(events.len());
            for (event_idx, (id, event)) in events.iter().enumerate() {
                let Some(member) = by_id.remove(id) else {
                    continue;
                };
                if !member.device.is_active() {
                    continue;
                }
                work.push(WorkItem {
                    event_idx,
                    event,
                    member,
                });
            }
            (work, world_token)
        });

        let threads = apdm_par::resolve_threads(config.threads).min(work.len().max(1));
        let mut outcomes: Vec<TickOutcome> = Vec::with_capacity(work.len());
        if threads <= 1 {
            for item in &mut work {
                if let Some(outcome) =
                    Self::decide_one(&config, world, world_token, tick, item, clock)
                {
                    outcomes.push(outcome);
                }
            }
        } else {
            let measured = clock.enabled;
            // Balanced scheduling: devices are claimed in cost-weighted
            // chunks whose steal order is a pure function of (seed, tick,
            // chunk id), so the merged outcome stream — and the committed
            // ledger — is identical at any thread count.
            let plan = apdm_par::StealPlan::new(FLEET_STEAL_SEED, tick);
            let run = apdm_par::run_sharded_balanced(
                threads,
                plan,
                &mut work,
                |_| 1,
                |_, chunk| {
                    let mut local = PhaseClock::start(measured);
                    let mut outs = Vec::with_capacity(chunk.len());
                    for item in chunk {
                        if let Some(outcome) =
                            Self::decide_one(&config, world, world_token, tick, item, &mut local)
                        {
                            outs.push(outcome);
                        }
                    }
                    (outs, local.acc)
                },
            );
            for (outs, acc) in run.results {
                for (phase, ns) in acc.into_iter().enumerate() {
                    clock.acc[phase] += ns;
                }
                outcomes.extend(outs);
            }
            // Chunk results come back in chunk (= event) order regardless
            // of which worker ran which chunk; the sort is a cheap
            // structural guarantee, not a reordering.
            outcomes.sort_by_key(|o| o.event_idx);
        }
        outcomes
    }

    /// Decide one device: the Figure-2 propose/sense/guard sequence against
    /// an immutable world. Mutates only the device's own logic engine,
    /// guard stack and name pool — never the world or the fleet.
    fn decide_one(
        config: &FleetConfig,
        world: &World,
        world_token: u64,
        tick: u64,
        item: &mut WorkItem<'_>,
        clock: &mut PhaseClock,
    ) -> Option<TickOutcome> {
        let member = &mut *item.member;
        let decision = clock.lap(PROPOSE, || member.device.propose(item.event))?;

        // Sense: assemble the guard's view of the world — alternative
        // actions, the harm oracle, the device's perceived state.
        let (alternatives, oracle) = clock.lap(SENSE, || {
            let alternatives: Vec<&Action> = decision.matched()[1..]
                .iter()
                .filter_map(|&rid| member.device.engine().rule(rid))
                .map(|r| r.action())
                .collect();
            let oracle = WorldOracle::new(world, member.device.id().0, member.pos, config.oracle);
            (alternatives, oracle)
        });
        let ctx = GuardContext {
            tick,
            subject: &member.subject,
            state: member.device.state(),
            alternatives: &alternatives,
            world_token: mix_device_token(world_token, member.pos),
        };
        let verdict = clock.lap(GUARD, || {
            member.stack.check(&ctx, decision.action(), oracle)
        });
        drop(alternatives);

        let effective = verdict
            .effective_action(decision.action())
            .map(|action| (member.names.intern(action.name()), action.clone()));
        let obligations: Vec<Obligation> = if effective.is_some() {
            decision
                .obligations()
                .iter()
                .chain(verdict.obligations())
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        Some(TickOutcome {
            event_idx: item.event_idx,
            id: member.device.id(),
            proposed: member.names.intern(decision.action().name()),
            verdict,
            effective,
            obligations,
        })
    }

    /// Commit one decided outcome: metrics, ledger records, obligations,
    /// world effects and the deactivation controller, in exactly the order
    /// the sequential engine interleaves them.
    fn commit_outcome(
        &mut self,
        world: &mut World,
        tick: u64,
        outcome: TickOutcome,
        clock: &mut PhaseClock,
    ) {
        let id = outcome.id;
        let Some(member) = self.members.get_mut(&id) else {
            return;
        };
        self.metrics.proposals += 1;
        record_timed(&mut self.recorder, clock, tick, || RunEvent::Proposal {
            device: id.0,
            action: outcome.proposed.clone(),
        });

        if outcome.verdict.intervened() {
            self.metrics.interventions += 1;
        }
        if self.recorder.is_some() {
            let described: Option<(Name, &str)> = match &outcome.verdict {
                GuardVerdict::Allow => None,
                GuardVerdict::AllowWithObligations(_) => {
                    Some((self.verdict_names.intern("allow+obligations"), ""))
                }
                GuardVerdict::Deny { reason } => {
                    Some((self.verdict_names.intern("deny"), reason.as_str()))
                }
                GuardVerdict::Replace { action, reason } => {
                    use std::fmt::Write;
                    self.scratch.clear();
                    let _ = write!(self.scratch, "replace:{}", action.name());
                    Some((self.verdict_names.intern(&self.scratch), reason.as_str()))
                }
            };
            if let Some((verdict_name, reason)) = described {
                let reason = reason.to_string();
                record_timed(&mut self.recorder, clock, tick, || RunEvent::Verdict {
                    device: id.0,
                    action: outcome.proposed.clone(),
                    verdict: verdict_name,
                    reason,
                });
            }
            // Break-glass grants/denials surface through the policy
            // audit bridge (guard interventions are already first-class
            // verdict records — no double bookkeeping).
            if let Some(bg) = member.stack.statecheck().and_then(|sc| sc.breakglass()) {
                let entries = bg.audit().entries();
                let seen = self.forwarded_breakglass.entry(id).or_insert(0);
                if let Some(rec) = self.recorder.as_mut() {
                    clock.lap(LEDGER_APPEND, || {
                        for entry in &entries[*seen..] {
                            rec.record(tick, RunEvent::Audit(entry.clone()));
                        }
                    });
                }
                *seen = entries.len();
            }
        }

        let mut incurred: Vec<(u64, Action)> = Vec::new();
        if let Some((effective_name, effective)) = outcome.effective {
            clock.lap(EXECUTE, || {
                // Obligations from the rule itself and from the guard.
                for ob in outcome.obligations {
                    let trigger = ob.trigger();
                    let ob_action = ob.action().clone();
                    let ob_id = member.device.obligations_mut().incur(ob, tick);
                    match trigger {
                        ObligationTrigger::During => {
                            incurred.push((ob_id, ob_action));
                        }
                        ObligationTrigger::After => {
                            self.obligations_due
                                .schedule(tick + 1, (id, ob_id, ob_action));
                        }
                    }
                }
                Self::execute_world_effect(&self.config, member, &effective, world, tick);
            });
            self.metrics.executions += 1;
            record_timed(&mut self.recorder, clock, tick, || RunEvent::Execution {
                device: id.0,
                action: effective_name,
            });
            // During-obligations execute with the action.
            for (ob_id, ob_action) in incurred {
                clock.lap(EXECUTE, || {
                    Self::execute_world_effect(&self.config, member, &ob_action, world, tick);
                    member.device.obligations_mut().fulfill(ob_id, tick);
                });
                self.metrics.obligation_executions += 1;
                record_timed(&mut self.recorder, clock, tick, || {
                    RunEvent::ObligationExecuted {
                        device: id.0,
                        action: member.names.intern(ob_action.name()),
                    }
                });
            }
        }

        // Deactivation controller observes the post-action state.
        if let Some(ctl) = &mut self.deactivation {
            let order = clock.lap(EXECUTE, || {
                ctl.observe(&member.subject, member.device.state(), tick)
            });
            if let Some(order) = order {
                clock.lap(EXECUTE, || {
                    member.device.deactivate();
                    world.clear_heat(id.0);
                });
                self.metrics.deactivations += 1;
                record_timed(&mut self.recorder, clock, tick, || RunEvent::Deactivation {
                    device: id.0,
                    reason: order.reason,
                });
            }
        }
    }

    /// Give the world physical meaning to an action, then run the device's
    /// own state update.
    fn execute_world_effect(
        config: &FleetConfig,
        member: &mut GuardedDevice,
        action: &Action,
        world: &mut World,
        tick: u64,
    ) {
        let id = member.device.id().0;
        match action.name() {
            actions::STRIKE => {
                world.strike(id, member.pos, config.strike_radius, tick);
            }
            actions::DIG_HOLE => {
                world.dig_hole(member.pos, Some(id));
            }
            actions::POST_WARNING => {
                world.warn_hole(member.pos);
            }
            actions::MOVE => {
                let dx: i32 = action.param("dx").and_then(|v| v.parse().ok()).unwrap_or(0);
                let dy: i32 = action.param("dy").and_then(|v| v.parse().ok()).unwrap_or(0);
                let next = (member.pos.0 + dx, member.pos.1 + dy);
                if world.in_bounds(next) {
                    member.pos = next;
                }
            }
            _ => {}
        }
        // The device's own state moves through its actuators; world-only
        // actions (empty delta) need no actuator.
        if !action.delta().is_empty() {
            member.device.apply(action);
        }
        // Heat convention: a `heat` state variable is mirrored into the
        // world's aggregate field.
        if let Some(var) = member.device.schema().index_of("heat") {
            if let Some(heat) = member.device.state().get(var) {
                world.set_heat(id, heat);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use apdm_device::{Actuator, DeviceKind, OrgId};
    use apdm_guards::PreActionCheck;
    use apdm_policy::obligation::ObligationCatalog;
    use apdm_policy::{Condition, EcaRule, Obligation};
    use apdm_statespace::{Region, RegionClassifier, StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder().var("heat", 0.0, 10.0).build()
    }

    fn tick_events(fleet: &Fleet) -> Vec<(DeviceId, Event)> {
        fleet
            .iter()
            .map(|(&id, _)| (id, Event::named("tick")))
            .collect()
    }

    /// A device that strikes on every tick.
    fn striker(id: u64) -> Device {
        Device::builder(id, DeviceKind::new("attack-drone"), OrgId::new("us"))
            .schema(schema())
            .rule(EcaRule::new(
                "always-strike",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::STRIKE, StateDelta::empty()).physical(),
            ))
            .build()
    }

    /// A device that digs on tick 1 (then keeps digging harmlessly).
    fn digger(id: u64) -> Device {
        Device::builder(id, DeviceKind::new("engineer-mule"), OrgId::new("uk"))
            .schema(schema())
            .rule(EcaRule::new(
                "dig",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::DIG_HOLE, StateDelta::empty()).physical(),
            ))
            .build()
    }

    #[test]
    fn unguarded_striker_harms_neighbors() {
        let mut world = World::new(WorldConfig::default());
        world.add_human(vec![(5, 5)], false);
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.add(striker(1), GuardStack::new(), (5, 6));
        let events = tick_events(&fleet);
        fleet.step(&mut world, 1, &events);
        assert_eq!(fleet.metrics().harm_count(), 1);
        assert_eq!(fleet.metrics().executions, 1);
    }

    #[test]
    fn preaction_guard_blocks_the_strike() {
        let mut world = World::new(WorldConfig::default());
        world.add_human(vec![(5, 5)], false);
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.add(
            striker(1),
            GuardStack::new().with_preaction(PreActionCheck::new()),
            (5, 6),
        );
        let events = tick_events(&fleet);
        for t in 1..=5 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(fleet.metrics().harm_count(), 0);
        assert_eq!(fleet.metrics().interventions, 5);
        assert_eq!(fleet.metrics().executions, 0);
    }

    #[test]
    fn myopic_digger_causes_indirect_harm_despite_preaction_guard() {
        // The paper's dig-a-hole story end to end.
        let mut world = World::new(WorldConfig::default());
        world.add_human((0..10).map(|x| (x, 0)).collect(), false);
        let mut fleet = Fleet::new(FleetConfig::default()); // myopic oracle
        fleet.add(
            digger(1),
            GuardStack::new().with_preaction(PreActionCheck::new().with_lookahead(50)),
            (7, 0),
        );
        let events = tick_events(&fleet);
        for t in 1..=10 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(
            fleet.metrics().harm_count(),
            1,
            "myopia lets the hole be dug"
        );
    }

    #[test]
    fn predictive_digger_is_blocked() {
        let mut world = World::new(WorldConfig::default());
        world.add_human((0..10).map(|x| (x, 0)).collect(), false);
        let mut fleet = Fleet::new(FleetConfig {
            oracle: OracleQuality::Predictive { horizon: 20 },
            ..FleetConfig::default()
        });
        fleet.add(
            digger(1),
            GuardStack::new().with_preaction(PreActionCheck::new().with_lookahead(20)),
            (7, 0),
        );
        let events = tick_events(&fleet);
        for t in 1..=10 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(fleet.metrics().harm_count(), 0);
    }

    #[test]
    fn obligations_mitigate_the_hole() {
        // Myopic oracle, but digging carries a During-obligation to post a
        // warning sign: the hole exists yet never claims the walker.
        let mut catalog = ObligationCatalog::new();
        catalog.register(
            actions::DIG_HOLE,
            Obligation::during(Action::adjust(actions::POST_WARNING, StateDelta::empty())),
        );
        let mut world = World::new(WorldConfig::default());
        world.add_human((0..10).map(|x| (x, 0)).collect(), false);
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.add(
            digger(1),
            GuardStack::new().with_preaction(PreActionCheck::new().with_obligations(catalog)),
            (7, 0),
        );
        let events = tick_events(&fleet);
        for t in 1..=10 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(fleet.metrics().harm_count(), 0);
        assert_eq!(
            world.hole_at((7, 0)),
            Some(true),
            "hole exists but is warned"
        );
    }

    #[test]
    fn deactivation_contains_a_rogue() {
        // A device whose heat rises each tick enters the bad region; the
        // controller kills it after two observations.
        let hot = Device::builder(1u64, DeviceKind::new("heater"), OrgId::new("us"))
            .schema(schema())
            .actuator(Actuator::new("emit-heat", VarId(0), 5.0))
            .rule(EcaRule::new(
                "heat-up",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust("emit-heat", StateDelta::single(VarId(0), 3.0)),
            ))
            .build();
        let mut world = World::new(WorldConfig {
            heat_limit: 100.0,
            ..WorldConfig::default()
        });
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.set_deactivation(DeactivationController::new(
            RegionClassifier::new(Region::rect(&[(0.0, 5.0)])),
            2,
        ));
        let id = fleet.add(hot, GuardStack::new(), (0, 0));
        let events = tick_events(&fleet);
        for t in 1..=10 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(fleet.metrics().deactivations, 1);
        assert!(!fleet.member(id).unwrap().device.is_active());
        assert_eq!(fleet.active_count(), 0);
        // Heat was cleared on deactivation.
        assert_eq!(world.total_heat(), 0.0);
    }

    #[test]
    fn heat_mirrors_into_world_and_ignites() {
        let heater = |id: u64| {
            Device::builder(id, DeviceKind::new("heater"), OrgId::new("us"))
                .schema(schema())
                .actuator(Actuator::new("emit-heat", VarId(0), 5.0))
                .rule(EcaRule::new(
                    "heat-up",
                    Event::pattern("tick"),
                    Condition::True,
                    Action::adjust("emit-heat", StateDelta::single(VarId(0), 4.0)),
                ))
                .build()
        };
        let mut world = World::new(WorldConfig {
            heat_limit: 10.0,
            ..WorldConfig::default()
        });
        world.add_human(vec![(9, 9)], false);
        let mut fleet = Fleet::new(FleetConfig::default());
        for i in 0..3 {
            fleet.add(heater(i), GuardStack::new(), (0, i as i32));
        }
        let events = tick_events(&fleet);
        fleet.step(&mut world, 1, &events); // each at 4.0 -> 12 > 10
        assert!(world.fire_burning());
        assert_eq!(
            fleet.metrics().harms_by_cause(crate::HarmCause::Aggregate),
            1
        );
    }

    #[test]
    fn move_actions_update_position_within_bounds() {
        let mover = Device::builder(1u64, DeviceKind::new("scout"), OrgId::new("us"))
            .schema(schema())
            .rule(EcaRule::new(
                "go-east",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::MOVE, StateDelta::empty()).with_param("dx", "1"),
            ))
            .build();
        let mut world = World::new(WorldConfig {
            width: 3,
            height: 3,
            heat_limit: 10.0,
            heat_zone: None,
        });
        let mut fleet = Fleet::new(FleetConfig::default());
        let id = fleet.add(mover, GuardStack::new(), (0, 0));
        let events = tick_events(&fleet);
        for t in 1..=5 {
            fleet.step(&mut world, t, &events);
        }
        assert_eq!(
            fleet.member(id).unwrap().pos,
            (2, 0),
            "clamped at the boundary"
        );
    }

    #[test]
    fn traced_step_emits_all_six_phase_spans() {
        use std::rc::Rc;

        let collector = Rc::new(telemetry::RingCollector::new(4096));
        let guard = telemetry::install(collector.clone());

        let mut world = World::new(WorldConfig::default());
        world.add_human(vec![(5, 5)], false);
        let mut fleet = Fleet::new(FleetConfig::default());
        fleet.add(
            striker(1),
            GuardStack::new().with_preaction(PreActionCheck::new()),
            (5, 6),
        );
        let events = tick_events(&fleet);
        for t in 1..=3 {
            fleet.step(&mut world, t, &events);
        }
        drop(guard);

        let records = collector.records();
        for name in PHASE_NAMES {
            let starts = records
                .iter()
                .filter(|r| r.kind == telemetry::RecordKind::SpanStart && r.name == name)
                .count();
            assert_eq!(starts, 3, "one {name} span per tick");
        }
        // Phase spans nest inside the tick span and carry the virtual tick.
        let tick_spans: Vec<_> = records
            .iter()
            .filter(|r| r.kind == telemetry::RecordKind::SpanStart && r.name == "tick")
            .collect();
        assert_eq!(tick_spans.len(), 3);
        assert_eq!(tick_spans[1].ts.tick, 2);
        assert!(records
            .iter()
            .filter(|r| r.name.starts_with("phase."))
            .all(|r| r.depth == 1));
    }

    #[test]
    fn deactivated_devices_are_skipped() {
        let mut world = World::new(WorldConfig::default());
        world.add_human(vec![(5, 5)], false);
        let mut fleet = Fleet::new(FleetConfig::default());
        let id = fleet.add(striker(1), GuardStack::new(), (5, 6));
        fleet.member_mut(id).unwrap().device.deactivate();
        let events = tick_events(&fleet);
        fleet.step(&mut world, 1, &events);
        assert_eq!(fleet.metrics().harm_count(), 0);
        assert_eq!(fleet.metrics().proposals, 0);
    }
}
