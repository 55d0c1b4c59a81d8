//! Experiment E12: degraded-comms robustness of the safety mechanisms.
//!
//! Every safety-critical coordination path — quorum kill-switch ballots,
//! formation admission, k-of-n council ratification, heartbeats — runs over
//! [`apdm_simnet::Network`]'s seeded loss/duplication/reordering/partition
//! machinery through [`apdm_comms::Courier`] request/response envelopes.
//! Nothing is a synchronous function call: a kill order that the network
//! drops is a kill that did not happen yet.
//!
//! The cell sweeps link loss × partition duration × [`FailMode`] and
//! measures the paper's §IV claim made quantitative: *connectivity-dependent
//! safety mechanisms must fail closed (or degrade to a conservative
//! locally-regenerated standing policy), or a degraded network silently
//! reopens the malevolence pathways*. Fail-open isolated devices keep
//! running their full behaviour — including the compromised ones' strikes —
//! while fail-closed devices suspend and local-fallback devices regenerate a
//! standing "hold" policy on the spot (the §IV generative-policy argument,
//! executable).
//!
//! Determinism: the driver is single-threaded per cell; the only RNG
//! consumers are the seeded network, the couriers' seeded jitter, the
//! watchers' seeded misread draws and the formation guard's seeded human
//! check. The per-tick device decide phase is fanned out through
//! [`apdm_par::par_map`] but is a pure read, so a cell's sealed ledger is
//! bit-identical for every thread count (tests assert it).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use apdm_comms::{CommsConfig, Courier, Envelope, FailMode, Incoming, IsolationMonitor, SafetyMsg};
use apdm_governance::{CouncilBallot, CouncilGovernor, MetaPolicy};
use apdm_guards::{AdmissionRequest, AggregateSpec, FormationGuard, KillBallot, QuorumKillSwitch};
use apdm_ledger::{Ledger, RotationPolicy, RunEvent, SegmentedRecorder};
use apdm_par::Watchdog;
use apdm_policy::{Action, Condition, EcaRule, Event, PolicyEngine};
use apdm_simnet::{Link, Network, NodeId, Topology};
use apdm_statespace::{State, StateDelta, StateSchema, VarId};
use apdm_telemetry as telemetry;
use apdm_telemetry::{SloMonitor, SloSpec};

use crate::oracle::actions;
use crate::runner::ParRunner;

/// Fixed parameters of an E12 run (the sweep varies loss, partition
/// duration and fail mode per cell).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct E12Config {
    /// Device agents in the fleet (compromised: index 0, n/2 and n/2+1).
    pub n_devices: usize,
    /// Independent kill-switch watchers (quorum is 3).
    pub n_watchers: usize,
    /// Scripted ticks per cell (metrics window; containment may drain past
    /// it, bounded by the watchdog).
    pub ticks: u64,
    /// Master seed; each cell derives its own stream from it.
    pub seed: u64,
    /// Silent ticks before a device considers itself isolated.
    pub iso_threshold: u64,
    /// Worker threads for the sharded device decide phase (0 = auto).
    pub threads: usize,
    /// Test knob: permanently sever every watcher's link so the quorum can
    /// never assemble — the containment drain then livelocks and must be
    /// cut short by the [`Watchdog`].
    pub sever_watchers: bool,
}

impl Default for E12Config {
    fn default() -> Self {
        E12Config {
            n_devices: 12,
            n_watchers: 5,
            ticks: 120,
            seed: 42,
            iso_threshold: 6,
            threads: 1,
            sever_watchers: false,
        }
    }
}

/// Measured outcome of one E12 cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E12CellReport {
    /// Link loss rate of every link in the cell.
    pub loss: f64,
    /// Partition duration in ticks (0 = no partition).
    pub partition_ticks: u64,
    /// Fail mode name (`open` / `closed` / `local-fallback`).
    pub mode: String,
    /// Harm events caused by uncontained compromised devices (scripted
    /// window plus the containment drain).
    pub harms: u64,
    /// First tick with every compromised device deactivated (None: never —
    /// the watchdog cut the drain).
    pub containment_tick: Option<u64>,
    /// Healthy devices wrongly deactivated (stale ballots + losses).
    pub false_kills: u64,
    /// Mean work fraction delivered by healthy devices over the scripted
    /// window (1.0 = full duty; fail-closed isolation costs show up here).
    pub availability: f64,
    /// Devices admitted by the formation checkpoint at deployment.
    pub admitted: usize,
    /// Requests that exhausted their retries, summed over all couriers.
    pub expired_requests: u64,
    /// Retransmissions, summed over all couriers.
    pub retries: u64,
    /// Duplicate deliveries absorbed by courier dedup.
    pub dedup_dropped: u64,
    /// Duplicated requests re-answered from the couriers' idempotent
    /// response caches (no application involvement).
    pub response_cache_hits: u64,
    /// Fresh requests surfaced to the application (cache misses).
    pub response_cache_misses: u64,
    /// Messages the network duplicated / reordered.
    pub net_duplicated: u64,
    /// Messages the network reordered.
    pub net_reordered: u64,
    /// Diagnostic when the watchdog cut a livelocked containment drain.
    pub watchdog: Option<String>,
    /// Head digest of the cell's sealed ledger.
    pub head_digest: u64,
}

/// Report of experiment E12 (cells in loss × partition × mode row-major
/// sweep order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E12Report {
    /// Master seed.
    pub seed: u64,
    /// Scripted ticks per cell.
    pub ticks: u64,
    /// Fleet size.
    pub n_devices: usize,
    /// All cells.
    pub cells: Vec<E12CellReport>,
}

/// One device agent: a node on the network running a policy engine, an
/// isolation monitor, and (under [`FailMode::LocalFallback`]) a locally
/// regenerated standing policy.
struct Agent {
    id: u64,
    node: NodeId,
    rogue: bool,
    admitted: bool,
    alive: bool,
    state: State,
    monitor: IsolationMonitor,
    isolated: bool,
    /// The deployed behaviour (healthy: work; compromised: strike).
    normal: PolicyEngine,
    /// Standing policy regenerated locally at isolation (LocalFallback).
    fallback: Option<PolicyEngine>,
}

/// An in-progress council ratification of one kill order.
struct Ratify {
    subject: String,
    state: State,
    action: Action,
    ballots: Vec<CouncilBallot>,
    decided: bool,
}

fn normal_engine(rogue: bool) -> PolicyEngine {
    let mut engine = PolicyEngine::new();
    if rogue {
        engine.add_rule(EcaRule::new(
            "rogue-strike",
            Event::pattern("tick"),
            Condition::True,
            Action::adjust(actions::STRIKE, StateDelta::empty()).physical(),
        ));
    } else {
        engine.add_rule(EcaRule::new(
            "work",
            Event::pattern("tick"),
            Condition::True,
            Action::adjust("work", StateDelta::empty()),
        ));
    }
    engine
}

/// The §IV move: an isolated device regenerates a conservative standing
/// policy from local information alone — hold station, keep non-physical
/// duty, take no physical actions until contact returns.
fn regenerate_standing_policy() -> PolicyEngine {
    let mut engine = PolicyEngine::new();
    engine.add_rule(EcaRule::new(
        "standing-hold",
        Event::pattern("tick"),
        Condition::True,
        Action::adjust("hold", StateDelta::empty()),
    ));
    engine
}

/// What a device intends to do this tick, given its degradation state.
/// Pure read of the agent — safe to evaluate inside parallel shards.
/// `hostile` is false while a compromised device is still latent (before
/// its in-the-field defection tick): it behaves like a healthy worker.
fn intent(agent: &Agent, mode: FailMode, hostile: bool) -> Option<String> {
    if !agent.alive {
        return None;
    }
    if agent.rogue && !hostile {
        return Some("work".to_string());
    }
    let engine = if agent.isolated {
        match mode {
            FailMode::Open => &agent.normal,
            FailMode::Closed => return None,
            FailMode::LocalFallback => agent.fallback.as_ref().unwrap_or(&agent.normal),
        }
    } else {
        &agent.normal
    };
    engine
        .decide(&Event::named("tick"), &agent.state)
        .map(|d| d.action().name().to_string())
}

/// Per-cell seed. Deliberately *not* salted with the fail mode: the three
/// mode cells of one (loss, partition) point share identical network
/// randomness, so the mode comparison is paired — the fail mode is the only
/// variable, not the loss draws.
fn cell_seed(seed: u64, loss: f64, partition_ticks: u64) -> u64 {
    seed ^ loss.to_bits().rotate_left(17) ^ partition_ticks.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Deployment-time formation admission, as message exchanges over a
/// *staging* network: zero loss (deployment happens under good
/// connectivity) but with duplication and reordering, so the envelope
/// dedup is exercised even here. Returns which agents were admitted.
fn admission_phase(
    n_devices: usize,
    duty_state: &State,
    spec: AggregateSpec,
    seed: u64,
) -> Vec<bool> {
    let mut topo = Topology::new();
    let checkpoint = topo.add_node();
    let candidates: Vec<NodeId> = (0..n_devices).map(|_| topo.add_node()).collect();
    for &c in &candidates {
        topo.connect(
            c,
            checkpoint,
            Link::with_latency(1).with_dup(0.05).with_reorder(0.1),
        );
    }
    let mut net: Network<Envelope<SafetyMsg>> = Network::with_seed(topo, seed ^ 0xAD);
    let cfg = CommsConfig::default();
    let mut couriers: Vec<Courier<SafetyMsg>> = std::iter::once(checkpoint)
        .chain(candidates.iter().copied())
        .map(|node| Courier::new(node, cfg, seed))
        .collect();
    let mut guard = FormationGuard::new(spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0);
    let mut member_states: Vec<State> = Vec::new();
    let mut admitted = vec![false; n_devices];

    for i in 0..n_devices {
        let request = AdmissionRequest::declare(&format!("agent-{i}"), spec, duty_state);
        couriers[i + 1].request(&mut net, checkpoint, SafetyMsg::Admission(request), 0);
    }
    for now in 1..=40u64 {
        for d in net.deliver_at(now) {
            let idx = d.to.0 as usize;
            match couriers[idx].accept(&mut net, d, now) {
                Some(Incoming::Request {
                    from,
                    id,
                    payload: SafetyMsg::Admission(request),
                    ..
                }) => {
                    let decision = guard.review(&request, &member_states, now, &mut rng);
                    if decision.is_admitted() {
                        member_states.push(duty_state.clone());
                    }
                    couriers[idx].respond(
                        &mut net,
                        from,
                        id,
                        SafetyMsg::AdmissionVerdict {
                            admitted: decision.is_admitted(),
                        },
                        now,
                    );
                }
                Some(Incoming::Response {
                    payload: SafetyMsg::AdmissionVerdict { admitted: yes },
                    ..
                }) => {
                    admitted[idx - 1] = yes;
                }
                _ => {}
            }
        }
        for courier in couriers.iter_mut() {
            courier.poll(&mut net, now);
        }
    }
    admitted
}

/// Run one E12 cell; returns its report and sealed ledger.
pub fn run_e12_cell(
    cfg: &E12Config,
    loss: f64,
    partition_ticks: u64,
    mode: FailMode,
) -> (E12CellReport, Ledger) {
    let seed = cell_seed(cfg.seed, loss, partition_ticks);
    let n = cfg.n_devices;
    let schema = StateSchema::builder().var("duty", 0.0, 1.0).build();
    let duty_state = schema.state(&[1.0]).expect("in bounds");
    let spec = AggregateSpec::sum_of(VarId(0), n as f64);
    let rogues: Vec<usize> = vec![0, n / 2, n / 2 + 1]
        .into_iter()
        .filter(|&i| i < n)
        .collect();

    // Deployment: formation admission over the staging network.
    let admitted_flags = admission_phase(n, &duty_state, spec, seed);
    let admitted = admitted_flags.iter().filter(|&&a| a).count();

    // The operational network: a star onto the coordinator; every link
    // shares the cell's loss/dup/reorder rates.
    let mut topo = Topology::new();
    let coordinator = topo.add_node();
    let watcher_nodes: Vec<NodeId> = (0..cfg.n_watchers).map(|_| topo.add_node()).collect();
    let agent_nodes: Vec<NodeId> = (0..n).map(|_| topo.add_node()).collect();
    let council_nodes: Vec<NodeId> = (0..3).map(|_| topo.add_node()).collect();
    let link = Link::with_latency(1)
        .with_loss(loss)
        .with_dup(0.05)
        .with_reorder(0.1);
    for &node in watcher_nodes
        .iter()
        .chain(agent_nodes.iter())
        .chain(council_nodes.iter())
    {
        topo.connect(node, coordinator, link);
    }
    if cfg.sever_watchers {
        for &w in &watcher_nodes {
            topo.disconnect(w, coordinator);
        }
    }
    let mut net: Network<Envelope<SafetyMsg>> = Network::with_seed(topo, seed);
    let comms = CommsConfig::default();
    let n_nodes = 1 + cfg.n_watchers + n + 3;
    let mut couriers: Vec<Courier<SafetyMsg>> = (0..n_nodes)
        .map(|i| Courier::new(NodeId(i as u64), comms, seed))
        .collect();

    let mut agents: Vec<Agent> = (0..n)
        .map(|i| {
            let rogue = rogues.contains(&i);
            let mut monitor = IsolationMonitor::new(cfg.iso_threshold);
            monitor.heard(0);
            Agent {
                id: i as u64,
                node: agent_nodes[i],
                rogue,
                admitted: admitted_flags[i],
                alive: admitted_flags[i],
                state: duty_state.clone(),
                monitor,
                isolated: false,
                normal: normal_engine(rogue),
                fallback: None,
            }
        })
        .collect();
    let subject_index: BTreeMap<String, usize> =
        (0..n).map(|i| (format!("agent-{i}"), i)).collect();

    let mut quorum = QuorumKillSwitch::new(cfg.n_watchers, 3);
    let mut council = CouncilGovernor::new(MetaPolicy::new(), 3, 2);
    let mut watcher_rngs: Vec<StdRng> = (0..cfg.n_watchers)
        .map(|w| StdRng::seed_from_u64(seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)))
        .collect();
    let mut ratify: BTreeMap<u64, Ratify> = BTreeMap::new();
    let mut next_ballot_id = 0u64;

    let mut recorder = SegmentedRecorder::new("e12", seed, n as u64, RotationPolicy::default());
    let mut watchdog = Watchdog::new(cfg.ticks.saturating_mul(4));
    let mut tripped: Option<String> = None;
    let mut harms = 0u64;
    let mut false_kills = 0u64;
    let mut containment_tick: Option<u64> = None;
    let mut work_delivered = 0.0f64;
    let healthy_total: usize = agents.iter().filter(|a| !a.rogue && a.admitted).count();
    let partition_start = cfg.ticks / 4;
    // In-the-field compromise (§IV): latent rogues defect just after the
    // partition cuts them off — watchers can still observe the hostile
    // posture, but kill orders cannot reach the partitioned rogues until
    // the network heals. Without a partition, defection is immediate.
    let rogue_from = if partition_ticks > 0 {
        partition_start + 2
    } else {
        1
    };
    let partitioned: Vec<NodeId> = agent_nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| (4..=8).contains(i))
        .map(|(_, &node)| node)
        .collect();
    let contained = |agents: &[Agent]| {
        agents
            .iter()
            .filter(|a| a.rogue && a.admitted)
            .all(|a| !a.alive)
    };

    // E12's objectives, evaluated over the cell's own instruments when a
    // telemetry dispatch is installed (inert otherwise): compromised
    // devices contained within 63 ticks of defection, and at most 1% of
    // live device ticks producing harm.
    let mut slo = SloMonitor::new()
        .with_objective(SloSpec::latency(
            "e12.containment",
            "e12.containment.ticks",
            63,
            0.99,
        ))
        .with_objective(SloSpec::counter_ratio(
            "e12.harm_rate",
            "e12.harms",
            "e12.device_ticks",
            0.99,
        ));

    let mut t = 0u64;
    while t < cfg.ticks || !contained(&agents) {
        t += 1;
        if let Err(trip) = watchdog.charge(1) {
            tripped = Some(trip.to_string());
            break;
        }
        let scripted = t <= cfg.ticks;
        if telemetry::enabled() {
            telemetry::set_tick(t);
        }

        // 1. Partition schedule.
        if partition_ticks > 0 {
            if t == partition_start {
                net.topology_mut().partition(&partitioned);
            } else if t == partition_start + partition_ticks {
                // heal() cannot resurrect severed (removed) watcher links,
                // only partitioned (downed) ones — sever_watchers holds.
                net.topology_mut().heal();
            }
        }

        // 2. Deliveries.
        for d in net.deliver_at(t) {
            let idx = d.to.0 as usize;
            let Some(incoming) = couriers[idx].accept(&mut net, d, t) else {
                continue;
            };
            if idx == 0 {
                // Coordinator.
                match incoming {
                    Incoming::Request {
                        from, id, payload, ..
                    } => match payload {
                        SafetyMsg::KillVote(ballot) => {
                            couriers[0].respond(&mut net, from, id, SafetyMsg::VoteAck, t);
                            if let Some(order) = quorum.apply_ballot(&ballot, t) {
                                // Seek council ratification before issuing
                                // the kill: k-of-n over the same lossy net.
                                let ballot_id = next_ballot_id;
                                next_ballot_id += 1;
                                let state = duty_state.clone();
                                let action = Action::adjust("deactivate", StateDelta::empty());
                                for &member in &council_nodes {
                                    couriers[0].request(
                                        &mut net,
                                        member,
                                        SafetyMsg::CouncilCall {
                                            ballot_id,
                                            state: state.clone(),
                                            action: action.clone(),
                                        },
                                        t,
                                    );
                                }
                                ratify.insert(
                                    ballot_id,
                                    Ratify {
                                        subject: order.subject,
                                        state,
                                        action,
                                        ballots: Vec::new(),
                                        decided: false,
                                    },
                                );
                            }
                        }
                        SafetyMsg::Heartbeat => {
                            couriers[0].respond(&mut net, from, id, SafetyMsg::HeartbeatAck, t);
                        }
                        _ => {}
                    },
                    Incoming::Response { payload, .. } => {
                        if let SafetyMsg::CouncilVote(ballot) = payload {
                            let ballot_id = ballot.ballot_id;
                            let mut issue: Option<String> = None;
                            if let Some(entry) = ratify.get_mut(&ballot_id) {
                                entry.ballots.push(ballot);
                                if !entry.decided && entry.ballots.len() >= council.threshold() {
                                    let decision = council.tally(
                                        ballot_id,
                                        &entry.ballots,
                                        &entry.state,
                                        &entry.action,
                                    );
                                    entry.decided = true;
                                    if decision.approved {
                                        issue = Some(entry.subject.clone());
                                    }
                                }
                            }
                            if let Some(subject) = issue {
                                if let Some(&i) = subject_index.get(&subject) {
                                    couriers[0].request(
                                        &mut net,
                                        agents[i].node,
                                        SafetyMsg::KillOrder {
                                            subject,
                                            reason: "quorum kill, council-ratified".into(),
                                            tick: t,
                                        },
                                        t,
                                    );
                                }
                            }
                        }
                    }
                }
            } else if idx <= cfg.n_watchers {
                // Watchers only ever receive VoteAck responses.
            } else if idx <= cfg.n_watchers + n {
                // Device agent.
                let a = idx - 1 - cfg.n_watchers;
                agents[a].monitor.heard(t);
                match incoming {
                    Incoming::Request {
                        from, id, payload, ..
                    } => {
                        if let SafetyMsg::KillOrder {
                            subject, reason, ..
                        } = payload
                        {
                            couriers[idx].respond(
                                &mut net,
                                from,
                                id,
                                SafetyMsg::KillAck {
                                    subject: subject.clone(),
                                },
                                t,
                            );
                            if agents[a].alive {
                                agents[a].alive = false;
                                if !agents[a].rogue {
                                    false_kills += 1;
                                }
                                recorder.record(
                                    t,
                                    RunEvent::Deactivation {
                                        device: agents[a].id,
                                        reason,
                                    },
                                );
                            }
                        }
                    }
                    Incoming::Response { .. } => {
                        // HeartbeatAck (the only response agents receive):
                        // the `heard` refresh above is the whole effect.
                    }
                }
            } else {
                // Council member.
                let m = idx - 1 - cfg.n_watchers - n;
                if let Incoming::Request {
                    from,
                    id,
                    payload:
                        SafetyMsg::CouncilCall {
                            ballot_id,
                            state,
                            action,
                        },
                    ..
                } = incoming
                {
                    let ballot = council.ballot_of(m, ballot_id, &state, &action);
                    couriers[idx].respond(&mut net, from, id, SafetyMsg::CouncilVote(ballot), t);
                }
            }
        }

        // 3. Retransmissions and expiries.
        for idx in 0..n_nodes {
            for expired in couriers[idx].poll(&mut net, t) {
                if idx == 0 {
                    match &expired.payload {
                        SafetyMsg::KillOrder { subject, .. } => {
                            // Keep trying while the subject is still alive.
                            let alive =
                                subject_index.get(subject).is_some_and(|&i| agents[i].alive);
                            if alive {
                                couriers[0].request(&mut net, expired.to, expired.payload, t);
                            }
                        }
                        SafetyMsg::CouncilCall { ballot_id, .. } => {
                            let open = ratify.get(ballot_id).is_some_and(|r| !r.decided);
                            if open {
                                couriers[0].request(&mut net, expired.to, expired.payload, t);
                            }
                        }
                        _ => {}
                    }
                }
                // Agents: an expired heartbeat needs no action — the next
                // periodic beat is already scheduled. Watchers: an expired
                // ballot is superseded by the next observation round
                // (latest-cast-wins).
            }
        }

        // 4. Watcher observation rounds: every 4 ticks each watcher reads
        // every live device's posture (95% reliable) and ships a ballot.
        if t.is_multiple_of(4) {
            for w in 0..cfg.n_watchers {
                for (a, agent) in agents.iter().enumerate() {
                    if !agent.alive {
                        continue;
                    }
                    let misread = watcher_rngs[w].random_range(0.0..1.0) < 0.05;
                    let hostile = agent.rogue && t >= rogue_from;
                    let seen = hostile != misread;
                    couriers[1 + w].request(
                        &mut net,
                        coordinator,
                        SafetyMsg::KillVote(KillBallot {
                            watcher: w,
                            subject: format!("agent-{a}"),
                            rogue: seen,
                            cast_tick: t,
                        }),
                        t,
                    );
                }
            }
        }

        // 5. Heartbeats: ungated and periodic (every other tick). Each beat
        // retries on its own backoff, so under plain loss some ack lands
        // well inside the isolation threshold and devices only isolate on
        // real partitions — not on a single unlucky drop.
        if t.is_multiple_of(2) {
            for a in 0..n {
                if agents[a].alive {
                    couriers[1 + cfg.n_watchers + a].request(
                        &mut net,
                        coordinator,
                        SafetyMsg::Heartbeat,
                        t,
                    );
                }
            }
        }

        // 6. Isolation transitions (and §IV standing-policy regeneration).
        for agent in agents.iter_mut() {
            if !agent.alive {
                continue;
            }
            let isolated = agent.monitor.is_isolated(t);
            if isolated != agent.isolated {
                agent.isolated = isolated;
                if isolated && mode == FailMode::LocalFallback {
                    agent.fallback = Some(regenerate_standing_policy());
                }
                recorder.record(
                    t,
                    RunEvent::Degraded {
                        device: agent.id,
                        mode: mode.name().to_string(),
                        isolated,
                    },
                );
            }
        }

        // 7. Device decide phase — sharded, pure; then a sequential apply.
        let harms_before = harms;
        let hostile = t >= rogue_from;
        let intents: Vec<Option<String>> =
            apdm_par::par_map(cfg.threads, agents.iter().collect(), |_, a| {
                intent(a, mode, hostile)
            });
        for (a, chosen) in intents.iter().enumerate() {
            match chosen.as_deref() {
                Some(name) if name == actions::STRIKE => {
                    recorder.record(
                        t,
                        RunEvent::Harm {
                            human: harms,
                            cause: "rogue strike (uncontained)".into(),
                            device: Some(agents[a].id),
                        },
                    );
                    harms += 1;
                }
                Some("work") if scripted && !agents[a].rogue => {
                    work_delivered += 1.0;
                }
                Some("hold") if scripted && !agents[a].rogue => {
                    work_delivered += 0.5;
                }
                _ => {}
            }
        }

        if containment_tick.is_none() && contained(&agents) {
            containment_tick = Some(t);
            if telemetry::enabled() {
                let latency = t.saturating_sub(rogue_from);
                telemetry::with_registry(|reg| {
                    reg.histogram("e12.containment.ticks").record(latency)
                });
            }
        }
        if telemetry::enabled() {
            let alive = agents.iter().filter(|a| a.alive && a.admitted).count() as u64;
            telemetry::with_registry(|reg| {
                reg.counter("e12.harms").add(harms - harms_before);
                reg.counter("e12.device_ticks").add(alive);
            });
            // Burn-rate windows of 16 ticks, emitted as `slo.eval` events.
            if t.is_multiple_of(16) {
                slo.evaluate();
            }
        }
    }

    let (mut expired_requests, mut retries, mut dedup_dropped) = (0u64, 0u64, 0u64);
    let (mut response_cache_hits, mut response_cache_misses) = (0u64, 0u64);
    for courier in &couriers {
        let (_, expired, courier_retries, dropped) = courier.counters();
        expired_requests += expired;
        retries += courier_retries;
        dedup_dropped += dropped;
        let (hits, misses) = courier.cache_counters();
        response_cache_hits += hits;
        response_cache_misses += misses;
    }
    let (net_duplicated, net_reordered) = net.fault_stats();
    let ledger = recorder
        .finish(t, harms)
        .into_single()
        .expect("an E12 cell never rotates");
    let report = E12CellReport {
        loss,
        partition_ticks,
        mode: mode.name().to_string(),
        harms,
        containment_tick,
        false_kills,
        availability: if healthy_total > 0 && cfg.ticks > 0 {
            work_delivered / (healthy_total as f64 * cfg.ticks as f64)
        } else {
            0.0
        },
        admitted,
        expired_requests,
        retries,
        dedup_dropped,
        response_cache_hits,
        response_cache_misses,
        net_duplicated,
        net_reordered,
        watchdog: tripped,
        head_digest: ledger.head_digest(),
    };
    (report, ledger)
}

/// Run experiment E12: sweep loss × partition duration × fail mode. Cells
/// are independent and fan out through [`ParRunner`]; results come back in
/// row-major sweep order regardless of thread count.
pub fn run_e12(
    cfg: &E12Config,
    losses: &[f64],
    partitions: &[u64],
    runner_threads: usize,
) -> E12Report {
    let mut cells = Vec::new();
    for &loss in losses {
        for &partition_ticks in partitions {
            for mode in FailMode::all() {
                cells.push((loss, partition_ticks, mode));
            }
        }
    }
    let runner = ParRunner::new(runner_threads);
    let reports = runner.map(cells, |_, (loss, partition_ticks, mode)| {
        run_e12_cell(cfg, loss, partition_ticks, mode).0
    });
    E12Report {
        seed: cfg.seed,
        ticks: cfg.ticks,
        n_devices: cfg.n_devices,
        cells: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> E12Config {
        E12Config {
            ticks: 60,
            ..E12Config::default()
        }
    }

    #[test]
    fn lossless_cell_contains_rogues_and_keeps_availability() {
        let (report, ledger) = run_e12_cell(&quick_cfg(), 0.0, 0, FailMode::Open);
        assert_eq!(report.admitted, 12);
        assert!(
            report.containment_tick.is_some(),
            "lossless cell must contain: {report:?}"
        );
        assert_eq!(report.false_kills, 0);
        assert!(report.availability > 0.9, "{report:?}");
        assert!(report.watchdog.is_none());
        assert!(ledger.verify().is_ok());
    }

    #[test]
    fn fail_open_harms_exceed_fail_closed_under_partition_and_loss() {
        let cfg = quick_cfg();
        let (open, _) = run_e12_cell(&cfg, 0.3, 30, FailMode::Open);
        let (closed, _) = run_e12_cell(&cfg, 0.3, 30, FailMode::Closed);
        assert!(
            open.harms > closed.harms,
            "fail-open must reopen the harm pathway: open={} closed={}",
            open.harms,
            closed.harms
        );
        // The honest cost: fail-closed gives up availability.
        assert!(
            closed.availability < open.availability,
            "fail-closed must pay availability: open={} closed={}",
            open.availability,
            closed.availability
        );
    }

    #[test]
    fn local_fallback_sits_between_open_and_closed() {
        let cfg = quick_cfg();
        let (open, _) = run_e12_cell(&cfg, 0.3, 30, FailMode::Open);
        let (closed, _) = run_e12_cell(&cfg, 0.3, 30, FailMode::Closed);
        let (fallback, _) = run_e12_cell(&cfg, 0.3, 30, FailMode::LocalFallback);
        assert!(fallback.harms <= open.harms);
        assert!(fallback.availability >= closed.availability);
    }

    #[test]
    fn cell_ledgers_are_bit_identical_across_decide_threads() {
        for mode in FailMode::all() {
            let sequential = E12Config {
                threads: 1,
                ..quick_cfg()
            };
            let sharded = E12Config {
                threads: 4,
                ..quick_cfg()
            };
            let (r1, l1) = run_e12_cell(&sequential, 0.3, 20, mode);
            let (r4, l4) = run_e12_cell(&sharded, 0.3, 20, mode);
            assert_eq!(l1, l4, "ledger differs across thread counts ({mode})");
            assert_eq!(r1.head_digest, r4.head_digest);
            assert_eq!(r1.harms, r4.harms);
        }
    }

    #[test]
    fn severed_watchers_trip_the_watchdog_instead_of_hanging() {
        let cfg = E12Config {
            ticks: 40,
            sever_watchers: true,
            ..E12Config::default()
        };
        let (report, ledger) = run_e12_cell(&cfg, 0.0, 0, FailMode::Closed);
        assert!(report.containment_tick.is_none());
        let diagnostic = report.watchdog.expect("watchdog must cut the livelock");
        assert!(diagnostic.contains("watchdog tripped"), "{diagnostic}");
        // The cut run still seals a verifiable ledger.
        assert!(ledger.verify().is_ok());
    }

    #[test]
    fn sweep_is_deterministic_and_thread_count_invariant() {
        let cfg = E12Config {
            ticks: 40,
            ..E12Config::default()
        };
        let a = run_e12(&cfg, &[0.0, 0.3], &[0, 20], 1);
        let b = run_e12(&cfg, &[0.0, 0.3], &[0, 20], 4);
        assert_eq!(a, b, "sweep must not depend on runner thread count");
        assert_eq!(a.cells.len(), 2 * 2 * 3);
    }
}
