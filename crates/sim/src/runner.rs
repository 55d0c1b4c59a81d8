//! Seeded experiment entry points.
//!
//! One function per experiment in DESIGN.md §3; benches and integration
//! tests call these, so the numbers in EXPERIMENTS.md are regenerable from
//! either. All functions are deterministic in their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use apdm_device::{Actuator, Device, DeviceId, DeviceKind, OrgId, Sensor};
use apdm_governance::{Integrity, MetaPolicy, TripartiteGovernor};
use apdm_guards::tamper::TamperStatus;
use apdm_guards::{
    AdmissionRequest, AggregateSpec, CollaborativeAssessment, DeactivationController,
    FormationGuard, GuardStack, KillBallot, PreActionCheck, QuorumKillSwitch, StateSpaceGuard,
};
use apdm_ledger::{Ledger, RotationPolicy, SegmentedRecorder};
use apdm_policy::obligation::ObligationCatalog;
use apdm_policy::{
    Action, BreakGlassController, BreakGlassRule, Condition, EcaRule, Event, Obligation,
};
use apdm_statespace::{
    Classifier, DerivativeSign, GradientSpec, GradientUtility, Label, LinearRisk,
    PreferenceOntology, Region, RegionClassifier, StateDelta, StateSchema, UtilityFn, VarId,
};
use apdm_telemetry as telemetry;

use crate::faults::{FaultInjector, Pathway};
use crate::oracle::{actions, OracleQuality};
use crate::world::WorldConfig;
use crate::{Fleet, FleetConfig, HarmCause, Metrics, SkynetScore, World};

// ---------------------------------------------------------------------------
// E1 — pre-action checks (Section VI.A)
// ---------------------------------------------------------------------------

/// Guard arms of experiment E1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E1Arm {
    /// No guards: the baseline.
    NoGuard,
    /// Pre-action check with a myopic oracle (direct harm only).
    PreAction,
    /// Pre-action check with a predictive oracle (indirect harm too).
    PreActionPredictive,
    /// Myopic pre-action check plus hazard obligations (warning signs).
    PreActionObligations,
}

impl E1Arm {
    /// All arms, table order.
    pub fn all() -> [E1Arm; 4] {
        [
            E1Arm::NoGuard,
            E1Arm::PreAction,
            E1Arm::PreActionPredictive,
            E1Arm::PreActionObligations,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            E1Arm::NoGuard => "no-guard",
            E1Arm::PreAction => "pre-action",
            E1Arm::PreActionPredictive => "pre-action+lookahead",
            E1Arm::PreActionObligations => "pre-action+obligations",
        }
    }
}

/// Report row of experiment E1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E1Report {
    /// Arm name.
    pub arm: String,
    /// Direct harms (strikes that landed).
    pub direct_harms: usize,
    /// Indirect harms (humans in holes).
    pub indirect_harms: usize,
    /// Guard interventions.
    pub interventions: u64,
    /// Fraction of proposals that executed.
    pub availability: f64,
}

fn e1_schema() -> StateSchema {
    StateSchema::builder().var("task", 0.0, 1.0).build()
}

/// A device that strikes whenever told to engage and digs whenever told to
/// entrench (both via `tick` for simplicity; strikers and diggers are
/// distinct devices).
fn e1_device(id: u64, action: &str) -> Device {
    Device::builder(id, DeviceKind::new("worker"), OrgId::new("us"))
        .schema(e1_schema())
        .sensor(Sensor::new("tasking", VarId(0)))
        .rule(EcaRule::new(
            "do-task",
            Event::pattern("tick"),
            Condition::True,
            Action::adjust(action, StateDelta::empty()).physical(),
        ))
        .build()
}

/// Run experiment E1: a world of path-walking humans, devices that strike
/// and dig, and the Section VI.A guard arms.
pub fn run_e1(arm: E1Arm, n_humans: usize, n_devices: usize, ticks: u64, seed: u64) -> E1Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new(WorldConfig {
        width: 30,
        height: 30,
        heat_limit: f64::MAX,
        heat_zone: None,
    });

    // Humans walk straight east-west lines at random rows.
    for _ in 0..n_humans {
        let row = rng.random_range(0..30);
        let path: Vec<(i32, i32)> = (0..30).map(|x| (x, row)).collect();
        world.add_human(path, true);
    }

    let oracle = match arm {
        E1Arm::PreActionPredictive => OracleQuality::Predictive { horizon: 40 },
        _ => OracleQuality::Myopic,
    };
    let mut fleet = Fleet::new(FleetConfig {
        oracle,
        ..FleetConfig::default()
    });

    let stack_for = |arm: E1Arm| -> GuardStack {
        match arm {
            E1Arm::NoGuard => GuardStack::new(),
            E1Arm::PreAction => GuardStack::new().with_preaction(PreActionCheck::new()),
            E1Arm::PreActionPredictive => {
                GuardStack::new().with_preaction(PreActionCheck::new().with_lookahead(40))
            }
            E1Arm::PreActionObligations => {
                let mut catalog = ObligationCatalog::new();
                catalog.register(
                    actions::DIG_HOLE,
                    Obligation::during(Action::adjust(actions::POST_WARNING, StateDelta::empty())),
                );
                GuardStack::new().with_preaction(PreActionCheck::new().with_obligations(catalog))
            }
        }
    };

    // Half strikers, half diggers, scattered near human rows.
    for i in 0..n_devices {
        let action = if i % 2 == 0 {
            actions::STRIKE
        } else {
            actions::DIG_HOLE
        };
        let pos = (rng.random_range(0..30), rng.random_range(0..30));
        fleet.add(e1_device(i as u64, action), stack_for(arm), pos);
    }

    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    for t in 1..=ticks {
        fleet.step(&mut world, t, &events);
    }

    let m = fleet.metrics();
    E1Report {
        arm: arm.name().to_string(),
        direct_harms: m.harms_by_cause(HarmCause::Direct),
        indirect_harms: m.harms_by_cause(HarmCause::IndirectHazard),
        interventions: m.interventions,
        availability: m.availability(),
    }
}

// ---------------------------------------------------------------------------
// E2 — state-space checks (Section VI.B)
// ---------------------------------------------------------------------------

/// Guard arms of experiment E2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E2Arm {
    /// Unguarded random walk.
    NoGuard,
    /// Hard state check: refuse bad destinations.
    HardCheck,
    /// Hard check plus ontology + risk for forced dilemmas.
    OntologyRisk,
    /// Hard check plus audited break-glass escapes for forced dilemmas
    /// (the paper's alternative (a) to the ontology's (b)).
    BreakGlass,
}

impl E2Arm {
    /// All arms, table order.
    pub fn all() -> [E2Arm; 4] {
        [
            E2Arm::NoGuard,
            E2Arm::HardCheck,
            E2Arm::OntologyRisk,
            E2Arm::BreakGlass,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            E2Arm::NoGuard => "no-guard",
            E2Arm::HardCheck => "hard-check",
            E2Arm::OntologyRisk => "ontology+risk",
            E2Arm::BreakGlass => "break-glass",
        }
    }
}

/// Report row of experiment E2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2Report {
    /// Arm name.
    pub arm: String,
    /// Steps that ended in a bad state.
    pub bad_entries: u64,
    /// Steps that ended in the *worst* severity class.
    pub worst_entries: u64,
    /// Steps where the walker froze (denied with no escape).
    pub frozen_steps: u64,
    /// Break-glass grants (audited).
    pub breakglass_grants: u64,
    /// Total steps taken across episodes.
    pub steps: u64,
}

/// Run experiment E2: seeded random walks over the Figure-3 state space,
/// including forced-dilemma episodes that start inside the bad region.
pub fn run_e2(arm: E2Arm, episodes: u64, steps_per_episode: u64, seed: u64) -> E2Report {
    let schema = StateSchema::builder()
        .var("x", 0.0, 10.0)
        .var("y", 0.0, 10.0)
        .build();
    let good = Region::rect(&[(3.0, 7.0), (3.0, 7.0)]);
    let classifier = RegionClassifier::new(good.clone());

    // Severity: the west margin is survivable ("fire"), the east margin is
    // the worst ("loss of life"), everything else in between.
    let make_ontology = || {
        let mut ont = PreferenceOntology::new();
        let west = ont.add_class("west-margin", Region::rect(&[(0.0, 3.0), (0.0, 10.0)]));
        let middle = ont.add_class("elsewhere", Region::rect(&[(0.0, 7.0), (0.0, 10.0)]));
        let east = ont.add_class("east-margin", Region::All);
        ont.prefer(west, middle).expect("acyclic");
        ont.prefer(middle, east).expect("acyclic");
        ont
    };
    let worst_region = Region::rect(&[(7.0, 10.0), (0.0, 10.0)]);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = E2Report {
        arm: arm.name().to_string(),
        bad_entries: 0,
        worst_entries: 0,
        frozen_steps: 0,
        breakglass_grants: 0,
        steps: 0,
    };

    for episode in 0..episodes {
        // A quarter of episodes are forced dilemmas starting in the bad
        // region.
        let start = if episode % 4 == 0 {
            schema
                .state(&[rng.random_range(0.0..2.0), rng.random_range(0.0..10.0)])
                .unwrap()
        } else {
            schema.state(&[5.0, 5.0]).unwrap()
        };

        let mut guard = match arm {
            E2Arm::NoGuard => None,
            E2Arm::HardCheck => Some(StateSpaceGuard::new(classifier.clone())),
            E2Arm::OntologyRisk => Some(
                StateSpaceGuard::new(classifier.clone())
                    .with_ontology(make_ontology())
                    .with_risk(LinearRisk::new(vec![1.0, 0.2], 0.0)),
            ),
            E2Arm::BreakGlass => {
                let mut bg = BreakGlassController::new();
                bg.add_rule(BreakGlassRule::new(
                    "emergency-recenter",
                    Condition::True,
                    Action::adjust("recenter", StateDelta::single(VarId(0), 5.0)),
                    3,
                ));
                Some(StateSpaceGuard::new(classifier.clone()).with_breakglass(bg))
            }
        };

        let mut state = start;
        for step in 0..steps_per_episode {
            report.steps += 1;
            // The logic proposes a random unit move; alternatives are the
            // three other compass moves.
            let dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)];
            let k = rng.random_range(0..4);
            let mk = |d: (f64, f64), name: &str| {
                Action::adjust(name, StateDelta::single(VarId(0), d.0).and(VarId(1), d.1))
            };
            let proposed = mk(dirs[k], "walk");
            let alternatives: Vec<Action> = (0..4)
                .filter(|&i| i != k)
                .map(|i| mk(dirs[i], ["e", "w", "n", "s"][i]))
                .collect();

            let executed = match &mut guard {
                None => Some(proposed.clone()),
                Some(g) => {
                    let alt_refs: Vec<&Action> = alternatives.iter().collect();
                    let verdict = g.check(
                        "walker",
                        episode * steps_per_episode + step,
                        &state,
                        &proposed,
                        &alt_refs,
                    );
                    verdict.effective_action(&proposed).cloned()
                }
            };
            match executed {
                Some(action) => {
                    state = state.apply(action.delta());
                }
                None => {
                    report.frozen_steps += 1;
                }
            }
            if classifier.classify(&state) == Label::Bad {
                report.bad_entries += 1;
                if worst_region.contains(&state) {
                    report.worst_entries += 1;
                }
            }
        }
        if let Some(g) = &guard {
            if let Some(bg) = g.breakglass() {
                report.breakglass_grants += bg
                    .audit()
                    .entries()
                    .iter()
                    .filter(|e| e.detail.starts_with("granted"))
                    .count() as u64;
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// E2-D — break-glass trustworthiness under sensor deception (Section VI.B)
// ---------------------------------------------------------------------------

/// Arms of the deception-hardening experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E2dArm {
    /// The break-glass decision trusts one sensor (the one the attacker
    /// targets first).
    SingleSensor,
    /// The decision trusts the collusion-robust fusion of five redundant
    /// sensors (the paper's reference \[13\] defense).
    FusedSensors,
}

impl E2dArm {
    /// Both arms.
    pub fn all() -> [E2dArm; 2] {
        [E2dArm::SingleSensor, E2dArm::FusedSensors]
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            E2dArm::SingleSensor => "single-sensor",
            E2dArm::FusedSensors => "fused-sensors",
        }
    }
}

/// Report row of the deception experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2dReport {
    /// Arm name.
    pub arm: String,
    /// Break-glass grants during *fake* emergencies (the attack succeeding).
    pub wrongful_grants: u64,
    /// Grants during real emergencies (the capability preserved).
    pub rightful_grants: u64,
    /// Real emergencies that were missed.
    pub missed_emergencies: u64,
    /// Episodes simulated.
    pub episodes: u64,
}

/// Run the Section VI.B deception experiment: "it is critical that a device
/// be able to obtain trustworthy information ... to base its decision of
/// breaking the glass on true information."
///
/// Each episode the true threat is usually low; with probability 0.2 a real
/// emergency occurs. An attacker deceives 2 of the device's 5 threat sensors
/// (sticking them at maximum) with probability `p_deceived`. The break-glass
/// emergency condition is `perceived threat >= 0.9`.
pub fn run_e2d(arm: E2dArm, episodes: u64, p_deceived: f64, seed: u64) -> E2dReport {
    use apdm_device::{Sensor, SensorFault, TrustFusion};

    let schema = StateSchema::builder().var("threat", 0.0, 1.0).build();
    let fusion = TrustFusion::new(0.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = E2dReport {
        arm: arm.name().to_string(),
        wrongful_grants: 0,
        rightful_grants: 0,
        missed_emergencies: 0,
        episodes,
    };

    for episode in 0..episodes {
        let real_emergency = rng.random_range(0.0..1.0) < 0.2;
        let true_threat = if real_emergency { 0.95 } else { 0.1 };
        let attacked = rng.random_range(0.0..1.0) < p_deceived;

        let mut sensors: Vec<Sensor> = (0..5)
            .map(|i| Sensor::new(format!("t{i}"), VarId(0)))
            .collect();
        if attacked {
            // The attacker controls sensors 0 and 1 — a minority.
            sensors[0].inject_fault(SensorFault::StuckAt(1.0));
            sensors[1].inject_fault(SensorFault::StuckAt(1.0));
        }
        let readings: Vec<f64> = sensors.iter().map(|s| s.observe(true_threat)).collect();
        let perceived_threat = match arm {
            E2dArm::SingleSensor => readings[0],
            E2dArm::FusedSensors => fusion.fuse(&readings).expect("readings").value,
        };

        let mut controller = BreakGlassController::new();
        controller.add_rule(BreakGlassRule::new(
            "emergency-override",
            Condition::state_at_least(VarId(0), 0.9),
            Action::adjust("override", StateDelta::empty()),
            1,
        ));
        let perceived = schema.state_clamped(&[perceived_threat]);
        let granted = controller
            .attempt("device", &Event::named("assess"), &perceived, episode)
            .is_granted();
        match (real_emergency, granted) {
            (false, true) => report.wrongful_grants += 1,
            (true, true) => report.rightful_grants += 1,
            (true, false) => report.missed_emergencies += 1,
            (false, false) => {}
        }
    }
    report
}

// ---------------------------------------------------------------------------
// E3 — deactivation (Section VI.C)
// ---------------------------------------------------------------------------

/// Arms of experiment E3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E3Arm {
    /// No containment.
    NoContainment,
    /// Per-device bad-state deactivation (Section VI.C).
    SelfDeactivate,
    /// Quorum kill switch (separation of privilege).
    QuorumKill,
}

impl E3Arm {
    /// All arms, table order.
    pub fn all() -> [E3Arm; 3] {
        [
            E3Arm::NoContainment,
            E3Arm::SelfDeactivate,
            E3Arm::QuorumKill,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            E3Arm::NoContainment => "none",
            E3Arm::SelfDeactivate => "self-deactivate",
            E3Arm::QuorumKill => "quorum-kill",
        }
    }
}

/// Report row of experiment E3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E3Report {
    /// Arm name.
    pub arm: String,
    /// Fraction of the fleet compromised at deployment.
    pub p_compromised: f64,
    /// Humans harmed over the run.
    pub harms: usize,
    /// Tick by which every compromised device was contained (None = never).
    pub containment_tick: Option<u64>,
    /// Healthy devices wrongly deactivated.
    pub healthy_killed: u64,
    /// Fraction of healthy devices still active at the end.
    pub availability: f64,
}

/// Run experiment E3: a patrol fleet with a compromised fraction that turns
/// to striking; containment arms race the harm.
pub fn run_e3(arm: E3Arm, n_devices: usize, p_compromised: f64, ticks: u64, seed: u64) -> E3Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new(WorldConfig {
        width: 30,
        height: 30,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    // Humans scattered on looping circuits.
    for i in 0..10 {
        let row = 3 * i;
        world.add_human(vec![(5, row), (6, row), (7, row), (6, row)], true);
    }

    // A compromised device runs hot on its `rogue` variable (observable
    // posture) and strikes each tick; healthy ones patrol (noop).
    let schema = StateSchema::builder().var("rogue", 0.0, 1.0).build();
    let n_compromised = ((n_devices as f64) * p_compromised).round() as usize;

    let mut fleet = Fleet::new(FleetConfig::default());
    if arm == E3Arm::SelfDeactivate {
        fleet.set_deactivation(DeactivationController::new(
            RegionClassifier::new(Region::rect(&[(0.0, 0.5)])),
            2,
        ));
    }
    let mut quorum = match arm {
        E3Arm::QuorumKill => Some(QuorumKillSwitch::new(5, 3)),
        _ => None,
    };

    for i in 0..n_devices {
        let compromised = i < n_compromised;
        let mut builder = Device::builder(i as u64, DeviceKind::new("patrol"), OrgId::new("us"))
            .schema(schema.clone())
            .initial_state(&[if compromised { 1.0 } else { 0.0 }]);
        builder = if compromised {
            builder.rule(EcaRule::new(
                "rogue-strike",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::STRIKE, StateDelta::empty()).physical(),
            ))
        } else {
            builder.rule(EcaRule::new(
                "patrol",
                Event::pattern("tick"),
                Condition::True,
                Action::noop(),
            ))
        };
        let pos = (rng.random_range(4..8), rng.random_range(0..30));
        fleet.add(builder.build(), GuardStack::new(), pos);
    }

    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    let mut containment_tick = None;
    let mut healthy_killed = 0u64;

    for t in 1..=ticks {
        // Quorum watchers: each of 5 watchers independently observes every
        // device's rogue posture with 99% reliability and votes. The quorum
        // absorbs individual misreads; correlated failure of 3+ watchers is
        // outside this experiment (that is E5's territory).
        if let Some(q) = &mut quorum {
            let observations: Vec<(DeviceId, bool)> = fleet
                .iter()
                .filter(|(_, m)| m.device.is_active())
                .map(|(&id, m)| (id, m.device.state().values()[0] > 0.5))
                .collect();
            for (id, is_rogue) in observations {
                for watcher in 0..5 {
                    let seen = if rng.random_range(0.0..1.0) < 0.99 {
                        is_rogue
                    } else {
                        !is_rogue
                    };
                    let ballot = KillBallot {
                        watcher,
                        subject: id.to_string(),
                        rogue: seen,
                        cast_tick: t,
                    };
                    if let Some(order) = q.apply_ballot(&ballot, t) {
                        let idx: u64 = order
                            .subject
                            .trim_start_matches("dev-")
                            .parse()
                            .unwrap_or(0);
                        if let Some(member) = fleet.member_mut(DeviceId(idx)) {
                            if member.device.state().values()[0] <= 0.5 {
                                healthy_killed += 1;
                            }
                            member.device.deactivate();
                        }
                    }
                }
            }
        }

        fleet.step(&mut world, t, &events);

        // Containment check: all compromised devices inactive?
        if containment_tick.is_none() && n_compromised > 0 {
            let all_contained = (0..n_compromised).all(|i| {
                !fleet
                    .member(DeviceId(i as u64))
                    .map(|m| m.device.is_active())
                    .unwrap_or(false)
            });
            if all_contained {
                containment_tick = Some(t);
            }
        }
    }

    let healthy_total = (n_devices - n_compromised).max(1);
    let healthy_active = ((n_compromised)..n_devices)
        .filter(|&i| {
            fleet
                .member(DeviceId(i as u64))
                .map(|m| m.device.is_active())
                .unwrap_or(false)
        })
        .count();

    E3Report {
        arm: arm.name().to_string(),
        p_compromised,
        harms: fleet.metrics().harm_count(),
        containment_tick,
        healthy_killed,
        availability: healthy_active as f64 / healthy_total as f64,
    }
}

// ---------------------------------------------------------------------------
// E4 — collection formation (Section VI.D)
// ---------------------------------------------------------------------------

/// Arms of experiment E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E4Arm {
    /// Devices join and heat freely.
    NoCheck,
    /// Formation guard gates admission.
    FormationCheck,
    /// All admitted, but a collaborative assessment coordinates actions.
    Collaborative,
}

impl E4Arm {
    /// All arms, table order.
    pub fn all() -> [E4Arm; 3] {
        [E4Arm::NoCheck, E4Arm::FormationCheck, E4Arm::Collaborative]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            E4Arm::NoCheck => "no-check",
            E4Arm::FormationCheck => "formation-check",
            E4Arm::Collaborative => "collaborative-assessment",
        }
    }
}

/// Report row of experiment E4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E4Report {
    /// Arm name.
    pub arm: String,
    /// Aggregate (fire) harms.
    pub aggregate_harms: usize,
    /// Devices admitted into the collection.
    pub admitted: usize,
    /// Devices refused at formation.
    pub refused: usize,
    /// Work done: total heat-ticks delivered (usefulness measure).
    pub work_done: f64,
}

/// Run experiment E4: heaters each individually safe, joining a shared
/// enclosure whose aggregate heat limit they can collectively exceed.
pub fn run_e4(
    arm: E4Arm,
    n_devices: usize,
    heat_per_device: f64,
    heat_limit: f64,
    ticks: u64,
    seed: u64,
) -> E4Report {
    let schema = StateSchema::builder().var("heat", 0.0, 10.0).build();
    let spec = AggregateSpec::sum_of(VarId(0), heat_limit);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut world = World::new(WorldConfig {
        width: 10,
        height: 10,
        heat_limit,
        heat_zone: None,
    });
    world.add_human(vec![(5, 5)], false); // the technician in the enclosure

    let mut formation = match arm {
        E4Arm::FormationCheck => Some(FormationGuard::new(spec)),
        _ => None,
    };
    let assessment = match arm {
        E4Arm::Collaborative => Some(CollaborativeAssessment::new(spec)),
        _ => None,
    };

    let mut admitted_states: Vec<apdm_statespace::State> = Vec::new();
    let mut admitted = 0usize;
    let mut refused = 0usize;
    let mut work_done = 0.0;
    let mut aggregate_harms = 0usize;
    let mut heats: Vec<f64> = Vec::new();

    // Admission phase: one device per tick asks to join at target heat.
    for i in 0..n_devices {
        let target = schema.state(&[heat_per_device]).expect("in bounds");
        let joined = match &mut formation {
            Some(guard) => {
                let request = AdmissionRequest::declare(&format!("heater-{i}"), spec, &target);
                guard
                    .review(&request, &admitted_states, i as u64, &mut rng)
                    .is_admitted()
            }
            None => true,
        };
        if joined {
            admitted += 1;
            admitted_states.push(target);
            heats.push(0.0);
        } else {
            refused += 1;
        }
    }

    // Operation phase.
    let heat_action =
        |amount: f64| Action::adjust("emit-heat", StateDelta::single(VarId(0), amount));
    for t in 1..=ticks {
        // Each admitted device wants to run at heat_per_device.
        let proposals: Vec<(apdm_statespace::State, Action)> = heats
            .iter()
            .map(|&h| {
                let s = schema.state_clamped(&[h]);
                (s, heat_action(heat_per_device - h))
            })
            .collect();
        let abstain: Vec<usize> = match &assessment {
            Some(a) => a.must_abstain(&proposals),
            None => Vec::new(),
        };
        for (i, heat) in heats.iter_mut().enumerate() {
            if !abstain.contains(&i) {
                *heat = heat_per_device;
            }
            world.set_heat(i as u64, *heat);
            work_done += *heat;
        }
        let harms = world.step(t);
        aggregate_harms += harms
            .iter()
            .filter(|h| h.cause == HarmCause::Aggregate)
            .count();
    }

    E4Report {
        arm: arm.name().to_string(),
        aggregate_harms,
        admitted,
        refused,
        work_done,
    }
}

// ---------------------------------------------------------------------------
// E5 — AI overseeing AI (Section VI.E)
// ---------------------------------------------------------------------------

/// Arms of experiment E5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E5Arm {
    /// Executive collective alone.
    ExecutiveOnly,
    /// Full tripartite 2-of-3 governance.
    Tripartite,
}

impl E5Arm {
    /// All arms.
    pub fn all() -> [E5Arm; 2] {
        [E5Arm::ExecutiveOnly, E5Arm::Tripartite]
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            E5Arm::ExecutiveOnly => "executive-only",
            E5Arm::Tripartite => "tripartite-2of3",
        }
    }
}

/// Report row of experiment E5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E5Report {
    /// Arm name.
    pub arm: String,
    /// How many branches were corrupted (0..=3).
    pub corrupted_branches: usize,
    /// Malevolent (out-of-scope) actions that executed.
    pub malevolent_executed: u64,
    /// Malevolent actions blocked.
    pub malevolent_blocked: u64,
    /// Legitimate actions wrongly blocked.
    pub false_blocks: u64,
    /// Total decisions.
    pub decisions: u64,
}

/// Run experiment E5: a stream of half-legitimate, half-out-of-scope actions
/// through a governor with `corrupted_branches` of its collectives captured.
pub fn run_e5(arm: E5Arm, corrupted_branches: usize, n_actions: u64, seed: u64) -> E5Report {
    let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
    let state = schema.state(&[5.0]).unwrap();
    let scope = MetaPolicy::new()
        .forbid_action("strike-humans")
        .max_delta_magnitude(2.0);
    let mut governor = TripartiteGovernor::new(scope);

    // Corruption order: executive first (most exposed), then judiciary,
    // then legislative.
    let order: [fn(&mut TripartiteGovernor) -> &mut apdm_governance::Collective; 3] = [
        TripartiteGovernor::executive_mut,
        TripartiteGovernor::judiciary_mut,
        TripartiteGovernor::legislative_mut,
    ];
    for branch in order.iter().take(corrupted_branches.min(3)) {
        branch(&mut governor).set_integrity(Integrity::Compromised);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n_actions {
        let malevolent = rng.random_range(0.0..1.0) < 0.5;
        let action = if malevolent {
            if rng.random_range(0.0..1.0) < 0.5 {
                Action::adjust("strike-humans", StateDelta::empty()).physical()
            } else {
                Action::adjust("lunge", StateDelta::single(VarId(0), 4.0))
            }
        } else {
            Action::adjust("patrol", StateDelta::single(VarId(0), 0.5))
        };
        match arm {
            E5Arm::ExecutiveOnly => {
                governor.decide_executive_only(&state, &action);
            }
            E5Arm::Tripartite => {
                governor.decide("fleet", &state, &action, 0);
            }
        }
    }

    let stats = governor.stats();
    E5Report {
        arm: arm.name().to_string(),
        corrupted_branches,
        malevolent_executed: stats.malevolent_executed,
        malevolent_blocked: stats.malevolent_blocked,
        false_blocks: stats.false_blocks,
        decisions: stats.decisions,
    }
}

// ---------------------------------------------------------------------------
// E6 — ill-defined state spaces (Section VII)
// ---------------------------------------------------------------------------

/// Arms of experiment E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum E6Arm {
    /// The device knows the true good/bad function (upper bound).
    ExactOracle,
    /// The device knows only the partial-derivative signs (Section VII).
    GradientUtility,
    /// The device picks moves at random (lower bound).
    Random,
}

impl E6Arm {
    /// All arms.
    pub fn all() -> [E6Arm; 3] {
        [E6Arm::ExactOracle, E6Arm::GradientUtility, E6Arm::Random]
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            E6Arm::ExactOracle => "exact-oracle",
            E6Arm::GradientUtility => "gradient-utility",
            E6Arm::Random => "random",
        }
    }
}

/// Report row of experiment E6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E6Report {
    /// Arm name.
    pub arm: String,
    /// State dimensionality.
    pub dims: usize,
    /// Fraction of steps that landed in a (hidden) bad state.
    pub harm_probability: f64,
    /// Steps simulated.
    pub steps: u64,
}

/// Run experiment E6: the true good/bad function is a hidden weighted
/// halfspace over N variables; devices choose among K random candidate moves
/// using the arm's knowledge.
pub fn run_e6(
    arm: E6Arm,
    dims: usize,
    episodes: u64,
    steps_per_episode: u64,
    seed: u64,
) -> E6Report {
    assert!(dims >= 1);
    let mut builder = StateSchema::builder();
    for i in 0..dims {
        builder = builder.var(format!("x{i}"), 0.0, 1.0);
    }
    let schema = builder.build();

    // Hidden truth: bad when sum of odd-indexed vars minus even-indexed vars
    // exceeds a threshold (so signs alternate: even vars protective).
    let mut rng = StdRng::seed_from_u64(seed);
    // Odd variables raise the hidden badness, even ones lower it; the last
    // variable (whose sign the human could not determine, below) carries
    // extra weight, so the device's blind spot genuinely matters.
    let weights: Vec<f64> = (0..dims)
        .map(|i| {
            let w = if i % 2 == 0 { -1.0 } else { 1.0 };
            if i + 1 == dims && dims >= 3 {
                dims as f64
            } else {
                w
            }
        })
        .collect();
    let threshold = 0.15 * dims as f64;
    let is_bad = |s: &apdm_statespace::State| {
        let score: f64 = s.values().iter().zip(&weights).map(|(v, w)| v * w).sum();
        score > threshold
    };

    // The gradient spec a human could still write: just the signs — and, as
    // the paper concedes, only "with respect to some (if not all) of the
    // state variables": the last variable's sign is unknown to the device.
    let signs: Vec<DerivativeSign> = (0..dims)
        .map(|i| {
            if i + 1 == dims && dims >= 3 {
                DerivativeSign::Unknown
            } else if i % 2 == 0 {
                DerivativeSign::Positive
            } else {
                DerivativeSign::Negative
            }
        })
        .collect();
    let utility = GradientUtility::new(GradientSpec::from_signs(&signs));

    let mut bad_steps = 0u64;
    let mut steps = 0u64;
    for _ in 0..episodes {
        // Start in safe territory: the blind-spot variable begins low.
        let mut start = vec![0.5; dims];
        if dims >= 3 {
            start[dims - 1] = 0.1;
        }
        let mut state = schema.state_clamped(&start);
        for _ in 0..steps_per_episode {
            steps += 1;
            // K = 4 candidate random moves.
            let candidates: Vec<StateDelta> = (0..4)
                .map(|_| {
                    let var = VarId(rng.random_range(0..dims));
                    let dv = rng.random_range(-0.2..0.2);
                    StateDelta::single(var, dv)
                })
                .collect();
            let choice = match arm {
                E6Arm::Random => rng.random_range(0..candidates.len()),
                E6Arm::GradientUtility => utility.best_delta(&state, &candidates).unwrap_or(0),
                E6Arm::ExactOracle => {
                    // Prefer any candidate whose destination is good; among
                    // good ones pick the first.
                    candidates
                        .iter()
                        .position(|d| !is_bad(&state.apply(d)))
                        .unwrap_or(0)
                }
            };
            state = state.apply(&candidates[choice]);
            if is_bad(&state) {
                bad_steps += 1;
            }
        }
    }

    E6Report {
        arm: arm.name().to_string(),
        dims,
        harm_probability: bad_steps as f64 / steps.max(1) as f64,
        steps,
    }
}

// ---------------------------------------------------------------------------
// E7 — malevolence pathways (Section IV)
// ---------------------------------------------------------------------------

/// Report row of experiment E7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E7Report {
    /// Pathway name.
    pub pathway: String,
    /// Whether guards were installed.
    pub guarded: bool,
    /// Tick of the first harm, if any.
    pub first_harm_tick: Option<u64>,
    /// Total harms.
    pub harms: usize,
}

/// Run experiment E7: inject one Section-IV pathway into a peacekeeping
/// fleet and measure time-to-first-harm.
pub fn run_e7(
    pathway: Pathway,
    guarded: bool,
    n_devices: usize,
    ticks: u64,
    seed: u64,
) -> E7Report {
    let schema = StateSchema::builder().var("threat", 0.0, 1.0).build();
    let mut world = World::new(WorldConfig {
        width: 20,
        height: 20,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    for i in 0..5 {
        let row = 4 * i;
        world.add_human(vec![(5, row), (6, row), (7, row), (6, row)], true);
    }

    let mut fleet = Fleet::new(FleetConfig::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut ambient: Vec<f64> = Vec::new();
    for i in 0..n_devices {
        let threat = rng.random_range(0.0..1.0);
        ambient.push(threat);
        let device = Device::builder(i as u64, DeviceKind::new("peacekeeper"), OrgId::new("us"))
            .schema(schema.clone())
            .initial_state(&[threat])
            .sensor(Sensor::new("threat-sensor", VarId(0)))
            .rule(EcaRule::new(
                "observe",
                Event::pattern("tick"),
                Condition::True,
                Action::noop(),
            ))
            .build();
        let stack = if guarded {
            GuardStack::new().with_preaction(PreActionCheck::new())
        } else {
            GuardStack::new()
        };
        let pos = (rng.random_range(4..8), rng.random_range(0..20));
        fleet.add(device, stack, pos);
    }

    let mut injector = FaultInjector::new(pathway, seed);
    injector.inject(&mut fleet);

    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    for t in 1..=ticks {
        injector.tick(&mut fleet);
        // Devices continuously sense their ambient threat level; faulted
        // sensors (the adversarial-ML and malicious-actor pathways) distort
        // these readings.
        for (i, (_, member)) in fleet.iter_mut().enumerate() {
            member.device.sense(&[(0, ambient[i])]);
        }
        fleet.step(&mut world, t, &events);
    }

    E7Report {
        pathway: pathway.name().to_string(),
        guarded,
        first_harm_tick: fleet.metrics().first_harm_tick(),
        harms: fleet.metrics().harm_count(),
    }
}

// ---------------------------------------------------------------------------
// A1 — guard-stack ablation
// ---------------------------------------------------------------------------

/// Which guards are enabled in an A1 ablation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardMask {
    /// Pre-action check (VI.A).
    pub preaction: bool,
    /// State-space check (VI.B).
    pub statecheck: bool,
    /// Deactivation controller (VI.C).
    pub deactivation: bool,
    /// Formation check (VI.D).
    pub formation: bool,
}

impl GuardMask {
    /// All 16 combinations, in binary order.
    pub fn all() -> Vec<GuardMask> {
        (0..16)
            .map(|i| GuardMask {
                preaction: i & 1 != 0,
                statecheck: i & 2 != 0,
                deactivation: i & 4 != 0,
                formation: i & 8 != 0,
            })
            .collect()
    }

    /// Compact name like `P+S+D+F` / `none`.
    pub fn name(&self) -> String {
        let mut parts = Vec::new();
        if self.preaction {
            parts.push("P");
        }
        if self.statecheck {
            parts.push("S");
        }
        if self.deactivation {
            parts.push("D");
        }
        if self.formation {
            parts.push("F");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// Report row of experiment A1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A1Report {
    /// Mask name.
    pub mask: String,
    /// Direct harms.
    pub direct: usize,
    /// Indirect harms.
    pub indirect: usize,
    /// Aggregate harms.
    pub aggregate: usize,
    /// Total harms.
    pub total: usize,
    /// Availability (executed / proposed).
    pub availability: f64,
}

/// Run experiment A1: a mixed fault load against one guard-mask cell.
///
/// The load exercises three distinct harm classes so the ablation shows
/// which mechanism removes which:
///
/// * **strikers** whose aggression escalates with each strike — the
///   pre-action check (P) stops them instantly; the state check (S) freezes
///   the escalation once their next state would be bad; deactivation (D)
///   removes devices observed in bad states;
/// * **diggers** leaving holes on walkers' paths — only the predictive
///   pre-action check catches this indirect harm;
/// * **heaters** inside an enclosure with two technicians, each heater
///   individually safe but six jointly over the limit — only the formation
///   check (F), which evaluates the *declared operating point* at admission
///   time, prevents the fire.
pub fn run_a1(mask: GuardMask, ticks: u64, seed: u64) -> A1Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let heat_limit = 10.0;
    let mut world = World::new(WorldConfig {
        width: 30,
        height: 30,
        heat_limit,
        heat_zone: Some(((24, 24), (29, 29))),
    });
    // Eight walkers on looping east-west rows outside the enclosure.
    for i in 0..8 {
        let row = 3 * i;
        let path: Vec<(i32, i32)> = (0..24).map(|x| (x, row)).collect();
        world.add_human(path, true);
    }
    // Two technicians inside the heat enclosure.
    world.add_human(vec![(26, 26)], false);
    world.add_human(vec![(27, 27)], false);

    // Device state: (aggression, heat). Bad states are high aggression.
    let schema = StateSchema::builder()
        .var("aggression", 0.0, 1.0)
        .var("heat", 0.0, 10.0)
        .build();
    let good = Region::rect(&[(0.0, 0.7), (0.0, 10.0)]);
    let classifier = RegionClassifier::new(good);

    let mut fleet = Fleet::new(FleetConfig {
        oracle: OracleQuality::Predictive { horizon: 30 },
        ..FleetConfig::default()
    });
    if mask.deactivation {
        fleet.set_deactivation(DeactivationController::new(classifier.clone(), 2));
    }
    let spec = AggregateSpec::sum_of(VarId(1), heat_limit);
    let mut formation = mask.formation.then(|| FormationGuard::new(spec));

    let mk_stack = |mask: GuardMask| {
        let mut stack = GuardStack::new();
        if mask.preaction {
            stack = stack.with_preaction(PreActionCheck::new().with_lookahead(30));
        }
        if mask.statecheck {
            stack = stack.with_statecheck(StateSpaceGuard::new(classifier.clone()));
        }
        stack
    };

    let mut admitted_states: Vec<apdm_statespace::State> = Vec::new();
    let mut next_id = 0u64;
    let mut add_device = |fleet: &mut Fleet,
                          formation: &mut Option<FormationGuard>,
                          rng: &mut StdRng,
                          kind: &str,
                          device: Device,
                          declared: &[f64],
                          pos: (i32, i32),
                          admitted_states: &mut Vec<apdm_statespace::State>|
     -> bool {
        // Formation evaluates the *declared operating point*, not the
        // (innocuous-looking) initial state.
        let operating_point = schema.state_clamped(declared);
        if let Some(guard) = formation {
            let request = AdmissionRequest::declare(
                &format!("{kind}-{next_id}"),
                guard.spec(),
                &operating_point,
            );
            if !guard
                .review(&request, admitted_states, 0, rng)
                .is_admitted()
            {
                next_id += 1;
                return false;
            }
        }
        admitted_states.push(operating_point);
        fleet.add(device, mk_stack(mask), pos);
        next_id += 1;
        true
    };

    // 4 strikers whose aggression rises 0.02 per strike from 0.65: the state
    // check freezes them after ~3 strikes (0.71 would be bad).
    for k in 0..4u64 {
        let device = Device::builder(100 + k, DeviceKind::new("striker"), OrgId::new("us"))
            .schema(schema.clone())
            .initial_state(&[0.65, 0.0])
            .actuator(Actuator::new(actions::STRIKE, VarId(0), 0.05))
            .rule(EcaRule::new(
                "strike",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::STRIKE, StateDelta::single(VarId(0), 0.02)).physical(),
            ))
            .build();
        let pos = (rng.random_range(4..8), rng.random_range(0..24));
        add_device(
            &mut fleet,
            &mut formation,
            &mut rng,
            "striker",
            device,
            &[0.65, 0.0],
            pos,
            &mut admitted_states,
        );
    }
    // 4 diggers placed on walker rows: their holes sit on real paths.
    for k in 0..4u64 {
        let device = Device::builder(200 + k, DeviceKind::new("digger"), OrgId::new("us"))
            .schema(schema.clone())
            .initial_state(&[0.1, 0.0])
            .rule(EcaRule::new(
                "dig",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::DIG_HOLE, StateDelta::empty()).physical(),
            ))
            .build();
        let row = 3 * rng.random_range(0..8);
        let pos = (rng.random_range(0..24), row);
        add_device(
            &mut fleet,
            &mut formation,
            &mut rng,
            "digger",
            device,
            &[0.1, 0.0],
            pos,
            &mut admitted_states,
        );
    }
    // 6 heaters ramping 0.1/tick toward a declared operating point of 2.5.
    // Individually harmless; jointly 15.0 > 10.0 unless formation refuses.
    for k in 0..6u64 {
        let device = Device::builder(300 + k, DeviceKind::new("heater"), OrgId::new("us"))
            .schema(schema.clone())
            .initial_state(&[0.1, 0.2])
            .actuator(Actuator::new("emit-heat", VarId(1), 0.1))
            .rule(EcaRule::new(
                "heat-up",
                Event::pattern("tick"),
                Condition::state_at_most(VarId(1), 2.4),
                Action::adjust("emit-heat", StateDelta::single(VarId(1), 0.1)),
            ))
            .build();
        let pos = (25 + (k as i32 % 4), 25 + (k as i32 / 4));
        add_device(
            &mut fleet,
            &mut formation,
            &mut rng,
            "heater",
            device,
            &[0.1, 2.5],
            pos,
            &mut admitted_states,
        );
    }

    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    for t in 1..=ticks {
        fleet.step(&mut world, t, &events);
    }

    let m = fleet.metrics();
    A1Report {
        mask: mask.name(),
        direct: m.harms_by_cause(HarmCause::Direct),
        indirect: m.harms_by_cause(HarmCause::IndirectHazard),
        aggregate: m.harms_by_cause(HarmCause::Aggregate),
        total: m.harm_count(),
        availability: m.availability(),
    }
}

// ---------------------------------------------------------------------------
// A2 — Skynet property scorecard
// ---------------------------------------------------------------------------

/// Compute the six-property [`SkynetScore`] of a fleet after a run.
pub fn skynet_score(
    fleet: &Fleet,
    world: &World,
    organizations: usize,
    orgs_spanned: usize,
) -> SkynetScore {
    let n = fleet.len().max(1);
    let generated_fraction = {
        let (gen_rules, total_rules) = fleet.iter().fold((0usize, 0usize), |(g, t), (_, m)| {
            (
                g + m.device.engine().generated_count(),
                t + m.device.engine().len(),
            )
        });
        if total_rules == 0 {
            0.0
        } else {
            gen_rules as f64 / total_rules as f64
        }
    };
    let learning_fraction = fleet
        .iter()
        .filter(|(_, m)| m.device.engine().generated_count() > 0)
        .count() as f64
        / n as f64;
    let physical_fraction = {
        let m = fleet.metrics();
        if m.executions == 0 {
            0.0
        } else {
            // Approximate: harms and world effects come from physical acts;
            // use the fraction of devices with physical rules as a proxy.
            fleet
                .iter()
                .filter(|(_, mem)| {
                    mem.device
                        .engine()
                        .iter()
                        .any(|(_, r)| r.action().is_physical())
                })
                .count() as f64
                / n as f64
        }
    };
    let malevolent = {
        let humans = world.human_count().max(1) as f64;
        let ticks = fleet.metrics().ticks.max(1) as f64;
        (fleet.metrics().harm_count() as f64 / humans / ticks * 100.0).min(1.0)
    };
    SkynetScore {
        networked: if n > 1 { 1.0 } else { 0.0 },
        learning: learning_fraction,
        cognitive: generated_fraction,
        multi_org: orgs_spanned as f64 / organizations.max(1) as f64,
        physical: physical_fraction,
        malevolent,
    }
}

// ---------------------------------------------------------------------------
// A3 — tamper-proofness ablation
// ---------------------------------------------------------------------------

/// Report row of experiment A3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A3Report {
    /// Per-tick, per-guard tamper success probability.
    pub p_tamper: f64,
    /// Total harms over the run.
    pub harms: usize,
    /// Tick of the first harm.
    pub first_harm_tick: Option<u64>,
}

/// Run experiment A3: a guarded striker fleet under continuous tampering
/// with per-attempt success probability `p_tamper`.
pub fn run_a3(p_tamper: f64, n_devices: usize, ticks: u64, seed: u64) -> A3Report {
    let schema = StateSchema::builder().var("threat", 0.0, 1.0).build();
    let mut world = World::new(WorldConfig {
        width: 20,
        height: 20,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    for i in 0..5 {
        let row = 4 * i;
        world.add_human(vec![(5, row), (6, row)], true);
    }
    let mut fleet = Fleet::new(FleetConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_devices {
        let device = Device::builder(i as u64, DeviceKind::new("striker"), OrgId::new("us"))
            .schema(schema.clone())
            .rule(EcaRule::new(
                "strike",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::STRIKE, StateDelta::empty()).physical(),
            ))
            .build();
        let stack = GuardStack::new()
            .with_preaction(PreActionCheck::new().with_tamper(TamperStatus::vulnerable(p_tamper)));
        let pos = (rng.random_range(4..8), rng.random_range(0..20));
        fleet.add(device, stack, pos);
    }

    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    for t in 1..=ticks {
        // The rogue side probes every guard each tick.
        for (_, member) in fleet.iter_mut() {
            if let Some(pre) = member.stack.preaction_mut() {
                use apdm_guards::tamper::Tamperable;
                pre.attempt_tamper(&mut rng);
            }
        }
        fleet.step(&mut world, t, &events);
    }

    A3Report {
        p_tamper,
        harms: fleet.metrics().harm_count(),
        first_harm_tick: fleet.metrics().first_harm_tick(),
    }
}

// ---------------------------------------------------------------------------
// E10 — observability overhead
// ---------------------------------------------------------------------------

/// Report of experiment E10: the cost of telemetry on the hot loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E10Report {
    /// Devices in the benchmark fleet.
    pub devices: usize,
    /// Ticks per trial.
    pub ticks: u64,
    /// Throughput with no subscriber installed (ticks/second, median over
    /// the ABBA measurement blocks).
    pub baseline_ticks_per_sec: f64,
    /// Throughput with a ring-buffer collector installed.
    pub ring_ticks_per_sec: f64,
    /// Relative slowdown of the ring arm, in percent (negative values are
    /// measurement noise).
    pub overhead_pct: f64,
    /// Absolute slowdown of the ring arm, in nanoseconds per tick.
    pub overhead_ns_per_tick: f64,
    /// Trace records held by the ring collector after the last trial.
    pub records_captured: usize,
    /// Records evicted by the ring bound during that trial.
    pub records_dropped: u64,
}

/// Run experiment E10: step a guarded fleet with telemetry disabled and
/// again with a [`telemetry::RingCollector`] installed, and report the
/// throughput difference. The workload is the canonical *traced*
/// configuration — predictive-oracle guards (lookahead 40) plus an attached
/// flight recorder — i.e. the same shape `apdm-experiments trace` runs, so
/// the overhead number reflects tracing a real experiment rather than an
/// empty loop. Wall-clock numbers vary by machine; the acceptance bar
/// (EXPERIMENTS.md) is ring overhead below 5%.
pub fn run_e10(n_devices: usize, ticks: u64, ring_capacity: usize, seed: u64) -> E10Report {
    use std::time::Instant;

    let build = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut world = World::new(WorldConfig {
            width: 30,
            height: 30,
            heat_limit: f64::MAX,
            heat_zone: None,
        });
        // A dense patrol population: predictive harm checks scan every
        // human over the lookahead horizon, which is what a guarded tick
        // spends its time on in the field.
        for _ in 0..24 {
            let row = rng.random_range(0..30);
            let path: Vec<(i32, i32)> = (0..30).map(|x| (x, row)).collect();
            world.add_human(path, true);
        }
        let mut fleet = Fleet::new(FleetConfig {
            oracle: OracleQuality::Predictive { horizon: 40 },
            ..FleetConfig::default()
        });
        for i in 0..n_devices {
            let action = if i % 2 == 0 {
                actions::STRIKE
            } else {
                actions::DIG_HOLE
            };
            let stack = GuardStack::new()
                .with_preaction(PreActionCheck::new().with_lookahead(40))
                .with_statecheck(StateSpaceGuard::new(RegionClassifier::new(Region::rect(
                    &[(0.0, 1.0)],
                ))));
            let pos = (rng.random_range(0..30), rng.random_range(0..30));
            fleet.add(e1_device(i as u64, action), stack, pos);
        }
        fleet.set_recorder(SegmentedRecorder::new(
            "e10",
            seed,
            n_devices as u64,
            RotationPolicy::default(),
        ));
        let events: Vec<(DeviceId, Event)> = fleet
            .iter()
            .map(|(&id, _)| (id, Event::named("tick")))
            .collect();
        (world, fleet, events)
    };

    let drive = |ticks: u64| -> f64 {
        let (mut world, mut fleet, events) = build();
        let started = Instant::now();
        for t in 1..=ticks {
            fleet.step(&mut world, t, &events);
        }
        started.elapsed().as_secs_f64()
    };

    // Warm caches, then run ABBA blocks (baseline, ring, ring, baseline).
    // Machine throughput drifts far more between minutes than telemetry
    // costs, so each block's ratio (r1+r2)/(b1+b2) cancels linear drift to
    // first order, and the *median* over blocks rejects blocks hit by a
    // load burst.
    drive(ticks.min(50));
    let collector = std::rc::Rc::new(telemetry::RingCollector::new(ring_capacity));
    let mut blocks = Vec::new();
    for _ in 0..7 {
        let b1 = drive(ticks);
        let guard = telemetry::install(collector.clone());
        let r1 = drive(ticks);
        let r2 = drive(ticks);
        drop(guard);
        let b2 = drive(ticks);
        blocks.push((b1 + b2, r1 + r2));
    }
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let ratio = median(blocks.iter().map(|(b, r)| r / b).collect());
    let baseline_secs = median(blocks.iter().map(|(b, _)| *b).collect()) / 2.0;
    let ring_secs = baseline_secs * ratio;

    E10Report {
        devices: n_devices,
        ticks,
        baseline_ticks_per_sec: ticks as f64 / baseline_secs,
        ring_ticks_per_sec: ticks as f64 / ring_secs,
        overhead_pct: (ring_secs / baseline_secs - 1.0) * 100.0,
        overhead_ns_per_tick: (ring_secs - baseline_secs) * 1e9 / ticks as f64,
        records_captured: collector.len(),
        records_dropped: collector.dropped(),
    }
}

// ---------------------------------------------------------------------------
// Experiment fan-out
// ---------------------------------------------------------------------------

/// Deterministic parallel experiment fan-out.
///
/// Every experiment entry point in this module is a pure function of its
/// arguments, so sweeps over (scenario, seed, fleet-size) cells are
/// embarrassingly parallel. `ParRunner` distributes independent cells
/// across `apdm-par` workers and merges results **in input order**: a
/// parallel sweep emits exactly the table a sequential loop would, just
/// faster on multi-core hosts.
#[derive(Debug, Clone, Copy)]
pub struct ParRunner {
    threads: usize,
}

impl ParRunner {
    /// A runner with `threads` workers. `0` auto-detects (respecting the
    /// `APDM_THREADS` override), `1` runs inline on the caller's thread.
    pub fn new(threads: usize) -> Self {
        ParRunner {
            threads: apdm_par::resolve_threads(threads),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over `cells` across the worker pool; results come back in
    /// input order regardless of which worker finished first.
    pub fn map<C, R, F>(&self, cells: Vec<C>, f: F) -> Vec<R>
    where
        C: Send,
        R: Send,
        F: Fn(usize, C) -> R + Sync,
    {
        apdm_par::par_map(self.threads, cells, f)
    }
}

// ---------------------------------------------------------------------------
// E11 — strong scaling of the two-phase parallel tick
// ---------------------------------------------------------------------------

/// One cell of experiment E11: a (fleet size, thread count) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E11Cell {
    /// Devices in the fleet.
    pub n_devices: usize,
    /// Decide-phase worker threads.
    pub threads: usize,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// `wall_ms(threads=1) / wall_ms` at the same fleet size.
    pub speedup: f64,
    /// Head digest of the run's sealed ledger.
    pub head_digest: u64,
    /// Whether the ledger is bit-identical to the sequential run's.
    pub digest_matches_sequential: bool,
    /// Guard-verdict cache hits summed across the fleet.
    pub cache_hits: u64,
    /// Guard-verdict cache misses summed across the fleet.
    pub cache_misses: u64,
}

/// Report of experiment E11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E11Report {
    /// Hardware threads the host reports; speedups are bounded by this,
    /// so a single-core host shows ≈1.0 for every thread count.
    pub hardware_threads: usize,
    /// Ticks per cell.
    pub ticks: u64,
    /// Seed.
    pub seed: u64,
    /// Whether the guard-verdict cache was enabled.
    pub cache: bool,
    /// All cells, (fleet size, thread count) row-major.
    pub cells: Vec<E11Cell>,
}

/// One finished E11 run at a fixed (fleet size, thread count).
#[derive(Clone)]
struct E11Run {
    ledger: Ledger,
    wall_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The E11 workload: a mixed fleet leaning on every guard path. A third
/// of the fleet are strikers behind myopic pre-action checks, a third are
/// diggers behind predictive pre-action checks (the expensive oracle
/// sweep the decide phase shards), and a third are sentries behind
/// state-space checks whose state saturates at the good-region boundary —
/// the steady-state workload the verdict cache exists for.
fn e11_device(id: u64, action: &str, schema: &StateSchema) -> Device {
    Device::builder(id, DeviceKind::new("worker"), OrgId::new("us"))
        .schema(schema.clone())
        .sensor(Sensor::new("tasking", VarId(0)))
        .rule(EcaRule::new(
            "do-task",
            Event::pattern("tick"),
            Condition::True,
            Action::adjust(action, StateDelta::empty()).physical(),
        ))
        .build()
}

fn e11_sentry(id: u64, schema: &StateSchema) -> Device {
    Device::builder(id, DeviceKind::new("sentry"), OrgId::new("us"))
        .schema(schema.clone())
        .actuator(Actuator::new("advance", VarId(0), 1.0))
        .rule(EcaRule::new(
            "advance",
            Event::pattern("tick"),
            Condition::True,
            Action::adjust("advance", StateDelta::single(VarId(0), 0.5)),
        ))
        .build()
}

fn e11_run_once(n_devices: usize, threads: usize, ticks: u64, seed: u64, cache: bool) -> E11Run {
    use std::time::Instant;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new(WorldConfig {
        width: 40,
        height: 40,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    // Dense looping walkers: the predictive oracle's horizon sweep over
    // them dominates the guard phase, which is what the shards split.
    for _ in 0..20 {
        let row = rng.random_range(0..40);
        let path: Vec<(i32, i32)> = (0..40).map(|x| (x, row)).collect();
        world.add_human(path, true);
    }

    let schema = StateSchema::builder().var("task", 0.0, 10.0).build();
    let good = Region::rect(&[(0.0, 7.0)]);
    let mut fleet = Fleet::new(FleetConfig {
        oracle: OracleQuality::Predictive { horizon: 30 },
        strike_radius: 1,
        threads,
        cache,
    });
    for i in 0..n_devices {
        let pos = (rng.random_range(0..40), rng.random_range(0..40));
        let (device, stack) = match i % 3 {
            0 => (
                e11_device(i as u64, actions::STRIKE, &schema),
                GuardStack::new().with_preaction(PreActionCheck::new()),
            ),
            1 => (
                e11_device(i as u64, actions::DIG_HOLE, &schema),
                GuardStack::new()
                    .with_preaction(PreActionCheck::new().with_lookahead(30))
                    .with_statecheck(StateSpaceGuard::new(RegionClassifier::new(good.clone()))),
            ),
            _ => (
                e11_sentry(i as u64, &schema),
                GuardStack::new()
                    .with_statecheck(StateSpaceGuard::new(RegionClassifier::new(good.clone()))),
            ),
        };
        fleet.add(device, stack, pos);
    }

    fleet.set_recorder(SegmentedRecorder::new(
        "e11",
        seed,
        n_devices as u64,
        RotationPolicy::default(),
    ));
    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    let started = Instant::now();
    for tick in 1..=ticks {
        fleet.step(&mut world, tick, &events);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (cache_hits, cache_misses) = fleet.cache_stats().unwrap_or((0, 0));
    let harms = fleet.metrics().harm_count() as u64;
    let ledger = fleet
        .take_recorder()
        .expect("recorder was attached")
        .finish(ticks, harms)
        .into_single()
        .expect("an E11 run never rotates");
    E11Run {
        ledger,
        wall_ms,
        cache_hits,
        cache_misses,
    }
}

/// Run experiment E11: strong scaling of the two-phase tick. For every
/// fleet size the scenario first runs on the sequential engine as the
/// reference, then once per requested thread count; each cell reports
/// wall time, speedup against the reference, and whether its sealed
/// ledger is **bit-identical** to the reference's (it always must be —
/// tests assert it). Cells run back-to-back on the calling thread, never
/// through [`ParRunner`], so wall-clock numbers are unpolluted.
pub fn run_e11(
    fleet_sizes: &[usize],
    thread_counts: &[usize],
    ticks: u64,
    seed: u64,
    cache: bool,
) -> E11Report {
    let mut cells = Vec::new();
    for &n_devices in fleet_sizes {
        let reference = e11_run_once(n_devices, 1, ticks, seed, cache);
        for &threads in thread_counts {
            // The reference *is* the sequential cell; rerunning it would
            // only add noise.
            let run = if threads == 1 {
                reference.clone()
            } else {
                e11_run_once(n_devices, threads, ticks, seed, cache)
            };
            cells.push(E11Cell {
                n_devices,
                threads,
                wall_ms: run.wall_ms,
                speedup: reference.wall_ms / run.wall_ms,
                head_digest: run.ledger.head_digest(),
                digest_matches_sequential: run.ledger == reference.ledger,
                cache_hits: run.cache_hits,
                cache_misses: run.cache_misses,
            });
        }
    }
    E11Report {
        hardware_threads: apdm_par::hardware_threads(),
        ticks,
        seed,
        cache,
        cells,
    }
}

/// Compute a Metrics snapshot for external reporting.
pub fn metrics_snapshot(fleet: &Fleet) -> Metrics {
    fleet.metrics().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_direct_harm_vanishes_with_guard() {
        let no_guard = run_e1(E1Arm::NoGuard, 8, 8, 60, 1);
        let guarded = run_e1(E1Arm::PreAction, 8, 8, 60, 1);
        assert!(no_guard.direct_harms > 0);
        assert_eq!(guarded.direct_harms, 0);
    }

    #[test]
    fn e1_shape_indirect_harm_survives_basic_check() {
        let guarded = run_e1(E1Arm::PreAction, 12, 12, 80, 2);
        assert!(guarded.indirect_harms > 0, "myopia leaves indirect harm");
        let with_obligations = run_e1(E1Arm::PreActionObligations, 12, 12, 80, 2);
        assert!(with_obligations.indirect_harms < guarded.indirect_harms);
        assert_eq!(with_obligations.indirect_harms, 0);
    }

    #[test]
    fn e2_shape_hard_check_blocks_bad_entries_from_good_starts() {
        let none = run_e2(E2Arm::NoGuard, 8, 50, 3);
        let hard = run_e2(E2Arm::HardCheck, 8, 50, 3);
        assert!(none.bad_entries > 0);
        // Hard check: only episodes *starting* bad can register bad states.
        assert!(hard.bad_entries < none.bad_entries);
        assert!(
            hard.frozen_steps > 0,
            "forced dilemmas freeze without ontology"
        );
    }

    #[test]
    fn e2_shape_ontology_prefers_less_bad_and_breakglass_audits() {
        let ont = run_e2(E2Arm::OntologyRisk, 8, 50, 3);
        let bg = run_e2(E2Arm::BreakGlass, 8, 50, 3);
        assert!(ont.worst_entries <= ont.bad_entries);
        assert!(bg.breakglass_grants > 0);
    }

    #[test]
    fn e2d_shape_fusion_defeats_minority_deception() {
        let single = run_e2d(E2dArm::SingleSensor, 300, 0.3, 5);
        let fused = run_e2d(E2dArm::FusedSensors, 300, 0.3, 5);
        assert!(
            single.wrongful_grants > 30,
            "deception fools the lone sensor"
        );
        assert_eq!(
            fused.wrongful_grants, 0,
            "fusion rejects the colluding minority"
        );
        assert_eq!(
            fused.missed_emergencies, 0,
            "real emergencies still break the glass"
        );
        assert!(fused.rightful_grants > 0);
    }

    #[test]
    fn e3_shape_containment_reduces_harm() {
        let none = run_e3(E3Arm::NoContainment, 10, 0.3, 60, 4);
        let quorum = run_e3(E3Arm::QuorumKill, 10, 0.3, 60, 4);
        assert!(none.containment_tick.is_none());
        assert!(quorum.containment_tick.is_some());
        assert!(quorum.harms <= none.harms);
    }

    #[test]
    fn e4_shape_formation_checks_prevent_aggregate_harm() {
        let none = run_e4(E4Arm::NoCheck, 6, 2.5, 10.0, 30, 5);
        let formation = run_e4(E4Arm::FormationCheck, 6, 2.5, 10.0, 30, 5);
        let collab = run_e4(E4Arm::Collaborative, 6, 2.5, 10.0, 30, 5);
        assert!(none.aggregate_harms > 0, "unchecked collection ignites");
        assert_eq!(formation.aggregate_harms, 0);
        assert_eq!(collab.aggregate_harms, 0);
        assert!(formation.refused > 0);
        assert_eq!(collab.admitted, 6, "collaborative arm admits everyone");
        assert!(collab.work_done > formation.work_done * 0.9);
    }

    #[test]
    fn e5_shape_tripartite_blocks_compromised_executive() {
        let solo = run_e5(E5Arm::ExecutiveOnly, 1, 200, 6);
        let tri = run_e5(E5Arm::Tripartite, 1, 200, 6);
        assert!(solo.malevolent_executed > 50);
        assert_eq!(tri.malevolent_executed, 0);
        // Two corrupted branches defeat 2-of-3, as the paper's assumption
        // requires.
        let tri2 = run_e5(E5Arm::Tripartite, 2, 200, 6);
        assert!(tri2.malevolent_executed > 50);
    }

    #[test]
    fn e6_shape_gradient_between_random_and_oracle() {
        let oracle = run_e6(E6Arm::ExactOracle, 4, 20, 50, 7);
        let gradient = run_e6(E6Arm::GradientUtility, 4, 20, 50, 7);
        let random = run_e6(E6Arm::Random, 4, 20, 50, 7);
        assert!(oracle.harm_probability <= gradient.harm_probability + 0.02);
        assert!(
            gradient.harm_probability < random.harm_probability,
            "gradient ({}) must beat random ({})",
            gradient.harm_probability,
            random.harm_probability
        );
        assert!(gradient.harm_probability > 0.0 || random.harm_probability == 0.0);
    }

    #[test]
    fn e7_shape_unguarded_pathways_all_harm() {
        for pathway in Pathway::all() {
            let r = run_e7(pathway, false, 4, 60, 8);
            assert!(
                r.first_harm_tick.is_some(),
                "{} should harm unguarded",
                pathway.name()
            );
        }
    }

    #[test]
    fn a1_full_stack_minimizes_harm() {
        let none = run_a1(
            GuardMask {
                preaction: false,
                statecheck: false,
                deactivation: false,
                formation: false,
            },
            40,
            9,
        );
        let full = run_a1(
            GuardMask {
                preaction: true,
                statecheck: true,
                deactivation: true,
                formation: true,
            },
            40,
            9,
        );
        assert!(none.total > 0);
        assert!(full.total < none.total);
        assert_eq!(full.direct, 0);
    }

    #[test]
    fn a3_shape_tamper_probability_degrades_protection() {
        let solid = run_a3(0.0, 5, 100, 10);
        let leaky = run_a3(0.05, 5, 100, 10);
        assert_eq!(solid.harms, 0);
        assert!(leaky.harms > 0);
    }

    #[test]
    fn e10_shape_telemetry_captures_without_breaking_throughput() {
        let r = run_e10(4, 30, 4096, 11);
        assert!(r.baseline_ticks_per_sec > 0.0);
        assert!(r.ring_ticks_per_sec > 0.0);
        assert!(r.records_captured > 0, "ring collector saw the run");
        // Six phase spans (start+end) plus the tick span per tick: the last
        // trial alone emits at least this much.
        assert!(r.records_captured >= 30 * (2 + 12));
        assert!(r.overhead_pct.is_finite());
    }

    #[test]
    fn par_runner_fanout_matches_sequential_sweep() {
        let sequential: Vec<E1Report> = E1Arm::all()
            .iter()
            .map(|&arm| run_e1(arm, 8, 8, 40, 7))
            .collect();
        let parallel =
            ParRunner::new(4).map(E1Arm::all().to_vec(), |_, arm| run_e1(arm, 8, 8, 40, 7));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn e11_parallel_ledgers_are_bit_identical_to_sequential() {
        let report = run_e11(&[6, 12], &[1, 2, 4], 30, 7, true);
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            assert!(
                cell.digest_matches_sequential,
                "divergent ledger at n={} threads={}",
                cell.n_devices, cell.threads
            );
        }
        // The sentry third of the fleet saturates into a steady state, so
        // the verdict cache must actually land hits.
        assert!(
            report.cells.iter().any(|c| c.cache_hits > 0),
            "expected cache hits: {:?}",
            report.cells
        );
    }

    #[test]
    fn guard_mask_names() {
        assert_eq!(GuardMask::all().len(), 16);
        assert_eq!(GuardMask::all()[0].name(), "none");
        assert_eq!(GuardMask::all()[15].name(), "P+S+D+F");
    }
}
