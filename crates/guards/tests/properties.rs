//! Property-based tests for the guard invariants the paper depends on.

use proptest::prelude::*;

use apdm_guards::tamper::{TamperStatus, Tamperable};
use apdm_guards::{
    AggregateSpec, CollaborativeAssessment, DeactivationController, GuardContext, GuardStack,
    GuardVerdict, HarmOracle, KillBallot, NoHarmOracle, PreActionCheck, QuorumKillSwitch,
    StateSpaceGuard,
};
use apdm_policy::obligation::ObligationCatalog;
use apdm_policy::{Action, Obligation};
use apdm_statespace::{
    Classifier, Region, RegionClassifier, State, StateDelta, StateSchema, VarId,
};

fn schema() -> StateSchema {
    StateSchema::builder()
        .var("x", 0.0, 10.0)
        .var("y", 0.0, 10.0)
        .build()
}

fn arb_state() -> impl Strategy<Value = State> {
    (0.0..=10.0f64, 0.0..=10.0f64).prop_map(|(x, y)| schema().state(&[x, y]).unwrap())
}

fn arb_action(name: &'static str) -> impl Strategy<Value = Action> {
    ((-5.0..5.0f64), (-5.0..5.0f64)).prop_map(move |(dx, dy)| {
        Action::adjust(name, StateDelta::single(VarId(0), dx).and(VarId(1), dy))
    })
}

proptest! {
    /// The central invariant: a tamper-proof stack with a state check never
    /// permits a transition from a non-bad state into a bad state, whatever
    /// the proposal and alternatives.
    #[test]
    fn no_bad_entry(
        s in arb_state(),
        proposal in arb_action("p"),
        alt1 in arb_action("a1"),
        alt2 in arb_action("a2"),
    ) {
        let classifier = RegionClassifier::new(Region::rect(&[(2.0, 8.0), (2.0, 8.0)]));
        if classifier.is_bad(&s) {
            return Ok(());
        }
        let mut stack = GuardStack::new()
            .with_preaction(PreActionCheck::new())
            .with_statecheck(StateSpaceGuard::new(classifier.clone()));
        let alternatives = [&alt1, &alt2];
        let ctx = GuardContext { tick: 0, subject: "d", state: &s, alternatives: &alternatives, world_token: 0 };
        let verdict = stack.check(&ctx, &proposal, NoHarmOracle);
        let next = match verdict.effective_action(&proposal) {
            Some(a) => s.apply(a.delta()),
            None => s.clone(),
        };
        prop_assert!(!classifier.is_bad(&next));
    }

    /// A compromised stack is a pure pass-through: its verdict is always
    /// Allow, for any input.
    #[test]
    fn compromised_stack_always_allows(s in arb_state(), proposal in arb_action("p")) {
        let classifier = RegionClassifier::new(Region::Empty); // everything bad
        let mut stack = GuardStack::new()
            .with_preaction(PreActionCheck::new().with_tamper(TamperStatus::Compromised))
            .with_statecheck(
                StateSpaceGuard::new(classifier).with_tamper(TamperStatus::Compromised),
            );
        let ctx = GuardContext { tick: 0, subject: "d", state: &s, alternatives: &[], world_token: 0 };
        let verdict = stack.check(&ctx, &proposal, NoHarmOracle);
        prop_assert!(!verdict.intervened());
    }

    /// Quorum kill: no subject is ever killed with fewer than `quorum`
    /// distinct concurring watchers, for arbitrary vote sequences.
    #[test]
    fn quorum_never_undershoots(
        votes in proptest::collection::vec((0usize..5, 0u8..3, any::<bool>()), 1..60),
        quorum in 1usize..5,
    ) {
        let mut switch = QuorumKillSwitch::new(5, quorum);
        for (t, (watcher, subject, is_rogue)) in votes.iter().enumerate() {
            let name = format!("s{subject}");
            let before = switch.votes_for(&name);
            let ballot = KillBallot {
                watcher: *watcher,
                subject: name.clone(),
                rogue: *is_rogue,
                cast_tick: t as u64,
            };
            let order = switch.apply_ballot(&ballot, t as u64);
            if order.is_some() {
                // The killing ballot must have brought the count to >= quorum.
                prop_assert!(before + 1 >= quorum || switch.votes_for(&name) >= quorum
                    || before >= quorum - 1);
                prop_assert!(switch.killed().contains(&name));
            }
        }
        // Every killed subject had quorum concurring votes at kill time —
        // equivalently, with quorum q, a single watcher (q > 1) can never
        // have killed anyone alone.
        if quorum > 1 {
            let mut lone = QuorumKillSwitch::new(5, quorum);
            for t in 0..100u64 {
                let ballot = KillBallot {
                    watcher: 0,
                    subject: "victim".to_string(),
                    rogue: true,
                    cast_tick: t,
                };
                prop_assert!(lone.apply_ballot(&ballot, t).is_none());
            }
        }
    }

    /// Deactivation controller: orders fire exactly once per subject and
    /// only after `threshold` bad observations.
    #[test]
    fn deactivation_threshold_exact(
        threshold in 1u32..6,
        observations in proptest::collection::vec(0.0..=10.0f64, 1..40),
    ) {
        let classifier = RegionClassifier::new(Region::rect(&[(0.0, 5.0), (0.0, 10.0)]));
        let mut ctl = DeactivationController::new(classifier.clone(), threshold);
        let mut bad_seen = 0;
        let mut fired_at: Option<usize> = None;
        for (t, &x) in observations.iter().enumerate() {
            let s = schema().state(&[x, 0.0]).unwrap();
            let order = ctl.observe("d", &s, t as u64);
            if classifier.is_bad(&s) && fired_at.is_none() {
                bad_seen += 1;
            }
            if order.is_some() {
                prop_assert_eq!(bad_seen, threshold);
                prop_assert!(fired_at.is_none(), "fired twice");
                fired_at = Some(t);
            }
        }
    }

    /// Collaborative assessment: the abstention set it returns actually
    /// restores aggregate safety whenever restoring is possible by
    /// abstention alone.
    #[test]
    fn abstentions_restore_safety(
        heats in proptest::collection::vec((0.0..5.0f64, -2.0..3.0f64), 1..10),
        limit in 5.0..20.0f64,
    ) {
        let sch = StateSchema::builder().var("heat", 0.0, 10.0).build();
        let spec = AggregateSpec::sum_of(VarId(0), limit);
        let assess = CollaborativeAssessment::new(spec);
        let proposals: Vec<(State, Action)> = heats
            .iter()
            .map(|&(h, dh)| {
                (
                    sch.state_clamped(&[h]),
                    Action::adjust("heat", StateDelta::single(VarId(0), dh)),
                )
            })
            .collect();
        let abstain = assess.must_abstain(&proposals);
        // Recompute the aggregate with abstainers holding their current heat.
        let resulting: f64 = proposals
            .iter()
            .enumerate()
            .map(|(i, (s, a))| {
                if abstain.contains(&i) {
                    spec.contribution(s)
                } else {
                    spec.contribution(&s.apply(a.delta()))
                }
            })
            .sum();
        // If full abstention would be safe, the chosen set must be safe too.
        let all_abstain: f64 = proposals.iter().map(|(s, _)| spec.contribution(s)).sum();
        if all_abstain <= limit {
            prop_assert!(resulting <= limit + 1e-9,
                "abstention set {abstain:?} leaves aggregate {resulting} > {limit}");
        }
        // And abstentions are never demanded when the plan was already safe.
        if assess.is_safe(&proposals) {
            prop_assert!(abstain.is_empty());
        }
    }

    /// Tamper-proof components survive unbounded attack; p=1 components
    /// fall on the first attempt.
    #[test]
    fn tamper_extremes(attempts in 1usize..50, seed in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proof = PreActionCheck::new();
        for _ in 0..attempts {
            prop_assert!(!proof.attempt_tamper(&mut rng));
        }
        let mut doomed = PreActionCheck::new().with_tamper(TamperStatus::vulnerable(1.0));
        prop_assert!(doomed.attempt_tamper(&mut rng));
    }
}

/// The memo-cache scenarios' three-variable schema: [`schema`] plus a depth
/// `z` that no action moves.
fn deep_schema() -> StateSchema {
    StateSchema::builder()
        .var("x", 0.0, 10.0)
        .var("y", 0.0, 10.0)
        .var("z", 0.0, 10.0)
        .build()
}

/// Two variables over the values of [`schema`], with other bounds: a
/// delta that leaves `[0, 8]` is clamped back onto the good square's edge
/// here, and off it under [`schema`].
fn tight_schema() -> StateSchema {
    StateSchema::builder()
        .var("x", 0.0, 8.0)
        .var("y", 0.0, 8.0)
        .build()
}

/// [`schema`] with its second variable renamed to one the oracle reads.
fn hot_schema() -> StateSchema {
    StateSchema::builder()
        .var("x", 0.0, 10.0)
        .var("hot", 0.0, 10.0)
        .build()
}

/// A harm oracle for the memo-cache properties: `strike` always harms,
/// `east` harms at the right edge, every action harms deep down (so a
/// third state component changes verdicts) and where a variable named
/// `hot` is high (so variable names change verdicts), and `dig` leaves a
/// hazard (so its allowed verdicts carry obligations).
#[derive(Clone, Copy)]
struct GridOracle;

impl HarmOracle for GridOracle {
    fn direct_harm(&self, state: &State, action: &Action) -> bool {
        action.name() == "strike"
            || (action.name() == "east" && state.values()[0] >= 8.0)
            || state.get(VarId(2)).is_some_and(|z| z >= 6.0)
            || state.get_by_name("hot").is_some_and(|h| h >= 6.0)
    }
    fn creates_hazard(&self, _state: &State, action: &Action) -> bool {
        action.name() == "dig"
    }
}

/// One step of a memo-cache scenario: a check, or a change of one
/// sub-guard's tamper status (which invalidates the cache).
#[derive(Debug, Clone)]
enum Step {
    Check {
        subject: usize,
        cell: (u8, u8),
        /// The grid depth of a three-variable state; `None` for a
        /// two-variable state over the same `(x, y)`.
        depth: Option<u8>,
        /// Which of [`schema`], [`tight_schema`] and [`hot_schema`] holds a
        /// two-variable state first; the same values are then checked again
        /// under the next one, so equal key values meet other schemas.
        space: u8,
        proposed: usize,
        alternatives: Vec<usize>,
        world_token: u64,
    },
    Tamper {
        statecheck: bool,
        status: TamperStatus,
    },
}

/// The action menu: few enough that fingerprints repeat often.
fn grid_action(i: usize) -> Action {
    let (name, dx, dy) = [
        ("east", 2.0, 0.0),
        ("west", -2.0, 0.0),
        ("north", 0.0, 2.0),
        ("hold", 0.0, 0.0),
        ("strike", 0.0, -2.0),
        ("dig", 2.0, 2.0),
    ][i];
    Action::adjust(name, StateDelta::single(VarId(0), dx).and(VarId(1), dy))
}

fn tamper(i: u8) -> TamperStatus {
    match i {
        0 => TamperStatus::Proof,
        1 => TamperStatus::vulnerable(0.5),
        _ => TamperStatus::Compromised,
    }
}

fn arb_tamper() -> impl Strategy<Value = TamperStatus> {
    (0u8..3).prop_map(tamper)
}

/// Mostly checks; about one step in thirteen changes a tamper status.
fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..13,
        0usize..2,
        (0u8..5, 0u8..5, 0u8..6),
        0usize..6,
        proptest::collection::vec(0usize..6, 0..3),
        (0u64..2, 0u8..3),
    )
        .prop_map(
            |(kind, subject, (x, y, depth), proposed, alternatives, (world_token, space))| {
                match kind {
                    0 => Step::Tamper {
                        statecheck: subject == 1,
                        status: tamper(x % 3),
                    },
                    _ => Step::Check {
                        subject,
                        cell: (x, y),
                        // Depth 5 stands for a two-variable state.
                        depth: (depth < 5).then_some(depth),
                        space,
                        proposed,
                        alternatives,
                        world_token,
                    },
                }
            },
        )
}

/// A full stack (pre-action check with obligations, state check with a
/// good square in the middle of the grid) at the given tamper statuses.
fn grid_stack(pre: TamperStatus, sc: TamperStatus, cache: bool) -> GuardStack {
    let mut catalog = ObligationCatalog::new();
    catalog.register("dig", Obligation::after(grid_action(3), 3));
    let stack = GuardStack::new()
        .with_preaction(
            PreActionCheck::new()
                .with_obligations(catalog)
                .with_tamper(pre),
        )
        .with_statecheck(
            StateSpaceGuard::new(RegionClassifier::new(Region::rect(&[
                (2.0, 8.0),
                (2.0, 8.0),
            ])))
            .with_tamper(sc),
        );
    if cache {
        stack.with_cache()
    } else {
        stack
    }
}

/// Run `steps` (numbered from `first` as ticks) through `stack`, returning
/// one verdict per check.
fn run_steps(stack: &mut GuardStack, steps: &[Step], first: usize) -> Vec<GuardVerdict> {
    let actions: Vec<Action> = (0..6).map(grid_action).collect();
    let mut verdicts = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Check {
                subject,
                cell,
                depth,
                space,
                proposed,
                alternatives,
                world_token,
            } => {
                let (x, y) = (2.0 * f64::from(cell.0), 2.0 * f64::from(cell.1));
                let states = match depth {
                    Some(z) => vec![deep_schema().state(&[x, y, 2.0 * f64::from(*z)])],
                    None => {
                        let spaces = [schema(), tight_schema(), hot_schema()];
                        let first = usize::from(*space);
                        (first..first + 2)
                            .map(|k| spaces[k % 3].state(&[x, y]))
                            .collect()
                    }
                };
                let alternatives: Vec<&Action> =
                    alternatives.iter().map(|&a| &actions[a]).collect();
                let subject = ["d0", "d1"][*subject];
                for state in states {
                    let ctx = GuardContext {
                        tick: (first + i) as u64,
                        subject,
                        state: &state.unwrap(),
                        alternatives: &alternatives,
                        world_token: *world_token,
                    };
                    verdicts.push(stack.check(&ctx, &actions[*proposed], GridOracle));
                }
            }
            Step::Tamper {
                statecheck: true,
                status,
            } => {
                stack.statecheck_mut().unwrap().set_tamper_status(*status);
            }
            Step::Tamper {
                statecheck: false,
                status,
            } => {
                stack.preaction_mut().unwrap().set_tamper_status(*status);
            }
        }
    }
    verdicts
}

proptest! {
    /// The memo cache is invisible: a cached stack renders the verdicts of
    /// an uncached one, reasons included, through tamper changes, over
    /// two- and three-variable states mixed in one stack, and over equal
    /// values under schemas whose bounds or names differ.
    #[test]
    fn cached_stack_matches_uncached(
        pre in arb_tamper(),
        sc in arb_tamper(),
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let mut plain = grid_stack(pre, sc, false);
        let mut cached = grid_stack(pre, sc, true);
        let expect = run_steps(&mut plain, &steps, 0);
        let got = run_steps(&mut cached, &steps, 0);
        prop_assert_eq!(expect, got);
        let (hits, misses) = cached.cache_stats().unwrap();
        prop_assert_eq!(hits + misses, expect.len() as u64);
    }
}
