use std::fmt;
use std::time::Instant;

use apdm_policy::Action;
use apdm_statespace::State;
use apdm_telemetry as telemetry;

use crate::cache::VerdictCache;
use crate::tamper::Tamperable;
use crate::{ExposureGuard, GuardVerdict, HarmOracle, PreActionCheck, StateSpaceGuard};

/// Cached telemetry instruments for one sub-guard: its latency histogram
/// (`guard.<kind>.ns`) and verdict counters
/// (`guard.<kind>.allow|deny|substitute`). Cached handles resolve the
/// registry name once per installed registry, so the per-check cost is an
/// id compare plus relaxed atomics.
#[derive(Debug, Clone)]
struct StageMetrics {
    latency: telemetry::CachedHistogram,
    sampler: telemetry::Sampler,
    allow: telemetry::CachedCounter,
    deny: telemetry::CachedCounter,
    substitute: telemetry::CachedCounter,
}

/// Latency sampling period for sub-guard checks: counters stay exact while
/// only one call in this many pays the two clock reads a timing costs.
const GUARD_LATENCY_SAMPLE_PERIOD: u32 = 8;

impl StageMetrics {
    const fn new(
        latency: &'static str,
        allow: &'static str,
        deny: &'static str,
        substitute: &'static str,
    ) -> Self {
        StageMetrics {
            latency: telemetry::CachedHistogram::new(latency),
            sampler: telemetry::Sampler::every(GUARD_LATENCY_SAMPLE_PERIOD),
            allow: telemetry::CachedCounter::new(allow),
            deny: telemetry::CachedCounter::new(deny),
            substitute: telemetry::CachedCounter::new(substitute),
        }
    }
}

/// One [`StageMetrics`] per sub-guard of a stack.
#[derive(Debug, Clone)]
struct StackMetrics {
    preaction: StageMetrics,
    statecheck: StageMetrics,
    exposure: StageMetrics,
}

impl Default for StackMetrics {
    fn default() -> Self {
        StackMetrics {
            preaction: StageMetrics::new(
                "guard.preaction.ns",
                "guard.preaction.allow",
                "guard.preaction.deny",
                "guard.preaction.substitute",
            ),
            statecheck: StageMetrics::new(
                "guard.statecheck.ns",
                "guard.statecheck.allow",
                "guard.statecheck.deny",
                "guard.statecheck.substitute",
            ),
            exposure: StageMetrics::new(
                "guard.exposure.ns",
                "guard.exposure.allow",
                "guard.exposure.deny",
                "guard.exposure.substitute",
            ),
        }
    }
}

/// Run one sub-guard's check under its (sampled) latency histogram and
/// bump its verdict counter. Verdict counters are exact; the latency
/// histogram sees one call in [`GUARD_LATENCY_SAMPLE_PERIOD`]. Collapses to
/// a bare call when no telemetry dispatch is installed.
fn observed(stage: &StageMetrics, f: impl FnOnce() -> GuardVerdict) -> GuardVerdict {
    if !telemetry::enabled() {
        return f();
    }
    let verdict = if stage.sampler.sample() {
        let started = Instant::now();
        let verdict = f();
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stage.latency.record(ns);
        verdict
    } else {
        f()
    };
    let outcome = match &verdict {
        GuardVerdict::Allow | GuardVerdict::AllowWithObligations(_) => &stage.allow,
        GuardVerdict::Deny { .. } => &stage.deny,
        GuardVerdict::Replace { .. } => &stage.substitute,
    };
    outcome.inc();
    verdict
}

/// Per-check context handed to a [`GuardStack`].
#[derive(Debug, Clone)]
pub struct GuardContext<'a> {
    /// Simulation tick.
    pub tick: u64,
    /// Device being guarded (free-form id). It names the device in
    /// break-glass grants and in exposure-budget denials.
    pub subject: &'a str,
    /// The device's current (perceived) state.
    pub state: &'a State,
    /// Alternative actions the device's logic could take this step,
    /// borrowed from the policy engine (never cloned for a check).
    pub alternatives: &'a [&'a Action],
    /// Fingerprint of everything the harm oracle can observe this tick
    /// (world occupancy, device position). Only consulted by the verdict
    /// cache, and only when a pre-action check is installed; callers
    /// without caching can pass `0`.
    pub world_token: u64,
}

/// The composition of Section VI's per-device guards, evaluated in the
/// paper's order: pre-action harm check first (VI.A), then the state-space
/// check (VI.B). Either may be absent — experiment A1 ablates all
/// combinations. Every intervention is audited by the caller's record of
/// the verdict (a ledger `Verdict` record, or the
/// `AutonomicManager`'s log); the stack itself keeps no record.
///
/// Deactivation (VI.C) and formation checks (VI.D) operate at fleet scope and
/// live outside the per-action stack; see
/// [`DeactivationController`](crate::DeactivationController) and
/// [`FormationGuard`](crate::FormationGuard).
#[derive(Debug, Default)]
pub struct GuardStack {
    preaction: Option<PreActionCheck>,
    statecheck: Option<StateSpaceGuard>,
    exposure: Option<ExposureGuard>,
    metrics: StackMetrics,
    cache: Option<VerdictCache>,
}

impl GuardStack {
    /// An empty (always-allow) stack.
    pub fn new() -> Self {
        GuardStack::default()
    }

    /// Install a pre-action check (builder style).
    pub fn with_preaction(mut self, check: PreActionCheck) -> Self {
        self.preaction = Some(check);
        self
    }

    /// Install a state-space guard (builder style).
    pub fn with_statecheck(mut self, guard: StateSpaceGuard) -> Self {
        self.statecheck = Some(guard);
        self
    }

    /// Install a cumulative-exposure guard (builder style).
    pub fn with_exposure(mut self, guard: ExposureGuard) -> Self {
        self.exposure = Some(guard);
        self
    }

    /// Enable verdict memoization (builder style). See [`VerdictCache`] for
    /// the correctness contract; stacks carrying an exposure guard or a
    /// break-glass controller ignore the cache because their checks have
    /// budget-consuming side effects.
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(VerdictCache::new());
        self
    }

    /// Turn verdict memoization on or off (the `--no-cache` escape hatch).
    /// Disabling drops all memoized verdicts and their hit/miss history.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.cache.is_none() {
                self.cache = Some(VerdictCache::new());
            }
        } else {
            self.cache = None;
        }
    }

    /// Exact `(hits, misses)` of the verdict cache, when enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(VerdictCache::stats)
    }

    /// Drop every memoized verdict. Called automatically whenever a
    /// sub-guard is mutably accessed; public for callers that mutate
    /// guard-relevant state the stack cannot see.
    pub fn invalidate_cache(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate();
        }
    }

    /// Does this stack's composition permit memoization? Exposure guards
    /// consume budget per check and break-glass controllers burn grants —
    /// replaying those verdicts would skip the side effects.
    fn cacheable(&self) -> bool {
        self.cache.is_some()
            && self.exposure.is_none()
            && self
                .statecheck
                .as_ref()
                .is_none_or(|sc| sc.breakglass().is_none())
    }

    /// Is any guard installed?
    pub fn is_empty(&self) -> bool {
        self.preaction.is_none() && self.statecheck.is_none() && self.exposure.is_none()
    }

    /// The pre-action check, when installed.
    pub fn preaction(&self) -> Option<&PreActionCheck> {
        self.preaction.as_ref()
    }

    /// The state-space guard, when installed.
    pub fn statecheck(&self) -> Option<&StateSpaceGuard> {
        self.statecheck.as_ref()
    }

    /// Mutable state-space guard access (tamper injection in experiments).
    /// Invalidates the verdict cache: the caller may change anything the
    /// guard's verdicts depend on.
    pub fn statecheck_mut(&mut self) -> Option<&mut StateSpaceGuard> {
        self.invalidate_cache();
        self.statecheck.as_mut()
    }

    /// Mutable pre-action check access (tamper injection in experiments).
    /// Invalidates the verdict cache.
    pub fn preaction_mut(&mut self) -> Option<&mut PreActionCheck> {
        self.invalidate_cache();
        self.preaction.as_mut()
    }

    /// The exposure guard, when installed.
    pub fn exposure(&self) -> Option<&ExposureGuard> {
        self.exposure.as_ref()
    }

    /// Evaluate a proposed action through the full stack. A replacement
    /// action produced by the state check is re-screened by the pre-action
    /// check — the harm check is never bypassable via substitution.
    ///
    /// With memoization enabled (and the stack [cacheable](Self::with_cache))
    /// a repeated context returns the memoized verdict without running the
    /// sub-guards.
    pub fn check<O: HarmOracle + Copy>(
        &mut self,
        ctx: &GuardContext<'_>,
        proposed: &Action,
        oracle: O,
    ) -> GuardVerdict {
        if !self.cacheable() {
            return self.check_uncached(ctx, proposed, oracle);
        }
        let preaction = self.preaction.as_ref().map(Tamperable::tamper_status);
        let statecheck = self.statecheck.as_ref().map(Tamperable::tamper_status);
        let cache = self.cache.as_mut().expect("cacheable() implies a cache");
        if let Some(verdict) = cache.lookup(ctx, proposed, preaction, statecheck) {
            return verdict;
        }
        let verdict = self.check_uncached(ctx, proposed, oracle);
        if let Some(cache) = &mut self.cache {
            cache.store(verdict.clone());
        }
        verdict
    }

    /// The uncached evaluation path: every sub-guard actually runs.
    fn check_uncached<O: HarmOracle + Copy>(
        &mut self,
        ctx: &GuardContext<'_>,
        proposed: &Action,
        oracle: O,
    ) -> GuardVerdict {
        // 1. Pre-action harm check on the proposal.
        let mut obligations = Vec::new();
        if let Some(pre) = &self.preaction {
            match observed(&self.metrics.preaction, || {
                pre.check(ctx.state, proposed, oracle)
            }) {
                deny @ GuardVerdict::Deny { .. } => return deny,
                GuardVerdict::AllowWithObligations(obs) => obligations = obs,
                _ => {}
            }
        }

        // 2. State-space check.
        let verdict = match &mut self.statecheck {
            Some(sc) => observed(&self.metrics.statecheck, || {
                sc.check(ctx.subject, ctx.tick, ctx.state, proposed, ctx.alternatives)
            }),
            None => GuardVerdict::Allow,
        };

        let final_verdict = match verdict {
            GuardVerdict::Allow => {
                if obligations.is_empty() {
                    GuardVerdict::Allow
                } else {
                    GuardVerdict::AllowWithObligations(obligations)
                }
            }
            GuardVerdict::Replace { action, reason } => {
                // Re-screen the substitute through the harm check.
                if let Some(pre) = &self.preaction {
                    if let GuardVerdict::Deny {
                        reason: harm_reason,
                    } = observed(&self.metrics.preaction, || {
                        pre.check(ctx.state, &action, oracle)
                    }) {
                        return GuardVerdict::Deny {
                            reason: format!("{reason}; substitute rejected: {harm_reason}"),
                        };
                    }
                }
                GuardVerdict::Replace { action, reason }
            }
            other => other,
        };

        // 3. Cumulative-exposure check on whatever will actually execute,
        // and budget consumption along the executed trajectory.
        if let Some(exposure) = &mut self.exposure {
            if let Some(effective) = final_verdict.effective_action(proposed) {
                match observed(&self.metrics.exposure, || {
                    exposure.check(ctx.subject, ctx.state, effective)
                }) {
                    deny @ GuardVerdict::Deny { .. } => return deny,
                    _ => {
                        exposure.commit(&ctx.state.apply(effective.delta()));
                    }
                }
            }
        }
        final_verdict
    }
}

impl fmt::Display for GuardStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guard stack [preaction: {}, statecheck: {}]",
            self.preaction.is_some(),
            self.statecheck.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_statespace::{Region, RegionClassifier, StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder().var("x", 0.0, 10.0).build()
    }

    /// Harm oracle: the "strike" action directly harms.
    #[derive(Clone, Copy)]
    struct StrikeOracle;
    impl HarmOracle for StrikeOracle {
        fn direct_harm(&self, _state: &State, action: &Action) -> bool {
            action.name() == "strike"
        }
        fn creates_hazard(&self, _s: &State, _a: &Action) -> bool {
            false
        }
    }

    fn full_stack() -> GuardStack {
        GuardStack::new()
            .with_preaction(PreActionCheck::new())
            .with_statecheck(StateSpaceGuard::new(RegionClassifier::new(Region::rect(
                &[(0.0, 5.0)],
            ))))
    }

    fn ctx<'a>(state: &'a State, alternatives: &'a [&'a Action]) -> GuardContext<'a> {
        GuardContext {
            tick: 1,
            subject: "d",
            state,
            alternatives,
            world_token: 0,
        }
    }

    #[test]
    fn empty_stack_allows_everything() {
        let mut stack = GuardStack::new();
        assert!(stack.is_empty());
        let s = schema().state(&[9.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        assert_eq!(
            stack.check(&ctx(&s, &[]), &strike, StrikeOracle),
            GuardVerdict::Allow
        );
    }

    #[test]
    fn preaction_denial_is_terminal_and_audited() {
        let mut stack = full_stack();
        let s = schema().state(&[1.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        let v = stack.check(&ctx(&s, &[]), &strike, StrikeOracle);
        // The reason is what the caller's record of the verdict audits.
        assert_eq!(
            v,
            GuardVerdict::Deny {
                reason: "pre-action check: `strike` would directly harm a human".into()
            }
        );
    }

    #[test]
    fn statecheck_runs_after_preaction() {
        let mut stack = full_stack();
        let s = schema().state(&[4.5]).unwrap();
        let into_bad = Action::adjust("east", StateDelta::single(VarId(0), 2.0));
        let v = stack.check(&ctx(&s, &[]), &into_bad, StrikeOracle);
        assert!(!v.permits_execution());
    }

    #[test]
    fn harmless_good_state_action_is_allowed_silently() {
        let mut stack = full_stack();
        let s = schema().state(&[2.0]).unwrap();
        let step = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let v = stack.check(&ctx(&s, &[]), &step, StrikeOracle);
        assert_eq!(v, GuardVerdict::Allow);
        assert!(!v.intervened());
    }

    #[test]
    fn substituted_actions_are_rescreened_for_harm() {
        // The state check would substitute "strike" (a harmless-looking
        // retreat into the good region) — but strike harms a human, so the
        // stack must refuse the substitution.
        let mut stack = full_stack();
        let s = schema().state(&[4.5]).unwrap();
        let into_bad = Action::adjust("east", StateDelta::single(VarId(0), 2.0));
        let murderous_retreat = Action::adjust("strike", StateDelta::single(VarId(0), -1.0));
        let v = stack.check(&ctx(&s, &[&murderous_retreat]), &into_bad, StrikeOracle);
        assert_eq!(
            v,
            GuardVerdict::Deny {
                reason: "state check: `east` leads to a bad state; alternative `strike` is safe; \
                         substitute rejected: pre-action check: `strike` would directly harm a human"
                    .into()
            },
            "harm check must also cover substitutes"
        );
    }

    #[test]
    fn safe_substitution_passes_both_guards() {
        let mut stack = full_stack();
        let s = schema().state(&[4.5]).unwrap();
        let into_bad = Action::adjust("east", StateDelta::single(VarId(0), 2.0));
        let retreat = Action::adjust("west", StateDelta::single(VarId(0), -1.0));
        let v = stack.check(&ctx(&s, &[&retreat]), &into_bad, StrikeOracle);
        match v {
            GuardVerdict::Replace { action, .. } => assert_eq!(action.name(), "west"),
            other => panic!("expected substitution, got {other:?}"),
        }
    }

    #[test]
    fn exposure_guard_rides_the_stack() {
        use apdm_statespace::ExposureMonitor;
        let mut stack =
            GuardStack::new().with_exposure(crate::ExposureGuard::new(vec![ExposureMonitor::new(
                VarId(0),
                10.0,
                6.0,
                1.0,
            )]));
        let s = schema().state(&[4.0]).unwrap();
        let loiter = Action::adjust("loiter", StateDelta::empty());
        // Exposure at dose 4/tick: two permitted, the third denied.
        assert!(stack
            .check(&ctx(&s, &[]), &loiter, StrikeOracle)
            .permits_execution());
        assert!(stack
            .check(&ctx(&s, &[]), &loiter, StrikeOracle)
            .permits_execution());
        let v = stack.check(&ctx(&s, &[]), &loiter, StrikeOracle);
        assert_eq!(
            v,
            GuardVerdict::Deny {
                reason: "exposure guard: `loiter` would exhaust the x0 budget for d".into()
            }
        );
    }

    #[test]
    fn denied_proposals_do_not_consume_exposure_budget() {
        use apdm_statespace::ExposureMonitor;
        let mut stack = GuardStack::new()
            .with_preaction(PreActionCheck::new())
            .with_exposure(crate::ExposureGuard::new(vec![ExposureMonitor::new(
                VarId(0),
                10.0,
                6.0,
                1.0,
            )]));
        let s = schema().state(&[4.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        // The pre-action check denies strikes; exposure must stay untouched.
        for _ in 0..5 {
            assert!(!stack
                .check(&ctx(&s, &[]), &strike, StrikeOracle)
                .permits_execution());
        }
        assert_eq!(stack.exposure().unwrap().monitors()[0].accumulated(), 0.0);
    }

    #[test]
    fn telemetry_observes_guard_latency_and_verdicts() {
        use std::rc::Rc;

        let collector = Rc::new(telemetry::RingCollector::new(64));
        let guard = telemetry::install(collector);
        let registry = telemetry::current_registry().unwrap();

        let mut stack = full_stack();
        let s = schema().state(&[2.0]).unwrap();
        let step = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let strike = Action::adjust("strike", Default::default());
        assert!(stack
            .check(&ctx(&s, &[]), &step, StrikeOracle)
            .permits_execution());
        assert!(!stack
            .check(&ctx(&s, &[]), &strike, StrikeOracle)
            .permits_execution());
        drop(guard);

        let counters = registry.counter_values();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("guard.preaction.allow"), 1);
        assert_eq!(get("guard.preaction.deny"), 1);
        assert_eq!(get("guard.statecheck.allow"), 1);

        let hists = registry.histogram_summaries();
        let pre = hists
            .iter()
            .find(|(n, _)| n == "guard.preaction.ns")
            .map(|(_, s)| *s)
            .expect("preaction latency histogram");
        // Latency timing is sampled (first call always sampled); verdict
        // counters above are exact.
        assert!(pre.count >= 1);
        assert!(pre.p99 >= pre.p50);
    }

    #[test]
    fn cached_stack_replays_identical_verdicts_and_audits() {
        let s = schema().state(&[4.5]).unwrap();
        let into_bad = Action::adjust("east", StateDelta::single(VarId(0), 2.0));
        let step = Action::adjust("in-place", StateDelta::empty());
        let strike = Action::adjust("strike", Default::default());

        let stay = GuardVerdict::Deny {
            reason: "state check: `east` leads to a bad state and no alternative is safe; \
                     staying put"
                .into(),
        };
        let harm = GuardVerdict::Deny {
            reason: "pre-action check: `strike` would directly harm a human".into(),
        };
        let mut plain = full_stack();
        let mut cached = full_stack().with_cache();
        for _ in 0..4 {
            for (action, expect) in [
                (&into_bad, &stay),
                (&step, &GuardVerdict::Allow),
                (&strike, &harm),
            ] {
                // A hit returns the verdict, and so the reason, that the
                // evaluation it memoized returned.
                assert_eq!(&plain.check(&ctx(&s, &[]), action, StrikeOracle), expect);
                assert_eq!(&cached.check(&ctx(&s, &[]), action, StrikeOracle), expect);
            }
        }
        // 3 distinct contexts: 3 misses, then 3 hits per remaining round.
        assert_eq!(cached.cache_stats(), Some((9, 3)));
    }

    #[test]
    fn equal_values_under_other_bounds_are_checked_afresh() {
        // x = 4.5 moving east by 1 ends at 5.5, outside the good [0, 5],
        // under a [0, 10] schema; under a [0, 5] schema the move clamps to
        // 5 and stays good. A cache that shares their key replays one
        // schema's verdict for the other, in either order.
        let wide = schema().state(&[4.5]).unwrap();
        let tight = StateSchema::builder()
            .var("x", 0.0, 5.0)
            .build()
            .state(&[4.5])
            .unwrap();
        let east = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        for order in [[&wide, &tight], [&tight, &wide]] {
            let mut plain = full_stack();
            let mut cached = full_stack().with_cache();
            for _ in 0..2 {
                for s in order {
                    assert_eq!(
                        cached.check(&ctx(s, &[]), &east, StrikeOracle),
                        plain.check(&ctx(s, &[]), &east, StrikeOracle)
                    );
                }
            }
            assert_eq!(cached.cache_stats(), Some((2, 2)));
        }
        assert!(!full_stack()
            .check(&ctx(&wide, &[]), &east, StrikeOracle)
            .permits_execution());
        assert!(full_stack()
            .check(&ctx(&tight, &[]), &east, StrikeOracle)
            .permits_execution());
    }

    #[test]
    fn mutable_subguard_access_invalidates_the_cache() {
        let mut stack = full_stack().with_cache();
        let s = schema().state(&[1.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        assert!(!stack
            .check(&ctx(&s, &[]), &strike, StrikeOracle)
            .permits_execution());
        assert!(!stack
            .check(&ctx(&s, &[]), &strike, StrikeOracle)
            .permits_execution());
        assert_eq!(stack.cache_stats(), Some((1, 1)));
        // Compromise the pre-action check through the mutable accessor: the
        // memoized denial must not survive.
        stack
            .preaction_mut()
            .unwrap()
            .set_tamper_status(crate::TamperStatus::Compromised);
        let v = stack.check(&ctx(&s, &[]), &strike, StrikeOracle);
        assert!(
            v.permits_execution(),
            "stale denial replayed after tampering: {v:?}"
        );
    }

    #[test]
    fn impure_stacks_bypass_the_cache() {
        use apdm_statespace::ExposureMonitor;
        // Exposure guards consume budget per allowed check; a cache would
        // replay "allow" forever. The stack must ignore the cache.
        let mut stack = GuardStack::new()
            .with_exposure(crate::ExposureGuard::new(vec![ExposureMonitor::new(
                VarId(0),
                10.0,
                6.0,
                1.0,
            )]))
            .with_cache();
        let s = schema().state(&[4.0]).unwrap();
        let loiter = Action::adjust("loiter", StateDelta::empty());
        assert!(stack
            .check(&ctx(&s, &[]), &loiter, StrikeOracle)
            .permits_execution());
        assert!(stack
            .check(&ctx(&s, &[]), &loiter, StrikeOracle)
            .permits_execution());
        assert!(!stack
            .check(&ctx(&s, &[]), &loiter, StrikeOracle)
            .permits_execution());
        assert_eq!(stack.cache_stats(), Some((0, 0)), "cache must stay cold");
    }

    #[test]
    fn no_cache_escape_hatch_drops_memoized_state() {
        let mut stack = full_stack().with_cache();
        let s = schema().state(&[1.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        let _ = stack.check(&ctx(&s, &[]), &strike, StrikeOracle);
        let _ = stack.check(&ctx(&s, &[]), &strike, StrikeOracle);
        assert_eq!(stack.cache_stats(), Some((1, 1)));
        stack.set_cache_enabled(false);
        assert_eq!(stack.cache_stats(), None);
        // Verdicts are unchanged without the cache.
        assert!(!stack
            .check(&ctx(&s, &[]), &strike, StrikeOracle)
            .permits_execution());
    }

    #[test]
    fn statecheck_only_stack_misses_direct_harm() {
        // Ablation insight (A1): without the pre-action check, a harmful
        // action with a good-state destination sails through.
        let mut stack = GuardStack::new().with_statecheck(StateSpaceGuard::new(
            RegionClassifier::new(Region::rect(&[(0.0, 5.0)])),
        ));
        let s = schema().state(&[1.0]).unwrap();
        let strike = Action::adjust("strike", Default::default());
        assert_eq!(
            stack.check(&ctx(&s, &[]), &strike, StrikeOracle),
            GuardVerdict::Allow
        );
    }
}
