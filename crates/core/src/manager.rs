use apdm_device::Device;
use apdm_governance::TripartiteGovernor;
use apdm_guards::{GuardContext, GuardStack, GuardVerdict, HarmOracle};
use apdm_policy::{Action, AuditKind, AuditLog, Event};

use crate::SafetyKernel;

/// What one autonomic step did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The action that executed, if any.
    pub executed: Option<Action>,
    /// Whether the device's logic proposed anything at all.
    pub proposed: bool,
    /// Whether governance vetoed the proposal.
    pub governance_blocked: bool,
    /// Whether a guard denied or substituted the proposal.
    pub guard_intervened: bool,
}

/// One device's complete autonomic control loop under the safety kernel.
///
/// The manager wires the paper's layers in their Section-VI order around the
/// device's propose/apply seam:
///
/// ```text
/// event -> logic proposes -> governance (VI.E) -> guard stack (VI.A, VI.B)
///       -> actuate -> obligations
/// ```
///
/// Governance runs *before* the per-device guards: meta-policy scope is a
/// fleet-level judgment about what this collective may do at all, while the
/// guards judge the concrete physical situation.
#[derive(Debug)]
pub struct AutonomicManager {
    device: Device,
    stack: GuardStack,
    governor: Option<TripartiteGovernor>,
    audit: AuditLog,
}

impl AutonomicManager {
    /// Wrap a device with guards minted from `kernel`.
    pub fn new(device: Device, kernel: &SafetyKernel) -> Self {
        AutonomicManager {
            device,
            stack: kernel.stack(),
            governor: kernel.governor(),
            audit: AuditLog::new(),
        }
    }

    /// The managed device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable device access (sensing, policy installation).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// The manager's guard stack.
    pub fn stack(&self) -> &GuardStack {
        &self.stack
    }

    /// The manager's governor, when governance is configured.
    pub fn governor(&self) -> Option<&TripartiteGovernor> {
        self.governor.as_ref()
    }

    /// The manager's audit trail: one `GuardIntervention` entry per
    /// governance veto and per guard Deny/Replace, carrying the veto or the
    /// verdict's reason. The guard stack keeps no record of its own, so this
    /// log is where an intervention on this path is audited.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Run one full autonomic step for `event`.
    pub fn handle<O: HarmOracle + Copy>(
        &mut self,
        event: &Event,
        oracle: O,
        tick: u64,
    ) -> StepOutcome {
        let mut outcome = StepOutcome {
            executed: None,
            proposed: false,
            governance_blocked: false,
            guard_intervened: false,
        };
        let Some(decision) = self.device.propose(event) else {
            return outcome;
        };
        outcome.proposed = true;
        let subject = self.device.id().to_string();

        // VI.E: scope governance.
        if let Some(governor) = &mut self.governor {
            let verdict = governor.decide(&subject, self.device.state(), decision.action(), tick);
            if !verdict.approved {
                outcome.governance_blocked = true;
                self.audit.record(
                    tick,
                    &subject,
                    AuditKind::GuardIntervention,
                    format!("governance vetoed `{}`", decision.action().name()),
                );
                return outcome;
            }
        }

        // VI.A + VI.B: the per-device guard stack.
        let alternatives: Vec<&Action> = decision.matched()[1..]
            .iter()
            .filter_map(|&rid| self.device.engine().rule(rid))
            .map(|r| r.action())
            .collect();
        let ctx = GuardContext {
            tick,
            subject: &subject,
            state: self.device.state(),
            alternatives: &alternatives,
            world_token: 0,
        };
        let verdict = self.stack.check(&ctx, decision.action(), oracle);
        outcome.guard_intervened = verdict.intervened();
        if let GuardVerdict::Deny { reason } | GuardVerdict::Replace { reason, .. } = &verdict {
            self.audit
                .record(tick, &subject, AuditKind::GuardIntervention, reason);
        }

        if let Some(action) = verdict.effective_action(decision.action()) {
            let action = action.clone();
            for ob in decision.obligations().iter().chain(verdict.obligations()) {
                self.device.obligations_mut().incur(ob.clone(), tick);
            }
            self.device.apply(&action);
            outcome.executed = Some(action);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafetyConfig;
    use apdm_device::{Actuator, DeviceKind, OrgId};
    use apdm_governance::MetaPolicy;
    use apdm_guards::NoHarmOracle;
    use apdm_policy::{Condition, EcaRule};
    use apdm_statespace::{Region, State, StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder().var("speed", 0.0, 10.0).build()
    }

    fn racer(rule_delta: f64) -> Device {
        Device::builder(1u64, DeviceKind::new("mule"), OrgId::new("us"))
            .schema(schema())
            .actuator(Actuator::new("throttle", VarId(0), 10.0))
            .rule(EcaRule::new(
                "accelerate",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust("throttle", StateDelta::single(VarId(0), rule_delta)),
            ))
            .build()
    }

    #[test]
    fn unguarded_manager_just_executes() {
        let kernel = SafetyKernel::new(SafetyConfig::unguarded());
        let mut m = AutonomicManager::new(racer(9.0), &kernel);
        let out = m.handle(&Event::named("tick"), NoHarmOracle, 1);
        assert!(out.executed.is_some());
        assert!(!out.guard_intervened);
        assert_eq!(m.device().state().values()[0], 9.0);
    }

    #[test]
    fn statecheck_stops_the_racer() {
        let kernel =
            SafetyKernel::new(SafetyConfig::paper_recommended(Region::rect(&[(0.0, 7.0)])));
        let mut m = AutonomicManager::new(racer(9.0), &kernel);
        let out = m.handle(&Event::named("tick"), NoHarmOracle, 1);
        assert!(out.executed.is_none());
        assert!(out.guard_intervened);
        assert_eq!(m.device().state().values()[0], 0.0);
    }

    #[test]
    fn small_steps_inside_good_region_flow() {
        let kernel =
            SafetyKernel::new(SafetyConfig::paper_recommended(Region::rect(&[(0.0, 7.0)])));
        let mut m = AutonomicManager::new(racer(1.0), &kernel);
        for t in 1..=5 {
            let out = m.handle(&Event::named("tick"), NoHarmOracle, t);
            assert!(out.executed.is_some(), "tick {t} should execute");
        }
        assert_eq!(m.device().state().values()[0], 5.0);
        // The 8th step would cross into the bad region and is stopped.
        for t in 6..=10 {
            m.handle(&Event::named("tick"), NoHarmOracle, t);
        }
        assert!(m.device().state().values()[0] <= 7.0);
    }

    #[test]
    fn governance_veto_precedes_guards() {
        let kernel = SafetyKernel::new(
            SafetyConfig::paper_recommended(Region::All)
                .with_scope(MetaPolicy::new().forbid_action("throttle")),
        );
        let mut m = AutonomicManager::new(racer(1.0), &kernel);
        let out = m.handle(&Event::named("tick"), NoHarmOracle, 1);
        assert!(out.governance_blocked);
        assert!(out.executed.is_none());
        assert_eq!(m.audit().count(AuditKind::GuardIntervention), 1);
    }

    #[test]
    fn guard_interventions_are_audited_with_their_reasons() {
        // The quickstart mule: +3 a tick inside a good region of [0, 7]. The
        // third acceleration would reach 9, so it and every later one are
        // stopped, and each stop is one entry carrying the verdict's reason.
        let kernel =
            SafetyKernel::new(SafetyConfig::paper_recommended(Region::rect(&[(0.0, 7.0)])));
        let mut m = AutonomicManager::new(racer(3.0), &kernel);
        let stopped: Vec<u64> = (1..=5)
            .filter(|&t| {
                m.handle(&Event::named("tick"), NoHarmOracle, t)
                    .guard_intervened
            })
            .collect();
        assert_eq!(stopped, [3, 4, 5]);
        assert_eq!(m.device().state().values()[0], 6.0);

        let entries = m.audit().entries();
        assert_eq!(entries.len(), 3);
        for (entry, tick) in entries.iter().zip(stopped) {
            assert_eq!(entry.tick, tick);
            assert_eq!(entry.subject, m.device().id().to_string());
            assert_eq!(entry.kind, AuditKind::GuardIntervention);
            assert_eq!(
                entry.detail,
                "state check: `throttle` leads to a bad state and no alternative is safe; \
                 staying put"
            );
        }
    }

    #[test]
    fn preaction_check_blocks_harmful_actions() {
        #[derive(Clone, Copy)]
        struct ThrottleHarms;
        impl HarmOracle for ThrottleHarms {
            fn direct_harm(&self, _s: &State, a: &Action) -> bool {
                a.name() == "throttle"
            }
        }
        let kernel = SafetyKernel::new(SafetyConfig::paper_recommended(Region::All));
        let mut m = AutonomicManager::new(racer(1.0), &kernel);
        let out = m.handle(&Event::named("tick"), ThrottleHarms, 1);
        assert!(out.executed.is_none());
        assert!(out.guard_intervened);
    }

    #[test]
    fn no_matching_rule_is_a_quiet_step() {
        let kernel = SafetyKernel::new(SafetyConfig::unguarded());
        let mut m = AutonomicManager::new(racer(1.0), &kernel);
        let out = m.handle(&Event::named("unknown"), NoHarmOracle, 1);
        assert!(!out.proposed);
        assert!(out.executed.is_none());
    }
}
