use std::fmt;

use apdm_policy::obligation::ObligationCatalog;
use apdm_policy::Action;
use apdm_statespace::State;

use crate::tamper::{TamperStatus, Tamperable};
use crate::GuardVerdict;

/// The guard's window onto harm: an oracle answering "would this action harm
/// a human?".
///
/// In the full system the oracle is backed by the device's (possibly
/// deceived) perception of the world — the paper is explicit that pre-action
/// checks can only be as good as the device's predictions: "if the action
/// causes indirect harm to a human, the pre-action check may fail in some
/// cases to catch that ... the machine does not anticipate a human to come on
/// the path".
pub trait HarmOracle {
    /// Would executing `action` in `state` *directly* harm a human right now?
    fn direct_harm(&self, state: &State, action: &Action) -> bool;

    /// Might the action lead to harm within `horizon` future ticks (indirect
    /// harm)? The default answers `false`: a device with no predictive model
    /// cannot foresee indirect harm — exactly the dig-a-hole failure mode.
    fn indirect_harm(&self, _state: &State, _action: &Action, _horizon: u32) -> bool {
        false
    }

    /// Does the action create a lingering hazard (a hole, a fire risk) that
    /// obligations should mitigate even when no harm is predicted? Defaults
    /// to "physical actions are hazards", the conservative reading.
    fn creates_hazard(&self, _state: &State, action: &Action) -> bool {
        action.is_physical()
    }
}

impl<O: HarmOracle + ?Sized> HarmOracle for &O {
    fn direct_harm(&self, state: &State, action: &Action) -> bool {
        (**self).direct_harm(state, action)
    }
    fn indirect_harm(&self, state: &State, action: &Action, horizon: u32) -> bool {
        (**self).indirect_harm(state, action, horizon)
    }
    fn creates_hazard(&self, state: &State, action: &Action) -> bool {
        (**self).creates_hazard(state, action)
    }
}

/// An oracle that never predicts harm — the no-guard baseline in experiment
/// E1 and a useful stub in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHarmOracle;

impl HarmOracle for NoHarmOracle {
    fn direct_harm(&self, _state: &State, _action: &Action) -> bool {
        false
    }
    fn creates_hazard(&self, _state: &State, _action: &Action) -> bool {
        false
    }
}

/// Section VI.A's pre-action check: "one approach is for each device to
/// incorporate a check before taking any action (i.e., activating any
/// actuator) that the action will not harm a human."
///
/// Configuration:
///
/// * `lookahead` — how many ticks of indirect-harm prediction to request
///   (0 = direct harm only, the basic check);
/// * `obligations` — a catalog from which to attach mitigations to
///   hazard-creating actions (the paper's extension for indirect harm).
///
/// # Example
///
/// ```
/// use apdm_guards::{HarmOracle, PreActionCheck};
/// use apdm_policy::Action;
/// use apdm_statespace::{State, StateSchema};
///
/// struct BladeOracle;
/// impl HarmOracle for BladeOracle {
///     fn direct_harm(&self, _state: &State, action: &Action) -> bool {
///         action.name() == "spin-blades"
///     }
/// }
///
/// let guard = PreActionCheck::new();
/// let schema = StateSchema::builder().var("x", 0.0, 1.0).build();
/// let state = schema.state(&[0.0]).unwrap();
/// let verdict = guard.check(&state, &Action::adjust("spin-blades", Default::default()), &BladeOracle);
/// assert!(!verdict.permits_execution());
/// ```
#[derive(Debug, Clone)]
pub struct PreActionCheck {
    lookahead: u32,
    obligations: Option<ObligationCatalog>,
    tamper: TamperStatus,
}

impl PreActionCheck {
    /// A direct-harm-only check (lookahead 0, no obligations).
    pub fn new() -> Self {
        PreActionCheck {
            lookahead: 0,
            obligations: None,
            tamper: TamperStatus::Proof,
        }
    }

    /// Enable indirect-harm prediction over `horizon` ticks (builder style).
    pub fn with_lookahead(mut self, horizon: u32) -> Self {
        self.lookahead = horizon;
        self
    }

    /// Attach an obligation catalog for hazard mitigation (builder style).
    pub fn with_obligations(mut self, catalog: ObligationCatalog) -> Self {
        self.obligations = Some(catalog);
        self
    }

    /// Set the tamper status (builder style; defaults to tamper-proof).
    pub fn with_tamper(mut self, status: TamperStatus) -> Self {
        self.tamper = status;
        self
    }

    /// Evaluate a proposed action against the harm oracle.
    pub fn check<O: HarmOracle>(&self, state: &State, action: &Action, oracle: O) -> GuardVerdict {
        if !self.tamper.is_effective() {
            return GuardVerdict::Allow;
        }
        if oracle.direct_harm(state, action) {
            return GuardVerdict::Deny {
                reason: format!(
                    "pre-action check: `{}` would directly harm a human",
                    action.name()
                ),
            };
        }
        if self.lookahead > 0 && oracle.indirect_harm(state, action, self.lookahead) {
            return GuardVerdict::Deny {
                reason: format!(
                    "pre-action check: `{}` predicted to cause harm within {} ticks",
                    action.name(),
                    self.lookahead
                ),
            };
        }
        if let Some(catalog) = &self.obligations {
            if oracle.creates_hazard(state, action) {
                let obligations: Vec<_> = catalog
                    .relevant(action.name())
                    .into_iter()
                    .cloned()
                    .collect();
                if !obligations.is_empty() {
                    return GuardVerdict::AllowWithObligations(obligations);
                }
            }
        }
        GuardVerdict::Allow
    }
}

impl Default for PreActionCheck {
    fn default() -> Self {
        PreActionCheck::new()
    }
}

impl fmt::Display for PreActionCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pre-action check (lookahead {}, {} obligations, {})",
            self.lookahead,
            self.obligations.as_ref().map(|c| c.len()).unwrap_or(0),
            self.tamper
        )
    }
}

impl Tamperable for PreActionCheck {
    fn tamper_status(&self) -> TamperStatus {
        self.tamper
    }
    fn set_tamper_status(&mut self, status: TamperStatus) {
        self.tamper = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_policy::Obligation;
    use apdm_statespace::StateSchema;

    /// Oracle for the paper's dig-a-hole scenario: digging never *directly*
    /// harms (no human is standing in the hole), but is predicted to harm
    /// within `arrives_in` ticks because a human walks the path.
    struct HoleOracle {
        arrives_in: u32,
    }

    impl HarmOracle for HoleOracle {
        fn direct_harm(&self, _state: &State, action: &Action) -> bool {
            action.name() == "run-over-human"
        }
        fn indirect_harm(&self, _state: &State, action: &Action, horizon: u32) -> bool {
            action.name() == "dig-hole" && horizon >= self.arrives_in
        }
        fn creates_hazard(&self, _state: &State, action: &Action) -> bool {
            action.name() == "dig-hole"
        }
    }

    fn state() -> State {
        StateSchema::builder()
            .var("x", 0.0, 1.0)
            .build()
            .state(&[0.0])
            .unwrap()
    }

    fn dig() -> Action {
        Action::adjust("dig-hole", Default::default()).physical()
    }

    #[test]
    fn direct_harm_is_always_denied() {
        let g = PreActionCheck::new();
        let v = g.check(
            &state(),
            &Action::adjust("run-over-human", Default::default()),
            &HoleOracle { arrives_in: 5 },
        );
        assert_eq!(
            v,
            GuardVerdict::Deny {
                reason: "pre-action check: `run-over-human` would directly harm a human".into()
            }
        );
    }

    #[test]
    fn indirect_harm_passes_the_basic_check() {
        // The paper's point: without lookahead, digging the hole is allowed
        // and the human later falls in.
        let g = PreActionCheck::new();
        let v = g.check(&state(), &dig(), &HoleOracle { arrives_in: 5 });
        assert_eq!(v, GuardVerdict::Allow);
    }

    #[test]
    fn lookahead_catches_indirect_harm() {
        let g = PreActionCheck::new().with_lookahead(10);
        let v = g.check(&state(), &dig(), &HoleOracle { arrives_in: 5 });
        assert!(!v.permits_execution());
    }

    #[test]
    fn short_lookahead_misses_late_arrivals() {
        let g = PreActionCheck::new().with_lookahead(3);
        let v = g.check(&state(), &dig(), &HoleOracle { arrives_in: 5 });
        assert_eq!(
            v,
            GuardVerdict::Allow,
            "the human arrives beyond the horizon"
        );
    }

    #[test]
    fn obligations_attach_to_hazardous_actions() {
        let mut catalog = ObligationCatalog::new();
        catalog.register(
            "dig-hole",
            Obligation::after(Action::adjust("post-warning-sign", Default::default()), 2),
        );
        let g = PreActionCheck::new().with_obligations(catalog);
        let v = g.check(&state(), &dig(), &HoleOracle { arrives_in: 5 });
        assert_eq!(v.obligations().len(), 1);
        assert!(v.permits_execution());
    }

    #[test]
    fn no_obligations_for_unlisted_actions() {
        let catalog = ObligationCatalog::new();
        let g = PreActionCheck::new().with_obligations(catalog);
        let v = g.check(&state(), &dig(), &HoleOracle { arrives_in: 5 });
        assert_eq!(v, GuardVerdict::Allow);
    }

    #[test]
    fn compromised_guard_waves_harm_through() {
        let g = PreActionCheck::new().with_tamper(TamperStatus::Compromised);
        let v = g.check(
            &state(),
            &Action::adjust("run-over-human", Default::default()),
            &HoleOracle { arrives_in: 5 },
        );
        assert_eq!(v, GuardVerdict::Allow);
    }

    #[test]
    fn no_harm_oracle_allows_everything() {
        let g = PreActionCheck::new().with_lookahead(100);
        let v = g.check(&state(), &dig(), NoHarmOracle);
        assert_eq!(v, GuardVerdict::Allow);
    }
}
