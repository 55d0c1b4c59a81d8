use std::fmt;
use std::sync::Arc;

use apdm_policy::{Action, BreakGlassController, BreakGlassOutcome, Event};
use apdm_statespace::{Classifier, Label, PreferenceOntology, RiskEstimator, State};

use crate::tamper::{TamperStatus, Tamperable};
use crate::GuardVerdict;

/// Section VI.B's state-space check: "If the good states and bad states can
/// be identified properly, then the device can maintain a check which
/// prevents it from ever entering a bad state. If the device finds itself
/// entering into a bad state, it will not take the action that leads to that
/// state, simply choosing the option of taking no action ... or taking an
/// alternative action which puts it into a new state which is also good."
///
/// For forced dilemmas ("the only possibility ... is an action that would
/// place the device into another bad state") the guard consults, in order:
///
/// 1. a [`PreferenceOntology`] + optional [`RiskEstimator`] to select the
///    *less bad* destination;
/// 2. a [`BreakGlassController`] for audited emergency overrides.
///
/// With neither configured, forced dilemmas are denied (freeze in place).
pub struct StateSpaceGuard {
    classifier: Arc<dyn Classifier + Send + Sync>,
    ontology: Option<PreferenceOntology>,
    risk: Option<Arc<dyn RiskEstimator + Send + Sync>>,
    breakglass: Option<BreakGlassController>,
    tamper: TamperStatus,
}

impl StateSpaceGuard {
    /// A guard over a good/bad classifier.
    pub fn new(classifier: impl Classifier + Send + Sync + 'static) -> Self {
        StateSpaceGuard {
            classifier: Arc::new(classifier),
            ontology: None,
            risk: None,
            breakglass: None,
            tamper: TamperStatus::Proof,
        }
    }

    /// Attach a less-bad preference ontology (builder style).
    pub fn with_ontology(mut self, ontology: PreferenceOntology) -> Self {
        self.ontology = Some(ontology);
        self
    }

    /// Attach a risk estimator for tie-breaking (builder style).
    pub fn with_risk(mut self, risk: impl RiskEstimator + Send + Sync + 'static) -> Self {
        self.risk = Some(Arc::new(risk));
        self
    }

    /// Attach a break-glass controller (builder style).
    pub fn with_breakglass(mut self, controller: BreakGlassController) -> Self {
        self.breakglass = Some(controller);
        self
    }

    /// Set the tamper status (builder style; defaults to tamper-proof).
    pub fn with_tamper(mut self, status: TamperStatus) -> Self {
        self.tamper = status;
        self
    }

    /// Break-glass audit access, when configured.
    pub fn breakglass(&self) -> Option<&BreakGlassController> {
        self.breakglass.as_ref()
    }

    /// Evaluate a proposed action. `subject` names the device a break-glass
    /// grant is recorded against;
    /// `alternatives` are the other actions the device's logic could take
    /// this step, borrowed from wherever they live (the guard computes each
    /// candidate's destination from the action's delta and only clones the
    /// one it substitutes).
    pub fn check(
        &mut self,
        subject: &str,
        tick: u64,
        state: &State,
        proposed: &Action,
        alternatives: &[&Action],
    ) -> GuardVerdict {
        if !self.tamper.is_effective() {
            return GuardVerdict::Allow;
        }

        let next = state.apply(proposed.delta());
        if self.classifier.classify(&next) != Label::Bad {
            return GuardVerdict::Allow;
        }

        // Try an alternative action whose destination is not bad.
        for alt in alternatives {
            let dest = state.apply(alt.delta());
            if self.classifier.classify(&dest) != Label::Bad {
                return GuardVerdict::Replace {
                    action: (*alt).clone(),
                    reason: format!(
                        "state check: `{}` leads to a bad state; alternative `{}` is safe",
                        proposed.name(),
                        alt.name()
                    ),
                };
            }
        }

        // Staying put: admissible when the current state itself is not bad.
        if self.classifier.classify(state) != Label::Bad {
            return GuardVerdict::Deny {
                reason: format!(
                    "state check: `{}` leads to a bad state and no alternative is safe; staying put",
                    proposed.name()
                ),
            };
        }

        // Forced dilemma: every option (including here) is bad.
        if let Some(ontology) = &self.ontology {
            let mut candidates: Vec<(usize, State)> = vec![(usize::MAX, next.clone())];
            candidates.extend(
                alternatives
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (i, state.apply(a.delta()))),
            );
            let states: Vec<State> = candidates.iter().map(|(_, s)| s.clone()).collect();
            let chosen = match &self.risk {
                Some(risk) => {
                    let risk = Arc::clone(risk);
                    ontology.choose_less_bad_with_risk(&states, move |s| risk.risk(s))
                }
                None => ontology.choose_less_bad(&states),
            };
            if let Some(idx) = chosen {
                let (alt_idx, _) = candidates[idx];
                if alt_idx == usize::MAX {
                    return GuardVerdict::Allow; // the proposal *is* the less-bad option
                }
                return GuardVerdict::Replace {
                    action: (*alternatives[alt_idx]).clone(),
                    reason: "state check: forced dilemma; ontology chose the less-bad state"
                        .to_string(),
                };
            }
        }

        // Break-glass: audited emergency override.
        if let Some(bg) = &mut self.breakglass {
            match bg.attempt(subject, &Event::named("state-check-dilemma"), state, tick) {
                BreakGlassOutcome::Granted(action) => {
                    return GuardVerdict::Replace {
                        action,
                        reason: "state check: break-glass emergency override".to_string(),
                    };
                }
                BreakGlassOutcome::Exhausted | BreakGlassOutcome::NoEmergency => {}
            }
        }

        GuardVerdict::Deny {
            reason: format!(
                "state check: `{}` leads to a bad state with no admissible escape",
                proposed.name()
            ),
        }
    }
}

impl fmt::Debug for StateSpaceGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSpaceGuard")
            .field("ontology", &self.ontology.is_some())
            .field("risk", &self.risk.is_some())
            .field("breakglass", &self.breakglass.is_some())
            .field("tamper", &self.tamper)
            .finish()
    }
}

impl Tamperable for StateSpaceGuard {
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
    use apdm_policy::{BreakGlassRule, Condition};
    use apdm_statespace::{Region, RegionClassifier, StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder()
            .var("x", 0.0, 10.0)
            .var("y", 0.0, 10.0)
            .build()
    }

    /// Good box in the middle (Figure 3 layout).
    fn classifier() -> RegionClassifier {
        RegionClassifier::new(Region::rect(&[(3.0, 7.0), (3.0, 7.0)]))
    }

    fn step(dx: f64, dy: f64, name: &str) -> Action {
        Action::adjust(name, StateDelta::single(VarId(0), dx).and(VarId(1), dy))
    }

    fn deny(reason: &str) -> GuardVerdict {
        GuardVerdict::Deny {
            reason: reason.into(),
        }
    }

    fn replace(action: Action, reason: &str) -> GuardVerdict {
        GuardVerdict::Replace {
            action,
            reason: reason.into(),
        }
    }

    #[test]
    fn good_destination_is_allowed() {
        let mut g = StateSpaceGuard::new(classifier());
        let s = schema().state(&[5.0, 5.0]).unwrap();
        let v = g.check("d", 0, &s, &step(1.0, 0.0, "east"), &[]);
        assert_eq!(v, GuardVerdict::Allow);
    }

    #[test]
    fn bad_destination_without_alternatives_stays_put() {
        let mut g = StateSpaceGuard::new(classifier());
        let s = schema().state(&[6.5, 5.0]).unwrap();
        let v = g.check("d", 0, &s, &step(2.0, 0.0, "east"), &[]);
        assert_eq!(
            v,
            deny(
                "state check: `east` leads to a bad state and no alternative is safe; staying put"
            )
        );
    }

    #[test]
    fn safe_alternative_is_substituted() {
        let mut g = StateSpaceGuard::new(classifier());
        let s = schema().state(&[6.5, 5.0]).unwrap();
        let east = step(2.0, 0.0, "east");
        let west = step(-2.0, 0.0, "west");
        let v = g.check("d", 0, &s, &east, &[&east, &west]);
        assert_eq!(
            v,
            replace(
                west,
                "state check: `east` leads to a bad state; alternative `west` is safe"
            )
        );
    }

    #[test]
    fn forced_dilemma_without_ontology_is_denied() {
        let mut g = StateSpaceGuard::new(classifier());
        // Already in a bad state; every move stays bad.
        let s = schema().state(&[0.5, 0.5]).unwrap();
        let north = step(0.0, 0.1, "north");
        let v = g.check("d", 0, &s, &step(0.1, 0.0, "east"), &[&north]);
        assert_eq!(
            v,
            deny("state check: `east` leads to a bad state with no admissible escape")
        );
    }

    #[test]
    fn ontology_selects_less_bad_in_dilemma() {
        // Bad everywhere outside the box; the ontology prefers the "west
        // margin" class over everything else.
        let mut ont = PreferenceOntology::new();
        let west = ont.add_class("west-margin", Region::rect(&[(0.0, 3.0), (0.0, 10.0)]));
        let rest = ont.add_class("elsewhere", Region::All);
        ont.prefer(west, rest).unwrap();

        let mut g = StateSpaceGuard::new(classifier()).with_ontology(ont);
        let s = schema().state(&[0.5, 9.5]).unwrap(); // bad corner
        let into_west = step(0.0, -0.1, "south"); // stays in west margin: class west
        let out_east = step(9.0, 0.0, "east"); // jumps to the east side: class rest
        let v = g.check("d", 0, &s, &out_east, &[&into_west]);
        assert_eq!(
            v,
            replace(
                into_west,
                "state check: forced dilemma; ontology chose the less-bad state"
            )
        );
    }

    #[test]
    fn proposal_can_itself_be_the_less_bad_option() {
        let mut ont = PreferenceOntology::new();
        let west = ont.add_class("west-margin", Region::rect(&[(0.0, 3.0), (0.0, 10.0)]));
        let rest = ont.add_class("elsewhere", Region::All);
        ont.prefer(west, rest).unwrap();
        let mut g = StateSpaceGuard::new(classifier()).with_ontology(ont);
        let s = schema().state(&[0.5, 9.5]).unwrap();
        let stay_west = step(0.0, -0.1, "south");
        let go_east = step(9.0, 0.0, "east");
        // The proposal's destination is bad: only the ontology lets it pass.
        assert_eq!(
            classifier().classify(&s.apply(stay_west.delta())),
            Label::Bad
        );
        let v = g.check("d", 0, &s, &stay_west, &[&go_east]);
        assert_eq!(v, GuardVerdict::Allow);
        let mut plain = StateSpaceGuard::new(classifier());
        assert_eq!(
            plain.check("d", 0, &s, &stay_west, &[&go_east]),
            deny("state check: `south` leads to a bad state with no admissible escape")
        );
    }

    #[test]
    fn risk_breaks_ontology_ties() {
        // One class covering everything: ties everywhere; risk = x value.
        let mut ont = PreferenceOntology::new();
        ont.add_class("bad", Region::All);
        struct XRisk;
        impl RiskEstimator for XRisk {
            fn risk(&self, s: &State) -> f64 {
                s.values()[0]
            }
        }
        let mut g = StateSpaceGuard::new(classifier())
            .with_ontology(ont)
            .with_risk(XRisk);
        let s = schema().state(&[2.0, 0.5]).unwrap(); // bad (outside box)
        let riskier = step(3.0, 0.0, "east");
        let safer = step(-1.0, 0.0, "west");
        let v = g.check("d", 0, &s, &riskier, &[&safer]);
        assert_eq!(
            v,
            replace(
                safer,
                "state check: forced dilemma; ontology chose the less-bad state"
            )
        );
    }

    #[test]
    fn breakglass_grants_audited_escape() {
        let mut bg = BreakGlassController::new();
        bg.add_rule(BreakGlassRule::new(
            "escape",
            Condition::True,
            Action::adjust("emergency-teleport", StateDelta::single(VarId(0), 5.0)),
            1,
        ));
        let mut g = StateSpaceGuard::new(classifier()).with_breakglass(bg);
        let s = schema().state(&[0.5, 0.5]).unwrap();
        let v = g.check("drone-1", 9, &s, &step(0.1, 0.0, "east"), &[]);
        assert_eq!(
            v,
            replace(
                Action::adjust("emergency-teleport", StateDelta::single(VarId(0), 5.0)),
                "state check: break-glass emergency override"
            )
        );
        assert_eq!(g.breakglass().unwrap().audit().len(), 1);
        // Budget exhausted: second dilemma is denied.
        let v2 = g.check("drone-1", 10, &s, &step(0.1, 0.0, "east"), &[]);
        assert_eq!(
            v2,
            deny("state check: `east` leads to a bad state with no admissible escape")
        );
    }

    #[test]
    fn compromised_guard_is_a_passthrough() {
        let mut g = StateSpaceGuard::new(classifier()).with_tamper(TamperStatus::Compromised);
        let s = schema().state(&[6.5, 5.0]).unwrap();
        let east = step(2.0, 0.0, "east");
        assert_eq!(g.check("d", 0, &s, &east, &[]), GuardVerdict::Allow);
        // The intact guard denies the very same move.
        let mut intact = StateSpaceGuard::new(classifier());
        assert!(!intact.check("d", 0, &s, &east, &[]).permits_execution());
    }

    #[test]
    fn neutral_destinations_are_permitted() {
        let good = Region::rect(&[(3.0, 7.0), (3.0, 7.0)]);
        let bad = Region::rect(&[(9.0, 10.0), (0.0, 10.0)]);
        let c = RegionClassifier::with_regions(good, bad);
        let mut g = StateSpaceGuard::new(c);
        let s = schema().state(&[7.0, 5.0]).unwrap();
        // Move to (8, 5): neither good nor bad -> allowed.
        let v = g.check("d", 0, &s, &step(1.0, 0.0, "east"), &[]);
        assert_eq!(v, GuardVerdict::Allow);
    }
}
