//! Cumulative-exposure guarding: refusing actions whose *trajectory* effect
//! is bad even when every individual state is good.
//!
//! Section V: "others may be dangerous in that they lead to sequences of
//! states with some cumulative effects that are undesirable." The per-state
//! checks of Section VI.B cannot see these; [`ExposureGuard`] closes the gap
//! by tracking [`ExposureMonitor`](apdm_statespace::ExposureMonitor)s along
//! the device's actual trajectory and denying actions that would blow a
//! budget.

use std::fmt;

use apdm_policy::Action;
use apdm_statespace::{ExposureMonitor, Label, State};

use crate::tamper::{TamperStatus, Tamperable};
use crate::GuardVerdict;

/// A guard over one or more cumulative-exposure budgets.
///
/// Usage protocol: [`check`](ExposureGuard::check) the proposed action; when
/// the stack ultimately permits an action, [`commit`](ExposureGuard::commit)
/// the destination state so the monitors advance along the *executed*
/// trajectory (denied proposals must not consume budget).
///
/// # Example
///
/// ```
/// use apdm_guards::ExposureGuard;
/// use apdm_policy::Action;
/// use apdm_statespace::{ExposureMonitor, StateDelta, StateSchema};
///
/// let schema = StateSchema::builder().var("dose", 0.0, 10.0).build();
/// let mut guard = ExposureGuard::new(vec![ExposureMonitor::new(
///     0.into(),
///     10.0, // budget
///     6.0,  // warn
///     1.0,  // no decay
/// )]);
/// let state = schema.state(&[4.0]).unwrap();
/// let stay = Action::adjust("loiter", StateDelta::empty());
/// // Two ticks of loitering at dose 4 are fine; the third would exceed 10.
/// assert!(guard.check("d", &state, &stay).permits_execution());
/// guard.commit(&state);
/// assert!(guard.check("d", &state, &stay).permits_execution());
/// guard.commit(&state);
/// assert!(!guard.check("d", &state, &stay).permits_execution());
/// ```
pub struct ExposureGuard {
    monitors: Vec<ExposureMonitor>,
    tamper: TamperStatus,
}

impl ExposureGuard {
    /// A guard over the given monitors.
    pub fn new(monitors: Vec<ExposureMonitor>) -> Self {
        ExposureGuard {
            monitors,
            tamper: TamperStatus::Proof,
        }
    }

    /// Set the tamper status (builder style).
    pub fn with_tamper(mut self, status: TamperStatus) -> Self {
        self.tamper = status;
        self
    }

    /// The monitors.
    pub fn monitors(&self) -> &[ExposureMonitor] {
        &self.monitors
    }

    /// Would executing `action` from `state` blow any budget? Denies when a
    /// monitor's peek at the destination is bad.
    pub fn check(&self, subject: &str, state: &State, action: &Action) -> GuardVerdict {
        if !self.tamper.is_effective() {
            return GuardVerdict::Allow;
        }
        let destination = state.apply(action.delta());
        for monitor in &self.monitors {
            if monitor.peek(&destination) == Label::Bad {
                return GuardVerdict::Deny {
                    reason: format!(
                        "exposure guard: `{}` would exhaust the {} budget for {subject}",
                        action.name(),
                        monitor.var()
                    ),
                };
            }
        }
        GuardVerdict::Allow
    }

    /// Advance every monitor one tick along the executed trajectory.
    pub fn commit(&mut self, destination: &State) {
        for monitor in &mut self.monitors {
            monitor.observe(destination);
        }
    }

    /// Reset all budgets (maintenance event).
    pub fn reset(&mut self) {
        for monitor in &mut self.monitors {
            monitor.reset();
        }
    }
}

impl fmt::Debug for ExposureGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExposureGuard")
            .field("monitors", &self.monitors.len())
            .field("tamper", &self.tamper)
            .finish()
    }
}

impl Tamperable for ExposureGuard {
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
    use apdm_statespace::{StateDelta, StateSchema, VarId};

    fn schema() -> StateSchema {
        StateSchema::builder().var("dose", 0.0, 10.0).build()
    }

    fn guard(budget: f64) -> ExposureGuard {
        ExposureGuard::new(vec![ExposureMonitor::new(
            VarId(0),
            budget,
            budget * 0.6,
            1.0,
        )])
    }

    fn loiter() -> Action {
        Action::adjust("loiter", StateDelta::empty())
    }

    #[test]
    fn budget_is_consumed_only_by_commits() {
        let mut g = guard(10.0);
        let s = schema().state(&[4.0]).unwrap();
        // Many checks without commits never consume budget.
        let mut verdicts: Vec<GuardVerdict> =
            (0..10).map(|_| g.check("d", &s, &loiter())).collect();
        assert_eq!(g.monitors()[0].accumulated(), 0.0);
        g.commit(&s);
        g.commit(&s);
        // 8 accumulated; one more tick at 4 would hit 12 > 10.
        verdicts.push(g.check("d", &s, &loiter()));
        let denials = verdicts.iter().filter(|v| !v.permits_execution()).count();
        assert_eq!((verdicts.len(), denials), (11, 1));
        assert!(!verdicts[10].permits_execution());
    }

    #[test]
    fn moving_to_low_exposure_is_allowed() {
        let mut g = guard(10.0);
        let hot = schema().state(&[4.0]).unwrap();
        g.commit(&hot);
        g.commit(&hot);
        // Retreat to dose 1: destination exposure 8 + 1 = 9 <= 10.
        let retreat = Action::adjust("retreat", StateDelta::single(VarId(0), -3.0));
        assert!(g.check("d", &hot, &retreat).permits_execution());
    }

    #[test]
    fn individually_good_states_blocked_on_cumulative_grounds() {
        // Per-state nothing is wrong with dose 4; the guard still refuses
        // the step that would blow the trajectory budget.
        let mut g = guard(10.0);
        let s = schema().state(&[4.0]).unwrap();
        for _ in 0..2 {
            assert!(g.check("d", &s, &loiter()).permits_execution());
            g.commit(&s);
        }
        let v = g.check("d", &s, &loiter());
        assert!(!v.permits_execution());
        match v {
            GuardVerdict::Deny { reason } => assert!(reason.contains("budget")),
            other => panic!("expected denial, got {other:?}"),
        }
    }

    #[test]
    fn reset_restores_operation() {
        let mut g = guard(5.0);
        let s = schema().state(&[4.0]).unwrap();
        g.commit(&s);
        assert!(!g.check("d", &s, &loiter()).permits_execution());
        g.reset();
        assert!(g.check("d", &s, &loiter()).permits_execution());
    }

    #[test]
    fn compromised_guard_ignores_budgets() {
        let mut g = guard(5.0).with_tamper(TamperStatus::Compromised);
        let s = schema().state(&[10.0]).unwrap();
        g.commit(&s);
        g.commit(&s);
        assert!(g.check("d", &s, &loiter()).permits_execution());
    }
}
