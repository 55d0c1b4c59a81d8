use std::fmt;

use apdm_policy::{Action, Obligation};
use serde::{Deserialize, Serialize};

/// The outcome of a guard evaluating a proposed action.
///
/// Serializable so a decision travels over the wire with its verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GuardVerdict {
    /// Execute the action as proposed.
    Allow,
    /// Execute, but the listed obligations are incurred alongside it
    /// (Section VI.A's extension for indirect harm).
    AllowWithObligations(Vec<Obligation>),
    /// Refuse the action; the device takes no action this step (Section
    /// VI.B: "simply choosing the option of taking no action").
    Deny {
        /// Why the guard refused.
        reason: String,
    },
    /// Execute `action` instead of the proposal (an alternative good-state
    /// action, a less-bad choice, or a break-glass override).
    Replace {
        /// The substituted action.
        action: Action,
        /// Why the substitution happened.
        reason: String,
    },
}

impl GuardVerdict {
    /// Append the verdict's stable tag, as ledgers and reports spell it:
    /// `allow`, `allow+obligations`, `deny`, or `replace:<substitute>`.
    /// Writing into a caller's buffer lets a recorder intern the tag
    /// without allocating one per verdict.
    pub fn write_name(&self, out: &mut String) {
        match self {
            GuardVerdict::Allow => out.push_str("allow"),
            GuardVerdict::AllowWithObligations(_) => out.push_str("allow+obligations"),
            GuardVerdict::Deny { .. } => out.push_str("deny"),
            GuardVerdict::Replace { action, .. } => {
                out.push_str("replace:");
                out.push_str(action.name());
            }
        }
    }

    /// Does the verdict let *some* action execute (the proposal or a
    /// replacement)?
    pub fn permits_execution(&self) -> bool {
        !matches!(self, GuardVerdict::Deny { .. })
    }

    /// The action that will actually execute under this verdict, given the
    /// original proposal; `None` for denials.
    pub fn effective_action<'a>(&'a self, proposed: &'a Action) -> Option<&'a Action> {
        match self {
            GuardVerdict::Allow | GuardVerdict::AllowWithObligations(_) => Some(proposed),
            GuardVerdict::Replace { action, .. } => Some(action),
            GuardVerdict::Deny { .. } => None,
        }
    }

    /// Obligations incurred by this verdict.
    pub fn obligations(&self) -> &[Obligation] {
        match self {
            GuardVerdict::AllowWithObligations(obs) => obs,
            _ => &[],
        }
    }

    /// Did the guard intervene (anything but a plain allow)?
    pub fn intervened(&self) -> bool {
        !matches!(self, GuardVerdict::Allow)
    }
}

impl fmt::Display for GuardVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardVerdict::Allow => write!(f, "allow"),
            GuardVerdict::AllowWithObligations(obs) => {
                write!(f, "allow with {} obligations", obs.len())
            }
            GuardVerdict::Deny { reason } => write!(f, "deny: {reason}"),
            GuardVerdict::Replace { action, reason } => {
                write!(f, "replace with {action}: {reason}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_permits_the_proposal() {
        let proposed = Action::noop();
        let v = GuardVerdict::Allow;
        assert!(v.permits_execution());
        assert!(!v.intervened());
        assert_eq!(v.effective_action(&proposed), Some(&proposed));
        assert!(v.obligations().is_empty());
    }

    #[test]
    fn deny_permits_nothing() {
        let v = GuardVerdict::Deny {
            reason: "bad state".into(),
        };
        assert!(!v.permits_execution());
        assert!(v.intervened());
        assert_eq!(v.effective_action(&Action::noop()), None);
    }

    #[test]
    fn replace_substitutes_the_action() {
        let alt = Action::adjust("retreat", Default::default());
        let v = GuardVerdict::Replace {
            action: alt.clone(),
            reason: "less bad".into(),
        };
        assert!(v.permits_execution());
        assert!(v.intervened());
        assert_eq!(v.effective_action(&Action::noop()), Some(&alt));
    }

    #[test]
    fn obligations_surface_from_allow_with() {
        let ob = Obligation::during(Action::adjust("warn", Default::default()));
        let v = GuardVerdict::AllowWithObligations(vec![ob.clone()]);
        assert_eq!(v.obligations(), &[ob]);
        assert!(v.intervened());
    }

    #[test]
    fn display_forms() {
        assert_eq!(GuardVerdict::Allow.to_string(), "allow");
        assert!(GuardVerdict::Deny { reason: "x".into() }
            .to_string()
            .contains("deny"));
    }
}
