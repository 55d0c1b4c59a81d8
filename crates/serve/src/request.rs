//! The request/decision vocabulary of the serving layer.

use apdm_guards::GuardVerdict;
use apdm_policy::Action;
use apdm_statespace::State;
use apdm_telemetry::TraceContext;
use serde::{Deserialize, Serialize};

/// Identifies a tenant: one operator organization multiplexed onto a shared
/// decision service, with its own quota and fairness lane.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One policy decision request: a device's perceived state plus a proposed
/// action (and the alternatives its logic could take instead), to be ruled
/// on by the guard stack before anything executes. This is the unit the
/// serving layer queues, batches and shards.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRequest {
    /// Caller-assigned request id, echoed on the [`Decision`].
    pub id: u64,
    /// The tenant this request is billed to.
    pub tenant: TenantId,
    /// Subject device; also the shard key (`device % shards`).
    pub device: u64,
    /// The device's current (perceived) state.
    pub state: State,
    /// The action the device proposes to take.
    pub proposed: Action,
    /// Alternative actions the device's logic could take this step.
    pub alternatives: Vec<Action>,
    /// Tick at which the request entered the service.
    pub submitted_at: u64,
    /// Absolute tick after which the answer is useless to the caller; the
    /// service sheds (denies) the request rather than serving it late.
    /// `None` = never expires.
    pub deadline: Option<u64>,
    /// Causal trace context of the request. The service advances it through
    /// each pipeline stage (admit → batch → shard → ledger) and hands the
    /// final hop back on the [`Decision`], so a caller can keep the chain
    /// going (e.g. into a traced response). `None` = untraced.
    pub ctx: Option<TraceContext>,
}

impl DecisionRequest {
    /// Has this request's deadline passed at tick `now`?
    pub fn expired(&self, now: u64) -> bool {
        self.deadline.is_some_and(|d| d < now)
    }

    /// Does the state hold one component per schema variable? A
    /// deserialized [`State`] is not checked on arrival, and a guard
    /// evaluating one with a component missing would index past its
    /// values.
    pub fn state_fits_schema(&self) -> bool {
        self.state.values().len() == self.state.schema().len()
    }
}

/// Why the service refused to evaluate a request. Every shed resolves to a
/// [`GuardVerdict::Deny`] — the service fails closed under overload, never
/// silently open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The global admission queue was at capacity.
    Capacity,
    /// The tenant was over its pending-request quota.
    Quota,
    /// The request's deadline expired while it waited in the queue.
    Deadline,
}

impl ShedReason {
    /// Stable lowercase tag for ledgers and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::Capacity => "capacity",
            ShedReason::Quota => "quota",
            ShedReason::Deadline => "deadline",
        }
    }
}

/// The service's answer to one [`DecisionRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The request this answers.
    pub request_id: u64,
    /// Billed tenant.
    pub tenant: TenantId,
    /// Subject device.
    pub device: u64,
    /// Name of the proposed action the verdict concerns.
    pub action: String,
    /// The guard verdict (always a `Deny` when `shed` is set).
    pub verdict: GuardVerdict,
    /// Set when the service refused to evaluate the request; the verdict is
    /// then the fail-closed denial, not a guard ruling.
    pub shed: Option<ShedReason>,
    /// Tick the request entered the service.
    pub submitted_at: u64,
    /// Tick the decision was rendered.
    pub decided_at: u64,
    /// The last pipeline-stage span of the request's trace (the ledger
    /// append for evaluated decisions, the shed event for sheds). `None`
    /// when the request was untraced.
    pub ctx: Option<TraceContext>,
}

impl Decision {
    /// The fail-closed constructor: shedding a request *is* denying it.
    /// There is no code path that sheds without denying — overload can only
    /// make the service more conservative, never less (the paper's safety
    /// bias, applied to the serving layer).
    pub(crate) fn shed(req: &DecisionRequest, reason: ShedReason, now: u64) -> Self {
        Decision {
            request_id: req.id,
            tenant: req.tenant,
            device: req.device,
            action: req.proposed.name().to_string(),
            verdict: GuardVerdict::Deny {
                reason: format!("shed:{}", reason.name()),
            },
            shed: Some(reason),
            submitted_at: req.submitted_at,
            decided_at: now,
            ctx: req.ctx,
        }
    }

    /// The fail-closed answer to a request whose state does not fit its
    /// schema: denied unevaluated. Not a shed — no load caused it.
    pub(crate) fn bad_state(req: &DecisionRequest, now: u64) -> Self {
        Decision {
            request_id: req.id,
            tenant: req.tenant,
            device: req.device,
            action: req.proposed.name().to_string(),
            verdict: GuardVerdict::Deny {
                reason: "serve:reject:bad-state".to_string(),
            },
            shed: None,
            submitted_at: req.submitted_at,
            decided_at: now,
            ctx: req.ctx,
        }
    }

    /// A decision rendered by actually running the guard stack.
    pub(crate) fn evaluated(req: &DecisionRequest, verdict: GuardVerdict, now: u64) -> Self {
        Decision {
            request_id: req.id,
            tenant: req.tenant,
            device: req.device,
            action: req.proposed.name().to_string(),
            verdict,
            shed: None,
            submitted_at: req.submitted_at,
            decided_at: now,
            ctx: req.ctx,
        }
    }

    /// Ticks the request spent queued (admission to decision).
    pub fn queue_ticks(&self) -> u64 {
        self.decided_at.saturating_sub(self.submitted_at)
    }

    /// Stable verdict tag for ledgers and reports: `allow`, `deny`,
    /// `replace:<substitute>`, or `allow+obligations`.
    pub fn verdict_name(&self) -> String {
        let mut name = String::new();
        self.verdict.write_name(&mut name);
        name
    }

    /// The guard's (or shed path's) reason string, empty for plain allows.
    pub fn reason(&self) -> &str {
        match &self.verdict {
            GuardVerdict::Deny { reason } | GuardVerdict::Replace { reason, .. } => reason,
            _ => "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_statespace::StateSchema;

    fn request() -> DecisionRequest {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        DecisionRequest {
            id: 7,
            tenant: TenantId(2),
            device: 11,
            state: schema.state(&[1.0]).unwrap(),
            proposed: Action::adjust("patrol", Default::default()),
            alternatives: Vec::new(),
            submitted_at: 5,
            deadline: Some(9),
            ctx: None,
        }
    }

    #[test]
    fn shed_decisions_always_deny() {
        let req = request();
        for reason in [
            ShedReason::Capacity,
            ShedReason::Quota,
            ShedReason::Deadline,
        ] {
            let d = Decision::shed(&req, reason, 6);
            assert!(!d.verdict.permits_execution(), "{reason:?} must deny");
            assert_eq!(d.shed, Some(reason));
            assert_eq!(d.verdict_name(), "deny");
            assert!(d.reason().starts_with("shed:"));
        }
    }

    #[test]
    fn deadline_expiry_is_strict() {
        let req = request();
        assert!(!req.expired(9));
        assert!(req.expired(10));
        let mut eternal = request();
        eternal.deadline = None;
        assert!(!eternal.expired(u64::MAX));
    }

    #[test]
    fn queue_ticks_measure_admission_to_decision() {
        let d = Decision::evaluated(&request(), GuardVerdict::Allow, 8);
        assert_eq!(d.queue_ticks(), 3);
        assert_eq!(d.verdict_name(), "allow");
        assert_eq!(d.reason(), "");
    }
}
