use std::fmt;

use apdm_policy::{Action, AuditKind, AuditLog};
use apdm_statespace::{State, VarId};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Specification of an aggregate hazard over a collection of devices.
///
/// Section VI.D's motivating example: "components within an electronic device
/// may each be operating within regions where the heat that they generate is
/// acceptable ... but the cumulative amount of heat generated may exceed the
/// safety limits of the device, potentially causing fire." The aggregate is
/// the sum of one state variable across members; the collection is
/// aggregate-bad when the sum exceeds `limit` — even if every member is
/// individually within bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateSpec {
    /// The state variable contributing to the aggregate (e.g. heat output).
    pub var: VarId,
    /// The collection-level safety limit on the summed variable.
    pub limit: f64,
}

impl AggregateSpec {
    /// A sum-of-`var` aggregate with the given limit.
    pub fn sum_of(var: VarId, limit: f64) -> Self {
        AggregateSpec { var, limit }
    }

    /// One member's contribution.
    pub fn contribution(&self, state: &State) -> f64 {
        state.get(self.var).unwrap_or(0.0)
    }

    /// The aggregate over a set of member states.
    pub fn aggregate<'a>(&self, members: impl IntoIterator<Item = &'a State>) -> f64 {
        members.into_iter().map(|s| self.contribution(s)).sum()
    }

    /// Is the aggregate within the limit?
    pub fn is_safe<'a>(&self, members: impl IntoIterator<Item = &'a State>) -> bool {
        self.aggregate(members) <= self.limit
    }
}

/// Decision on admitting a device into a collection.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted: the aggregate stays within limits.
    Admitted,
    /// Refused, with the predicted aggregate that motivated the refusal.
    Refused {
        /// Aggregate that admission would have produced.
        predicted_aggregate: f64,
        /// The configured limit.
        limit: f64,
    },
}

impl AdmissionDecision {
    /// Was the device admitted?
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admitted)
    }
}

/// A candidate device's declaration to the formation checkpoint, as carried
/// over the wire: who wants to join, and what it would contribute to the
/// aggregate hazard.
///
/// Requests are the *only* way to move a [`FormationGuard`]; in a deployed
/// fleet they travel through the (lossy) comms layer to the node running the
/// checkpoint, which answers with an [`AdmissionDecision`]. The declared
/// contribution is what the offline analysis evaluates — a candidate that
/// lies about it is exactly Section IV's malevolent-device pathway, which
/// this guard does not claim to stop (the quorum kill switch does).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionRequest {
    /// The candidate device (free-form id).
    pub subject: String,
    /// The candidate's contribution to the aggregate variable.
    pub contribution: f64,
}

impl AdmissionRequest {
    /// Build a request by measuring `candidate`'s contribution under `spec`.
    pub fn declare(subject: &str, spec: AggregateSpec, candidate: &State) -> Self {
        AdmissionRequest {
            subject: subject.to_string(),
            contribution: spec.contribution(candidate),
        }
    }
}

/// Section VI.D's formation check: "use a human check each time a network of
/// devices is formed, i.e., when a new device is added or removed from the
/// network ... the human making the check is assisted by another machine
/// which remains offline and disconnected from other machines."
///
/// The guard runs the offline analysis (aggregate prediction) and models the
/// human in the loop: a perfect human follows the analysis; a fallible human
/// overrides it with probability `human_error_rate` (Section IV's "Human
/// errors" pathway). Every admission decision is audited.
pub struct FormationGuard {
    spec: AggregateSpec,
    human_error_rate: f64,
    audit: AuditLog,
}

impl FormationGuard {
    /// A formation guard over an aggregate spec with a perfect human.
    pub fn new(spec: AggregateSpec) -> Self {
        FormationGuard {
            spec,
            human_error_rate: 0.0,
            audit: AuditLog::new(),
        }
    }

    /// Model a fallible human who flips the analysis's recommendation with
    /// the given probability (builder style).
    pub fn with_human_error_rate(mut self, rate: f64) -> Self {
        self.human_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The aggregate spec.
    pub fn spec(&self) -> AggregateSpec {
        self.spec
    }

    /// The audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Review an [`AdmissionRequest`] delivered by the network: may the
    /// declaring candidate join the collection of `members`? `rng` drives
    /// the human-error model; pass any seeded RNG.
    pub fn review<R: Rng + ?Sized>(
        &mut self,
        request: &AdmissionRequest,
        members: &[State],
        tick: u64,
        rng: &mut R,
    ) -> AdmissionDecision {
        let subject = request.subject.as_str();
        let predicted = self.spec.aggregate(members) + request.contribution;
        let analysis_says_safe = predicted <= self.spec.limit;
        let human_flips =
            self.human_error_rate > 0.0 && rng.random_range(0.0..1.0) < self.human_error_rate;
        let admitted = analysis_says_safe != human_flips;
        if admitted {
            self.audit.record(
                tick,
                subject,
                AuditKind::Note,
                format!(
                    "formation check admitted (aggregate {predicted:.2} vs limit {:.2}{})",
                    self.spec.limit,
                    if human_flips {
                        "; HUMAN OVERRODE ANALYSIS"
                    } else {
                        ""
                    }
                ),
            );
            AdmissionDecision::Admitted
        } else {
            self.audit.record(
                tick,
                subject,
                AuditKind::GuardIntervention,
                format!(
                    "formation check refused (aggregate {predicted:.2} vs limit {:.2}{})",
                    self.spec.limit,
                    if human_flips {
                        "; HUMAN OVERRODE ANALYSIS"
                    } else {
                        ""
                    }
                ),
            );
            AdmissionDecision::Refused {
                predicted_aggregate: predicted,
                limit: self.spec.limit,
            }
        }
    }
}

impl fmt::Debug for FormationGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FormationGuard")
            .field("spec", &self.spec)
            .field("human_error_rate", &self.human_error_rate)
            .finish()
    }
}

/// Section VI.D's "collaborative state assessment techniques by which a group
/// of devices would jointly determine whether a set of actions, to be
/// undertaken by devices in the group, could lead to some aggregate bad
/// states, even though each device would still be in good state."
///
/// Given the members' states and their proposed actions, the assessment
/// predicts the post-action aggregate; when it exceeds the limit it selects a
/// minimal-greedy set of members who must abstain (largest post-action
/// contributors first), bringing the predicted aggregate back under the
/// limit.
#[derive(Debug, Clone, Copy)]
pub struct CollaborativeAssessment {
    spec: AggregateSpec,
}

impl CollaborativeAssessment {
    /// An assessment over an aggregate spec.
    pub fn new(spec: AggregateSpec) -> Self {
        CollaborativeAssessment { spec }
    }

    /// Predict the aggregate if every member executed its proposed action.
    pub fn predicted_aggregate(&self, proposals: &[(State, Action)]) -> f64 {
        proposals
            .iter()
            .map(|(state, action)| self.spec.contribution(&state.apply(action.delta())))
            .sum()
    }

    /// Indices of members who must abstain (take no action) so the predicted
    /// aggregate stays within the limit; empty when the joint plan is safe.
    /// Abstaining members are assumed to hold their current contribution.
    pub fn must_abstain(&self, proposals: &[(State, Action)]) -> Vec<usize> {
        let post: Vec<f64> = proposals
            .iter()
            .map(|(s, a)| self.spec.contribution(&s.apply(a.delta())))
            .collect();
        let pre: Vec<f64> = proposals
            .iter()
            .map(|(s, _)| self.spec.contribution(s))
            .collect();
        let mut total: f64 = post.iter().sum();
        if total <= self.spec.limit {
            return Vec::new();
        }
        // Drop the members whose action *increases* the aggregate most,
        // largest increase first.
        let mut by_increase: Vec<usize> = (0..proposals.len()).collect();
        by_increase.sort_by(|&a, &b| {
            let ia = post[a] - pre[a];
            let ib = post[b] - pre[b];
            ib.partial_cmp(&ia).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut abstain = Vec::new();
        for idx in by_increase {
            if total <= self.spec.limit {
                break;
            }
            let increase = post[idx] - pre[idx];
            if increase <= 0.0 {
                break; // remaining members only decrease the aggregate
            }
            total -= increase;
            abstain.push(idx);
        }
        abstain.sort_unstable();
        abstain
    }

    /// Would the joint plan be aggregate-safe?
    pub fn is_safe(&self, proposals: &[(State, Action)]) -> bool {
        self.predicted_aggregate(proposals) <= self.spec.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_statespace::{StateDelta, StateSchema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> StateSchema {
        StateSchema::builder().var("heat", 0.0, 10.0).build()
    }

    fn st(heat: f64) -> State {
        schema().state(&[heat]).unwrap()
    }

    fn heat_up(amount: f64) -> Action {
        Action::adjust("heat-up", StateDelta::single(VarId(0), amount))
    }

    #[test]
    fn aggregate_sums_contributions() {
        let spec = AggregateSpec::sum_of(VarId(0), 10.0);
        let members = [st(3.0), st(4.0)];
        assert_eq!(spec.aggregate(members.iter()), 7.0);
        assert!(spec.is_safe(members.iter()));
    }

    #[test]
    fn individually_good_collectively_bad() {
        // The paper's core VI.D claim: each member below its own 10.0 bound,
        // yet the collection exceeds the aggregate limit.
        let spec = AggregateSpec::sum_of(VarId(0), 10.0);
        let members = [st(4.0), st(4.0), st(4.0)];
        assert!(members.iter().all(|s| s.values()[0] <= 10.0));
        assert!(!spec.is_safe(members.iter()));
    }

    #[test]
    fn admission_within_limit() {
        let mut g = FormationGuard::new(AggregateSpec::sum_of(VarId(0), 10.0));
        let mut rng = StdRng::seed_from_u64(0);
        let d = g.review(
            &AdmissionRequest::declare("new", g.spec(), &st(2.0)),
            &[st(3.0), st(3.0)],
            1,
            &mut rng,
        );
        assert_eq!(d, AdmissionDecision::Admitted);
        let entries = g.audit().entries();
        assert_eq!(entries.len(), 1, "one audited admission");
        assert_eq!(entries[0].subject, "new");
        assert_eq!(entries[0].kind, AuditKind::Note);
        assert_eq!(
            entries[0].detail,
            "formation check admitted (aggregate 8.00 vs limit 10.00)"
        );
    }

    #[test]
    fn admission_over_limit_refused() {
        let mut g = FormationGuard::new(AggregateSpec::sum_of(VarId(0), 10.0));
        let mut rng = StdRng::seed_from_u64(0);
        let d = g.review(
            &AdmissionRequest::declare("new", g.spec(), &st(3.0)),
            &[st(5.0), st(4.0)],
            1,
            &mut rng,
        );
        match d {
            AdmissionDecision::Refused {
                predicted_aggregate,
                limit,
            } => {
                assert_eq!(predicted_aggregate, 12.0);
                assert_eq!(limit, 10.0);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(g.audit().count(AuditKind::GuardIntervention), 1);
    }

    #[test]
    fn fallible_human_sometimes_overrides() {
        // With error rate 1.0 the human always inverts the analysis.
        let mut g =
            FormationGuard::new(AggregateSpec::sum_of(VarId(0), 10.0)).with_human_error_rate(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let unsafe_admit = g.review(
            &AdmissionRequest::declare("new", g.spec(), &st(9.0)),
            &[st(9.0)],
            1,
            &mut rng,
        );
        assert!(
            unsafe_admit.is_admitted(),
            "erring human admits the unsafe device"
        );
        let safe_refuse = g.review(
            &AdmissionRequest::declare("new2", g.spec(), &st(1.0)),
            &[],
            2,
            &mut rng,
        );
        assert!(
            !safe_refuse.is_admitted(),
            "erring human refuses the safe device"
        );
    }

    #[test]
    fn collaborative_assessment_flags_joint_overheat() {
        let spec = AggregateSpec::sum_of(VarId(0), 10.0);
        let assess = CollaborativeAssessment::new(spec);
        // Three members at 3.0 each planning +1.0: predicted 12 > 10.
        let proposals: Vec<(State, Action)> = (0..3).map(|_| (st(3.0), heat_up(1.0))).collect();
        assert!(!assess.is_safe(&proposals));
        let abstain = assess.must_abstain(&proposals);
        assert_eq!(abstain.len(), 2, "dropping two +1 increases reaches 10.0");
        // Remaining aggregate: 3+3+3 (pre) + one +1 = 10 <= limit.
    }

    #[test]
    fn safe_joint_plan_needs_no_abstentions() {
        let assess = CollaborativeAssessment::new(AggregateSpec::sum_of(VarId(0), 10.0));
        let proposals = vec![(st(2.0), heat_up(1.0)), (st(2.0), heat_up(1.0))];
        assert!(assess.is_safe(&proposals));
        assert!(assess.must_abstain(&proposals).is_empty());
    }

    #[test]
    fn biggest_increasers_abstain_first() {
        let assess = CollaborativeAssessment::new(AggregateSpec::sum_of(VarId(0), 10.0));
        let proposals = vec![
            (st(3.0), heat_up(0.5)),
            (st(3.0), heat_up(3.0)), // the big offender
            (st(3.0), heat_up(0.5)),
        ];
        // Predicted: 3.5 + 6 + 3.5 = 13 > 10; dropping the +3 gives 10.
        assert_eq!(assess.must_abstain(&proposals), vec![1]);
    }

    #[test]
    fn abstentions_cannot_fix_pre_existing_overheat() {
        let assess = CollaborativeAssessment::new(AggregateSpec::sum_of(VarId(0), 10.0));
        // Already over limit before any action; cooling actions help.
        let proposals = vec![(st(8.0), heat_up(-2.0)), (st(8.0), heat_up(-2.0))];
        // Predicted 12 > 10, but both actions *decrease* heat: abstaining
        // would make things worse, so nobody is told to abstain.
        assert!(!assess.is_safe(&proposals));
        assert!(assess.must_abstain(&proposals).is_empty());
    }
}
