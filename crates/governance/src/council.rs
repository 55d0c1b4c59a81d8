//! Generalized N-collective governance with k-of-n voting.
//!
//! Section VI.E closes with: "An exploration of similar check and balances
//! among **multiple intelligent collectives**, and having them control each
//! other to prevent malevolence, would be a promising area of investigation."
//! The tripartite governor fixes N=3, k=2; [`CouncilGovernor`] generalizes to
//! any council size and threshold so the trade-off — larger councils tolerate
//! more corrupted collectives, at more judging cost — becomes measurable.

use std::fmt;

use apdm_policy::Action;
use apdm_statespace::State;
use serde::{Deserialize, Serialize};

use crate::{Collective, GovernanceStats, MetaPolicy};

/// One collective's vote on one proposal, as carried over the wire.
///
/// Ballots are produced member-side with [`CouncilGovernor::ballot_of`] (or
/// by a remote node holding its own [`Collective`]), shipped through the
/// lossy comms layer, and counted at the tallying node with
/// [`CouncilGovernor::tally`]. `ballot_id` ties a ballot to one proposal so
/// reordered leftovers from an earlier vote cannot leak into a later one,
/// and the tally counts each member at most once so duplicated deliveries
/// cannot stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CouncilBallot {
    /// The voting collective's index in the council.
    pub member: usize,
    /// The proposal this ballot answers.
    pub ballot_id: u64,
    /// Approve?
    pub aye: bool,
}

/// A council of N collectives approving actions by k-of-n vote.
///
/// # Example
///
/// ```
/// use apdm_governance::{CouncilGovernor, Integrity, MetaPolicy};
/// use apdm_policy::Action;
/// use apdm_statespace::StateSchema;
///
/// let scope = MetaPolicy::new().forbid_action("strike");
/// let mut council = CouncilGovernor::new(scope, 5, 3);
/// // Two captured collectives are not enough against a 3-of-5 council.
/// council.collective_mut(0).set_integrity(Integrity::Compromised);
/// council.collective_mut(1).set_integrity(Integrity::Compromised);
///
/// let schema = StateSchema::builder().var("x", 0.0, 1.0).build();
/// let state = schema.state(&[0.5]).unwrap();
/// let strike = Action::adjust("strike", Default::default());
/// // Each member casts a ballot (over the network in a deployed fleet)...
/// let ballots: Vec<_> = (0..5).map(|m| council.ballot_of(m, 1, &state, &strike)).collect();
/// // ...and the tallying node counts them.
/// assert!(!council.tally(1, &ballots, &state, &strike).approved);
/// ```
pub struct CouncilGovernor {
    collectives: Vec<Collective>,
    threshold: usize,
    ground_truth: MetaPolicy,
    stats: GovernanceStats,
}

/// Outcome of a council vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouncilDecision {
    /// Whether the action may execute.
    pub approved: bool,
    /// Approving votes.
    pub ayes: usize,
    /// Council size.
    pub size: usize,
}

impl CouncilGovernor {
    /// A council of `n` collectives, each holding an independent copy of
    /// `scope`, approving with at least `threshold` votes.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or `threshold` is not in `1..=n`.
    pub fn new(scope: MetaPolicy, n: usize, threshold: usize) -> Self {
        assert!(n > 0, "a council needs at least one collective");
        assert!((1..=n).contains(&threshold), "threshold must be in 1..=n");
        let collectives = (0..n)
            .map(|i| Collective::new(format!("collective-{i}"), scope.clone()))
            .collect();
        CouncilGovernor {
            collectives,
            threshold,
            ground_truth: scope,
            stats: GovernanceStats::default(),
        }
    }

    /// Council size.
    pub fn len(&self) -> usize {
        self.collectives.len()
    }

    /// True when the council has no members (never constructible).
    pub fn is_empty(&self) -> bool {
        self.collectives.is_empty()
    }

    /// The approval threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Mutable access to the `i`-th collective (corruption injection).
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn collective_mut(&mut self, i: usize) -> &mut Collective {
        &mut self.collectives[i]
    }

    /// Accuracy accounting so far.
    pub fn stats(&self) -> GovernanceStats {
        self.stats
    }

    /// How many corrupted collectives a `threshold`-of-`n` council provably
    /// tolerates against *approving* malevolence: compromised collectives
    /// vote yes on everything, so malevolence executes once
    /// `corrupted >= threshold`... unless honest members' no-votes cannot be
    /// outvoted. Tolerance = `threshold - 1`.
    pub fn corruption_tolerance(&self) -> usize {
        self.threshold - 1
    }

    /// Member `member` judges the proposal identified by `ballot_id` and
    /// returns its ballot, ready to be shipped to the tallying node.
    ///
    /// # Panics
    ///
    /// Panics when `member` is out of range.
    pub fn ballot_of(
        &mut self,
        member: usize,
        ballot_id: u64,
        state: &State,
        action: &Action,
    ) -> CouncilBallot {
        CouncilBallot {
            member,
            ballot_id,
            aye: self.collectives[member].judge(state, action),
        }
    }

    /// Count the ballots received (possibly duplicated, reordered, or
    /// incomplete after losses) for the proposal `ballot_id`.
    ///
    /// Ballots carrying a different `ballot_id` are ignored (stale leftovers
    /// from an earlier vote) and each member is counted at most once, so
    /// duplicated deliveries cannot stack. Missing members simply do not
    /// contribute ayes: an incomplete tally fails closed against the
    /// threshold. Accuracy accounting compares the outcome against the
    /// tallying node's ground-truth scope for `(state, action)`.
    pub fn tally(
        &mut self,
        ballot_id: u64,
        ballots: &[CouncilBallot],
        state: &State,
        action: &Action,
    ) -> CouncilDecision {
        let mut counted: Vec<usize> = Vec::new();
        let mut ayes = 0;
        for ballot in ballots {
            if ballot.ballot_id != ballot_id
                || ballot.member >= self.collectives.len()
                || counted.contains(&ballot.member)
            {
                continue;
            }
            counted.push(ballot.member);
            if ballot.aye {
                ayes += 1;
            }
        }
        let approved = ayes >= self.threshold;
        let truly_in_scope = self.ground_truth.within_scope(state, action);
        self.stats.decisions += 1;
        match (truly_in_scope, approved) {
            (false, true) => self.stats.malevolent_executed += 1,
            (false, false) => self.stats.malevolent_blocked += 1,
            (true, false) => self.stats.false_blocks += 1,
            (true, true) => {}
        }
        CouncilDecision {
            approved,
            ayes,
            size: self.collectives.len(),
        }
    }
}

impl fmt::Debug for CouncilGovernor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CouncilGovernor")
            .field("size", &self.collectives.len())
            .field("threshold", &self.threshold)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Integrity;
    use apdm_statespace::StateSchema;

    fn state() -> State {
        StateSchema::builder()
            .var("x", 0.0, 1.0)
            .build()
            .state(&[0.5])
            .unwrap()
    }

    fn strike() -> Action {
        Action::adjust("strike", Default::default())
    }

    fn wave() -> Action {
        Action::adjust("wave", Default::default())
    }

    fn council(n: usize, k: usize) -> CouncilGovernor {
        CouncilGovernor::new(MetaPolicy::new().forbid_action("strike"), n, k)
    }

    /// One ratification over the message path: every member casts its
    /// ballot, and the council tallies them under the next ballot id.
    fn ratify(c: &mut CouncilGovernor, state: &State, action: &Action) -> CouncilDecision {
        let ballot_id = c.stats().decisions;
        let ballots: Vec<CouncilBallot> = (0..c.len())
            .map(|m| c.ballot_of(m, ballot_id, state, action))
            .collect();
        c.tally(ballot_id, &ballots, state, action)
    }

    #[test]
    fn honest_council_is_faithful() {
        let mut c = council(5, 3);
        assert!(ratify(&mut c, &state(), &wave()).approved);
        assert!(!ratify(&mut c, &state(), &strike()).approved);
        assert_eq!(c.stats().malevolent_blocked, 1);
        assert_eq!(c.stats().false_blocks, 0);
    }

    #[test]
    fn tolerance_boundary_is_exact() {
        // 3-of-5: tolerates 2 compromised, falls at 3.
        for corrupted in 0..=5usize {
            let mut c = council(5, 3);
            for i in 0..corrupted {
                c.collective_mut(i).set_integrity(Integrity::Compromised);
            }
            let d = ratify(&mut c, &state(), &strike());
            if corrupted <= c.corruption_tolerance() {
                assert!(!d.approved, "{corrupted} corrupted should be tolerated");
            } else {
                assert!(d.approved, "{corrupted} corrupted should defeat 3-of-5");
            }
        }
    }

    #[test]
    fn larger_councils_buy_tolerance() {
        assert_eq!(council(3, 2).corruption_tolerance(), 1);
        assert_eq!(council(5, 3).corruption_tolerance(), 2);
        assert_eq!(council(7, 4).corruption_tolerance(), 3);
    }

    #[test]
    fn high_thresholds_trade_availability() {
        // 5-of-5 with one adversarial member blocks everything legitimate.
        let mut c = council(5, 5);
        c.collective_mut(0).set_integrity(Integrity::Adversarial);
        assert!(!ratify(&mut c, &state(), &wave()).approved);
        assert_eq!(c.stats().false_blocks, 1);
        // But it is maximally corruption-tolerant against malevolence.
        assert_eq!(c.corruption_tolerance(), 4);
    }

    #[test]
    fn vote_counts_are_reported() {
        let mut c = council(4, 2);
        c.collective_mut(0).set_integrity(Integrity::Compromised);
        let d = ratify(&mut c, &state(), &strike());
        assert_eq!(d.ayes, 1);
        assert_eq!(d.size, 4);
        assert!(!d.approved);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_rejected() {
        let _ = council(3, 4);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_council_rejected() {
        let _ = CouncilGovernor::new(MetaPolicy::new(), 0, 0);
    }
}
