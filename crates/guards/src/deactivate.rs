use std::collections::BTreeMap;
use std::fmt;

use apdm_policy::{AuditKind, AuditLog};
use apdm_statespace::{Classifier, Label, State};
use serde::{Deserialize, Serialize};

use crate::tamper::{TamperStatus, Tamperable};

/// An order to deactivate a device, produced by the controllers below and
/// executed by the fleet runner (which calls `Device::deactivate`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeactivationOrder {
    /// The device to deactivate (free-form id).
    pub subject: String,
    /// Why.
    pub reason: String,
    /// Tick the order was issued.
    pub tick: u64,
}

/// Section VI.C: "devices that go into a bad state or are prone to take
/// actions that make them go into a bad state, can be deactivated by a
/// tamper-proof mechanism."
///
/// The controller watches per-device state reports; a device observed in a
/// bad state `threshold` times (consecutively or not) earns a
/// [`DeactivationOrder`]. Every order is audited.
///
/// # Example
///
/// ```
/// use apdm_guards::DeactivationController;
/// use apdm_statespace::{Region, RegionClassifier, StateSchema};
///
/// let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
/// let classifier = RegionClassifier::new(Region::rect(&[(0.0, 5.0)]));
/// let mut ctl = DeactivationController::new(classifier, 2);
///
/// let bad = schema.state(&[9.0]).unwrap();
/// assert!(ctl.observe("rogue", &bad, 1).is_none()); // first strike
/// let order = ctl.observe("rogue", &bad, 2).unwrap(); // second strike
/// assert_eq!(order.subject, "rogue");
/// ```
pub struct DeactivationController {
    classifier: Box<dyn Classifier + Send + Sync>,
    threshold: u32,
    strikes: BTreeMap<String, u32>,
    deactivated: Vec<String>,
    audit: AuditLog,
    tamper: TamperStatus,
}

impl DeactivationController {
    /// A controller deactivating after `threshold` bad-state observations.
    ///
    /// # Panics
    ///
    /// Panics when `threshold` is zero.
    pub fn new(classifier: impl Classifier + Send + Sync + 'static, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        DeactivationController {
            classifier: Box::new(classifier),
            threshold,
            strikes: BTreeMap::new(),
            deactivated: Vec::new(),
            audit: AuditLog::new(),
            tamper: TamperStatus::Proof,
        }
    }

    /// Set the tamper status (builder style).
    pub fn with_tamper(mut self, status: TamperStatus) -> Self {
        self.tamper = status;
        self
    }

    /// Report a device's current state; returns an order when the strike
    /// threshold is reached (once per device).
    pub fn observe(
        &mut self,
        subject: &str,
        state: &State,
        tick: u64,
    ) -> Option<DeactivationOrder> {
        if !self.tamper.is_effective() {
            return None;
        }
        if self.deactivated.iter().any(|d| d == subject) {
            return None;
        }
        if self.classifier.classify(state) != Label::Bad {
            return None;
        }
        let strikes = self.strikes.entry(subject.to_string()).or_insert(0);
        *strikes += 1;
        if *strikes < self.threshold {
            return None;
        }
        self.deactivated.push(subject.to_string());
        let reason = format!("observed in a bad state {} times", self.threshold);
        self.audit
            .record(tick, subject, AuditKind::Deactivation, reason.clone());
        Some(DeactivationOrder {
            subject: subject.to_string(),
            reason,
            tick,
        })
    }

    /// Devices this controller has ordered deactivated.
    pub fn deactivated(&self) -> &[String] {
        &self.deactivated
    }

    /// Strike count for a device.
    pub fn strikes(&self, subject: &str) -> u32 {
        self.strikes.get(subject).copied().unwrap_or(0)
    }

    /// The audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }
}

impl fmt::Debug for DeactivationController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeactivationController")
            .field("threshold", &self.threshold)
            .field("deactivated", &self.deactivated.len())
            .field("tamper", &self.tamper)
            .finish()
    }
}

impl Tamperable for DeactivationController {
    fn tamper_status(&self) -> TamperStatus {
        self.tamper
    }
    fn set_tamper_status(&mut self, status: TamperStatus) {
        self.tamper = status;
    }
}

/// One watcher's assessment of one subject, as carried over the wire.
///
/// Ballots are the *only* way to move a [`QuorumKillSwitch`]; they are built
/// by watchers, shipped through the (lossy, duplicating, reordering) comms
/// layer, and applied at the coordinator with
/// [`QuorumKillSwitch::apply_ballot`]. `cast_tick` orders a watcher's
/// ballots about a subject: the switch applies each `(subject, watcher)`
/// cast at most once and drops older casts that arrive late, so duplicated
/// or reordered deliveries cannot stack votes or resurrect retractions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillBallot {
    /// The voting watcher (`< n_watchers`).
    pub watcher: usize,
    /// The device voted on (free-form id).
    pub subject: String,
    /// `true` = vote to kill, `false` = retract / vote healthy.
    pub rogue: bool,
    /// Tick the watcher cast this ballot (its dedup/ordering key).
    pub cast_tick: u64,
}

/// A quorum kill switch: deactivation requires `k` of `n` independent
/// watchers to concur, so that no single compromised watcher can either kill
/// a healthy device (false positive) or shield a rogue one (false negative).
/// This is the paper's separation-of-privilege principle (Section VI.D cites
/// Saltzer & Schroeder) applied to Section VI.C's mechanism.
///
/// Votes arrive as [`KillBallot`] messages — in a deployed fleet over the
/// lossy network via `apdm-comms` — and duplicated or stale deliveries are
/// dropped by the per-`(subject, watcher)` cast-tick dedup.
///
/// # Example
///
/// ```
/// use apdm_guards::{KillBallot, QuorumKillSwitch};
///
/// let mut quorum = QuorumKillSwitch::new(3, 2);
/// let ballot = |watcher| KillBallot {
///     watcher,
///     subject: "rogue".into(),
///     rogue: true,
///     cast_tick: 1,
/// };
/// assert!(quorum.apply_ballot(&ballot(0), 1).is_none());
/// let order = quorum.apply_ballot(&ballot(2), 1).unwrap();
/// assert_eq!(order.subject, "rogue");
/// // A duplicated delivery of watcher 2's ballot changes nothing.
/// assert!(quorum.apply_ballot(&ballot(2), 2).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct QuorumKillSwitch {
    n_watchers: usize,
    quorum: usize,
    /// subject -> watcher votes for the current round.
    votes: BTreeMap<String, Vec<usize>>,
    /// (subject, watcher) -> newest cast tick applied so far.
    last_cast: BTreeMap<(String, usize), u64>,
    killed: Vec<String>,
    audit: AuditLog,
}

impl QuorumKillSwitch {
    /// A switch with `n_watchers` watchers requiring `quorum` concurring
    /// votes.
    ///
    /// # Panics
    ///
    /// Panics when `quorum` is zero or exceeds `n_watchers`.
    pub fn new(n_watchers: usize, quorum: usize) -> Self {
        assert!(
            quorum > 0 && quorum <= n_watchers,
            "quorum must be in 1..=n_watchers"
        );
        QuorumKillSwitch {
            n_watchers,
            quorum,
            votes: BTreeMap::new(),
            last_cast: BTreeMap::new(),
            killed: Vec::new(),
            audit: AuditLog::new(),
        }
    }

    /// Apply a [`KillBallot`] delivered (possibly late, possibly more than
    /// once) by the network at tick `now`. Returns an order when the quorum
    /// is first reached.
    ///
    /// A ballot whose `cast_tick` is not strictly newer than the last applied
    /// cast for the same `(subject, watcher)` is dropped: duplicated
    /// deliveries never stack and a reordered older ballot never overrides a
    /// newer retraction.
    ///
    /// # Panics
    ///
    /// Panics for watcher ids `>= n_watchers`.
    pub fn apply_ballot(&mut self, ballot: &KillBallot, now: u64) -> Option<DeactivationOrder> {
        assert!(
            ballot.watcher < self.n_watchers,
            "unknown watcher {}",
            ballot.watcher
        );
        if self.killed.iter().any(|k| k == &ballot.subject) {
            return None;
        }
        let key = (ballot.subject.clone(), ballot.watcher);
        if let Some(&last) = self.last_cast.get(&key) {
            if ballot.cast_tick <= last {
                return None; // duplicate delivery, or stale reordered cast
            }
        }
        self.last_cast.insert(key, ballot.cast_tick);
        let votes = self.votes.entry(ballot.subject.clone()).or_default();
        if ballot.rogue {
            if !votes.contains(&ballot.watcher) {
                votes.push(ballot.watcher);
            }
        } else {
            votes.retain(|&w| w != ballot.watcher);
        }
        if votes.len() >= self.quorum {
            self.killed.push(ballot.subject.clone());
            let reason = format!("{}-of-{} watcher quorum", self.quorum, self.n_watchers);
            self.audit.record(
                now,
                &ballot.subject,
                AuditKind::Deactivation,
                reason.clone(),
            );
            return Some(DeactivationOrder {
                subject: ballot.subject.clone(),
                reason,
                tick: now,
            });
        }
        None
    }

    /// Devices killed so far.
    pub fn killed(&self) -> &[String] {
        &self.killed
    }

    /// Current rogue votes for a subject.
    pub fn votes_for(&self, subject: &str) -> usize {
        self.votes.get(subject).map(Vec::len).unwrap_or(0)
    }

    /// The audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_statespace::{Region, RegionClassifier, StateSchema};

    fn schema() -> StateSchema {
        StateSchema::builder().var("x", 0.0, 10.0).build()
    }

    /// The kill-switch message a watcher sends, cast at `tick`.
    fn ballot(watcher: usize, subject: &str, rogue: bool, tick: u64) -> KillBallot {
        KillBallot {
            watcher,
            subject: subject.to_string(),
            rogue,
            cast_tick: tick,
        }
    }

    fn controller(threshold: u32) -> DeactivationController {
        DeactivationController::new(
            RegionClassifier::new(Region::rect(&[(0.0, 5.0)])),
            threshold,
        )
    }

    #[test]
    fn good_states_never_strike() {
        let mut ctl = controller(1);
        let good = schema().state(&[2.0]).unwrap();
        for t in 0..10 {
            assert!(ctl.observe("d", &good, t).is_none());
        }
        assert_eq!(ctl.strikes("d"), 0);
    }

    #[test]
    fn threshold_strikes_deactivate_once() {
        let mut ctl = controller(3);
        let bad = schema().state(&[9.0]).unwrap();
        assert!(ctl.observe("d", &bad, 1).is_none());
        assert!(ctl.observe("d", &bad, 2).is_none());
        let order = ctl.observe("d", &bad, 3).unwrap();
        assert_eq!(order.tick, 3);
        // Further observations are ignored.
        assert!(ctl.observe("d", &bad, 4).is_none());
        assert_eq!(ctl.deactivated(), &["d".to_string()]);
        assert_eq!(ctl.audit().count(AuditKind::Deactivation), 1);
    }

    #[test]
    fn strikes_are_per_device() {
        let mut ctl = controller(2);
        let bad = schema().state(&[9.0]).unwrap();
        ctl.observe("a", &bad, 1);
        ctl.observe("b", &bad, 1);
        assert_eq!(ctl.strikes("a"), 1);
        assert_eq!(ctl.strikes("b"), 1);
        assert!(ctl.observe("a", &bad, 2).is_some());
        assert!(ctl.deactivated().contains(&"a".to_string()));
        assert!(!ctl.deactivated().contains(&"b".to_string()));
    }

    #[test]
    fn compromised_controller_never_fires() {
        let mut ctl = controller(1).with_tamper(TamperStatus::Compromised);
        let bad = schema().state(&[9.0]).unwrap();
        for t in 0..10 {
            assert!(ctl.observe("d", &bad, t).is_none());
        }
        assert!(ctl.deactivated().is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let _ = controller(0);
    }

    #[test]
    fn quorum_requires_k_watchers() {
        let mut q = QuorumKillSwitch::new(5, 3);
        assert!(q.apply_ballot(&ballot(0, "d", true, 1), 1).is_none());
        assert!(q.apply_ballot(&ballot(1, "d", true, 1), 1).is_none());
        assert_eq!(q.votes_for("d"), 2);
        let order = q.apply_ballot(&ballot(4, "d", true, 2), 2).unwrap();
        assert!(order.reason.contains("3-of-5"));
        assert_eq!(q.killed(), &["d".to_string()]);
    }

    #[test]
    fn single_watcher_cannot_kill_under_quorum() {
        let mut q = QuorumKillSwitch::new(3, 2);
        // A compromised watcher votes rogue against a healthy device forever.
        for t in 0..100 {
            assert!(q.apply_ballot(&ballot(0, "healthy", true, t), t).is_none());
        }
        assert!(q.killed().is_empty());
    }

    #[test]
    fn retracted_votes_count_down() {
        let mut q = QuorumKillSwitch::new(3, 2);
        q.apply_ballot(&ballot(0, "d", true, 1), 1);
        q.apply_ballot(&ballot(0, "d", false, 2), 2);
        assert_eq!(q.votes_for("d"), 0);
        q.apply_ballot(&ballot(1, "d", true, 3), 3);
        assert!(
            q.apply_ballot(&ballot(1, "d", true, 3), 3).is_none(),
            "duplicate votes don't stack"
        );
        assert_eq!(q.votes_for("d"), 1);
    }

    #[test]
    fn killed_subject_ignores_votes() {
        let mut q = QuorumKillSwitch::new(2, 1);
        assert!(q.apply_ballot(&ballot(0, "d", true, 1), 1).is_some());
        assert!(q.apply_ballot(&ballot(1, "d", true, 2), 2).is_none());
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn invalid_quorum_rejected() {
        let _ = QuorumKillSwitch::new(2, 3);
    }

    #[test]
    #[should_panic(expected = "unknown watcher")]
    fn unknown_watcher_rejected() {
        let mut q = QuorumKillSwitch::new(2, 1);
        q.apply_ballot(&ballot(5, "d", true, 0), 0);
    }
}
