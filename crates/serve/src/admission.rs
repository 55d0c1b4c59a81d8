//! Bounded multi-tenant admission: per-tenant lanes drained by deficit
//! round-robin, with a global capacity bound and per-tenant quotas.
//!
//! The queue is the service's only buffer, so its bounds are the load-shed
//! points: a submit that would exceed the global capacity or the tenant's
//! quota is refused *at admission* (cheap — no guard work wasted on a
//! request that would be dropped later), and the service turns the refusal
//! into a fail-closed denial.
//!
//! Fairness is deficit round-robin (DRR): each backlogged tenant gets a
//! fresh `quantum` of credit when its lane reaches the head of the
//! rotation, spends one credit per dequeued request, and rotates to the
//! back when the credit is spent. A tenant flooding the service can fill
//! its own quota, but cannot starve another tenant's lane — each round
//! serves every backlogged tenant `quantum` requests.
//!
//! Everything is in deterministic order (`BTreeMap` lanes, explicit
//! rotation queue): the dequeue stream is a pure function of the submit
//! stream, never of wall-clock or thread timing.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::request::{DecisionRequest, ShedReason, TenantId};

/// Bounds and fairness knobs of an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Total queued requests across all tenants before capacity shedding.
    pub capacity: usize,
    /// Queued requests a single tenant may hold before quota shedding.
    pub tenant_quota: usize,
    /// DRR credit granted per rotation visit (requests per tenant per
    /// round).
    pub quantum: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 128,
            tenant_quota: 40,
            quantum: 8,
        }
    }
}

impl AdmissionConfig {
    /// An effectively unbounded configuration (the shedding-off ablation in
    /// experiment E13: nothing is refused, latency absorbs the overload).
    pub fn unbounded() -> Self {
        AdmissionConfig {
            capacity: usize::MAX / 2,
            tenant_quota: usize::MAX / 2,
            quantum: 8,
        }
    }
}

/// One tenant's FIFO lane plus its current DRR credit.
#[derive(Debug, Default)]
struct TenantLane {
    queue: VecDeque<DecisionRequest>,
    deficit: u32,
}

/// The bounded, fair admission queue. See the module docs for semantics.
#[derive(Debug)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    lanes: BTreeMap<TenantId, TenantLane>,
    /// Backlogged tenants in DRR rotation order (front is being served).
    rotation: VecDeque<TenantId>,
    pending: usize,
}

impl AdmissionQueue {
    /// An empty queue with the given bounds.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionQueue {
            cfg,
            lanes: BTreeMap::new(),
            rotation: VecDeque::new(),
            pending: 0,
        }
    }

    /// Requests currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Is nothing queued?
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Requests currently queued for one tenant.
    pub fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.lanes.get(&tenant).map_or(0, |l| l.queue.len())
    }

    /// Submit tick of the oldest queued request (each lane is FIFO, so the
    /// minimum over lane heads is the global minimum).
    pub fn oldest_submitted(&self) -> Option<u64> {
        self.lanes
            .values()
            .filter_map(|l| l.queue.front().map(|r| r.submitted_at))
            .min()
    }

    /// Admit a request (`None`), or hand it back with the shed reason.
    /// Quota is checked before capacity so a single over-quota tenant is
    /// named as such even when the whole queue is also full.
    pub fn submit(&mut self, req: DecisionRequest) -> Option<(DecisionRequest, ShedReason)> {
        let backlog = self.tenant_backlog(req.tenant);
        if backlog >= self.cfg.tenant_quota {
            return Some((req, ShedReason::Quota));
        }
        if self.pending >= self.cfg.capacity {
            return Some((req, ShedReason::Capacity));
        }
        let lane = self.lanes.entry(req.tenant).or_default();
        if lane.queue.is_empty() {
            self.rotation.push_back(req.tenant);
        }
        lane.queue.push_back(req);
        self.pending += 1;
        None
    }

    /// Return requests the dispatcher dequeued but chose not to serve yet
    /// (cross-shard backpressure deferrals) to the *front* of their lanes,
    /// preserving their relative order, so they are re-examined first on
    /// the next batch. A tenant whose lane was empty re-enters the rotation
    /// at the front. DRR credit already spent on the original dequeue is
    /// not refunded — deferral consumes the tenant's turn, which keeps a
    /// tenant flooding one hot shard from re-winning every round.
    pub fn requeue_front(&mut self, deferred: Vec<DecisionRequest>) {
        for req in deferred.into_iter().rev() {
            let lane = self.lanes.entry(req.tenant).or_default();
            if lane.queue.is_empty() {
                self.rotation.push_front(req.tenant);
            }
            lane.queue.push_front(req);
            self.pending += 1;
        }
    }

    /// The queue's lanes for a checkpoint, borrowed: every lane as
    /// `(tenant, DRR deficit, queued requests front-to-back)` in tenant
    /// order — empty lanes included, so a restored queue is structurally
    /// identical, not just behaviorally. Together with
    /// [`rotation`](AdmissionQueue::rotation) and
    /// [`restore`](AdmissionQueue::restore) this round-trips the queue
    /// exactly, which crash recovery needs: dequeue order is a pure
    /// function of this state.
    pub fn lanes(&self) -> impl Iterator<Item = (TenantId, u32, &VecDeque<DecisionRequest>)> {
        self.lanes
            .iter()
            .map(|(&tenant, lane)| (tenant, lane.deficit, &lane.queue))
    }

    /// Backlogged tenants in DRR rotation order (front is being served).
    pub fn rotation(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.rotation.iter().copied()
    }

    /// Rebuild a queue from its [`lanes`](AdmissionQueue::lanes) and
    /// [`rotation`](AdmissionQueue::rotation) under the same bounds.
    ///
    /// The parts are untrusted (they come off disk), so they must be
    /// consistent the way a live queue always is: each tenant has at most
    /// one lane, every rotated tenant has a lane, and every non-empty lane
    /// is in the rotation. `Err` names the first violation — a queue
    /// without them could panic in [`dequeue`](AdmissionQueue::dequeue),
    /// strand requests no dequeue reaches, or count requests it does not
    /// hold.
    pub fn restore(
        cfg: AdmissionConfig,
        lanes: Vec<(TenantId, u32, Vec<DecisionRequest>)>,
        rotation: Vec<TenantId>,
    ) -> Result<Self, String> {
        let mut pending = 0;
        let mut restored: BTreeMap<TenantId, TenantLane> = BTreeMap::new();
        for (tenant, deficit, queue) in lanes {
            pending += queue.len();
            let lane = TenantLane {
                queue: queue.into(),
                deficit,
            };
            if restored.insert(tenant, lane).is_some() {
                return Err(format!("tenant {} has two lanes", tenant.0));
            }
        }
        if let Some(tenant) = rotation.iter().find(|t| !restored.contains_key(t)) {
            return Err(format!("rotated tenant {} has no lane", tenant.0));
        }
        if let Some(tenant) = restored
            .iter()
            .find(|(tenant, lane)| !lane.queue.is_empty() && !rotation.contains(tenant))
            .map(|(tenant, _)| tenant)
        {
            return Err(format!(
                "tenant {} has queued requests but is not in the rotation",
                tenant.0
            ));
        }
        Ok(AdmissionQueue {
            cfg,
            lanes: restored,
            rotation: rotation.into(),
            pending,
        })
    }

    /// Dequeue the next request under DRR. Within a lane, FIFO order;
    /// across lanes, `quantum`-sized runs in rotation order.
    pub fn dequeue(&mut self) -> Option<DecisionRequest> {
        loop {
            let tenant = *self.rotation.front()?;
            let lane = self.lanes.get_mut(&tenant).expect("rotated lane exists");
            if lane.queue.is_empty() {
                // Lane drained earlier in this visit: unused credit is
                // forfeited (standard DRR — idle tenants bank nothing).
                lane.deficit = 0;
                self.rotation.pop_front();
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = self.cfg.quantum.max(1);
            }
            let req = lane.queue.pop_front().expect("checked non-empty");
            lane.deficit -= 1;
            self.pending -= 1;
            if lane.queue.is_empty() {
                lane.deficit = 0;
                self.rotation.pop_front();
            } else if lane.deficit == 0 {
                let t = self.rotation.pop_front().expect("front exists");
                self.rotation.push_back(t);
            }
            return Some(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_policy::Action;
    use apdm_statespace::StateSchema;

    fn req(id: u64, tenant: u32) -> DecisionRequest {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        DecisionRequest {
            id,
            tenant: TenantId(tenant),
            device: id,
            state: schema.state(&[1.0]).unwrap(),
            proposed: Action::adjust("patrol", Default::default()),
            alternatives: Vec::new(),
            submitted_at: 0,
            deadline: None,
            ctx: None,
        }
    }

    #[test]
    fn capacity_and_quota_bounds_shed() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 3,
            tenant_quota: 2,
            quantum: 1,
        });
        assert!(q.submit(req(0, 0)).is_none());
        assert!(q.submit(req(1, 0)).is_none());
        // Tenant 0 is at quota.
        let (_, reason) = q.submit(req(2, 0)).unwrap();
        assert_eq!(reason, ShedReason::Quota);
        assert!(q.submit(req(3, 1)).is_none());
        // The whole queue is at capacity; tenant 1 is under quota.
        let (_, reason) = q.submit(req(4, 1)).unwrap();
        assert_eq!(reason, ShedReason::Capacity);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drr_serves_backlogged_tenants_in_quantum_runs() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 100,
            tenant_quota: 100,
            quantum: 2,
        });
        // Tenant 0 floods; tenant 1 trickles.
        for id in 0..6 {
            assert!(q.submit(req(id, 0)).is_none());
        }
        for id in 10..13 {
            assert!(q.submit(req(id, 1)).is_none());
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue()).map(|r| r.id).collect();
        // Quantum-2 runs alternate: the flood cannot starve the trickle.
        assert_eq!(order, vec![0, 1, 10, 11, 2, 3, 12, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn flooding_tenant_cannot_starve_others() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 1000,
            tenant_quota: 1000,
            quantum: 4,
        });
        for id in 0..100 {
            assert!(q.submit(req(id, 0)).is_none());
        }
        for id in 100..104 {
            assert!(q.submit(req(id, 1)).is_none());
        }
        // Within the first two quantum rounds every tenant-1 request is out,
        // despite tenant 0 holding 25x the backlog.
        let first_sixteen: Vec<u64> = (0..16).filter_map(|_| q.dequeue()).map(|r| r.id).collect();
        let t1_served = first_sixteen.iter().filter(|&&id| id >= 100).count();
        assert_eq!(t1_served, 4, "order: {first_sixteen:?}");
    }

    #[test]
    fn requeue_front_restores_order_and_rotation() {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            capacity: 100,
            tenant_quota: 100,
            quantum: 4,
        });
        for id in 0..3 {
            assert!(q.submit(req(id, 0)).is_none());
        }
        assert!(q.submit(req(10, 1)).is_none());
        // Drain tenant 0's first two and tenant 1's only request...
        let a = q.dequeue().unwrap();
        let b = q.dequeue().unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        let c = q.dequeue().unwrap();
        assert_eq!(c.id, 2);
        let d = q.dequeue().unwrap();
        assert_eq!(d.id, 10);
        assert!(q.is_empty());
        // ...then defer all four: they come back out first, in the same
        // relative order they were deferred in.
        q.requeue_front(vec![a, b, c, d]);
        assert_eq!(q.len(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue()).map(|r| r.id).collect();
        assert_eq!(order, vec![0, 1, 2, 10]);
    }

    #[test]
    fn oldest_submitted_tracks_lane_heads() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        assert_eq!(q.oldest_submitted(), None);
        let mut a = req(0, 0);
        a.submitted_at = 5;
        let mut b = req(1, 1);
        b.submitted_at = 3;
        assert!(q.submit(a).is_none());
        assert!(q.submit(b).is_none());
        assert_eq!(q.oldest_submitted(), Some(3));
        // Dequeue order is DRR, but the minimum stays correct.
        let _ = q.dequeue().unwrap();
        assert!(q.oldest_submitted().is_some());
    }
}
