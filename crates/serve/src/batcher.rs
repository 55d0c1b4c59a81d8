//! Micro-batching policy and the deterministic work meter.
//!
//! The serving layer amortizes per-dispatch overhead (shard fan-out, pool
//! hand-off, memo-cache plumbing) across a batch of requests, exactly as a
//! production inference service amortizes kernel-launch and weight-load
//! cost. [`BatchPolicy`] decides *when* a batch closes (size or age
//! threshold, the classic tension: bigger batches raise throughput, the
//! wait raises tail latency); [`CostModel`] + [`Meter`] account *how much*
//! evaluation work the backend can absorb per tick.
//!
//! The cost model is deliberately virtual — fixed unit charges per batch
//! and per request, not wall-clock — so saturation, shedding and the
//! batching advantage are all bit-reproducible under a fixed seed and
//! assertable in CI. Wall-clock timings are still measured (telemetry
//! histograms, `wall_ns` report fields) but live outside the determinism
//! contract, mirroring how `apdm-telemetry` treats span durations.

use serde::{Deserialize, Serialize};

/// When to close a micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Maximum requests per batch (1 = unbatched: every request pays the
    /// full dispatch overhead alone).
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest member has waited this many
    /// ticks (0 = never hold: whatever is pending goes immediately).
    pub max_wait: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_wait: 2,
        }
    }
}

impl BatchPolicy {
    /// The no-batching ablation: singleton batches, no holding.
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait: 0,
        }
    }

    /// Is batching actually on?
    pub fn batching(&self) -> bool {
        self.max_batch > 1
    }

    /// Should a batch be dispatched now, given the queue depth and how long
    /// the oldest queued request has waited?
    pub fn ready(&self, pending: usize, oldest_wait: u64) -> bool {
        pending >= self.max_batch || (pending > 0 && oldest_wait >= self.max_wait)
    }
}

/// Unit charges for the deterministic work meter.
///
/// Every evaluated request costs `cost_miss`, whether the guard stack's
/// memo cache answered it or not. The cache is a speed device: pricing its
/// hits would make its state — and so its contents across a restart —
/// part of what gets decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Work units the evaluation backend absorbs per tick.
    pub capacity_per_tick: u64,
    /// Fixed dispatch cost per batch — the overhead batching amortizes.
    pub batch_overhead: u64,
    /// Cost of evaluating one request through a guard stack.
    pub cost_miss: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            capacity_per_tick: 64,
            batch_overhead: 4,
            cost_miss: 2,
        }
    }
}

impl CostModel {
    /// Charge for one evaluated batch of `n` requests.
    pub fn batch_cost(&self, n: u64) -> u64 {
        self.batch_overhead + self.estimate(n)
    }

    /// Cost of evaluating `n` requests, without the batch overhead: what
    /// the scheduler and the backpressure tracker plan with before a batch
    /// runs. The same at every scheduling mode and thread count.
    pub fn estimate(&self, n: u64) -> u64 {
        n * self.cost_miss
    }
}

/// Work-conserving budget meter. Credit refills by `capacity_per_tick`
/// each tick (idle capacity is not banked across ticks), a batch may
/// dispatch whenever credit is positive, and its actual cost is charged
/// afterwards — a batch may overdraw, carrying the debt into the next
/// tick. Saturation therefore emerges as: queue grows → admission bound
/// binds → capacity sheds. All integer arithmetic; fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meter {
    credit: i64,
    capacity: i64,
    spent: u64,
}

impl Meter {
    /// A meter refilling `capacity_per_tick` units per tick.
    pub fn new(model: &CostModel) -> Self {
        Meter {
            credit: 0,
            capacity: i64::try_from(model.capacity_per_tick).unwrap_or(i64::MAX),
            spent: 0,
        }
    }

    /// Start-of-tick refill: credit climbs by one tick's capacity but never
    /// banks above it (an idle service cannot burst later).
    pub fn refill(&mut self) {
        self.credit = self.credit.saturating_add(self.capacity).min(self.capacity);
    }

    /// May another batch dispatch this tick?
    pub fn can_dispatch(&self) -> bool {
        self.credit > 0
    }

    /// Charge an executed batch (may push credit negative — the debt
    /// shortens the next tick's budget).
    pub fn charge(&mut self, cost: u64) {
        self.credit = self
            .credit
            .saturating_sub(i64::try_from(cost).unwrap_or(i64::MAX));
        self.spent += cost;
    }

    /// Total units charged over the meter's lifetime.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Freeze the meter for a checkpoint: `(credit, spent)`. Credit carries
    /// outstanding debt, so a restored meter sheds exactly when an
    /// uninterrupted one would.
    pub fn export(&self) -> (i64, u64) {
        (self.credit, self.spent)
    }

    /// Rebuild a meter from an [`export`](Meter::export) under the same
    /// cost model.
    pub fn restore(model: &CostModel, credit: i64, spent: u64) -> Self {
        let mut meter = Meter::new(model);
        meter.credit = credit;
        meter.spent = spent;
        meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_closes_on_size_or_age() {
        let p = BatchPolicy {
            max_batch: 4,
            max_wait: 2,
        };
        assert!(!p.ready(0, 99), "nothing pending, nothing to dispatch");
        assert!(!p.ready(3, 1), "young partial batch keeps waiting");
        assert!(p.ready(4, 0), "full batch goes immediately");
        assert!(p.ready(1, 2), "aged partial batch goes");
        assert!(
            BatchPolicy::unbatched().ready(1, 0),
            "unbatched never holds"
        );
        assert!(!BatchPolicy::unbatched().batching());
    }

    #[test]
    fn batch_cost_amortizes_overhead() {
        let m = CostModel::default();
        // 16 requests in one batch vs 16 singleton batches.
        let batched = m.batch_cost(16);
        let unbatched = 16 * m.batch_cost(1);
        assert!(batched < unbatched);
        assert_eq!(unbatched - batched, 15 * m.batch_overhead);
        assert_eq!(batched, m.batch_overhead + m.estimate(16));
    }

    #[test]
    fn meter_refills_without_banking_and_carries_debt() {
        let model = CostModel {
            capacity_per_tick: 10,
            ..CostModel::default()
        };
        let mut meter = Meter::new(&model);
        assert!(!meter.can_dispatch(), "no credit before the first tick");
        meter.refill();
        meter.refill();
        // Two idle refills do not bank 20 units.
        meter.charge(10);
        assert!(!meter.can_dispatch());
        // Overdraw: a 25-unit batch on 10 credit leaves 15 of debt...
        meter.refill();
        assert!(meter.can_dispatch());
        meter.charge(25);
        meter.refill();
        assert!(!meter.can_dispatch(), "debt eats the whole next refill");
        meter.refill();
        assert!(meter.can_dispatch(), "and is paid off the tick after");
        assert_eq!(meter.spent(), 35);
    }
}
