//! Layer probes that run outside the request path: guard checks replayed
//! on fresh stacks, and ledger verification on the operator path.

use std::hint::black_box;
use std::time::Instant;

use apdm_guards::GuardContext;
use apdm_ledger::SegmentedLedger;
use apdm_policy::Action;
use apdm_serve::{standard_stacks, DecisionRequest, WorkloadOracle};

use crate::inproc::SHARDS;
use crate::stats::{median_f64, ns};

/// Requests replayed through fresh guard stacks. At most one cache epoch
/// per shard (the memo cache flushes at 8192 entries), so the second pass
/// over them hits on every workload.
pub const REPLAY_REQUESTS: usize = 8192;

/// `GuardStack::check` timings split by memo-cache outcome, ns.
#[derive(Debug, Default)]
pub struct CheckSamples {
    pub hit: Vec<u64>,
    pub miss: Vec<u64>,
}

/// Replay the first [`REPLAY_REQUESTS`] requests of `requests` twice
/// through fresh `standard_stacks`, each on its shard's stack, timing
/// every check and classifying it by the stack's hit/miss counters.
pub fn replay_checks<'a>(requests: impl Iterator<Item = &'a DecisionRequest>) -> CheckSamples {
    let requests: Vec<&DecisionRequest> = requests.take(REPLAY_REQUESTS).collect();
    let subjects: Vec<String> = requests.iter().map(|r| format!("d{}", r.device)).collect();
    let mut stacks = standard_stacks(SHARDS, true);
    let mut out = CheckSamples::default();
    for _pass in 0..2 {
        for (req, subject) in requests.iter().zip(&subjects) {
            let stack = &mut stacks[(req.device % SHARDS as u64) as usize];
            let alternatives: Vec<&Action> = req.alternatives.iter().collect();
            let ctx = GuardContext {
                tick: req.submitted_at,
                subject,
                state: &req.state,
                alternatives: &alternatives,
                world_token: 0,
            };
            let before = stack.cache_stats().unwrap_or_default();
            let t0 = Instant::now();
            let verdict = stack.check(&ctx, &req.proposed, WorkloadOracle);
            let t1 = Instant::now();
            black_box(verdict);
            let after = stack.cache_stats().unwrap_or_default();
            if after.0 > before.0 {
                out.hit.push(ns(t0, t1));
            } else {
                out.miss.push(ns(t0, t1));
            }
        }
    }
    out
}

/// Median ns per record of 32 `verify()` calls on one sealed ledger.
pub fn verify_ns_per_record(ledger: &SegmentedLedger) -> f64 {
    let records = ledger.total_records().max(1) as f64;
    let per_record: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            let ok = ledger.verify().is_ok();
            let t1 = Instant::now();
            black_box(ok);
            ns(t0, t1) as f64 / records
        })
        .collect();
    median_f64(&per_record)
}
