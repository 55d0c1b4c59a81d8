//! Allocation budget of the in-process decision path.
//!
//! A guard check sits in front of every action a device takes, so the
//! fixed cost of deciding a request is what a warm service pays most
//! often. This test counts heap allocations while a warm, hot-fleet-shaped
//! service (four shards with the standard cached stacks, one worker
//! thread, backpressure on, a ledger rotation with its checkpoint every 48
//! records) decides ticks whose every guard check is a memo hit, and pins
//! the allocations per decided request as an upper bound.
//!
//! The counting allocator wraps [`System`] and counts per thread, so tests
//! running on other threads of this binary do not disturb the count; the
//! service runs its single worker inline on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apdm_ledger::RotationPolicy;
use apdm_serve::{
    standard_stacks, DecisionRequest, PolicyDecisionService, ServeConfig, WorkloadGen,
    WorkloadOracle, WorkloadSpec,
};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ticks in the stream, which is replayed twice: once to warm the caches
/// and grow every reused buffer, then measured.
const TICKS: u64 = 256;

/// Upper bound on heap allocations per decided request on all-hit ticks,
/// rotations included. Measured at 3.93. What remains is each decision's
/// action string, the clones of memoized Deny and Replace verdicts, the
/// per-batch scheduling buffers and the rotation checkpoints; recording a
/// verdict allocates nothing but a non-empty reason.
const BUDGET: f64 = 4.0;

/// Submit and tick through `ticks`; returns the requests decided.
fn run(
    svc: &mut PolicyDecisionService<WorkloadOracle>,
    ticks: impl Iterator<Item = (u64, Vec<DecisionRequest>)>,
) -> u64 {
    let mut decided = 0u64;
    for (now, requests) in ticks {
        for req in requests {
            assert!(svc.submit(req, now).is_none(), "the queue never fills");
        }
        decided += svc.tick(now).len() as u64;
    }
    decided
}

#[test]
fn a_warm_all_hit_tick_stays_within_its_allocation_budget() {
    let cfg = ServeConfig {
        seed: 1,
        threads: 1,
        shards: 4,
        cache: true,
        backpressure: true,
        rotation: Some(RotationPolicy {
            max_records: 48,
            max_bytes: 0,
            keep_sealed: 3,
        }),
        ..ServeConfig::default()
    };
    let mut gen = WorkloadGen::new(WorkloadSpec {
        seed: 1,
        per_tick: 16,
        arrival_ticks: TICKS,
        devices: 48,
        tenants: 4,
        deadline_slack: Some(8),
        zipf: 0.6,
    });
    // Every request is generated before anything is counted. The measured
    // pass replays the warm-up stream shifted by `TICKS`, so each of its
    // guard contexts was already judged on the same shard.
    let warmup: Vec<(u64, Vec<DecisionRequest>)> = (1..=TICKS)
        .map(|now| (now, gen.tick_requests(now)))
        .collect();
    let measured: Vec<(u64, Vec<DecisionRequest>)> = warmup
        .iter()
        .map(|(now, requests)| {
            let shifted = requests
                .iter()
                .map(|req| DecisionRequest {
                    id: req.id + TICKS * 16,
                    submitted_at: req.submitted_at + TICKS,
                    deadline: req.deadline.map(|d| d + TICKS),
                    ..req.clone()
                })
                .collect();
            (now + TICKS, shifted)
        })
        .collect();
    let mut svc = PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, cfg.cache),
        WorkloadOracle,
        "alloc-budget",
    );
    run(&mut svc, warmup.into_iter());
    let misses_before = svc.stats().cache_misses;
    let before = allocs();
    let decided = run(&mut svc, measured.into_iter());
    let spent = allocs() - before;
    assert_eq!(
        svc.stats().cache_misses,
        misses_before,
        "every measured check is a memo hit"
    );
    assert!(decided >= 16 * (TICKS - 1), "decided {decided}");
    let per_request = spent as f64 / decided as f64;
    println!("{spent} allocations for {decided} decided requests: {per_request:.3} each");
    assert!(
        per_request <= BUDGET,
        "{per_request:.3} allocations per decided request, budget {BUDGET}"
    );
}
