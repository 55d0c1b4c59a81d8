//! Deterministic parallel execution primitives for the apdm workspace.
//!
//! Everything here is plain `std`: scoped threads, a mutex-guarded work
//! queue, and an mpsc channel. The two entry points encode the two shapes
//! of parallelism the workspace needs:
//!
//! - [`par_map`] — map a function over owned items with dynamic scheduling
//!   but **order-preserving collection** (experiment fan-out: cells finish
//!   in any order, results are reassembled in input order).
//! - [`run_sharded_balanced`] — split a mutable slice into cost-weighted
//!   contiguous chunks and claim them in a deterministic steal order that
//!   is a pure function of `(seed, tick, chunk id)` (see [`StealPlan`]).
//!   Results come back in chunk (= input) order no matter which worker ran
//!   which chunk, and a deterministic *virtual* schedule
//!   ([`VirtualSchedule`]) reports makespan/steal counts in cost units so
//!   callers can reason about balance without ever reading the wall clock.
//!   [`static_schedule`] expresses a contiguous static partition in the
//!   same units, as a comparison baseline.
//!
//! Determinism contract: neither function lets scheduling order leak into
//! results. Output position is fixed by input position, so callers that
//! reduce results sequentially observe the same stream regardless of thread
//! count. Workers must not touch shared mutable state beyond their own item
//! — the type signatures (`Send` items, `Sync` closures) enforce the easy
//! half; keeping closures pure of interior-mutable globals is the caller's
//! half of the contract.
//!
//! A worker panic is propagated to the caller (the scope re-raises it), so
//! a buggy closure fails loudly instead of producing a short result vector.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of hardware threads, falling back to 1 when unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` means "auto".
///
/// Auto consults the `APDM_THREADS` environment variable first (so CI and
/// scripts can force a level without plumbing flags), then falls back to
/// [`hardware_threads`]. Any explicit non-zero request is honoured as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var("APDM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => hardware_threads(),
    }
}

/// Split `len` items into at most `shards` contiguous ranges of near-equal
/// size. Returns `(start, end)` pairs covering `0..len` exactly once, in
/// order. Empty when `len == 0`.
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Map `f` over `items` on up to `threads` scoped threads with dynamic
/// (work-stealing) scheduling, returning results **in input order**.
///
/// Items are handed out through a shared atomic cursor, so a slow item does
/// not hold up workers — only its own result slot. With `threads <= 1` the
/// map runs inline in input order.
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let n = items.len();
    let slots: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|x| std::sync::Mutex::new(Some(x)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let f = &f;
    let slots = &slots;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("work item taken twice");
                // A send can only fail if the receiver is gone, which means
                // the caller's scope already unwound; propagate by panicking.
                tx.send((i, f(i, item))).expect("result receiver dropped");
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            debug_assert!(out[i].is_none(), "duplicate result for slot {i}");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("missing result slot"))
            .collect()
    })
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit bijective mixer.
///
/// Used to derive steal-order tie-breaks from `(seed, tick, chunk id)` so
/// the order is well-scrambled yet a pure function of its inputs.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Parameters that pin down a deterministic steal order.
///
/// The order in which chunks are claimed is a pure function of
/// `(seed, tick, chunk id, chunk cost)` — never of thread timing — so two
/// runs with the same plan over the same items claim chunks in the same
/// order regardless of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPlan {
    /// Run-level seed; mixed into every tie-break.
    pub seed: u64,
    /// Tick (or batch) counter; varies the order between ticks so no chunk
    /// is systematically favoured across a run.
    pub tick: u64,
}

/// Target chunks per worker thread. More chunks = finer balancing at
/// slightly more claim overhead.
const CHUNKS_PER_THREAD: usize = 4;

impl StealPlan {
    /// A plan for one tick (or batch) of a run.
    pub fn new(seed: u64, tick: u64) -> Self {
        StealPlan { seed, tick }
    }

    /// Deterministic tie-break key for `chunk`.
    fn key(&self, chunk: usize) -> u64 {
        mix64(
            self.seed
                ^ self.tick.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (chunk as u64).wrapping_mul(0xd134_2543_de82_ef95),
        )
    }
}

/// Split `costs.len()` items into at most `target` contiguous chunks of
/// near-equal **total cost** (not count). Boundaries fall where cumulative
/// cost crosses proportional thresholds, so one very hot item gets a chunk
/// to itself while cold items coalesce. Covers `0..len` exactly; every
/// chunk is non-empty. Zero total cost degrades to [`shard_bounds`].
pub fn weighted_chunks(costs: &[u64], target: usize) -> Vec<(usize, usize)> {
    let len = costs.len();
    if len == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, len);
    let total: u64 = costs.iter().sum();
    if total == 0 {
        return shard_bounds(len, target);
    }
    // Greedy fill to a per-chunk budget of ceil(total/target): a chunk is
    // closed *before* an item that would overshoot, so a single hot item
    // lands in a chunk of its own instead of dragging its cold prefix
    // along. The last chunk absorbs any remainder, keeping the count
    // within `target`.
    let per = total.div_ceil(target as u64);
    let mut out = Vec::with_capacity(target);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &c) in costs.iter().enumerate() {
        if i > start && out.len() + 1 < target && acc.saturating_add(c) > per {
            out.push((start, i));
            start = i;
            acc = 0;
        }
        acc = acc.saturating_add(c);
    }
    out.push((start, len));
    out
}

/// The deterministic order in which chunks are claimed: heaviest first
/// (longest-processing-time list scheduling), ties broken by a seeded hash
/// of the chunk id, then by the id itself. A pure function of the plan and
/// the chunk costs.
pub fn steal_order(plan: &StealPlan, chunk_costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..chunk_costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(chunk_costs[i]), plan.key(i), i));
    order
}

/// One chunk's slot in a [`VirtualSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSchedule {
    /// Item range `[start, end)` this chunk covers.
    pub range: (usize, usize),
    /// Total estimated cost of the chunk, in caller-defined cost units.
    pub cost: u64,
    /// Virtual worker the list schedule assigns the chunk to.
    pub worker: usize,
    /// Virtual start time (cost units since the tick began).
    pub start: u64,
    /// Virtual finish time (`start + cost`).
    pub finish: u64,
    /// Whether the assigned worker differs from the chunk's *home* worker
    /// under a static contiguous partition — i.e. the chunk was stolen.
    pub stolen: bool,
}

/// A deterministic simulated execution of a set of chunks.
///
/// This is a *virtual* schedule: it models `threads` workers, each picking
/// up the next chunk in claim order the moment it goes idle (ties broken by
/// lowest worker index). It depends only on `(threads, order, costs)` — not
/// on actual thread timing — so makespan, per-chunk start times, and steal
/// counts are bit-reproducible and safe to put in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualSchedule {
    /// Per-chunk assignments, indexed by chunk id (input order).
    pub chunks: Vec<ChunkSchedule>,
    /// Virtual completion time of the slowest worker, in cost units.
    pub makespan: u64,
    /// Number of chunks whose assigned worker differs from their home
    /// worker under a static contiguous partition.
    pub steals: u64,
}

fn home_workers(chunks: usize, threads: usize) -> Vec<usize> {
    let mut home = vec![0usize; chunks];
    for (w, &(s, e)) in shard_bounds(chunks, threads).iter().enumerate() {
        for h in home.iter_mut().take(e).skip(s) {
            *h = w;
        }
    }
    home
}

/// Simulate claiming `ranges`/`costs` in `order` on `threads` virtual
/// workers. See [`VirtualSchedule`] for the determinism contract.
pub fn simulate_schedule(
    threads: usize,
    order: &[usize],
    ranges: &[(usize, usize)],
    costs: &[u64],
) -> VirtualSchedule {
    let n = costs.len();
    let threads = threads.clamp(1, n.max(1));
    let home = home_workers(n, threads);
    let mut free = vec![0u64; threads];
    let mut chunks: Vec<ChunkSchedule> = ranges
        .iter()
        .zip(costs)
        .map(|(&range, &cost)| ChunkSchedule {
            range,
            cost,
            worker: 0,
            start: 0,
            finish: 0,
            stolen: false,
        })
        .collect();
    let mut steals = 0u64;
    for &id in order {
        let w = (0..threads).min_by_key(|&w| (free[w], w)).unwrap_or(0);
        let slot = &mut chunks[id];
        slot.worker = w;
        slot.start = free[w];
        slot.finish = free[w].saturating_add(slot.cost);
        slot.stolen = w != home[id];
        steals += u64::from(slot.stolen);
        free[w] = slot.finish;
    }
    VirtualSchedule {
        makespan: free.into_iter().max().unwrap_or(0),
        chunks,
        steals,
    }
}

/// The virtual schedule of the *static* strategy: each worker owns a
/// contiguous block of chunks and runs them in index order, no stealing.
/// A virtual baseline only — nothing executes this way — expressed in the
/// same cost units so static and balanced makespans are directly comparable.
pub fn static_schedule(
    threads: usize,
    ranges: &[(usize, usize)],
    costs: &[u64],
) -> VirtualSchedule {
    let mut items = ranges.iter().zip(costs);
    let mut chunks = Vec::with_capacity(costs.len());
    let mut makespan = 0u64;
    // Worker `w` runs its contiguous block back to back from time 0.
    for (worker, (first, end)) in shard_bounds(costs.len(), threads).into_iter().enumerate() {
        let mut free = 0u64;
        for (&range, &cost) in items.by_ref().take(end - first) {
            let start = free;
            free = start.saturating_add(cost);
            chunks.push(ChunkSchedule {
                range,
                cost,
                worker,
                start,
                finish: free,
                stolen: false,
            });
        }
        makespan = makespan.max(free);
    }
    VirtualSchedule {
        chunks,
        makespan,
        steals: 0,
    }
}

/// Result of a [`run_sharded_balanced`] call.
pub struct BalancedRun<R> {
    /// One result per chunk, in chunk (= input) order.
    pub results: Vec<R>,
    /// The chunk ranges that were executed (from [`weighted_chunks`]).
    pub chunks: Vec<(usize, usize)>,
    /// Deterministic virtual schedule of this tick (makespan, per-chunk
    /// start times, virtual steal count). Safe to report.
    pub schedule: VirtualSchedule,
    /// Chunks that actually ran on a thread other than the virtual
    /// schedule predicted. Depends on real thread timing — telemetry only,
    /// never put this in deterministic output.
    pub actual_steals: u64,
}

/// Split `items` into cost-weighted chunks (per-item cost from `cost`),
/// claim them across `threads` workers in the deterministic steal order of
/// `plan`, and return per-chunk results in chunk order.
///
/// Determinism contract: the chunk partition, the claim order, the virtual
/// schedule, and the position of every result are pure functions of
/// `(plan, items, cost, threads)`. Which *OS thread* runs a chunk is not —
/// only [`BalancedRun::actual_steals`] observes that, and it must stay out
/// of deterministic output. With `threads <= 1` chunks run inline on the
/// caller's thread, still in steal order, so sequential and parallel runs
/// execute identical call sequences per chunk.
pub fn run_sharded_balanced<T, R, C, F>(
    threads: usize,
    plan: StealPlan,
    items: &mut [T],
    cost: C,
    f: F,
) -> BalancedRun<R>
where
    T: Send,
    R: Send,
    C: Fn(&T) -> u64,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let item_costs: Vec<u64> = items.iter().map(&cost).collect();
    let target = threads.max(1).saturating_mul(CHUNKS_PER_THREAD);
    let chunks = weighted_chunks(&item_costs, target);
    let chunk_costs: Vec<u64> = chunks
        .iter()
        .map(|&(s, e)| item_costs[s..e].iter().sum())
        .collect();
    let order = steal_order(&plan, &chunk_costs);
    let threads = threads.max(1).min(chunks.len().max(1));
    let schedule = simulate_schedule(threads, &order, &chunks, &chunk_costs);
    if chunks.is_empty() {
        return BalancedRun {
            results: Vec::new(),
            chunks,
            schedule,
            actual_steals: 0,
        };
    }
    if threads <= 1 {
        let mut slots: Vec<Option<&mut [T]>> = Vec::with_capacity(chunks.len());
        let mut rest = items;
        for &(s, e) in &chunks {
            let (head, tail) = rest.split_at_mut(e - s);
            slots.push(Some(head));
            rest = tail;
        }
        let mut results: Vec<Option<R>> = (0..chunks.len()).map(|_| None).collect();
        for &id in &order {
            let chunk = slots[id].take().expect("chunk executed twice");
            results[id] = Some(f(id, chunk));
        }
        return BalancedRun {
            results: results
                .into_iter()
                .map(|r| r.expect("missing chunk result"))
                .collect(),
            chunks,
            schedule,
            actual_steals: 0,
        };
    }
    let n = chunks.len();
    let mut slot_vec: Vec<std::sync::Mutex<Option<&mut [T]>>> = Vec::with_capacity(n);
    let mut rest = items;
    for &(s, e) in &chunks {
        let (head, tail) = rest.split_at_mut(e - s);
        slot_vec.push(std::sync::Mutex::new(Some(head)));
        rest = tail;
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, usize, R)>();
    let f = &f;
    let order = &order;
    let slots = &slot_vec;
    let cursor = &cursor;
    let (results, actual_steals) = std::thread::scope(|scope| {
        for worker in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    break;
                }
                let id = order[pos];
                let chunk = slots[id]
                    .lock()
                    .expect("chunk slot poisoned")
                    .take()
                    .expect("chunk executed twice");
                tx.send((id, worker, f(id, chunk)))
                    .expect("result receiver dropped");
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut actual_steals = 0u64;
        for (id, worker, r) in rx {
            debug_assert!(out[id].is_none(), "duplicate result for chunk {id}");
            actual_steals += u64::from(worker != schedule.chunks[id].worker);
            out[id] = Some(r);
        }
        let results: Vec<R> = out
            .into_iter()
            .map(|r| r.expect("missing chunk result"))
            .collect();
        (results, actual_steals)
    });
    BalancedRun {
        results,
        chunks,
        schedule,
        actual_steals,
    }
}

/// A tick budget for one unit of fanned-out work (an experiment cell).
///
/// Retry/backoff loops over a lossy network can livelock — a cell waiting
/// for a quorum that can never assemble would otherwise spin its drain loop
/// forever and hang the whole sweep. The worker charges the watchdog for
/// every simulated tick; when the budget runs out, [`Watchdog::charge`]
/// returns a [`WatchdogTrip`] and the cell fails loudly with a diagnostic
/// instead of stalling its `par_map` slot.
///
/// The budget is counted in simulated ticks, not wall-clock time, so trips
/// are bit-deterministic: the same seed trips at the same tick on every
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    budget: u64,
    spent: u64,
}

/// Error returned when a [`Watchdog`]'s tick budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// The budget that was exhausted.
    pub budget: u64,
}

impl std::fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "watchdog tripped: tick budget of {} exhausted (livelocked cell?)",
            self.budget
        )
    }
}

impl std::error::Error for WatchdogTrip {}

impl Watchdog {
    /// A watchdog allowing `budget` ticks before tripping.
    pub fn new(budget: u64) -> Self {
        Watchdog { budget, spent: 0 }
    }

    /// Charge `ticks` against the budget. Returns `Err(WatchdogTrip)` once
    /// the cumulative charge exceeds the budget; further charges keep
    /// failing (the dog does not re-arm).
    pub fn charge(&mut self, ticks: u64) -> Result<(), WatchdogTrip> {
        self.spent = self.spent.saturating_add(ticks);
        if self.spent > self.budget {
            return Err(WatchdogTrip {
                budget: self.budget,
            });
        }
        Ok(())
    }

    /// Ticks charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Ticks left before the next charge trips.
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.spent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_range_exactly() {
        for len in 0..40 {
            for shards in 1..10 {
                let b = shard_bounds(len, shards);
                let mut expect = 0;
                for &(s, e) in &b {
                    assert_eq!(s, expect);
                    assert!(e > s, "empty shard");
                    expect = e;
                }
                assert_eq!(expect, len);
                if len > 0 {
                    assert!(b.len() <= shards.max(1));
                    let sizes: Vec<_> = b.iter().map(|&(s, e)| e - s).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "unbalanced shards {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let seq = par_map(1, items.clone(), |i, x| (i, x * x));
        for threads in [2, 3, 4, 8] {
            let par = par_map(threads, items.clone(), |i, x| (i, x * x));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map(4, (0..33).collect::<Vec<u64>>(), |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 33);
        assert_eq!(out, (1..=33).collect::<Vec<u64>>());
    }

    #[test]
    fn resolve_threads_honours_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn weighted_chunks_cover_range_and_isolate_hot_items() {
        for len in 0..40usize {
            for target in 1..10usize {
                let costs: Vec<u64> = (0..len).map(|i| (i as u64 * 7 + 3) % 13).collect();
                let b = weighted_chunks(&costs, target);
                let mut expect = 0;
                for &(s, e) in &b {
                    assert_eq!(s, expect);
                    assert!(e > s, "empty chunk");
                    expect = e;
                }
                assert_eq!(expect, len);
                if len > 0 {
                    assert!(b.len() <= target.max(1));
                }
            }
        }
        // One dominant item gets a chunk to itself.
        let mut costs = vec![1u64; 16];
        costs[5] = 1000;
        let b = weighted_chunks(&costs, 4);
        assert!(
            b.contains(&(5, 6)),
            "hot item not isolated into its own chunk: {b:?}"
        );
    }

    #[test]
    fn steal_order_is_a_deterministic_lpt_permutation() {
        let plan = StealPlan::new(42, 7);
        let costs = [3u64, 9, 1, 9, 4, 0];
        let order = steal_order(&plan, &costs);
        let again = steal_order(&plan, &costs);
        assert_eq!(order, again, "steal order must be deterministic");
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
        // Costs along the order are non-increasing (LPT).
        for pair in order.windows(2) {
            assert!(costs[pair[0]] >= costs[pair[1]], "not LPT: {order:?}");
        }
        // A different tick permutes ties differently at least sometimes.
        let flat = [5u64; 32];
        let t0 = steal_order(&StealPlan::new(42, 0), &flat);
        let t1 = steal_order(&StealPlan::new(42, 1), &flat);
        assert_ne!(t0, t1, "seeded tie-break should vary with tick");
    }

    #[test]
    fn simulated_balanced_schedule_beats_static_under_skew() {
        // One hot chunk at the end of the range: static puts it on the last
        // worker after that worker's other chunks; balanced starts it first.
        let ranges: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let mut costs = vec![10u64; 8];
        costs[6] = 200;
        let plan = StealPlan::new(1, 1);
        let order = steal_order(&plan, &costs);
        for threads in [2, 3, 4] {
            let bal = simulate_schedule(threads, &order, &ranges, &costs);
            let stat = static_schedule(threads, &ranges, &costs);
            assert!(
                bal.makespan <= stat.makespan,
                "threads={threads}: balanced {} > static {}",
                bal.makespan,
                stat.makespan
            );
            assert_eq!(bal.chunks[6].start, 0, "hot chunk must start first");
            assert_eq!(stat.steals, 0);
            // Every chunk is scheduled exactly once and finishes at
            // start + cost.
            for (id, c) in bal.chunks.iter().enumerate() {
                assert_eq!(c.finish, c.start + c.cost, "chunk {id}");
                assert!(c.worker < threads);
            }
        }
    }

    #[test]
    fn run_sharded_balanced_is_thread_invariant() {
        let plan = StealPlan::new(99, 3);
        let baseline: (Vec<u64>, Vec<u64>) = {
            let mut items: Vec<u64> = (0..97).collect();
            let run = run_sharded_balanced(
                1,
                plan,
                &mut items,
                |&x| x % 11 + 1,
                |_, chunk| {
                    chunk.iter_mut().for_each(|x| *x = x.wrapping_mul(3) + 1);
                    chunk.iter().sum::<u64>()
                },
            );
            assert_eq!(run.actual_steals, 0);
            (items, run.results)
        };
        for threads in [2, 3, 8] {
            let mut items: Vec<u64> = (0..97).collect();
            let run = run_sharded_balanced(
                threads,
                plan,
                &mut items,
                |&x| x % 11 + 1,
                |_, chunk| {
                    chunk.iter_mut().for_each(|x| *x = x.wrapping_mul(3) + 1);
                    chunk.iter().sum::<u64>()
                },
            );
            assert_eq!(items, baseline.0, "threads={threads}: mutations diverge");
            // Chunk partitions depend on the thread count, but the merged
            // per-item effect and the total must not.
            assert_eq!(
                run.results.iter().sum::<u64>(),
                baseline.1.iter().sum::<u64>(),
                "threads={threads}"
            );
            assert_eq!(run.results.len(), run.chunks.len());
            assert_eq!(run.schedule.chunks.len(), run.chunks.len());
        }
    }

    #[test]
    fn run_sharded_balanced_handles_empty_input() {
        let mut empty: Vec<u32> = Vec::new();
        let run = run_sharded_balanced(4, StealPlan::new(0, 0), &mut empty, |_| 1, |_, s| s.len());
        assert!(run.results.is_empty());
        assert!(run.chunks.is_empty());
        assert_eq!(run.schedule.makespan, 0);
    }

    #[test]
    fn watchdog_trips_exactly_past_budget_and_stays_tripped() {
        let mut dog = Watchdog::new(10);
        assert!(dog.charge(4).is_ok());
        assert!(dog.charge(6).is_ok());
        assert_eq!(dog.spent(), 10);
        assert_eq!(dog.remaining(), 0);
        let trip = dog.charge(1).unwrap_err();
        assert_eq!(trip.budget, 10);
        assert!(trip.to_string().contains("tick budget of 10"));
        assert!(dog.charge(0).is_err(), "a tripped dog does not re-arm");
    }
}
