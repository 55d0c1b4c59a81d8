//! Experiment E15: device-skew × threads sweep of shard scheduling.
//!
//! Drives the [`PolicyDecisionService`] with Zipf-skewed device traffic —
//! the hot device deliberately scrambled onto the *last* shard, the worst
//! case for static contiguous scheduling — and crosses skew × worker
//! threads, with cross-shard admission backpressure on everywhere. Every
//! batch executes once and is described by both virtual schedules of
//! [`SchedSummary`](crate::SchedSummary), so each cell reports the static
//! and the balanced schedule side by side: the hot shard's virtual
//! queue-wait percentiles (cost units, from the deterministic wait
//! overlay), the all-shard p99 wait and the virtual makespan, plus the
//! balanced schedule's steal count, backpressure deferrals and the sealed
//! ledger digest.
//!
//! The claims E15 exists to demonstrate (asserted by the `e15` entry of the
//! `apdm::experiments` registry, `apdm-experiments run e15`):
//!
//! 1. Under skew ≥ Zipf(1.0), the balanced schedule reduces the hot
//!    shard's p99 virtual queue wait versus the static one at every
//!    thread count (within each cell).
//! 2. Determinism survives the optimization: for a fixed skew, every
//!    thread count seals a **digest-identical** ledger — work stealing and
//!    backpressure never leak into decisions.
//! 3. Overload still fails closed: zero shed-allows in every cell.
//!
//! The workload seed, the recorder name, and therefore the ledger bytes
//! depend only on `(seed, zipf)` — never on the thread count — which is
//! what makes claim 2 checkable byte for byte.

use std::time::Instant;

use apdm_ledger::Ledger;
use apdm_par::{par_map, resolve_threads};
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionConfig;
use crate::batcher::{BatchPolicy, CostModel};
use crate::drive::run_to_completion;
use crate::experiment::{count_percentile, percentile, shed_allows_and_latencies};
use crate::service::{PolicyDecisionService, ServeConfig, WaitCounts};
use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};

/// Sweep configuration for experiment E15.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E15Config {
    /// Master seed (workload streams derive from it and the skew).
    pub seed: u64,
    /// Ticks during which the generator offers requests.
    pub arrival_ticks: u64,
    /// Offered load (requests per tick) — fixed across the sweep so skew
    /// is the only workload variable.
    pub load: usize,
    /// Device population (the Zipf support).
    pub devices: u64,
    /// Shards (= guard stacks) per service instance.
    pub shards: usize,
    /// Zipf exponents to sweep (0.0 = uniform control).
    pub zipfs: Vec<f64>,
    /// Worker thread counts to sweep per cell.
    pub threads_sweep: Vec<usize>,
    /// Threads for the cell fan-out (0 = auto); cells pin their own
    /// service thread counts from `threads_sweep`.
    pub threads: usize,
    /// Watchdog budget in ticks per cell.
    pub max_ticks: u64,
}

impl Default for E15Config {
    fn default() -> Self {
        E15Config {
            seed: 42,
            arrival_ticks: 160,
            load: 40,
            devices: 64,
            shards: 16,
            zipfs: vec![0.0, 0.6, 1.0, 1.4],
            threads_sweep: vec![1, 3, 8],
            threads: 0,
            max_ticks: 10_000,
        }
    }
}

impl E15Config {
    /// A fast configuration for CI smoke runs: short arrival window, one
    /// uniform and one clearly-skewed point, two thread counts.
    pub fn smoke() -> Self {
        E15Config {
            arrival_ticks: 40,
            zipfs: vec![0.0, 1.2],
            threads_sweep: vec![1, 3],
            max_ticks: 4_000,
            ..E15Config::default()
        }
    }
}

/// One virtual schedule's figures in an E15 cell. Deterministic for a
/// fixed `(seed, zipf, threads)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleFigures {
    /// Median virtual queue wait on the hot shard, in cost units.
    pub hot_p50_wait: u64,
    /// 99th-percentile virtual queue wait on the hot shard, in cost units.
    pub hot_p99_wait: u64,
    /// 99th-percentile virtual queue wait across all shards.
    pub all_p99_wait: u64,
    /// Sum of per-batch virtual makespans, in cost units.
    pub makespan_units: u64,
}

/// Measurements of one E15 cell (one skew × thread count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E15CellReport {
    /// Zipf exponent of the device draw.
    pub zipf: f64,
    /// Service worker threads for this cell.
    pub threads: usize,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests evaluated by a guard stack.
    pub decided: u64,
    /// Requests refused (all reasons).
    pub shed: u64,
    /// Sheds: deadline expired in queue.
    pub shed_deadline: u64,
    /// Shed decisions whose verdict permitted execution — must be zero.
    pub shed_allows: u64,
    /// Requests deferred to a later batch by cross-shard backpressure.
    pub deferrals: u64,
    /// The shard that decided the most requests.
    pub hot_shard: usize,
    /// Requests the hot shard decided.
    pub hot_requests: u64,
    /// Hot shard's share of all decided requests.
    pub hot_share: f64,
    /// Waits and makespan under the static contiguous schedule (the
    /// comparison baseline, which never steals).
    pub static_schedule: ScheduleFigures,
    /// Waits and makespan under the balanced work-stealing schedule.
    pub balanced_schedule: ScheduleFigures,
    /// Chunks the balanced schedule moved off their static home worker.
    pub virtual_steals: u64,
    /// 99th-percentile queue latency of decided requests, in ticks.
    pub p99_queue_ticks: u64,
    /// Records in the sealed run ledger.
    pub ledger_records: u64,
    /// Head digest of the sealed, verified run ledger. Identical across
    /// thread counts for a fixed `(seed, zipf)`.
    pub ledger_digest: u64,
    /// Set when the drain watchdog tripped.
    pub watchdog: Option<String>,
    /// Wall-clock for the cell. **Not** part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E15 sweep report (serialized to `BENCH_e15_skew.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E15Report {
    /// The sweep configuration.
    pub config: E15Config,
    /// One report per (zipf × threads) cell, zipf outer, threads inner.
    pub cells: Vec<E15CellReport>,
    /// Wall-clock for the whole sweep. Not deterministic.
    pub wall_ns: u64,
}

impl E15Report {
    /// A copy with every wall-clock field zeroed: two sweeps over the same
    /// config must compare equal under this projection.
    pub fn normalized(&self) -> E15Report {
        let mut report = self.clone();
        report.wall_ns = 0;
        for cell in &mut report.cells {
            cell.wall_ns = 0;
        }
        report
    }

    /// The cell for `(zipf, threads)`, if present.
    pub fn cell(&self, zipf: f64, threads: usize) -> Option<&E15CellReport> {
        self.cells
            .iter()
            .find(|c| c.zipf == zipf && c.threads == threads)
    }
}

/// The workload driving one skew point. Depends only on `(seed, zipf)` so
/// every thread count at this skew replays the identical request stream.
fn skew_spec(cfg: &E15Config, zipf: f64) -> WorkloadSpec {
    WorkloadSpec {
        seed: cfg.seed ^ ((zipf * 100.0) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        per_tick: cfg.load,
        arrival_ticks: cfg.arrival_ticks,
        devices: cfg.devices,
        zipf,
        ..WorkloadSpec::default()
    }
}

/// Run one E15 cell and return its report plus the sealed ledger (the CLI
/// writes the ledger out for the byte-for-byte CI comparison).
pub fn run_e15_cell(cfg: &E15Config, zipf: f64, threads: usize) -> (E15CellReport, Ledger) {
    let started = Instant::now();
    let spec = skew_spec(cfg, zipf);
    let serve_cfg = ServeConfig {
        seed: spec.seed,
        threads,
        shards: cfg.shards,
        admission: AdmissionConfig::default(),
        batch: BatchPolicy::default(),
        cost: CostModel::default(),
        cache: true,
        slo_every: 0,
        backpressure: true,
        rotation: None,
    };
    // The recorder name must not mention threads: the sealed ledger is
    // asserted byte-identical across thread counts.
    let mut svc = PolicyDecisionService::new(
        serve_cfg,
        standard_stacks(cfg.shards, true),
        WorkloadOracle,
        &format!("e15/zipf{zipf:.2}"),
    );
    let mut gen = WorkloadGen::new(spec);
    let offered = gen.total_offered();
    let run = run_to_completion(&mut svc, &mut gen, 1, cfg.max_ticks, |_, _| {});
    let (shed_allows, mut latencies) = shed_allows_and_latencies(&run.decisions);
    let shard_waits = svc.drain_shard_waits();
    let summary = svc.sched_summary();
    let (ledger, stats) = svc.finish_segmented(run.final_tick);
    let ledger = ledger.into_single().expect("an E15 cell never rotates");
    ledger.verify().expect("cell ledger must verify");

    // Hot shard = most decided requests; ties go to the lowest index so
    // the pick is deterministic.
    let decided_on = |s: usize| shard_waits[s][0].values().sum::<u64>();
    let hot_shard = (0..shard_waits.len())
        .max_by_key(|&s| (decided_on(s), usize::MAX - s))
        .unwrap_or(0);
    let hot_requests = decided_on(hot_shard);
    // Schedule `i` of the `[static, balanced]` wait counts.
    let figures = |i: usize, makespan_units: u64| {
        let hot = &shard_waits[hot_shard][i];
        let mut all = WaitCounts::new();
        for (&wait, &count) in shard_waits.iter().flat_map(|w| &w[i]) {
            *all.entry(wait).or_default() += count;
        }
        ScheduleFigures {
            hot_p50_wait: count_percentile(hot, 0.50),
            hot_p99_wait: count_percentile(hot, 0.99),
            all_p99_wait: count_percentile(&all, 0.99),
            makespan_units,
        }
    };

    let report = E15CellReport {
        zipf,
        threads,
        offered,
        decided: stats.decided,
        shed: stats.shed_total(),
        shed_deadline: stats.shed_deadline,
        shed_allows,
        deferrals: stats.deferrals,
        hot_shard,
        hot_requests,
        hot_share: hot_requests as f64 / stats.decided.max(1) as f64,
        static_schedule: figures(0, summary.static_makespan_units),
        balanced_schedule: figures(1, summary.balanced_makespan_units),
        virtual_steals: summary.virtual_steals,
        p99_queue_ticks: percentile(&mut latencies, 0.99),
        ledger_records: ledger.len() as u64,
        ledger_digest: ledger.head_digest(),
        watchdog: run.watchdog.map(|trip| trip.to_string()),
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (report, ledger)
}

/// Run the full E15 sweep: every zipf × threads, fanned out across the
/// worker pool with order-preserving collection.
pub fn run_e15(cfg: &E15Config) -> E15Report {
    let started = Instant::now();
    let cells: Vec<(f64, usize)> = cfg
        .zipfs
        .iter()
        .flat_map(|&zipf| {
            cfg.threads_sweep
                .iter()
                .map(move |&threads| (zipf, threads))
        })
        .collect();
    let threads = resolve_threads(cfg.threads);
    let cells = par_map(threads, cells, |_, (zipf, cell_threads)| {
        run_e15_cell(cfg, zipf, cell_threads).0
    });
    E15Report {
        config: cfg.clone(),
        cells,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E15Config {
        E15Config {
            arrival_ticks: 16,
            zipfs: vec![0.0, 1.2],
            threads_sweep: vec![1, 3],
            max_ticks: 2_000,
            ..E15Config::default()
        }
    }

    #[test]
    fn skewed_cells_share_one_ledger_across_sched_and_threads() {
        // Both schedules are reported from one execution, so one ledger
        // per cell covers them; across thread counts it must not move.
        let cfg = tiny();
        let mut digests = std::collections::BTreeMap::new();
        for &zipf in &cfg.zipfs {
            for &threads in &cfg.threads_sweep {
                let (cell, ledger) = run_e15_cell(&cfg, zipf, threads);
                assert_eq!(cell.watchdog, None);
                assert_eq!(cell.shed_allows, 0);
                assert_eq!(cell.decided + cell.shed, cell.offered);
                let bytes = ledger.to_jsonl();
                let entry = digests
                    .entry(format!("{zipf}"))
                    .or_insert_with(|| (cell.ledger_digest, bytes.clone()));
                assert_eq!(
                    (entry.0, &entry.1),
                    (cell.ledger_digest, &bytes),
                    "zipf={zipf} threads={threads}: ledger diverged"
                );
            }
        }
    }

    #[test]
    fn skew_concentrates_the_hot_shard_and_balancing_helps() {
        let cfg = E15Config {
            arrival_ticks: 60,
            ..tiny()
        };
        let (uniform, _) = run_e15_cell(&cfg, 0.0, 1);
        let (skewed, _) = run_e15_cell(&cfg, 1.2, 1);
        assert!(
            skewed.hot_share > uniform.hot_share * 2.0,
            "Zipf(1.2) hot share {} should dwarf uniform {}",
            skewed.hot_share,
            uniform.hot_share
        );
        // The hot device scrambles onto the last shard.
        assert_eq!(skewed.hot_shard, cfg.shards - 1);
        assert!(skewed.deferrals > 0, "hot shard must trip backpressure");
        // Static and balanced compared within one cell.
        let (cell, _) = run_e15_cell(&cfg, 1.2, 3);
        let (stat, bal) = (cell.static_schedule, cell.balanced_schedule);
        assert!(
            bal.hot_p99_wait < stat.hot_p99_wait,
            "balanced hot p99 {} should beat static {}",
            bal.hot_p99_wait,
            stat.hot_p99_wait
        );
        assert!(cell.virtual_steals > 0);
    }
}
