//! Experiment E15: device-skew × scheduling sweep.
//!
//! Drives the [`PolicyDecisionService`] with Zipf-skewed device traffic —
//! the hot device deliberately scrambled onto the *last* shard, the worst
//! case for static contiguous scheduling — and crosses skew ×
//! {[`Scheduling::Static`], [`Scheduling::Balanced`]} × worker threads,
//! with cross-shard admission backpressure on everywhere. Reports per
//! cell: the hot shard's virtual queue-wait percentiles (cost units, from
//! the deterministic wait overlay), backpressure deferrals, virtual
//! makespan/steal totals, and the sealed ledger digest.
//!
//! The claims E15 exists to demonstrate (asserted by `bench_e15_skew`):
//!
//! 1. Under skew ≥ Zipf(1.0), balanced scheduling reduces the hot shard's
//!    p99 virtual queue wait versus static scheduling at every thread
//!    count.
//! 2. Determinism survives the optimization: for a fixed skew, all
//!    {scheduling × threads} cells seal **digest-identical** ledgers —
//!    work stealing and backpressure never leak into decisions.
//! 3. Overload still fails closed: zero shed-allows in every cell.
//!
//! The workload seed, the recorder name, and therefore the ledger bytes
//! depend only on `(seed, zipf)` — never on scheduling mode or thread
//! count — which is what makes claim 2 checkable byte for byte.

use std::time::Instant;

use apdm_ledger::Ledger;
use apdm_par::{par_map, resolve_threads, Watchdog};
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionConfig;
use crate::batcher::{BatchPolicy, CostModel};
use crate::experiment::percentile;
use crate::request::Decision;
use crate::service::{PolicyDecisionService, Scheduling, ServeConfig};
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

    /// Stable label for a scheduling mode (used in reports and CLI flags).
    pub fn sched_label(sched: Scheduling) -> &'static str {
        match sched {
            Scheduling::Static => "static",
            Scheduling::Balanced => "balanced",
        }
    }
}

/// Measurements of one E15 cell (one skew × scheduling × thread count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E15CellReport {
    /// Zipf exponent of the device draw.
    pub zipf: f64,
    /// `static` or `balanced`.
    pub sched: String,
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
    /// Median virtual queue wait on the hot shard, in cost units.
    pub hot_p50_wait: u64,
    /// 99th-percentile virtual queue wait on the hot shard, in cost units.
    pub hot_p99_wait: u64,
    /// 99th-percentile virtual queue wait across all shards.
    pub all_p99_wait: u64,
    /// 99th-percentile queue latency of decided requests, in ticks.
    pub p99_queue_ticks: u64,
    /// Sum of per-batch virtual makespans, in cost units (deterministic).
    pub makespan_units: u64,
    /// Chunks the virtual schedule moved off their static home worker.
    pub virtual_steals: u64,
    /// Records in the sealed run ledger.
    pub ledger_records: u64,
    /// Head digest of the sealed, verified run ledger. Identical across
    /// scheduling modes and thread counts for a fixed `(seed, zipf)`.
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
    /// One report per (zipf × scheduling × threads) cell, zipf outer,
    /// scheduling middle (static then balanced), threads inner.
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

    /// The cell for `(zipf, sched, threads)`, if present.
    pub fn cell(&self, zipf: f64, sched: Scheduling, threads: usize) -> Option<&E15CellReport> {
        let label = E15Config::sched_label(sched);
        self.cells
            .iter()
            .find(|c| c.zipf == zipf && c.sched == label && c.threads == threads)
    }
}

/// The workload driving one skew point. Depends only on `(seed, zipf)` so
/// every (scheduling × threads) cell at this skew replays the identical
/// request stream.
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
pub fn run_e15_cell(
    cfg: &E15Config,
    zipf: f64,
    sched: Scheduling,
    threads: usize,
) -> (E15CellReport, Ledger) {
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
        scheduling: sched,
        backpressure: true,
        rotation: None,
    };
    // The recorder name must not mention scheduling or threads: the sealed
    // ledger is asserted byte-identical across both.
    let mut svc = PolicyDecisionService::new(
        serve_cfg,
        standard_stacks(cfg.shards, true),
        WorkloadOracle,
        &format!("e15/zipf{zipf:.2}"),
    );
    let mut gen = WorkloadGen::new(spec);
    let offered = gen.total_offered();

    let mut dog = Watchdog::new(cfg.max_ticks);
    let mut watchdog = None;
    let mut latencies: Vec<u64> = Vec::new();
    let mut shed_allows = 0u64;
    let mut collect = |d: Decision, latencies: &mut Vec<u64>| {
        if d.shed.is_some() {
            if d.verdict.permits_execution() {
                shed_allows += 1;
            }
        } else {
            latencies.push(d.queue_ticks());
        }
    };
    let mut now = 0u64;
    loop {
        now += 1;
        if let Err(trip) = dog.charge(1) {
            watchdog = Some(trip.to_string());
            break;
        }
        for req in gen.tick_requests(now) {
            if let Some(d) = svc.submit(req, now) {
                collect(d, &mut latencies);
            }
        }
        for d in svc.tick(now) {
            collect(d, &mut latencies);
        }
        if now >= cfg.arrival_ticks && svc.queue_depth() == 0 {
            break;
        }
    }
    let mut shard_waits = svc.drain_shard_waits();
    let sched_summary = svc.sched_summary();
    let stats = svc.stats();
    let (ledger, _) = svc.finish_segmented(now);
    let ledger = ledger.into_single().expect("an E15 cell never rotates");
    ledger.verify().expect("cell ledger must verify");

    // Hot shard = most decided requests; ties go to the lowest index so
    // the pick is deterministic.
    let hot_shard = (0..shard_waits.len())
        .max_by_key(|&s| (shard_waits[s].len(), usize::MAX - s))
        .unwrap_or(0);
    let hot_requests = shard_waits[hot_shard].len() as u64;
    let hot_p50_wait = percentile(&mut shard_waits[hot_shard], 0.50);
    let hot_p99_wait = percentile(&mut shard_waits[hot_shard], 0.99);
    let mut all_waits: Vec<u64> = shard_waits.iter().flatten().copied().collect();
    let all_p99_wait = percentile(&mut all_waits, 0.99);

    let report = E15CellReport {
        zipf,
        sched: E15Config::sched_label(sched).to_string(),
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
        hot_p50_wait,
        hot_p99_wait,
        all_p99_wait,
        p99_queue_ticks: percentile(&mut latencies, 0.99),
        makespan_units: sched_summary.makespan_units,
        virtual_steals: sched_summary.virtual_steals,
        ledger_records: ledger.len() as u64,
        ledger_digest: ledger.head_digest(),
        watchdog,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (report, ledger)
}

/// Run the full E15 sweep: every zipf × {static, balanced} × threads,
/// fanned out across the worker pool with order-preserving collection.
pub fn run_e15(cfg: &E15Config) -> E15Report {
    let started = Instant::now();
    let cells: Vec<(f64, Scheduling, usize)> = cfg
        .zipfs
        .iter()
        .flat_map(|&zipf| {
            [Scheduling::Static, Scheduling::Balanced]
                .into_iter()
                .flat_map(move |sched| {
                    cfg.threads_sweep
                        .iter()
                        .map(move |&threads| (zipf, sched, threads))
                        .collect::<Vec<_>>()
                })
        })
        .collect();
    let threads = resolve_threads(cfg.threads);
    let cells = par_map(threads, cells, |_, (zipf, sched, cell_threads)| {
        run_e15_cell(cfg, zipf, sched, cell_threads).0
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
        let cfg = tiny();
        let mut digests = std::collections::BTreeMap::new();
        for &zipf in &cfg.zipfs {
            for sched in [Scheduling::Static, Scheduling::Balanced] {
                for &threads in &cfg.threads_sweep {
                    let (cell, ledger) = run_e15_cell(&cfg, zipf, sched, threads);
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
                        "zipf={zipf} sched={:?} threads={threads}: ledger diverged",
                        sched
                    );
                }
            }
        }
    }

    #[test]
    fn skew_concentrates_the_hot_shard_and_balancing_helps() {
        let cfg = E15Config {
            arrival_ticks: 60,
            ..tiny()
        };
        let (uniform, _) = run_e15_cell(&cfg, 0.0, Scheduling::Balanced, 1);
        let (skewed, _) = run_e15_cell(&cfg, 1.2, Scheduling::Balanced, 1);
        assert!(
            skewed.hot_share > uniform.hot_share * 2.0,
            "Zipf(1.2) hot share {} should dwarf uniform {}",
            skewed.hot_share,
            uniform.hot_share
        );
        // The hot device scrambles onto the last shard.
        assert_eq!(skewed.hot_shard, cfg.shards - 1);
        assert!(skewed.deferrals > 0, "hot shard must trip backpressure");
        let (stat, _) = run_e15_cell(&cfg, 1.2, Scheduling::Static, 3);
        let (bal, _) = run_e15_cell(&cfg, 1.2, Scheduling::Balanced, 3);
        assert_eq!(stat.ledger_digest, bal.ledger_digest);
        assert!(
            bal.hot_p99_wait < stat.hot_p99_wait,
            "balanced hot p99 {} should beat static {}",
            bal.hot_p99_wait,
            stat.hot_p99_wait
        );
        assert!(bal.virtual_steals > 0);
        assert_eq!(stat.virtual_steals, 0);
    }
}
