//! Experiment E13: serving-layer load sweep.
//!
//! Drives the [`PolicyDecisionService`] with a seeded open-loop workload at
//! increasing offered loads and crosses the three serving knobs — batching,
//! the verdict memo cache, and load shedding — fully (2³ configurations per
//! load). Reports per cell: throughput (decided requests per tick of the
//! deterministic cost model), queue-latency percentiles (p50/p99/p99.9/max
//! in ticks), shed rates by reason, cache hit rates, and the sealed run
//! ledger's head digest.
//!
//! The claims E13 exists to demonstrate (asserted by the `e13` entry of the
//! `apdm::experiments` registry, `apdm-experiments run e13`):
//!
//! 1. Micro-batching raises sustained throughput at the highest offered
//!    load (amortized dispatch overhead).
//! 2. Shedding is inert at low load (rate 0) and engages monotonically as
//!    offered load crosses the service rate.
//! 3. Overload never weakens safety: every shed request resolves to a
//!    denial — the fail-closed property, checked over every cell.
//!
//! Everything except the `wall_ns` fields is deterministic in the seed;
//! [`E13Report::normalized`] strips those fields for run-to-run equality
//! checks.

use std::time::Instant;

use apdm_par::{par_map, resolve_threads, Watchdog};
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionConfig;
use crate::batcher::BatchPolicy;
use crate::request::Decision;
use crate::service::{PolicyDecisionService, ServeConfig};
use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};

/// Sweep configuration for experiment E13.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E13Config {
    /// Master seed (workload streams derive from it).
    pub seed: u64,
    /// Ticks during which the generator offers requests; the service then
    /// drains its queue before the cell closes.
    pub arrival_ticks: u64,
    /// Offered loads (requests per tick), one sweep point each.
    pub loads: Vec<usize>,
    /// Threads for the cell fan-out (0 = auto). Cells themselves run their
    /// services single-threaded — results are thread-invariant either way.
    pub threads: usize,
    /// Shards (= guard stacks) per service instance.
    pub shards: usize,
    /// Watchdog budget in ticks per cell: a cell that cannot drain its
    /// queue within this many ticks fails loudly instead of hanging the
    /// sweep.
    pub max_ticks: u64,
}

impl Default for E13Config {
    fn default() -> Self {
        E13Config {
            seed: 42,
            arrival_ticks: 200,
            loads: vec![2, 8, 32, 64, 96, 128],
            threads: 0,
            shards: 8,
            max_ticks: 10_000,
        }
    }
}

impl E13Config {
    /// A fast configuration for CI smoke runs: short arrival window, one
    /// clearly-underloaded and one clearly-overloaded point.
    pub fn smoke() -> Self {
        E13Config {
            arrival_ticks: 40,
            loads: vec![2, 96],
            max_ticks: 4_000,
            ..E13Config::default()
        }
    }
}

/// One knob setting of the 2³ cross.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Knobs {
    /// Micro-batching on (16/2) or off (singleton batches).
    pub batching: bool,
    /// Verdict memo cache on the per-shard guard stacks.
    pub cache: bool,
    /// Admission bounds + deadlines on; off = nothing is ever refused.
    pub shedding: bool,
}

impl Knobs {
    /// All eight combinations, in a stable order.
    pub fn all() -> Vec<Knobs> {
        let mut out = Vec::with_capacity(8);
        for batching in [true, false] {
            for cache in [true, false] {
                for shedding in [true, false] {
                    out.push(Knobs {
                        batching,
                        cache,
                        shedding,
                    });
                }
            }
        }
        out
    }

    /// Stable cell label, e.g. `batch+cache+shed`.
    pub fn label(&self) -> String {
        format!(
            "{}+{}+{}",
            if self.batching { "batch" } else { "nobatch" },
            if self.cache { "cache" } else { "nocache" },
            if self.shedding { "shed" } else { "noshed" },
        )
    }
}

/// Measurements of one E13 cell (one load × one knob setting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E13CellReport {
    /// `<knobs>` label (see [`Knobs::label`]).
    pub label: String,
    /// Offered load (requests per tick).
    pub load: usize,
    /// Micro-batching on?
    pub batching: bool,
    /// Verdict cache on?
    pub cache: bool,
    /// Shedding on?
    pub shedding: bool,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests evaluated by a guard stack.
    pub decided: u64,
    /// Requests refused (all reasons).
    pub shed: u64,
    /// Sheds: global queue at capacity.
    pub shed_capacity: u64,
    /// Sheds: tenant over quota.
    pub shed_quota: u64,
    /// Sheds: deadline expired in queue.
    pub shed_deadline: u64,
    /// Shed decisions whose verdict permitted execution — the fail-closed
    /// invariant demands this stays **zero**.
    pub shed_allows: u64,
    /// Evaluated allows (with or without obligations).
    pub allowed: u64,
    /// Evaluated guard denials.
    pub denied: u64,
    /// Evaluated substitutions.
    pub replaced: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch: f64,
    /// Verdict-cache hits across shards.
    pub cache_hits: u64,
    /// Verdict-cache misses across shards.
    pub cache_misses: u64,
    /// Ticks the cell ran (arrival window + drain).
    pub ticks: u64,
    /// Decided requests per tick of the deterministic cost model.
    pub throughput: f64,
    /// Shed requests / offered requests.
    pub shed_rate: f64,
    /// Median queue latency of decided requests, in ticks.
    pub p50_queue_ticks: u64,
    /// 99th-percentile queue latency, in ticks.
    pub p99_queue_ticks: u64,
    /// 99.9th-percentile queue latency, in ticks.
    pub p999_queue_ticks: u64,
    /// Worst queue latency, in ticks.
    pub max_queue_ticks: u64,
    /// Admission-queue high-water mark.
    pub max_queue_depth: u64,
    /// Cost-model units charged over the cell.
    pub cost_spent: u64,
    /// Records in the sealed run ledger.
    pub ledger_records: u64,
    /// Head digest of the sealed, verified run ledger.
    pub ledger_digest: u64,
    /// Set when the drain watchdog tripped (cell could not empty its queue
    /// within the tick budget).
    pub watchdog: Option<String>,
    /// Wall-clock for the cell. **Not** part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E13 sweep report (serialized to `BENCH_e13_serve.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E13Report {
    /// The sweep configuration.
    pub config: E13Config,
    /// One report per (load × knobs) cell, loads outer, knobs inner (the
    /// order of [`E13Config::loads`] × [`Knobs::all`]).
    pub cells: Vec<E13CellReport>,
    /// Wall-clock for the whole sweep. Not deterministic.
    pub wall_ns: u64,
}

impl E13Report {
    /// A copy with every wall-clock field zeroed: two sweeps over the same
    /// config must compare equal under this projection.
    pub fn normalized(&self) -> E13Report {
        let mut report = self.clone();
        report.wall_ns = 0;
        for cell in &mut report.cells {
            cell.wall_ns = 0;
        }
        report
    }

    /// The cell for `(load, knobs)`, if present.
    pub fn cell(&self, load: usize, knobs: Knobs) -> Option<&E13CellReport> {
        self.cells
            .iter()
            .find(|c| c.load == load && c.label == knobs.label())
    }
}

/// `q`-quantile (0..=1) of an unsorted latency sample, by rank. Returns 0
/// for an empty sample.
pub(crate) fn percentile(latencies: &mut [u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64) * q).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// Run one E13 cell: one service instance, one workload, one knob setting.
pub fn run_e13_cell(cfg: &E13Config, load: usize, knobs: Knobs) -> E13CellReport {
    let started = Instant::now();
    let spec = WorkloadSpec {
        seed: cfg.seed ^ (load as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        per_tick: load,
        arrival_ticks: cfg.arrival_ticks,
        // With shedding off nothing may be refused, so deadlines are off
        // too — the unbounded queue absorbs the overload as latency.
        deadline_slack: if knobs.shedding { Some(8) } else { None },
        ..WorkloadSpec::default()
    };
    let serve_cfg = ServeConfig {
        seed: spec.seed,
        // Cells run single-threaded; the sweep parallelizes across cells.
        threads: 1,
        shards: cfg.shards,
        admission: if knobs.shedding {
            AdmissionConfig::default()
        } else {
            AdmissionConfig::unbounded()
        },
        batch: if knobs.batching {
            BatchPolicy::default()
        } else {
            BatchPolicy::unbatched()
        },
        cost: Default::default(),
        cache: knobs.cache,
        slo_every: 0,
        backpressure: false,
        rotation: None,
    };
    let label = knobs.label();
    let mut svc = PolicyDecisionService::new(
        serve_cfg,
        standard_stacks(cfg.shards, knobs.cache),
        WorkloadOracle,
        &format!("e13/{label}/load{load}"),
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
    let ticks = now;
    let (ledger, stats) = svc.finish_segmented(now);
    let ledger = ledger.into_single().expect("an E13 cell never rotates");
    ledger.verify().expect("cell ledger must verify");

    let max_queue_ticks = latencies.iter().copied().max().unwrap_or(0);
    E13CellReport {
        label,
        load,
        batching: knobs.batching,
        cache: knobs.cache,
        shedding: knobs.shedding,
        offered,
        decided: stats.decided,
        shed: stats.shed_total(),
        shed_capacity: stats.shed_capacity,
        shed_quota: stats.shed_quota,
        shed_deadline: stats.shed_deadline,
        shed_allows,
        allowed: stats.allowed,
        denied: stats.denied,
        replaced: stats.replaced,
        batches: stats.batches,
        mean_batch: if stats.batches == 0 {
            0.0
        } else {
            stats.decided as f64 / stats.batches as f64
        },
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        ticks,
        throughput: stats.decided as f64 / ticks.max(1) as f64,
        shed_rate: stats.shed_total() as f64 / offered.max(1) as f64,
        p50_queue_ticks: percentile(&mut latencies, 0.50),
        p99_queue_ticks: percentile(&mut latencies, 0.99),
        p999_queue_ticks: percentile(&mut latencies, 0.999),
        max_queue_ticks,
        max_queue_depth: stats.max_queue_depth,
        cost_spent: stats.cost_spent,
        ledger_records: ledger.len() as u64,
        ledger_digest: ledger.head_digest(),
        watchdog,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

/// Run the full E13 sweep: every load × every knob setting, fanned out
/// across the worker pool with order-preserving collection.
pub fn run_e13(cfg: &E13Config) -> E13Report {
    let started = Instant::now();
    let cells: Vec<(usize, Knobs)> = cfg
        .loads
        .iter()
        .flat_map(|&load| Knobs::all().into_iter().map(move |k| (load, k)))
        .collect();
    let threads = resolve_threads(cfg.threads);
    let cells = par_map(threads, cells, |_, (load, knobs)| {
        run_e13_cell(cfg, load, knobs)
    });
    E13Report {
        config: cfg.clone(),
        cells,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E13Config {
        E13Config {
            arrival_ticks: 12,
            loads: vec![2, 48],
            max_ticks: 2_000,
            ..E13Config::default()
        }
    }

    #[test]
    fn percentile_ranks_are_exact() {
        let mut sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut sample, 0.50), 50);
        assert_eq!(percentile(&mut sample, 0.99), 99);
        assert_eq!(percentile(&mut sample, 0.999), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.999), 7);
    }

    #[test]
    fn knob_cross_is_complete_and_stable() {
        let all = Knobs::all();
        assert_eq!(all.len(), 8);
        let labels: std::collections::BTreeSet<String> = all.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 8, "labels must be distinct");
        assert!(labels.contains("batch+cache+shed"));
        assert!(labels.contains("nobatch+nocache+noshed"));
    }

    #[test]
    fn smoke_sweep_satisfies_the_headline_claims() {
        let report = run_e13(&tiny());
        assert_eq!(report.cells.len(), 16);
        for cell in &report.cells {
            assert_eq!(cell.watchdog, None, "{}: watchdog tripped", cell.label);
            assert_eq!(cell.shed_allows, 0, "{}: a shed allowed!", cell.label);
            assert_eq!(
                cell.decided + cell.shed,
                cell.offered,
                "{}: every offered request must resolve",
                cell.label
            );
            if !cell.shedding {
                assert_eq!(cell.shed, 0, "{}: noshed cell shed work", cell.label);
            }
        }
        // Low load sheds nothing; high load sheds (shedding cells only).
        let low = report
            .cell(
                2,
                Knobs {
                    batching: true,
                    cache: true,
                    shedding: true,
                },
            )
            .unwrap();
        assert_eq!(low.shed, 0);
        let high = report
            .cell(
                48,
                Knobs {
                    batching: true,
                    cache: true,
                    shedding: true,
                },
            )
            .unwrap();
        assert!(high.shed > 0, "overloaded cell must shed");
        // Batching beats unbatched at the highest load.
        let unbatched = report
            .cell(
                48,
                Knobs {
                    batching: false,
                    cache: true,
                    shedding: true,
                },
            )
            .unwrap();
        assert!(
            high.throughput > unbatched.throughput,
            "batched {} <= unbatched {}",
            high.throughput,
            unbatched.throughput
        );
    }

    #[test]
    fn sweep_is_deterministic_modulo_wall_clock() {
        let cfg = E13Config {
            arrival_ticks: 8,
            loads: vec![2, 32],
            max_ticks: 1_000,
            ..E13Config::default()
        };
        let a = run_e13(&cfg).normalized();
        let b = run_e13(&cfg).normalized();
        assert_eq!(a, b);
        let json_a = serde_json::to_string(&a).unwrap();
        let json_b = serde_json::to_string(&b).unwrap();
        assert_eq!(
            json_a, json_b,
            "normalized reports must serialize identically"
        );
    }
}
