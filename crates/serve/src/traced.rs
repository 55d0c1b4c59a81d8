//! Experiment E14: distributed tracing overhead and critical-path
//! decomposition over a traced client ↔ server decision pipeline.
//!
//! The pipeline is E13's serving stack put behind the degraded network:
//! a seeded [`WorkloadGen`] client submits [`DecisionRequest`]s through an
//! at-least-once [`Courier`] over a lossy/duplicating simnet link to a
//! server wrapping a [`PolicyDecisionService`]; decisions travel back the
//! same way. Every request mints one [`TraceContext`] root, and the causal
//! chain crosses every layer of the stack:
//!
//! [`TraceContext`]: apdm_telemetry::TraceContext
//!
//! ```text
//! client.submit → comms.send (+retries) → comms.recv → serve.admit
//!    → serve.batch → serve.shard → serve.ledger → comms.respond
//!    → comms.recv → client.done
//! ```
//!
//! The experiment runs the identical workload in three modes — tracing
//! [`TraceMode::Disabled`], [`TraceMode::Sampled`] (head-based, one trace
//! in [`E14Config::sample_period`]), and [`TraceMode::Full`] — and reports
//! per-mode wall clock, so the `e14` entry of the `apdm::experiments`
//! registry (`apdm-experiments run e14`) can assert the sampled overhead
//! stays under its budget. For every recorded trace it rebuilds
//! the span DAG ([`TraceGraph`]), checks that **every parent resolves**
//! (causality survives loss, duplication and reordering) and that the
//! critical path **telescopes**: per-step waits sum exactly to the
//! measured end-to-end tick latency.
//!
//! Everything except `wall_ns` (and the overhead ratios derived from it)
//! is deterministic in the seed; [`E14Report::normalized`] strips those
//! fields for run-to-run equality checks.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use apdm_comms::{CommsConfig, Courier, Envelope, Incoming};
use apdm_simnet::{Link, Network, NodeId, Topology};
use apdm_telemetry as telemetry;
use apdm_telemetry::{trace_id, TraceGraph, TraceRecord, TraceSampler};
use serde::{Deserialize, Serialize};

use crate::request::{Decision, DecisionRequest};
use crate::service::{PolicyDecisionService, ServeConfig};
use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};

/// Wire payload of the traced pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMsg {
    /// A client's decision request.
    Request(DecisionRequest),
    /// The service's answer.
    Decision(Decision),
}

/// How much of the request population records a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// No contexts are minted and no telemetry dispatch is installed: the
    /// baseline the other modes are measured against.
    Disabled,
    /// Head-based sampling: one trace in [`E14Config::sample_period`]
    /// records; every request still *propagates* a context (the fixed cost
    /// of causality), but only sampled traces emit records.
    Sampled,
    /// Every trace records.
    Full,
}

impl TraceMode {
    /// All three modes, baseline first.
    pub fn all() -> [TraceMode; 3] {
        [TraceMode::Disabled, TraceMode::Sampled, TraceMode::Full]
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            TraceMode::Disabled => "disabled",
            TraceMode::Sampled => "sampled",
            TraceMode::Full => "full",
        }
    }

    fn sampler(&self, seed: u64, period: u64) -> TraceSampler {
        match self {
            TraceMode::Disabled => TraceSampler::never(),
            TraceMode::Sampled => TraceSampler::one_in(seed, period.max(2)),
            TraceMode::Full => TraceSampler::always(),
        }
    }
}

/// Configuration of one E14 run (all three modes share it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Config {
    /// Master seed: workload, network faults and sampling derive from it.
    pub seed: u64,
    /// Ticks during which the client offers requests.
    pub arrival_ticks: u64,
    /// Requests offered per tick.
    pub per_tick: usize,
    /// Device population.
    pub devices: u64,
    /// Service shards (= guard stacks).
    pub shards: usize,
    /// Service worker threads (0 = auto). Never affects the trace stream.
    pub threads: usize,
    /// Sampling period of [`TraceMode::Sampled`] (one trace in this many).
    pub sample_period: u64,
    /// Link latency in ticks.
    pub latency: u64,
    /// Link loss probability (drives retries).
    pub loss: f64,
    /// Link duplication probability (drives dedups).
    pub dup: f64,
    /// Link reorder probability (late copies overtaken by fresh sends).
    pub reorder: f64,
    /// Tick at which the link partitions (`0` = never).
    pub partition_at: u64,
    /// Ticks the partition lasts.
    pub partition_ticks: u64,
    /// Evaluate the serving SLOs every this many ticks (0 = off).
    pub slo_every: u64,
    /// Tick budget per mode: fail loudly instead of spinning forever.
    pub max_ticks: u64,
}

impl Default for E14Config {
    fn default() -> Self {
        E14Config {
            seed: 42,
            arrival_ticks: 60,
            per_tick: 4,
            devices: 32,
            shards: 4,
            threads: 1,
            sample_period: 8,
            latency: 2,
            loss: 0.15,
            dup: 0.10,
            reorder: 0.05,
            partition_at: 0,
            partition_ticks: 0,
            slo_every: 16,
            max_ticks: 5_000,
        }
    }
}

impl E14Config {
    /// A fast configuration for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        E14Config {
            arrival_ticks: 16,
            per_tick: 2,
            max_ticks: 1_000,
            ..E14Config::default()
        }
    }
}

/// Measurements of one mode's run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14ModeReport {
    /// Mode label (`disabled`/`sampled`/`full`).
    pub mode: String,
    /// Requests the client offered.
    pub offered: u64,
    /// Responses the client received.
    pub completed: u64,
    /// Requests the client gave up on (retries exhausted).
    pub expired: u64,
    /// Requests the service evaluated.
    pub decided: u64,
    /// Requests the service shed (all reasons; every one denied).
    pub shed: u64,
    /// Client-side retransmissions.
    pub retries: u64,
    /// Duplicate deliveries suppressed by the couriers.
    pub dedup_dropped: u64,
    /// Server response-cache hits (duplicates re-answered without the app).
    pub response_cache_hits: u64,
    /// Telemetry records captured.
    pub records: u64,
    /// Distinct recorded trace ids.
    pub traces: u64,
    /// Span-DAG nodes across all recorded traces.
    pub trace_nodes: u64,
    /// Non-root parents that failed to resolve (must be 0).
    pub unresolved_parents: u64,
    /// Critical paths reconstructed (every one checked to telescope).
    pub paths_checked: u64,
    /// Worst end-to-end tick latency over the reconstructed paths.
    pub max_path_ticks: u64,
    /// Most frequent latency-dominating step across the paths.
    pub dominant_hop: String,
    /// `slo.eval` events emitted.
    pub slo_evals: u64,
    /// Ticks the run took (arrival window + drain).
    pub ticks: u64,
    /// Wall-clock for the run. **Not** part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E14 report (serialized to `BENCH_e14_tracing.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Report {
    /// The run configuration.
    pub config: E14Config,
    /// One report per mode, in [`TraceMode::all`] order.
    pub modes: Vec<E14ModeReport>,
    /// `(sampled − disabled) / disabled` wall-clock overhead. Derived from
    /// wall time, so not deterministic.
    pub overhead_sampled: f64,
    /// `(full − disabled) / disabled` wall-clock overhead.
    pub overhead_full: f64,
    /// Wall-clock for all three runs.
    pub wall_ns: u64,
}

impl E14Report {
    /// A copy with every wall-clock-derived field zeroed: two runs over the
    /// same config must compare equal under this projection.
    pub fn normalized(&self) -> E14Report {
        let mut report = self.clone();
        report.wall_ns = 0;
        report.overhead_sampled = 0.0;
        report.overhead_full = 0.0;
        for mode in &mut report.modes {
            mode.wall_ns = 0;
        }
        report
    }

    /// The report for one mode, if present.
    pub fn mode(&self, mode: TraceMode) -> Option<&E14ModeReport> {
        self.modes.iter().find(|m| m.mode == mode.label())
    }
}

/// Run one mode of the E14 pipeline and return its report plus the captured
/// telemetry records (empty in [`TraceMode::Disabled`]). The records are
/// what `apdm-experiments trace-analyze` consumes after
/// [`export_jsonl`](telemetry::export_jsonl).
pub fn run_e14_mode(cfg: &E14Config, mode: TraceMode) -> (E14ModeReport, Vec<TraceRecord>) {
    let started = Instant::now();

    let mut topo = Topology::new();
    let client_node = topo.add_node();
    let server_node = topo.add_node();
    topo.connect(
        client_node,
        server_node,
        Link::with_latency(cfg.latency)
            .with_loss(cfg.loss)
            .with_dup(cfg.dup)
            .with_reorder(cfg.reorder),
    );
    let mut net: Network<Envelope<ServeMsg>> = Network::with_seed(topo, cfg.seed);

    let comms_cfg = CommsConfig {
        timeout: 2 * cfg.latency + 2,
        max_retries: 16,
        backoff_factor: 1,
        jitter: 1,
        ..CommsConfig::default()
    };
    let mut client = Courier::new(client_node, comms_cfg, cfg.seed ^ 0xC11E);
    let mut server = Courier::new(server_node, comms_cfg, cfg.seed ^ 0x5E4E);

    let mut svc = PolicyDecisionService::new(
        ServeConfig {
            seed: cfg.seed,
            threads: cfg.threads,
            shards: cfg.shards,
            cache: true,
            slo_every: cfg.slo_every,
            ..ServeConfig::default()
        },
        standard_stacks(cfg.shards, true),
        WorkloadOracle,
        &format!("e14/{}", mode.label()),
    );
    let mut gen = WorkloadGen::new(WorkloadSpec {
        seed: cfg.seed,
        per_tick: cfg.per_tick,
        arrival_ticks: cfg.arrival_ticks,
        devices: cfg.devices,
        // The network adds hops before admission, so deadlines need slack
        // for latency plus a few retries.
        deadline_slack: Some(8 * cfg.latency + 24),
        ..WorkloadSpec::default()
    });
    let offered = gen.total_offered();

    let collector = Rc::new(telemetry::RingCollector::new(
        (offered as usize) * 24 + 4_096,
    ));
    // Disabled mode installs nothing: `telemetry::enabled()` stays false and
    // no contexts are minted — the true zero-cost baseline.
    let guard = match mode {
        TraceMode::Disabled => None,
        _ => Some(telemetry::install(
            collector.clone() as Rc<dyn telemetry::Subscriber>
        )),
    };
    let sampler = mode.sampler(cfg.seed, cfg.sample_period);

    // Decisions the service still owes a network response: request id →
    // (requester, request MsgId).
    let mut owed: BTreeMap<u64, (NodeId, apdm_comms::MsgId)> = BTreeMap::new();
    let mut completed = 0u64;
    let mut expired = 0u64;
    let mut now = 0u64;
    loop {
        now += 1;
        if now > cfg.max_ticks {
            panic!("e14/{}: tick budget exhausted", mode.label());
        }
        telemetry::set_tick(now);
        if cfg.partition_at > 0 {
            if now == cfg.partition_at {
                net.topology_mut().partition(&[client_node]);
            } else if now == cfg.partition_at + cfg.partition_ticks {
                net.topology_mut().heal();
            }
        }
        for d in net.deliver_at(now) {
            if d.to == server_node {
                if let Some(Incoming::Request {
                    from,
                    id,
                    ctx,
                    payload: ServeMsg::Request(mut req),
                }) = server.accept(&mut net, d, now)
                {
                    // Continue the causal chain from the delivery's recv
                    // span; the serve pipeline advances it stage by stage.
                    req.ctx = ctx;
                    let req_id = req.id;
                    match svc.submit(req, now) {
                        // Admission shed: answer immediately, chaining the
                        // response off the shed span.
                        Some(decision) => {
                            let ctx = decision.ctx;
                            server.respond_traced(
                                &mut net,
                                from,
                                id,
                                ServeMsg::Decision(decision),
                                now,
                                ctx,
                            );
                        }
                        None => {
                            owed.insert(req_id, (from, id));
                        }
                    }
                }
            } else if let Some(Incoming::Response {
                ctx,
                payload: ServeMsg::Decision(decision),
                ..
            }) = client.accept(&mut net, d, now)
            {
                if let Some(c) = ctx {
                    if telemetry::enabled() && c.sampled {
                        let mut fields = Vec::new();
                        c.child(1).push_fields(client_node.0, &mut fields);
                        telemetry::emit_event("client.done", telemetry::Level::Debug, fields);
                    }
                }
                let _ = decision;
                completed += 1;
            }
        }
        for decision in svc.tick(now) {
            if let Some((to, re)) = owed.remove(&decision.request_id) {
                let ctx = decision.ctx;
                server.respond_traced(&mut net, to, re, ServeMsg::Decision(decision), now, ctx);
            }
        }
        for req in gen.tick_requests(now) {
            let root = match mode {
                TraceMode::Disabled => None,
                _ => Some(sampler.root(trace_id(cfg.seed, req.id))),
            };
            if let Some(root) = root {
                if telemetry::enabled() && root.sampled {
                    let mut fields = Vec::new();
                    root.push_fields(client_node.0, &mut fields);
                    telemetry::emit_event("client.submit", telemetry::Level::Debug, fields);
                }
            }
            client.request_traced(&mut net, server_node, ServeMsg::Request(req), now, root);
        }
        expired += client.poll(&mut net, now).len() as u64;
        server.poll(&mut net, now);
        if now > cfg.arrival_ticks
            && completed + expired >= offered
            && svc.queue_depth() == 0
            && owed.is_empty()
        {
            break;
        }
    }
    let stats = svc.stats();
    let (ledger, _) = svc.finish_segmented(now);
    ledger.verify().expect("e14 ledger must verify");
    let (_, _, retries, dedup_dropped) = client.counters();
    let (response_cache_hits, _) = server.cache_counters();
    let records = if guard.is_some() {
        collector.records()
    } else {
        Vec::new()
    };
    drop(guard);

    // Rebuild the span DAG and check the tentpole invariants for every
    // recorded trace: parents resolve, critical paths telescope.
    let graph = TraceGraph::build(&records);
    let unresolved = graph.unresolved_parents();
    let mut paths_checked = 0u64;
    let mut max_path_ticks = 0u64;
    let mut dominant_counts: BTreeMap<String, u64> = BTreeMap::new();
    for trace in graph.traces() {
        let path = graph
            .critical_path(trace)
            .expect("recorded trace must yield a path");
        let waits: u64 = path.steps.iter().map(|s| s.wait_ticks).sum();
        assert_eq!(
            waits,
            path.total_ticks,
            "e14/{}: trace {trace:016x} critical path must telescope",
            mode.label()
        );
        paths_checked += 1;
        max_path_ticks = max_path_ticks.max(path.total_ticks);
        *dominant_counts.entry(path.dominant).or_insert(0) += 1;
    }
    let dominant_hop = dominant_counts
        .iter()
        .max_by_key(|&(_, count)| count)
        .map(|(name, _)| name.clone())
        .unwrap_or_default();
    let slo_evals = records.iter().filter(|r| r.name == "slo.eval").count() as u64;

    let report = E14ModeReport {
        mode: mode.label().to_string(),
        offered,
        completed,
        expired,
        decided: stats.decided,
        shed: stats.shed_total(),
        retries,
        dedup_dropped,
        response_cache_hits,
        records: records.len() as u64,
        traces: graph.traces().len() as u64,
        trace_nodes: graph.node_count() as u64,
        unresolved_parents: unresolved.len() as u64,
        paths_checked,
        max_path_ticks,
        dominant_hop,
        slo_evals,
        ticks: now,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (report, records)
}

/// Run the full E14 experiment: the identical workload under all three
/// trace modes, with wall-clock overhead ratios against the disabled
/// baseline.
pub fn run_e14(cfg: &E14Config) -> E14Report {
    let started = Instant::now();
    let modes: Vec<E14ModeReport> = TraceMode::all()
        .into_iter()
        .map(|mode| run_e14_mode(cfg, mode).0)
        .collect();
    let base = modes[0].wall_ns.max(1) as f64;
    let overhead = |i: usize| (modes[i].wall_ns as f64 - base) / base;
    E14Report {
        config: cfg.clone(),
        overhead_sampled: overhead(1),
        overhead_full: overhead(2),
        modes,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mode_traces_every_request_end_to_end() {
        let cfg = E14Config::smoke();
        let (report, records) = run_e14_mode(&cfg, TraceMode::Full);
        assert_eq!(report.completed + report.expired, report.offered);
        assert!(report.completed > 0, "requests must complete under faults");
        assert_eq!(
            report.unresolved_parents, 0,
            "every span parent must resolve"
        );
        assert_eq!(report.traces, report.offered, "full mode records all");
        assert_eq!(report.paths_checked, report.traces);
        assert!(report.retries > 0, "a 15%-loss link must force retries");
        assert!(!records.is_empty());

        // One completed request spans the whole stack: client intake,
        // courier hops, serve stages, ledger append, response, completion.
        let graph = TraceGraph::build(&records);
        let full_stack = graph.traces().iter().any(|&t| {
            let names: Vec<&str> = graph.nodes(t).iter().map(|n| n.name.as_str()).collect();
            [
                "client.submit",
                "comms.send",
                "comms.recv",
                "serve.admit",
                "serve.batch",
                "serve.shard",
                "serve.ledger",
                "comms.respond",
                "client.done",
            ]
            .iter()
            .all(|stage| names.contains(stage))
        });
        assert!(full_stack, "one trace must span every pipeline stage");
    }

    #[test]
    fn sampled_mode_records_a_strict_subset() {
        let cfg = E14Config::smoke();
        let (full, _) = run_e14_mode(&cfg, TraceMode::Full);
        let (sampled, _) = run_e14_mode(&cfg, TraceMode::Sampled);
        let (disabled, records) = run_e14_mode(&cfg, TraceMode::Disabled);
        assert!(sampled.traces < full.traces);
        assert_eq!(disabled.records, 0);
        assert!(records.is_empty());
        // The decision pipeline itself is mode-invariant.
        assert_eq!(full.decided, sampled.decided);
        assert_eq!(full.decided, disabled.decided);
        assert_eq!(full.completed, disabled.completed);
    }

    #[test]
    fn e14_is_deterministic_modulo_wall_clock() {
        let cfg = E14Config::smoke();
        let a = run_e14(&cfg).normalized();
        let b = run_e14(&cfg).normalized();
        assert_eq!(a, b);
        let (_, r1) = run_e14_mode(&cfg, TraceMode::Full);
        let (_, r2) = run_e14_mode(&cfg, TraceMode::Full);
        assert_eq!(r1, r2, "trace streams must be bit-identical");
    }

    #[test]
    fn trace_stream_is_thread_count_invariant() {
        let runs: Vec<Vec<TraceRecord>> = [1usize, 3, 8]
            .iter()
            .map(|&threads| {
                let cfg = E14Config {
                    threads,
                    ..E14Config::smoke()
                };
                run_e14_mode(&cfg, TraceMode::Full).1
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 3 threads");
        assert_eq!(runs[0], runs[2], "1 vs 8 threads");
    }
}
