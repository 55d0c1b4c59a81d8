//! Wall-clock benchmark of the policy decision service.
//!
//! Three workloads drive the public API of `apdm-serve` and `apdm-net`
//! from outside, time every call into a layer, check every output, and
//! report named metrics with units:
//!
//! * `hot-fleet` — in-process, quantized states, the memo cache answers
//!   almost every check: per-request fixed costs dominate.
//! * `cold-burst` — in-process, continuous states so the cache never
//!   hits, with periodic bursts past the service's virtual capacity so
//!   admission sheds, DRR, quotas and backpressure all engage.
//! * `tcp-hot` — the hot stream over loopback TCP, two lockstep
//!   connections from one thread; the difference to `hot-fleet` is the
//!   transport.
//!
//! Each run replays [`STREAMS`] streams, derived from its seed, in rounds
//! against a fresh service until the time budget is spent. Every round
//! passes the correctness gate (see [`inproc::Gate`]) and must reproduce
//! the deterministic counters of the stream's first round exactly. The
//! untraced run reports the end-to-end metrics, scaled to a host of fixed
//! speed where they are CPU-bound (see [`host`]); the traced run reports
//! the per-layer metrics and the spans.

pub mod gen;
pub mod host;
pub mod inproc;
pub mod layers;
pub mod stats;
pub mod tcp;

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use apdm_ledger::SegmentedLedger;
use apdm_net::DecisionSnap;
use apdm_telemetry::{self as telemetry, Dispatch, Subscriber, TraceRecord};

use crate::gen::{generate, Arrivals, States, Stream, StreamSpec};
use crate::inproc::{Counters, Gate, Samples, WORKER_THREADS};
use crate::stats::{add_buckets, bucket_quantile, median_f64, ns, quantile, Buckets, Spans};
use crate::tcp::WireSamples;

/// A telemetry subscriber that keeps nothing: the traced run wants the
/// registry's histograms, not the service's trace events.
pub struct Discard;

impl Subscriber for Discard {
    fn record(&self, _: &TraceRecord) {}
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotFleet,
    ColdBurst,
    TcpHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotFleet, Workload::ColdBurst, Workload::TcpHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotFleet => "hot-fleet",
            Workload::ColdBurst => "cold-burst",
            Workload::TcpHot => "tcp-hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stream one round replays. `smoke` shrinks it for tests.
    pub fn stream_spec(self, seed: u64, smoke: bool) -> StreamSpec {
        // One full batch (the default `max_batch` of 16) a tick: no request
        // is carried over, so no backlog forms. At 24 a tick some streams
        // fell into a standing backlog and cost ~40% more than others.
        let hot = StreamSpec {
            seed,
            ticks: if smoke { 64 } else { 3072 },
            arrivals: Arrivals::Steady(16),
            states: States::Grid,
            devices: 48,
            zipf: 0.6,
            tenants: 4,
            deadline_slack: 8,
        };
        match self {
            Workload::HotFleet => hot,
            // Bursts past the virtual capacity, tighter deadlines and a
            // hotter device mix, so capacity, quota and deadline sheds and
            // shard backpressure all engage.
            Workload::ColdBurst => StreamSpec {
                ticks: if smoke { 64 } else { 512 },
                arrivals: Arrivals::Bursts {
                    base: 6,
                    burst: 100,
                    period: 32,
                    burst_ticks: 6,
                },
                states: States::Continuous,
                zipf: 1.2,
                deadline_slack: 4,
                ..hot
            },
            // Short rounds, as a lockstep tick over TCP can cost ~90 ms;
            // 72 ticks still leave more than ten samples above each
            // round's p99.
            Workload::TcpHot => StreamSpec {
                ticks: if smoke { 8 } else { 72 },
                ..hot
            },
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-time budget of the measured rounds. A run always completes at
    /// least two rounds (one untraced and one traced with `trace`).
    pub seconds: f64,
    /// Report the per-layer metrics and record spans instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Test-sized streams.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a run that passed the correctness gate.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    /// Requests offered across all rounds.
    pub attempted: u64,
    pub rounds: u64,
    pub metrics: Vec<Metric>,
    /// The deterministic counters every round reproduced.
    pub counters: Counters,
    /// Spans recorded by a traced run.
    pub spans: Option<Spans>,
}

/// End-to-end metrics of an untraced run, with units. `peak_rss_mb` is
/// added by the runner script, which measures the whole process.
pub const END_TO_END: [(&str, &str); 5] = [
    ("decisions_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("served_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced run, with units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("serve.submit_ns.p50", "ns"),
    ("serve.tick_ns.p50", "ns"),
    ("serve.tick_ns.p99", "ns"),
    ("serve.rotate_tick_ns.p50", "ns"),
    ("serve.rotate_tick_share", "ratio"),
    ("serve.rotations", "count"),
    ("serve.checkpoint_bytes.p50", "bytes"),
    ("serve.batches", "count"),
    ("serve.batch_size.mean", "requests"),
    ("serve.queue_depth.max", "requests"),
    ("serve.deferrals", "count"),
    ("serve.shed.capacity", "count"),
    ("serve.shed.quota", "count"),
    ("serve.shed.deadline", "count"),
    ("serve.eval_ns.p50", "ns"),
    ("serve.worker_threads", "count"),
    ("guards.cache.hit_ratio", "ratio"),
    ("guards.cache.hits", "count"),
    ("guards.cache.misses", "count"),
    ("guards.check_hit_ns.p50", "ns"),
    ("guards.check_miss_ns.p50", "ns"),
    ("ledger.append_ns.p50", "ns"),
    ("ledger.records", "count"),
    ("ledger.bytes_per_record", "bytes"),
    ("ledger.verify_ns_per_record", "ns"),
    ("net.encode_ns.p50", "ns"),
    ("net.write_ns.p50", "ns"),
    ("net.tick_wait_ns.p50", "ns"),
    ("net.tick_wait_ns.p99", "ns"),
    ("net.bytes_per_request", "bytes"),
    ("net.frames_per_tick", "count"),
    ("net.drops", "count"),
    ("net.rejects", "count"),
    ("net.undelivered", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("latency_samples", "count"),
    ("rounds", "count"),
    ("host.speed", "ratio"),
];

/// Extra set-ups timed for `setup_s` after each round: service builds
/// in-process, empty one-tick sessions over TCP.
const SETUP_REPS: usize = 16;
/// Spans kept in memory per traced run.
const SPAN_CAP: usize = 200_000;

/// Streams a run replays: round `r` replays stream `r % STREAMS`, so a
/// run measures the workload rather than one draw of its stream.
pub const STREAMS: u64 = 16;

/// Seed of stream `k` of the run seeded `seed`; it seeds both the
/// stream and the service that serves it.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(STREAMS).wrapping_add(k)
}

impl Options {
    fn stream(&self, k: u64) -> Stream {
        generate(
            &self
                .workload
                .stream_spec(stream_seed(self.seed, k), self.smoke),
        )
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload {
        Workload::TcpHot => run_tcp(opts),
        _ => run_inproc(opts),
    }
}

/// Totals and per-round figures of a sequence of rounds.
#[derive(Debug, Default)]
struct Phase {
    rounds: u64,
    offered: u64,
    window_ns: u64,
    /// Set-up times in s, scaled to the nominal host.
    setup_s: Vec<f64>,
    /// Per round: evaluated decisions per second, and p50 and p99 of
    /// per-request wall time in ns, scaled by the `scale` given to `add`.
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Per round: the host's speed (see [`host::speed`]).
    speed: Vec<f64>,
    latency_samples: u64,
}

impl Phase {
    /// The stream the next round replays.
    fn stream(&self) -> u64 {
        self.rounds % STREAMS
    }

    /// Close one round, consuming its latency samples. Times are
    /// multiplied, and the rate divided, by `scale`; `speed` is the host's
    /// speed after the round.
    fn add(
        &mut self,
        offered: u64,
        counters: &Counters,
        window_ns: u64,
        latency: &mut Vec<u64>,
        speed: f64,
        scale: f64,
    ) {
        self.rounds += 1;
        self.offered += offered;
        self.window_ns += window_ns;
        self.rate
            .push(counters.stats.decided as f64 / (window_ns.max(1) as f64 / 1e9) / scale);
        self.p50.push(quantile(latency, 0.50) * scale);
        self.p99.push(quantile(latency, 0.99) * scale);
        self.speed.push(speed);
        self.latency_samples += latency.len() as u64;
        latency.clear();
    }

    /// Record set-up samples, scaled by `speed`.
    fn add_setup(&mut self, setup_ns: &[u64], speed: f64) {
        self.setup_s
            .extend(setup_ns.iter().map(|&n| n as f64 / 1e9 * speed));
    }

    /// Wall ns per offered request.
    fn ns_per_request(&self) -> f64 {
        self.window_ns as f64 / self.offered.max(1) as f64
    }
}

/// Keep going until the budget is spent and the minimum is met.
fn more(phase: &Phase, start: Instant, seconds: f64, min_rounds: u64) -> bool {
    phase.rounds < min_rounds || start.elapsed().as_secs_f64() < seconds
}

/// Every round of stream `k` must reproduce the counters of the stream's
/// first round exactly.
fn same_counters(
    reference: &mut [Option<Counters>],
    k: u64,
    round: &Counters,
) -> Result<(), String> {
    match &reference[k as usize] {
        None => {
            reference[k as usize] = Some(round.clone());
            Ok(())
        }
        Some(first) if first == round => Ok(()),
        Some(first) => Err(format!(
            "deterministic counters changed between rounds of one seed:\n  first {first:?}\n  now   {round:?}"
        )),
    }
}

/// The mean over the streams of each stream's median over its rounds, of
/// a per-round figure: the median keeps one disturbed round from moving
/// it, the mean averages the streams' differences out.
fn per_stream(values: &[f64]) -> f64 {
    let streams = values.len().min(STREAMS as usize);
    let sum: f64 = (0..streams)
        .map(|k| {
            let of_k: Vec<f64> = values
                .iter()
                .skip(k)
                .step_by(STREAMS as usize)
                .copied()
                .collect();
            median_f64(&of_k)
        })
        .sum();
    sum / streams.max(1) as f64
}

/// The end-to-end figures of an untraced run. Throughput and the latency
/// quantiles are computed per round and combined by [`per_stream`], so
/// memory does not grow with the run's length. `served_ratio` is stream
/// 0's, so it is exact per seed.
fn end_to_end(phase: &Phase, counters: &Counters, offered: u64) -> Vec<Metric> {
    let served = 1.0 - counters.refused as f64 / offered as f64;
    let values = [
        per_stream(&phase.rate),
        per_stream(&phase.p50) / 1e3,
        per_stream(&phase.p99) / 1e3,
        served,
        median_f64(&phase.setup_s),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Inputs of the per-layer report.
struct Layers<'a> {
    counters: &'a Counters,
    offered: u64,
    serve: &'a mut Samples,
    serve_rounds: u64,
    eval: Buckets,
    append: Buckets,
    checks: layers::CheckSamples,
    verify_ns_per_record: f64,
    wire: &'a mut WireSamples,
    net: [u64; 3],
    untraced: &'a Phase,
    traced: &'a Phase,
    latency_samples: u64,
}

fn per_layer(l: Layers<'_>) -> Vec<Metric> {
    let Layers {
        counters: c,
        offered,
        serve,
        serve_rounds,
        eval,
        append,
        mut checks,
        verify_ns_per_record,
        wire,
        net,
        untraced,
        traced,
        latency_samples,
    } = l;
    let s = &c.stats;
    let tick_sum: u64 = serve.tick.iter().sum();
    let rotate_sum: u64 = serve.rotate_tick.iter().sum();
    let lookups = (s.cache_hits + s.cache_misses).max(1);
    let values = [
        quantile(&mut serve.submit, 0.50),
        quantile(&mut serve.tick, 0.50),
        quantile(&mut serve.tick, 0.99),
        quantile(&mut serve.rotate_tick, 0.50),
        rotate_sum as f64 / (tick_sum + rotate_sum).max(1) as f64,
        c.rotations as f64,
        quantile(&mut serve.checkpoint_bytes, 0.50),
        s.batches as f64,
        s.decided as f64 / s.batches.max(1) as f64,
        s.max_queue_depth as f64,
        s.deferrals as f64,
        s.shed_capacity as f64,
        s.shed_quota as f64,
        s.shed_deadline as f64,
        bucket_quantile(&eval, 0.50),
        WORKER_THREADS as f64,
        s.cache_hits as f64 / lookups as f64,
        s.cache_hits as f64,
        s.cache_misses as f64,
        quantile(&mut checks.hit, 0.50),
        quantile(&mut checks.miss, 0.50),
        bucket_quantile(&append, 0.50),
        serve.ledger_records as f64 / serve_rounds.max(1) as f64,
        serve.ledger_bytes as f64 / serve.ledger_records.max(1) as f64,
        verify_ns_per_record,
        quantile(&mut wire.encode, 0.50),
        quantile(&mut wire.write, 0.50),
        quantile(&mut wire.tick_wait, 0.50),
        quantile(&mut wire.tick_wait, 0.99),
        wire.bytes as f64 / wire.requests.max(1) as f64,
        wire.frames as f64 / wire.ticks.max(1) as f64,
        net[0] as f64,
        net[1] as f64,
        net[2] as f64,
        traced.ns_per_request() / untraced.ns_per_request(),
        c.refused as f64 / offered as f64,
        latency_samples as f64,
        (untraced.rounds + traced.rounds) as f64,
        median_f64(&untraced.speed),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

fn run_inproc(opts: &Options) -> Result<Report, String> {
    let mut reference: Vec<Option<Counters>> = vec![None; STREAMS as usize];
    // Runs rounds for `seconds`; returns the phase and the last round's
    // sealed ledger.
    let mut phase_run = |seconds: f64,
                         min_rounds: u64,
                         samples: &mut Samples,
                         mut spans: Option<&mut Spans>|
     -> Result<(Phase, Option<SegmentedLedger>), String> {
        let start = Instant::now();
        let mut phase = Phase::default();
        let mut last = None;
        while more(&phase, start, seconds, min_rounds) {
            let k = phase.stream();
            let seed = stream_seed(opts.seed, k);
            let stream = opts.stream(k);
            let offered = stream.offered;
            let gate = Gate::new(&stream);
            let round = inproc::drive(
                stream,
                seed,
                phase.rounds,
                &gate,
                false,
                samples,
                spans.as_deref_mut(),
            )?;
            same_counters(&mut reference, k, &round.counters)?;
            // More set-up samples, spread over the run like the rounds.
            let mut setup = vec![round.setup_ns];
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                let svc = inproc::service(seed);
                setup.push(ns(t0, Instant::now()));
                black_box(svc);
            }
            // Every in-process figure is CPU-bound: scale it all.
            let speed = host::speed();
            phase.add(
                offered,
                &round.counters,
                round.window_ns,
                &mut samples.latency,
                speed,
                speed,
            );
            phase.add_setup(&setup, speed);
            last = Some(round.ledger);
        }
        Ok((phase, last))
    };

    if !opts.trace {
        let mut samples = Samples::default();
        let (phase, _) = phase_run(opts.seconds, 2, &mut samples, None)?;
        let counters = reference[0].clone().expect("stream 0 ran");
        return Ok(Report {
            workload: opts.workload,
            attempted: phase.offered,
            rounds: phase.rounds,
            metrics: end_to_end(&phase, &counters, phase.offered / phase.rounds),
            counters,
            spans: None,
        });
    }

    let half = opts.seconds / 2.0;
    let mut untraced_samples = Samples::default();
    let (untraced, _) = phase_run(half, 1, &mut untraced_samples, None)?;
    let mut spans = Spans::new(SPAN_CAP);
    let mut samples = Samples::default();
    let (traced, ledger, eval, append) = {
        let _guard = telemetry::install_dispatch(Dispatch::new(Rc::new(Discard)));
        let (traced, ledger) = phase_run(half, 1, &mut samples, Some(&mut spans))?;
        (
            traced,
            ledger.expect("at least one traced round"),
            stats::registry_buckets("serve.eval.ns"),
            stats::registry_buckets("ledger.append.ns"),
        )
    };
    let counters = reference[0].clone().expect("stream 0 ran");
    let metrics = per_layer(Layers {
        counters: &counters,
        offered: untraced.offered / untraced.rounds,
        serve_rounds: traced.rounds,
        serve: &mut samples,
        eval,
        append,
        checks: layers::replay_checks(opts.stream(0).requests()),
        verify_ns_per_record: layers::verify_ns_per_record(&ledger),
        // No transport in-process: the net.* rows read 0.
        wire: &mut WireSamples::default(),
        net: [0; 3],
        untraced: &untraced,
        traced: &traced,
        latency_samples: untraced.latency_samples,
    });
    Ok(Report {
        workload: opts.workload,
        attempted: untraced.offered + traced.offered,
        rounds: untraced.rounds + traced.rounds,
        metrics,
        counters,
        spans: Some(spans),
    })
}

/// A sequence of TCP rounds: the client-side totals plus what the server
/// threads reported.
struct TcpPhase {
    phase: Phase,
    /// `serve.eval.ns` and `ledger.append.ns` buckets (traced rounds).
    eval: Buckets,
    append: Buckets,
    /// Connections dropped, requests rejected, decisions undelivered.
    net: [u64; 3],
    last: Option<tcp::TcpRound>,
}

fn run_tcp(opts: &Options) -> Result<Report, String> {
    // Per stream, the counters of an untimed in-process replay, which
    // every TCP round of the stream must match.
    let mut reference: Vec<Option<Counters>> = vec![None; STREAMS as usize];
    // One arrival tick and no requests: a session that only sets up.
    let idle = Stream {
        ticks: vec![Vec::new()],
        offered: 0,
    };

    // Runs rounds for `seconds`, checking each against the replay.
    let mut phase_run = |seconds: f64,
                         min_rounds: u64,
                         wire: &mut WireSamples,
                         mut spans: Option<&mut Spans>|
     -> Result<TcpPhase, String> {
        let start = Instant::now();
        let mut out = TcpPhase {
            phase: Phase::default(),
            eval: [0; apdm_telemetry::BUCKETS],
            append: [0; apdm_telemetry::BUCKETS],
            net: [0; 3],
            last: None,
        };
        let mut latency = Vec::new();
        while more(&out.phase, start, seconds, min_rounds) {
            let k = out.phase.stream();
            let seed = stream_seed(opts.seed, k);
            let stream = opts.stream(k);
            let gate = Gate::new(&stream);
            let golden = inproc::drive(
                stream.clone(),
                seed,
                0,
                &gate,
                true,
                &mut Samples::default(),
                None,
            )?;
            same_counters(&mut reference, k, &golden.counters)?;
            let r = tcp::round(
                &stream,
                seed,
                out.phase.rounds,
                &mut latency,
                wire,
                spans.as_deref_mut(),
            )?;
            let mut check = gate.round();
            for d in &r.decisions {
                check.decision(d)?;
            }
            check.finish(&r.outcome.ledger)?;
            let sorted = |ds: &[apdm_serve::Decision]| {
                let mut snaps: Vec<DecisionSnap> = ds.iter().map(DecisionSnap::from).collect();
                snaps.sort_by_key(|d| d.request_id);
                snaps
            };
            if sorted(&r.decisions) != sorted(&golden.decisions) {
                return Err("tcp decision stream differs from the in-process replay".into());
            }
            same_counters(&mut reference, k, &r.counters)?;
            if let Some((e, a)) = &r.histograms {
                add_buckets(&mut out.eval, e);
                add_buckets(&mut out.append, a);
            }
            out.net[0] += r.outcome.drops;
            out.net[1] += r.outcome.rejects;
            out.net[2] += r.outcome.decisions_dropped;
            // More set-up samples, spread over the run like the rounds.
            let mut setup = vec![r.setup_ns];
            for _ in 0..SETUP_REPS {
                let probe = tcp::round(
                    &idle,
                    seed,
                    0,
                    &mut Vec::new(),
                    &mut WireSamples::default(),
                    None,
                )?;
                setup.push(probe.setup_ns);
            }
            // Set-up is CPU-bound and scaled; the per-tick stall of the
            // lockstep exchange is not, so throughput and latency are
            // reported as measured.
            let speed = host::speed();
            out.phase.add(
                stream.offered,
                &r.counters,
                r.window_ns,
                &mut latency,
                speed,
                1.0,
            );
            out.phase.add_setup(&setup, speed);
            eprintln!("SETUPX {} {}", speed, median_f64(&setup.iter().map(|&n| n as f64).collect::<Vec<_>>()));
            out.last = Some(r);
        }
        Ok(out)
    };

    if !opts.trace {
        let phase = phase_run(opts.seconds, 2, &mut WireSamples::default(), None)?.phase;
        let counters = reference[0].clone().expect("stream 0 ran");
        return Ok(Report {
            workload: opts.workload,
            attempted: phase.offered,
            rounds: phase.rounds,
            metrics: end_to_end(&phase, &counters, phase.offered / phase.rounds),
            counters,
            spans: None,
        });
    }

    let half = opts.seconds / 2.0;
    let untraced = phase_run(half, 1, &mut WireSamples::default(), None)?.phase;
    let mut spans = Spans::new(SPAN_CAP);
    let mut wire = WireSamples::default();
    let traced = phase_run(half, 1, &mut wire, Some(&mut spans))?;
    let last = traced.last.expect("at least one traced round");
    let counters = reference[0].clone().expect("stream 0 ran");
    let metrics = per_layer(Layers {
        counters: &counters,
        offered: untraced.offered / untraced.rounds,
        // The server thread makes the submit() and tick() calls, so the
        // serve-call timings, checkpoint sizes and ledger record counts
        // read 0; the ServeStats counters and histograms are the server's.
        serve: &mut Samples::default(),
        serve_rounds: 0,
        eval: traced.eval,
        append: traced.append,
        checks: layers::replay_checks(opts.stream(0).requests()),
        verify_ns_per_record: layers::verify_ns_per_record(&last.outcome.ledger),
        wire: &mut wire,
        net: traced.net,
        untraced: &untraced,
        traced: &traced.phase,
        latency_samples: untraced.latency_samples,
    });
    Ok(Report {
        workload: opts.workload,
        attempted: untraced.offered + traced.phase.offered,
        rounds: untraced.rounds + traced.phase.rounds,
        metrics,
        counters,
        spans: Some(spans),
    })
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Only a run that passed the gate has a report, so
    /// `correct` is always true and `failed` always 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":true,"attempted":{},"failed":0,"metrics":{{{}}}}}"#,
            self.attempted,
            metrics.join(",")
        )
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}
