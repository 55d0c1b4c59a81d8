//! In-process driving: the closed `submit*; tick` loop, timed from outside
//! the service, and the per-round correctness gate.

use std::time::Instant;

use apdm_guards::GuardVerdict;
use apdm_ledger::{RotationPolicy, SegmentedLedger};
use apdm_serve::{
    standard_stacks, Decision, PolicyDecisionService, ServeConfig, ServeStats, WorkloadOracle,
};

use crate::gen::{expected_verdict, Stream};
use crate::stats::{ns, Span, Spans};

/// Shards (= guard stacks with their own memo caches) per service.
pub const SHARDS: usize = 4;
/// Worker threads evaluating a batch. Pinned so wall time never depends on
/// the host's core count.
pub const WORKER_THREADS: usize = 1;
/// Ledger records per segment before the service rotates and writes a
/// checkpoint frame.
pub const ROTATION_RECORDS: usize = 48;
/// Sealed segments the service retains.
pub const KEEP_SEALED: usize = 3;
/// Ledger run name shared by the in-process and TCP paths.
pub const RUN_NAME: &str = "wallbench";

/// The configuration every workload serves under: the defaults for
/// admission, batching and cost, with backpressure and rotation on.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        threads: WORKER_THREADS,
        shards: SHARDS,
        cache: true,
        backpressure: true,
        rotation: Some(RotationPolicy {
            max_records: ROTATION_RECORDS,
            max_bytes: 0,
            keep_sealed: KEEP_SEALED,
        }),
        ..ServeConfig::default()
    }
}

/// A fresh service with fresh guard stacks.
pub fn service(seed: u64) -> PolicyDecisionService<WorkloadOracle> {
    PolicyDecisionService::new(
        serve_config(seed),
        standard_stacks(SHARDS, true),
        WorkloadOracle,
        RUN_NAME,
    )
}

/// The counters of one round that must repeat exactly, round after round
/// and run after run, for a given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub stats: ServeStats,
    /// Segment rotations (each one wrote a checkpoint frame).
    pub rotations: u64,
    /// Head digest of the final ledger segment.
    pub head: u64,
    /// Tick at which the ledger was sealed.
    pub final_tick: u64,
    /// Requests refused: shed, net-rejected, undelivered or lost.
    pub refused: u64,
}

/// Wall-clock samples gathered while driving rounds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per-request wall time of the current round, ns.
    pub latency: Vec<u64>,
    /// `tick()` calls that did not rotate, ns (traced rounds only).
    pub tick: Vec<u64>,
    /// `tick()` calls after which the segment index advanced, ns (traced
    /// rounds only).
    pub rotate_tick: Vec<u64>,
    /// `submit()` calls, ns (traced rounds only).
    pub submit: Vec<u64>,
    /// Serialized size of each rotation's checkpoint record (traced only).
    pub checkpoint_bytes: Vec<u64>,
    /// Records and JSONL bytes of every segment the service sealed
    /// (traced only).
    pub ledger_records: u64,
    pub ledger_bytes: u64,
    /// Per-round buffers, kept so that they are allocated once per run
    /// rather than once per round, which left the process's peak memory
    /// depending on where each round's buffers landed in the heap: every
    /// decision with the instant it was returned, and every request's
    /// submit instant.
    pub decided: Vec<(Decision, Instant)>,
    pub submitted_at: Vec<Instant>,
}

/// What one in-process round produced.
pub struct Round {
    pub counters: Counters,
    /// Every decision in the order the service returned it, when the
    /// caller asked to keep them.
    pub decisions: Vec<Decision>,
    pub ledger: SegmentedLedger,
    pub setup_ns: u64,
    /// Wall time spent inside `submit()` and `tick()` calls, from the
    /// first submit of each tick to the return of its `tick()`.
    pub window_ns: u64,
}

/// Drive `stream` through a fresh service until every request is decided,
/// then check every decision against `gate`. The decisions are checked
/// after the tick loop, so between one `tick()` return and the next
/// `submit()` only the service runs. With `spans`, also time each
/// `submit()` and `tick()`, record spans and measure each rotation's
/// checkpoint and sealed segment.
pub fn drive(
    stream: Stream,
    seed: u64,
    round: u64,
    gate: &Gate,
    keep: bool,
    samples: &mut Samples,
    mut spans: Option<&mut Spans>,
) -> Result<Round, String> {
    let arrival_ticks = stream.ticks.len() as u64;
    let max_ticks = arrival_ticks + 10_000;
    let mut arrivals = stream.ticks.into_iter();
    let mut out = std::mem::take(&mut samples.decided);
    out.reserve(stream.offered as usize);

    let t_setup = Instant::now();
    let mut svc = service(seed);
    let setup_ns = ns(t_setup, Instant::now());

    let mut submitted_at = std::mem::take(&mut samples.submitted_at);
    submitted_at.clear();
    submitted_at.resize(stream.offered as usize, t_setup);
    let mut segment = 0u64;
    let mut window_ns = 0u64;
    let mut now = 0u64;
    while now < arrival_ticks || svc.queue_depth() > 0 {
        now += 1;
        if now > max_ticks {
            return Err(format!("queue still holds requests at tick {now}"));
        }
        let reqs = arrivals.next().unwrap_or_default();
        let t_begin = Instant::now();
        for req in reqs {
            let id = req.id as usize;
            let t0 = Instant::now();
            let shed = svc.submit(req, now);
            let t1 = Instant::now();
            if let Some(slot) = submitted_at.get_mut(id) {
                *slot = t0;
            }
            if let Some(spans) = spans.as_deref_mut() {
                samples.submit.push(ns(t0, t1));
                let trace = request_trace(round, id as u64);
                spans.record(Span {
                    trace,
                    id: Spans::id(trace, 1),
                    parent: Spans::id(trace, 0),
                    name: "serve.submit",
                    start: t0,
                    end: t1,
                });
            }
            if let Some(d) = shed {
                out.push((d, t1));
            }
        }
        let t2 = Instant::now();
        let decided = svc.tick(now);
        let t3 = Instant::now();
        window_ns += ns(t_begin, t3);
        out.extend(decided.into_iter().map(|d| (d, t3)));

        if let Some(spans) = spans.as_deref_mut() {
            let rotated = svc.recorder().segment_index() != segment;
            let trace = tick_trace(round, now);
            spans.record(Span {
                trace,
                id: Spans::id(trace, 0),
                parent: 0,
                name: if rotated {
                    "serve.tick.rotate"
                } else {
                    "serve.tick"
                },
                start: t2,
                end: t3,
            });
            if rotated {
                segment = svc.recorder().segment_index();
                samples.rotate_tick.push(ns(t2, t3));
                measure_rotation(&svc, samples);
            } else {
                samples.tick.push(ns(t2, t3));
            }
        }
    }

    let mut check = gate.round();
    let mut kept: Vec<Decision> = Vec::new();
    for (d, at) in out.drain(..) {
        check.decision(&d)?;
        let t0 = submitted_at[d.request_id as usize];
        samples.latency.push(ns(t0, at));
        if let Some(spans) = spans.as_deref_mut() {
            let trace = request_trace(round, d.request_id);
            spans.record(Span {
                trace,
                id: Spans::id(trace, 0),
                parent: 0,
                name: "request",
                start: t0,
                end: at,
            });
        }
        if keep {
            kept.push(d);
        }
    }
    samples.decided = out;
    samples.submitted_at = submitted_at;
    let (ledger, stats) = svc.finish_segmented(now);
    let refused = check.finish(&ledger)?;
    if spans.is_some() {
        // finish() sealed the open segment; count it too.
        if let Some(last) = ledger.segments().last() {
            samples.ledger_records += last.len() as u64;
            samples.ledger_bytes += last.to_jsonl().len() as u64;
        }
    }
    Ok(Round {
        counters: Counters {
            stats,
            rotations: ledger.last_index(),
            head: ledger.head_digest(),
            final_tick: now,
            refused,
        },
        decisions: kept,
        ledger,
        setup_ns,
        window_ns,
    })
}

/// Trace id of one request of one round.
pub fn request_trace(round: u64, id: u64) -> u64 {
    (round << 40) | id
}

/// Trace id of one tick of one round (kept apart from request traces).
pub fn tick_trace(round: u64, tick: u64) -> u64 {
    (round << 40) | (1 << 39) | tick
}

/// After a rotation: the checkpoint record that heads the new segment and
/// the segment just sealed.
fn measure_rotation(svc: &PolicyDecisionService<WorkloadOracle>, samples: &mut Samples) {
    let rec = svc.recorder();
    if let Some(checkpoint) = rec.current().records().get(1) {
        let line = serde_json::to_string(checkpoint).expect("ledger records serialize");
        samples.checkpoint_bytes.push(line.len() as u64 + 1);
    }
    if let Some(sealed) = rec.sealed().last() {
        samples.ledger_records += sealed.len() as u64;
        samples.ledger_bytes += sealed.to_jsonl().len() as u64;
    }
}

/// The correctness gate shared by every workload and every round: every
/// offered request gets exactly one decision, every refusal is a deny,
/// every evaluated verdict matches the workload's rules (derived from the
/// stream, not from the guard code), and the sealed ledger verifies.
pub struct Gate {
    expected: Vec<&'static str>,
}

impl Gate {
    pub fn new(stream: &Stream) -> Gate {
        Gate {
            expected: stream.requests().map(expected_verdict).collect(),
        }
    }

    /// Start checking one round.
    pub fn round(&self) -> RoundGate<'_> {
        RoundGate {
            expected: &self.expected,
            seen: vec![false; self.expected.len()],
            decided: 0,
            refused: 0,
        }
    }
}

/// The gate's state over one round.
pub struct RoundGate<'a> {
    expected: &'a [&'static str],
    seen: Vec<bool>,
    decided: usize,
    refused: u64,
}

impl RoundGate<'_> {
    /// Check one decision.
    pub fn decision(&mut self, d: &Decision) -> Result<(), String> {
        let id = d.request_id;
        match self.seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            Some(_) => return Err(format!("request {id} decided twice")),
            None => return Err(format!("decision for unknown request {id}")),
        }
        self.decided += 1;
        if d.shed.is_some() || d.reason().starts_with("net:reject") {
            self.refused += 1;
            if !matches!(d.verdict, GuardVerdict::Deny { .. }) {
                return Err(format!("refused request {id} was not denied"));
            }
        } else {
            let want = self.expected[id as usize];
            if d.verdict_name() != want {
                return Err(format!(
                    "request {id}: verdict {} where the workload's rules give {want}",
                    d.verdict_name()
                ));
            }
        }
        Ok(())
    }

    /// Close the round: nothing may be missing and the sealed ledger must
    /// verify. Returns the number of refused requests.
    pub fn finish(self, ledger: &SegmentedLedger) -> Result<u64, String> {
        if self.decided != self.seen.len() {
            let missing = self.seen.iter().position(|s| !s).unwrap_or(0);
            return Err(format!("request {missing} never got a decision"));
        }
        ledger
            .verify()
            .map_err(|e| format!("sealed ledger failed verify(): {e}"))?;
        Ok(self.refused)
    }
}
