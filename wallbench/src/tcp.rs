//! The lockstep TCP client: two workload connections driven from one
//! thread against a loopback `apdm_net::serve`, speaking the framed
//! protocol of `docs/PROTOCOL.md` through the codec's public functions.
//!
//! Per tick the client writes every request of the tick (request `id` goes
//! to connection `id % 2`), then `TickDone(t)` on both connections, then
//! reads each connection up to its `TickAck(t)`. After the last tick it
//! reads the drain's decisions until every request is answered.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

use apdm_net::wire::{decode_payload, encode_payload};
use apdm_net::{
    encode, read_frame, serve, write_frame, DecisionSnap, Frame, FrameType, HelloPayload,
    NetServerConfig, ReadOutcome, ReqSnap, Role, ServeOutcome, TickPayload, HEADER_LEN,
    TRAILER_LEN,
};
use apdm_serve::Decision;
use apdm_telemetry::{self as telemetry, Dispatch};

use crate::gen::Stream;
use crate::inproc::{request_trace, service, tick_trace, Counters};
use crate::stats::{ns, registry_buckets, Buckets, Span, Spans};
use crate::Discard;

/// Workload connections, all driven from the calling thread.
pub const CONNECTIONS: u32 = 2;
/// A round that has not finished by then is a failure.
const ROUND_DEADLINE: Duration = Duration::from_secs(60);

/// Client-side wire samples (the request path's layer timings).
#[derive(Debug, Default)]
pub struct WireSamples {
    /// `encode_payload` + frame `encode` per request, ns (traced only).
    pub encode: Vec<u64>,
    /// `write_all` of one encoded request frame, ns (traced only).
    pub write: Vec<u64>,
    /// `TickDone` written on the first connection to the last `TickAck`
    /// read, ns (traced rounds only).
    pub tick_wait: Vec<u64>,
    /// Requests, bytes and frames in both directions, and lockstep ticks.
    pub requests: u64,
    pub bytes: u64,
    pub frames: u64,
    pub ticks: u64,
}

/// What one TCP round produced.
pub struct TcpRound {
    pub counters: Counters,
    /// Every decision received, in arrival order.
    pub decisions: Vec<Decision>,
    pub outcome: ServeOutcome,
    /// Bind, connect and handshake, including the server building its
    /// service, ns.
    pub setup_ns: u64,
    /// First request written to last decision read, ns.
    pub window_ns: u64,
    /// `serve.eval.ns` and `ledger.append.ns` buckets from the server
    /// thread, when traced.
    pub histograms: Option<(Buckets, Buckets)>,
}

/// Serve `stream` over loopback TCP with a fresh server and two fresh
/// connections.
///
/// Both connections are opened, and their `Hello`s written, before the
/// server thread starts: the kernel completes the connects into the
/// listen backlog, so the server's first `accept()` finds them waiting and
/// set-up never races the acceptor's 5 ms idle-poll sleep.
pub fn round(
    stream: &Stream,
    seed: u64,
    round: u64,
    latency: &mut Vec<u64>,
    wire: &mut WireSamples,
    spans: Option<&mut Spans>,
) -> Result<TcpRound, String> {
    let io = |e: std::io::Error| format!("tcp: {e}");
    let traced = spans.is_some();
    let t_setup = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut conns = Vec::new();
    connect(&addr.to_string(), &mut conns)?;
    let net_cfg = NetServerConfig {
        clients: CONNECTIONS,
        arrival_ticks: stream.ticks.len() as u64,
        max_ticks: stream.ticks.len() as u64 + 10_000,
        seed,
        ..NetServerConfig::default()
    };
    let server = thread::spawn(move || {
        let _guard = traced.then(|| telemetry::install_dispatch(Dispatch::new(Rc::new(Discard))));
        let outcome = serve(listener, service(seed), net_cfg);
        let histograms = traced.then(|| {
            (
                registry_buckets("serve.eval.ns"),
                registry_buckets("ledger.append.ns"),
            )
        });
        outcome.map(|o| (o, histograms))
    });

    let client = welcome(&mut conns).and_then(|()| {
        let setup_ns = ns(t_setup, Instant::now());
        lockstep(stream, round, &mut conns, latency, wire, spans).map(|(d, w)| (d, w, setup_ns))
    });
    for conn in &mut conns {
        let _ = write_frame(conn, &Frame::new(FrameType::Bye, Vec::new()));
    }
    drop(conns);
    let served = server
        .join()
        .map_err(|_| "tcp: server thread panicked".to_string())?;
    let (decisions, window_ns, setup_ns) = client?;
    let (outcome, histograms) = served.map_err(io)?;

    let refused = decisions
        .iter()
        .filter(|d| d.shed.is_some() || d.reason().starts_with("net:reject"))
        .count() as u64
        + outcome.decisions_dropped
        + stream.offered.saturating_sub(decisions.len() as u64);
    Ok(TcpRound {
        counters: Counters {
            stats: outcome.stats,
            rotations: outcome.ledger.last_index(),
            head: outcome.ledger.head_digest(),
            final_tick: outcome.final_tick,
            refused,
        },
        decisions,
        outcome,
        setup_ns,
        window_ns,
        histograms,
    })
}

/// Open both workload connections and write each one's `Hello`.
fn connect(addr: &str, conns: &mut Vec<TcpStream>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("tcp connect: {e}");
    for index in 0..CONNECTIONS {
        let mut conn = TcpStream::connect(addr).map_err(io)?;
        conn.set_nodelay(true).map_err(io)?;
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(io)?;
        let hello = HelloPayload {
            role: Role::Workload,
            client: index,
            clients: CONNECTIONS,
        };
        write_frame(
            &mut conn,
            &Frame::new(FrameType::Hello, encode_payload(&hello)),
        )
        .map_err(io)?;
        conns.push(conn);
    }
    Ok(())
}

/// Read the server's `Welcome` on every connection.
fn welcome(conns: &mut [TcpStream]) -> Result<(), String> {
    let deadline = Instant::now() + ROUND_DEADLINE;
    for conn in conns.iter_mut() {
        match next_frame(conn, deadline)? {
            f if f.frame_type == FrameType::Welcome => {}
            f => return Err(format!("tcp: expected Welcome, got {:?}", f.frame_type)),
        }
    }
    Ok(())
}

/// Read the next frame, riding out idle read timeouts until `deadline`.
fn next_frame(conn: &mut TcpStream, deadline: Instant) -> Result<Frame, String> {
    loop {
        if Instant::now() > deadline {
            return Err("tcp: round deadline passed".into());
        }
        match read_frame(conn) {
            Ok(ReadOutcome::Frame(f)) if f.frame_type == FrameType::Error => {
                return Err(format!(
                    "tcp: server error frame: {}",
                    String::from_utf8_lossy(&f.payload)
                ));
            }
            Ok(ReadOutcome::Frame(f)) => return Ok(f),
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return Err("tcp: server closed the connection".into()),
            Err(e) => return Err(format!("tcp: {e}")),
        }
    }
}

/// Client-side state of one round's measured window.
struct Session<'a> {
    round: u64,
    /// When each request's frame write began, by request id.
    written: Vec<Option<Instant>>,
    sent: [u64; CONNECTIONS as usize],
    received: [u64; CONNECTIONS as usize],
    decisions: Vec<Decision>,
    latency: &'a mut Vec<u64>,
    wire: &'a mut WireSamples,
    spans: Option<&'a mut Spans>,
}

impl Session<'_> {
    /// Encode and write one request frame on its connection.
    fn send(
        &mut self,
        conns: &mut [TcpStream],
        req: &apdm_serve::DecisionRequest,
    ) -> Result<(), String> {
        let c = (req.id % CONNECTIONS as u64) as usize;
        let t0 = Instant::now();
        let bytes = encode(&Frame::new(
            FrameType::Request,
            encode_payload(&ReqSnap::from(req)),
        ));
        let t1 = Instant::now();
        conns[c]
            .write_all(&bytes)
            .map_err(|e| format!("tcp write: {e}"))?;
        let t2 = Instant::now();
        let slot = self
            .written
            .get_mut(req.id as usize)
            .ok_or("tcp: request id outside the stream")?;
        *slot = Some(t1);
        self.sent[c] += 1;
        self.wire.requests += 1;
        self.wire.bytes += bytes.len() as u64;
        self.wire.frames += 1;
        if let Some(spans) = self.spans.as_deref_mut() {
            self.wire.encode.push(ns(t0, t1));
            self.wire.write.push(ns(t1, t2));
            let trace = request_trace(self.round, req.id);
            for (kind, name, start, end) in [(1, "net.encode", t0, t1), (2, "net.write", t1, t2)] {
                spans.record(Span {
                    trace,
                    id: Spans::id(trace, kind),
                    parent: Spans::id(trace, 0),
                    name,
                    start,
                    end,
                });
            }
        }
        Ok(())
    }

    /// Write a control frame on every connection.
    fn broadcast(&mut self, conns: &mut [TcpStream], frame: &Frame) -> Result<(), String> {
        for conn in conns.iter_mut() {
            write_frame(conn, frame).map_err(|e| format!("tcp write: {e}"))?;
            self.wire.bytes += (HEADER_LEN + frame.payload.len() + TRAILER_LEN) as u64;
            self.wire.frames += 1;
        }
        Ok(())
    }

    /// Read one frame from connection `c`. Returns the tick of a
    /// `TickAck`; a decision is recorded with the time its read returned.
    fn receive(
        &mut self,
        conns: &mut [TcpStream],
        c: usize,
        deadline: Instant,
    ) -> Result<Option<u64>, String> {
        let frame = next_frame(&mut conns[c], deadline)?;
        let at = Instant::now();
        self.wire.bytes += (HEADER_LEN + frame.payload.len() + TRAILER_LEN) as u64;
        self.wire.frames += 1;
        match frame.frame_type {
            FrameType::Decision => {
                let snap: DecisionSnap =
                    decode_payload(&frame.payload).ok_or("tcp: undecodable decision payload")?;
                let id = snap.request_id;
                let Some(Some(t0)) = self.written.get(id as usize).copied() else {
                    return Err(format!("tcp: decision for unsent request {id}"));
                };
                self.latency.push(ns(t0, at));
                if let Some(spans) = self.spans.as_deref_mut() {
                    let trace = request_trace(self.round, id);
                    spans.record(Span {
                        trace,
                        id: Spans::id(trace, 0),
                        parent: 0,
                        name: "request",
                        start: t0,
                        end: at,
                    });
                }
                self.received[c] += 1;
                self.decisions.push(snap.into_decision(frame.ctx));
                Ok(None)
            }
            FrameType::TickAck => {
                let tick: TickPayload =
                    decode_payload(&frame.payload).ok_or("tcp: undecodable tick payload")?;
                Ok(Some(tick.tick))
            }
            other => Err(format!("tcp: unexpected {other:?} frame")),
        }
    }
}

/// The measured part of a round: every tick through the barrier, then the
/// drain. Returns the decisions and the window's wall time in ns.
fn lockstep(
    stream: &Stream,
    round: u64,
    conns: &mut [TcpStream],
    latency: &mut Vec<u64>,
    wire: &mut WireSamples,
    spans: Option<&mut Spans>,
) -> Result<(Vec<Decision>, u64), String> {
    let deadline = Instant::now() + ROUND_DEADLINE;
    let mut s = Session {
        round,
        written: vec![None; stream.offered as usize],
        sent: [0; CONNECTIONS as usize],
        received: [0; CONNECTIONS as usize],
        decisions: Vec::with_capacity(stream.offered as usize),
        latency,
        wire,
        spans,
    };
    let start = Instant::now();
    for (tick, reqs) in (1u64..).zip(&stream.ticks) {
        for req in reqs {
            s.send(conns, req)?;
        }
        let t_done = Instant::now();
        s.broadcast(
            conns,
            &Frame::new(FrameType::TickDone, encode_payload(&TickPayload { tick })),
        )?;
        for c in 0..conns.len() {
            loop {
                match s.receive(conns, c, deadline)? {
                    None => {}
                    Some(t) if t == tick => break,
                    Some(t) => return Err(format!("tcp: TickAck({t}) while waiting for {tick}")),
                }
            }
        }
        let t_ack = Instant::now();
        s.wire.ticks += 1;
        if let Some(spans) = s.spans.as_deref_mut() {
            s.wire.tick_wait.push(ns(t_done, t_ack));
            let trace = tick_trace(round, tick);
            spans.record(Span {
                trace,
                id: Spans::id(trace, 0),
                parent: 0,
                name: "net.tick_wait",
                start: t_done,
                end: t_ack,
            });
        }
    }
    for c in 0..conns.len() {
        while s.received[c] < s.sent[c] {
            if let Some(t) = s.receive(conns, c, deadline)? {
                return Err(format!("tcp: TickAck({t}) after the last tick"));
            }
        }
    }
    let window_ns = ns(start, Instant::now());
    Ok((s.decisions, window_ns))
}
