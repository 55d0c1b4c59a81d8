//! Client side: the deterministic workload driver and the chaos clients
//! that try (and must fail) to corrupt the boundary.
//!
//! A workload client owns the **whole** seeded [`WorkloadGen`] but sends
//! only its partition (`request id % clients == index`). Because every
//! client runs the same generator, the union of all partitions is exactly
//! the in-process request stream, and the server's per-tick sort by id
//! restores the generator's emission order — no coordination beyond the
//! tick barrier is needed.
//!
//! Chaos clients ([`run_chaos_client`]) each script one failure mode —
//! frame garbage, a stalled half-frame, an abrupt mid-frame disconnect, an
//! oversized length prefix, an unauthorized request — and report how the
//! server answered. E17 asserts the server survives all of them with the
//! decision ledger untouched and every rejection audited.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use apdm_policy::Action;
use apdm_serve::{Decision, DecisionRequest, ReqSnap, TenantId, WorkloadGen, WorkloadSpec};
use apdm_telemetry::{self as telemetry, trace_id, TraceContext, TraceSampler};

use crate::frame::{
    encode, encode_into, read_frame, write_frame, Frame, FrameType, ReadOutcome, MAX_PAYLOAD,
};
use crate::socket;
use crate::wire::{
    decode_payload, encode_payload, DecisionSnap, ErrorPayload, HelloPayload, Role, TickPayload,
};

/// Slot for the client-side hops of a request's causal chain (mirrors the
/// server's wire slot).
const CLIENT_SLOT: u64 = 2;

/// Connect to `addr`, retrying while the server's listener comes up.
///
/// The stream comes back ready for the lockstep exchange: Nagle's
/// algorithm disabled, a 50 ms read timeout and a 2 s write timeout — the
/// same set-up the server applies to every connection it accepts.
pub fn connect_with_retry(addr: &str, attempts: u32, delay: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::other("no attempts");
    for _ in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                socket::configure(&stream, socket::READ_TIMEOUT, socket::WRITE_TIMEOUT)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
        thread::sleep(delay);
    }
    Err(last)
}

/// What one workload client saw over a full run.
#[derive(Debug)]
pub struct ClientReport {
    /// Requests this client sent (its partition of the workload).
    pub sent: u64,
    /// Every decision the server returned for this client's requests, in
    /// arrival order.
    pub decisions: Vec<Decision>,
}

/// Drive one workload partition through a serving run.
///
/// `spec` must match the server's workload exactly; `index`/`clients`
/// select the partition and must match the server's expected client
/// count. Each tick's requests and its `TickDone` go out in one write;
/// replies are read through a buffer, frame by frame. When `sampler` is
/// set, each request gets a root trace context minted from
/// `(spec.seed, request id)` — the same ids the in-process path would
/// mint — and the context rides the frame headers, so the causal chain
/// spans client → wire → service → wire → client.
pub fn run_workload_client(
    addr: &str,
    spec: WorkloadSpec,
    index: u32,
    clients: u32,
    sampler: Option<TraceSampler>,
    deadline: Duration,
) -> io::Result<ClientReport> {
    workload_client(addr, spec, index, clients, sampler, deadline, || {})
}

/// [`run_workload_client`], calling `hold` just before the last arrival
/// tick's requests go out. Until `hold` returns, the server cannot finish
/// the arrival window, so nothing ends the run.
pub(crate) fn workload_client(
    addr: &str,
    spec: WorkloadSpec,
    index: u32,
    clients: u32,
    sampler: Option<TraceSampler>,
    deadline: Duration,
    hold: impl FnOnce(),
) -> io::Result<ClientReport> {
    assert!(clients > 0 && index < clients, "bad partition");
    let stream = connect_with_retry(addr, 50, Duration::from_millis(100))?;
    let mut writer = &stream;
    let mut reader = BufReader::with_capacity(socket::READ_BUFFER, &stream);
    let started = Instant::now();

    let hello = HelloPayload {
        role: Role::Workload,
        client: index,
        clients,
    };
    write_frame(
        &mut writer,
        &Frame::new(FrameType::Hello, encode_payload(&hello)),
    )?;
    expect_welcome(&mut reader, started, deadline)?;

    let arrival_ticks = spec.arrival_ticks;
    let seed = spec.seed;
    let mut gen = WorkloadGen::new(spec);
    let mut sent = 0u64;
    let mut decisions: Vec<Decision> = Vec::new();
    let mut burst = Vec::new();
    let mut hold = Some(hold);

    for tick in 1..=arrival_ticks {
        if tick == arrival_ticks {
            if let Some(hold) = hold.take() {
                hold();
            }
        }
        burst.clear();
        for req in gen.tick_requests(tick) {
            if req.id % clients as u64 != index as u64 {
                continue;
            }
            let ctx = sampler.map(|s| s.root(trace_id(seed, req.id)));
            if let Some(root) = ctx {
                client_event(root, "client.send", req.device);
            }
            let snap = ReqSnap::from(&req);
            encode_into(
                &Frame::traced(FrameType::Request, ctx, encode_payload(&snap)),
                &mut burst,
            );
            sent += 1;
        }
        encode_into(
            &Frame::new(FrameType::TickDone, encode_payload(&TickPayload { tick })),
            &mut burst,
        );
        writer.write_all(&burst)?;
        // Collect decisions until the server acknowledges the tick.
        loop {
            match next(&mut reader, started, deadline)? {
                Inbound::Decision(d) => decisions.push(d),
                Inbound::TickAck(t) if t == tick => break,
                Inbound::TickAck(t) => {
                    return Err(io::Error::other(format!(
                        "TickAck({t}) while waiting for tick {tick}"
                    )));
                }
                Inbound::Bye => {
                    return Err(io::Error::other("server closed mid-run"));
                }
            }
        }
    }
    // Drain: every request gets exactly one decision; wait for the rest.
    while (decisions.len() as u64) < sent {
        match next(&mut reader, started, deadline)? {
            Inbound::Decision(d) => decisions.push(d),
            Inbound::TickAck(_) => {}
            Inbound::Bye => {
                return Err(io::Error::other(format!(
                    "server closed with {}/{sent} decisions delivered",
                    decisions.len()
                )));
            }
        }
    }
    let _ = write_frame(&mut writer, &Frame::new(FrameType::Bye, Vec::new()));
    Ok(ClientReport { sent, decisions })
}

/// Server-to-client traffic a workload client distinguishes.
enum Inbound {
    Decision(Decision),
    TickAck(u64),
    Bye,
}

/// Read the next meaningful frame, tolerating idle timeouts up to the
/// deadline and surfacing server `Error` frames as errors.
fn next(stream: &mut impl Read, started: Instant, deadline: Duration) -> io::Result<Inbound> {
    loop {
        if started.elapsed() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "client deadline"));
        }
        match read_frame(stream).map_err(io::Error::other)? {
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => return Ok(Inbound::Bye),
            ReadOutcome::Frame(frame) => match frame.frame_type {
                FrameType::Decision => {
                    let snap: DecisionSnap = decode_payload(&frame.payload)
                        .ok_or_else(|| io::Error::other("bad decision payload"))?;
                    let ctx = frame.ctx;
                    if let Some(c) = ctx {
                        client_event(c.child(CLIENT_SLOT), "client.recv", snap.device);
                    }
                    return Ok(Inbound::Decision(snap.into_decision(ctx)));
                }
                FrameType::TickAck => {
                    let tick: TickPayload = decode_payload(&frame.payload)
                        .ok_or_else(|| io::Error::other("bad tick payload"))?;
                    return Ok(Inbound::TickAck(tick.tick));
                }
                FrameType::Bye => return Ok(Inbound::Bye),
                FrameType::Pong => continue,
                FrameType::Error => {
                    let err: ErrorPayload =
                        decode_payload(&frame.payload).unwrap_or(ErrorPayload {
                            code: 0,
                            detail: "undecodable error payload".into(),
                        });
                    return Err(io::Error::other(format!(
                        "server error {}: {}",
                        err.code, err.detail
                    )));
                }
                other => {
                    return Err(io::Error::other(format!("unexpected {other:?} frame")));
                }
            },
        }
    }
}

/// Wait for the `Welcome` answering our `Hello`.
fn expect_welcome(stream: &mut impl Read, started: Instant, deadline: Duration) -> io::Result<()> {
    loop {
        if started.elapsed() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no welcome"));
        }
        match read_frame(stream).map_err(io::Error::other)? {
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => return Err(io::Error::other("closed before welcome")),
            ReadOutcome::Frame(f) if f.frame_type == FrameType::Welcome => return Ok(()),
            ReadOutcome::Frame(f) if f.frame_type == FrameType::Error => {
                let err: ErrorPayload = decode_payload(&f.payload)
                    .ok_or_else(|| io::Error::other("bad error payload"))?;
                return Err(io::Error::other(format!(
                    "rejected: {} ({})",
                    err.detail, err.code
                )));
            }
            ReadOutcome::Frame(f) => {
                return Err(io::Error::other(format!(
                    "expected Welcome, got {:?}",
                    f.frame_type
                )));
            }
        }
    }
}

/// Emit one client-side trace event when a dispatch is installed.
fn client_event(ctx: TraceContext, name: &'static str, device: u64) {
    if telemetry::enabled() && ctx.sampled {
        let mut fields = Vec::new();
        ctx.push_fields(device, &mut fields);
        telemetry::emit_event(name, telemetry::Level::Debug, fields);
    }
}

/// The failure modes a chaos client can script. Each is one connection
/// doing one bad thing; none may crash the server or leak an unaudited
/// rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Send bytes that are not a frame at all (bad magic).
    Garbage,
    /// Send a valid frame whose CRC trailer was corrupted.
    BadCrc,
    /// Send a header whose length prefix exceeds the protocol maximum.
    Oversize,
    /// Complete the handshake, then stall mid-frame past the read timeout.
    Slow,
    /// Complete the handshake, then disconnect mid-frame: stop sending
    /// for good with a partial frame outstanding.
    Disconnect,
    /// Join as an observer and submit a (well-formed) request anyway —
    /// must be answered with a fail-closed deny, not evaluated.
    Unauthorized,
}

impl ChaosKind {
    /// Stable tag for CLI flags and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosKind::Garbage => "garbage",
            ChaosKind::BadCrc => "bad-crc",
            ChaosKind::Oversize => "oversize",
            ChaosKind::Slow => "slow",
            ChaosKind::Disconnect => "disconnect",
            ChaosKind::Unauthorized => "unauthorized",
        }
    }

    /// Parse a CLI tag.
    pub fn parse(tag: &str) -> Option<ChaosKind> {
        Some(match tag {
            "garbage" => ChaosKind::Garbage,
            "bad-crc" => ChaosKind::BadCrc,
            "oversize" => ChaosKind::Oversize,
            "slow" => ChaosKind::Slow,
            "disconnect" => ChaosKind::Disconnect,
            "unauthorized" => ChaosKind::Unauthorized,
            _ => return None,
        })
    }

    /// All kinds, in the order E17 exercises them.
    pub fn all() -> [ChaosKind; 6] {
        [
            ChaosKind::Garbage,
            ChaosKind::BadCrc,
            ChaosKind::Oversize,
            ChaosKind::Slow,
            ChaosKind::Disconnect,
            ChaosKind::Unauthorized,
        ]
    }
}

/// What one chaos connection observed.
#[derive(Debug)]
pub struct ChaosReport {
    /// The scripted failure mode.
    pub kind: ChaosKind,
    /// Close code of the server's `Error` frame, if one arrived before the
    /// connection closed.
    pub closed_code: Option<u16>,
    /// Fail-closed denies received (the `Unauthorized` script expects 1).
    pub denies: u64,
}

/// Run one chaos script against a serving run. Always returns a report —
/// the *server* failing is the only wrong answer, and that is observed by
/// the run itself, not by this client.
pub fn run_chaos_client(addr: &str, kind: ChaosKind) -> io::Result<ChaosReport> {
    let mut stream = connect_with_retry(addr, 50, Duration::from_millis(100))?;
    let mut report = ChaosReport {
        kind,
        closed_code: None,
        denies: 0,
    };
    match kind {
        ChaosKind::Garbage => {
            io::Write::write_all(&mut stream, b"NOT A FRAME AT ALL, JUST NOISE BYTES....")?;
            read_close(&mut stream, &mut report);
        }
        ChaosKind::BadCrc => {
            let mut bytes = encode(&Frame::new(FrameType::Ping, Vec::new()));
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            io::Write::write_all(&mut stream, &bytes)?;
            read_close(&mut stream, &mut report);
        }
        ChaosKind::Oversize => {
            let mut bytes = encode(&Frame::new(FrameType::Request, vec![0u8; 16]));
            let len_at = crate::frame::HEADER_LEN - 4;
            bytes[len_at..len_at + 4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
            io::Write::write_all(&mut stream, &bytes)?;
            read_close(&mut stream, &mut report);
        }
        ChaosKind::Slow => {
            handshake_observer(&mut stream)?;
            let bytes = encode(&Frame::new(FrameType::Ping, Vec::new()));
            io::Write::write_all(&mut stream, &bytes[..10])?;
            // Stall long enough that the server's mid-frame read times out.
            thread::sleep(Duration::from_millis(300));
            read_close(&mut stream, &mut report);
        }
        ChaosKind::Disconnect => {
            handshake_observer(&mut stream)?;
            let bytes = encode(&Frame::new(FrameType::Ping, Vec::new()));
            io::Write::write_all(&mut stream, &bytes[..7])?;
            // Close the sending half mid-frame; the server sees the end of
            // the stream inside a frame, and its answer marks the drop as
            // recorded.
            stream.shutdown(std::net::Shutdown::Write)?;
            read_close(&mut stream, &mut report);
        }
        ChaosKind::Unauthorized => {
            handshake_observer(&mut stream)?;
            let req = probe_request();
            write_frame(
                &mut stream,
                &Frame::new(FrameType::Request, encode_payload(&ReqSnap::from(&req))),
            )?;
            // Expect exactly one fail-closed deny back.
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                match read_frame(&mut stream) {
                    Ok(ReadOutcome::Idle) => continue,
                    Ok(ReadOutcome::Closed) => break,
                    Ok(ReadOutcome::Frame(f)) if f.frame_type == FrameType::Decision => {
                        let snap: DecisionSnap = decode_payload(&f.payload)
                            .ok_or_else(|| io::Error::other("bad decision payload"))?;
                        assert!(
                            !snap.verdict.permits_execution(),
                            "unauthorized request was not denied"
                        );
                        report.denies += 1;
                        break;
                    }
                    Ok(ReadOutcome::Frame(_)) => continue,
                    Err(_) => break,
                }
            }
            let _ = write_frame(&mut stream, &Frame::new(FrameType::Bye, Vec::new()));
        }
    }
    Ok(report)
}

/// Hello/Welcome as an observer.
fn handshake_observer(stream: &mut TcpStream) -> io::Result<()> {
    let hello = HelloPayload {
        role: Role::Observer,
        client: 0,
        clients: 0,
    };
    write_frame(
        stream,
        &Frame::new(FrameType::Hello, encode_payload(&hello)),
    )?;
    expect_welcome(stream, Instant::now(), Duration::from_secs(10))
}

/// A syntactically valid request no observer is allowed to submit.
fn probe_request() -> DecisionRequest {
    let schema = apdm_serve::schema();
    DecisionRequest {
        id: u64::MAX / 2, // far outside any workload id range
        tenant: TenantId(0),
        device: 0,
        state: schema.state(&[1.0]).expect("in-schema state"),
        proposed: Action::adjust("probe", Default::default()),
        alternatives: Vec::new(),
        submitted_at: 1,
        deadline: None,
        ctx: None,
    }
}

/// Drain until the server's `Error`/close arrives, recording the code.
fn read_close(stream: &mut TcpStream, report: &mut ChaosReport) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match read_frame(stream) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Frame(f)) if f.frame_type == FrameType::Error => {
                if let Some(err) = decode_payload::<ErrorPayload>(&f.payload) {
                    report.closed_code = Some(err.code);
                }
            }
            Ok(ReadOutcome::Frame(_)) => continue,
            Err(_) => return,
        }
    }
}
