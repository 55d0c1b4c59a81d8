//! The server side: a thread-per-connection accept loop funneling frames
//! over an mpsc channel into the existing single-threaded tick loop.
//!
//! ## Threads and writes
//!
//! Each connection has one reader and one writer thread. The reader
//! decodes frames out of a buffered socket and forwards every frame one
//! buffer fill yields as one batch of events, so a client's tick of
//! requests wakes the tick loop once, not once per frame. The tick loop
//! encodes each connection's replies for a tick — its rejects, sheds and
//! decisions in routing order, then its `TickAck` — into one buffer and
//! hands that to the connection's writer as one message, written with
//! one `write_all`: one writer wake-up and one write per connection per
//! tick. Replies the loop makes between ticks (`Welcome`, a fail-closed
//! deny, a close) go out at once. Framing is unchanged; only how many
//! frames share a write is.
//!
//! ## Determinism across the I/O boundary
//!
//! The deterministic core — admission lanes, batching, sharding, memo
//! caches, segmented ledger, checkpoints — runs unchanged on the caller's
//! thread. Connection threads only *transport*: they decode frames and
//! forward events; they never touch the service. Wall-clock
//! nondeterminism (thread scheduling, packet arrival order) is contained
//! by a lockstep barrier:
//!
//! 1. Workload clients partition one seeded workload by request id
//!    (`id % clients == index`) and, per tick *t*, send their slice
//!    followed by `TickDone(t)`.
//! 2. The server collects until **every** workload client has declared
//!    tick *t* done, submits the tick's requests in id order (the
//!    generator's emission order), and runs exactly one
//!    service tick — the same `submit*; tick` cadence as the in-process
//!    driver.
//! 3. Decisions are routed back to the submitting connection and the
//!    server broadcasts `TickAck(t)`.
//!
//! Within-tick arrival order across connections is therefore *resolved*,
//! not trusted: whatever order the OS delivers frames in, the service
//! sees the same request sequence, so the decision stream and sealed
//! segmented-ledger bytes are identical to the in-process path (asserted
//! by experiment E17).
//!
//! ## Fail-closed boundary
//!
//! Malformed traffic can never reach the guard stacks or crash the
//! server. Frame-level garbage (bad magic, CRC, oversize, torn or
//! stalled frames) cannot be attributed to a request, so the connection
//! is dropped and the drop recorded in a **boundary audit ledger** — a
//! separate tamper-evident ledger, so rejected noise never perturbs the
//! decision ledger's bytes. Well-framed but invalid requests *can* be
//! attributed, so they are answered with a fail-closed deny and audited,
//! and the connection stays open. Every rejection path lands in exactly
//! one of those two buckets; there is no silent discard.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use apdm_guards::{GuardVerdict, HarmOracle};
use apdm_ledger::{Ledger, RotationPolicy, RunEvent, SegmentedLedger, SegmentedRecorder};
use apdm_policy::{AuditEntry, AuditKind};
use apdm_serve::{Decision, DecisionRequest, PolicyDecisionService, ReqSnap, ServeStats};
use apdm_telemetry::{self as telemetry, TraceContext};

use crate::frame::{
    encode, encode_into, read_frame, write_frame, Frame, FrameType, ReadError, ReadOutcome,
    HEADER_LEN, TRAILER_LEN, VERSION,
};
use crate::socket;
use crate::wire::{
    close_code, decode_payload, encode_payload, DecisionSnap, ErrorPayload, HelloPayload, Role,
    TickPayload, WelcomePayload,
};

/// Slot for deriving the network hops (`net.recv`, `net.send`) of a
/// request's causal chain. The serve pipeline uses slot 1 for its internal
/// stages; the wire hops use their own slot so the chain stays linear.
const NET_SLOT: u64 = 2;

/// Configuration of one serving run over TCP.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Number of workload clients that must join the per-tick barrier.
    pub clients: u32,
    /// Ticks during which workload clients offer requests (the barrier
    /// phase); afterwards the server drains its queue unassisted.
    pub arrival_ticks: u64,
    /// Watchdog: the run fails if the drain runs past this tick.
    pub max_ticks: u64,
    /// Per-connection socket read timeout. Also the cadence at which idle
    /// connection readers re-check the shutdown flag.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout; a peer that stops reading is
    /// dropped rather than allowed to wedge a writer thread.
    pub write_timeout: Duration,
    /// How long the tick barrier may sit with no incoming event at all
    /// before the run is abandoned (e.g. a workload client hangs).
    pub barrier_timeout: Duration,
    /// Seed recorded in the boundary audit ledger's run header.
    pub seed: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            clients: 1,
            arrival_ticks: 32,
            max_ticks: 4_000,
            read_timeout: socket::READ_TIMEOUT,
            write_timeout: socket::WRITE_TIMEOUT,
            barrier_timeout: Duration::from_secs(30),
            seed: 42,
        }
    }
}

/// Everything one TCP serving run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The sealed segmented decision ledger — byte-identical to the
    /// in-process path for the same workload and service config.
    pub ledger: SegmentedLedger,
    /// Service counters.
    pub stats: ServeStats,
    /// The sealed boundary audit ledger. Every connection that sent
    /// `Hello` has a join record and exactly one terminal record — a
    /// departure (`bye`) or a drop — even when it was still open as the
    /// run ended. A connection dropped before `Hello` has only its drop
    /// record, and every fail-closed deny adds one record.
    pub audit: Ledger,
    /// Tick at which the ledger was sealed.
    pub final_tick: u64,
    /// Decisions routed back to clients.
    pub decisions_sent: u64,
    /// Decisions whose connection had already gone away.
    pub decisions_dropped: u64,
    /// Attributable bad requests answered with a fail-closed deny.
    pub rejects: u64,
    /// Connections dropped for frame-level garbage, stalls, or protocol
    /// violations.
    pub drops: u64,
    /// Total connections accepted.
    pub connections: u64,
}

/// What a connection's writer thread is told to do next.
enum Outbound {
    /// Write these encoded frames with one `write_all`.
    Bytes(Vec<u8>),
    /// Write an `Error` frame with this close code, then close the socket.
    Close(u16, String),
    /// Write a `Bye`, then close the socket (orderly end of run).
    Finish,
    /// Close the socket without writing (peer already said `Bye`).
    Quiet,
}

/// Events flowing from connection readers into the tick loop.
enum Event {
    /// A connection completed its `Hello`.
    Joined {
        conn: u64,
        role: Role,
        index: u32,
        clients: u32,
        out: Sender<Outbound>,
    },
    /// A workload connection submitted a request (trace context already
    /// reattached from the frame header).
    Request { conn: u64, req: DecisionRequest },
    /// A workload connection declared its slice of a tick complete.
    TickDone { conn: u64, tick: u64 },
    /// The connection was dropped (frame garbage, stall, protocol error,
    /// or I/O failure). The reader has already arranged the close; this is
    /// its last event.
    Dropped {
        conn: u64,
        code: u16,
        detail: String,
    },
    /// The peer closed cleanly (or the run ended); the reader's last
    /// event.
    Left { conn: u64 },
}

/// Per-connection state owned by the tick loop.
struct ConnState {
    out: Sender<Outbound>,
    role: Role,
    index: u32,
    /// Encoded frames waiting for this connection's next write.
    staged: Vec<u8>,
    /// How many of the staged frames are decisions.
    staged_decisions: u64,
}

impl ConnState {
    fn new(out: Sender<Outbound>, role: Role, index: u32) -> Self {
        ConnState {
            out,
            role,
            index,
            staged: Vec::new(),
            staged_decisions: 0,
        }
    }

    /// Hand the staged frames to the writer as one message. Returns the
    /// staged decisions `(sent, lost)`: lost when the writer is gone.
    fn flush(&mut self) -> (u64, u64) {
        if self.staged.is_empty() {
            return (0, 0);
        }
        let capacity = self.staged.len();
        let bytes = std::mem::replace(&mut self.staged, Vec::with_capacity(capacity));
        let decisions = std::mem::take(&mut self.staged_decisions);
        match self.out.send(Outbound::Bytes(bytes)) {
            Ok(()) => (decisions, 0),
            Err(_) => (0, decisions),
        }
    }
}

/// The tick loop's end of the event channel. Readers send the events of
/// one buffer fill as one batch; the loop takes them one at a time, so
/// the barrier is checked after every event, as if each had come alone.
struct Inbox {
    rx: Receiver<Vec<Event>>,
    queued: std::vec::IntoIter<Event>,
}

impl Inbox {
    fn new(rx: Receiver<Vec<Event>>) -> Self {
        Inbox {
            rx,
            queued: Vec::new().into_iter(),
        }
    }

    /// The next event, waiting up to `timeout` for a new batch.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Event, RecvTimeoutError> {
        loop {
            if let Some(ev) = self.queued.next() {
                return Ok(ev);
            }
            self.queued = self.rx.recv_timeout(timeout)?.into_iter();
        }
    }

    /// The next event already received, if any.
    fn try_recv(&mut self) -> Option<Event> {
        loop {
            if let Some(ev) = self.queued.next() {
                return Some(ev);
            }
            self.queued = self.rx.try_recv().ok()?.into_iter();
        }
    }
}

/// The tick loop's bookkeeping, audit trail, and counters.
struct Loop {
    conns: HashMap<u64, ConnState>,
    /// Workload index → connection id, to reject duplicate joins.
    workload: HashMap<u32, u64>,
    /// Requests collected for the tick currently behind the barrier, keyed
    /// by request id: iteration restores the workload generator's emission
    /// order by construction.
    pending: BTreeMap<u64, (u64, DecisionRequest)>,
    /// Workload connections that declared the current tick done.
    done: HashSet<u64>,
    /// request id → connection owed the decision.
    owed: HashMap<u64, u64>,
    /// Connections whose terminal audit record (departure or drop) is
    /// written while their reader may still send a terminal event, which
    /// is then ignored. A reader's `Dropped` or `Left` is its last event,
    /// so handling it removes the entry: the set never outgrows the open
    /// connections, however many a long-lived server has accepted.
    ended: HashSet<u64>,
    audit: SegmentedRecorder,
    audit_seq: u64,
    rejects: u64,
    drops: u64,
    decisions_sent: u64,
    decisions_dropped: u64,
    expected_clients: u32,
}

impl Loop {
    fn new(seed: u64, expected_clients: u32) -> Self {
        Loop {
            conns: HashMap::new(),
            workload: HashMap::new(),
            pending: BTreeMap::new(),
            done: HashSet::new(),
            owed: HashMap::new(),
            ended: HashSet::new(),
            audit: SegmentedRecorder::new("e17/net-audit", seed, 0, RotationPolicy::default()),
            audit_seq: 0,
            rejects: 0,
            drops: 0,
            decisions_sent: 0,
            decisions_dropped: 0,
            expected_clients,
        }
    }

    fn audit(&mut self, tick: u64, kind: AuditKind, subject: String, detail: String) {
        let entry = AuditEntry {
            seq: self.audit_seq,
            tick,
            subject,
            kind,
            detail,
        };
        self.audit_seq += 1;
        self.audit.record(tick, RunEvent::Audit(entry));
    }

    fn count(name: &'static str, n: u64) {
        if telemetry::enabled() {
            telemetry::with_registry(|reg| reg.counter(name).add(n));
        }
    }

    /// Append `frame` to `conn`'s staged bytes; they go out with the
    /// connection's next flush.
    fn stage(&mut self, conn: u64, frame: &Frame) {
        if let Some(state) = self.conns.get_mut(&conn) {
            encode_into(frame, &mut state.staged);
        }
    }

    /// Hand `conn`'s staged frames to its writer now.
    fn flush(&mut self, conn: u64) {
        if let Some(state) = self.conns.get_mut(&conn) {
            let (sent, lost) = state.flush();
            self.settle(sent, lost);
        }
    }

    /// Hand every connection's staged frames to its writer: one message,
    /// so one write, per connection.
    fn flush_all(&mut self) {
        let (mut sent, mut lost) = (0, 0);
        for state in self.conns.values_mut() {
            let (s, l) = state.flush();
            sent += s;
            lost += l;
        }
        self.settle(sent, lost);
    }

    /// Count the decisions a flush handed to writers, and those it lost.
    fn settle(&mut self, sent: u64, lost: u64) {
        self.decisions_sent += sent;
        self.decisions_dropped += lost;
        if sent > 0 {
            Self::count("net.decision.sent", sent);
        }
    }

    /// Send `msg` to `conn`'s writer after anything staged for it.
    fn send_now(&mut self, conn: u64, msg: Outbound) {
        self.flush(conn);
        if let Some(state) = self.conns.get(&conn) {
            let _ = state.out.send(msg);
        }
    }

    /// Workload clients currently joined and done with the barrier tick.
    fn barrier_met(&self) -> bool {
        self.workload.len() == self.expected_clients as usize
            && self.done.len() == self.expected_clients as usize
    }

    /// Handle one reader event at barrier tick `tick` (the tick being
    /// collected; past the arrival window it is the current drain tick).
    /// Returns an error only for failures that make the deterministic run
    /// impossible (a workload client vanished).
    fn handle(&mut self, ev: Event, tick: u64, collecting: bool) -> io::Result<()> {
        match ev {
            Event::Joined {
                conn,
                role,
                index,
                clients,
                out,
            } => {
                let valid = match role {
                    Role::Workload => {
                        clients == self.expected_clients
                            && index < clients
                            && !self.workload.contains_key(&index)
                    }
                    Role::Observer => true,
                };
                if !valid {
                    let detail =
                        format!("bad hello: role={role:?} index={index} clients={clients}");
                    let _ = out.send(Outbound::Close(close_code::PROTOCOL, detail.clone()));
                    self.record_drop(conn, tick, close_code::PROTOCOL, &detail);
                    return Ok(());
                }
                if role == Role::Workload {
                    self.workload.insert(index, conn);
                }
                self.conns.insert(conn, ConnState::new(out, role, index));
                self.stage(conn, &welcome_frame(self.expected_clients));
                self.flush(conn);
                Self::count("net.conn.joined", 1);
                self.audit(
                    tick,
                    AuditKind::Note,
                    format!("conn{conn}"),
                    format!("joined role={role:?} index={index}"),
                );
                Ok(())
            }
            Event::Request { conn, req } => {
                let Some(state) = self.conns.get(&conn) else {
                    return Ok(()); // dropped concurrently; reader is exiting
                };
                if state.role != Role::Workload || !collecting {
                    // Attributable, but not admissible: observers may not
                    // submit, and nothing may arrive after the arrival
                    // window. Fail-closed deny + audit.
                    let detail = if state.role != Role::Workload {
                        "role"
                    } else {
                        "late"
                    };
                    self.reject(conn, &req, tick, detail);
                    self.flush(conn);
                    return Ok(());
                }
                // A request id names its owner (`id % clients == index`)
                // and one decision: a foreign or repeated id would route
                // some decision to the wrong connection. A state whose
                // component count is not its schema's cannot be evaluated.
                let foreign = req.id % u64::from(self.expected_clients) != u64::from(state.index);
                let why = if foreign {
                    "foreign-id"
                } else if self.pending.contains_key(&req.id) || self.owed.contains_key(&req.id) {
                    "duplicate-id"
                } else if !req.state_fits_schema() {
                    "bad-state"
                } else {
                    self.pending.insert(req.id, (conn, req));
                    return Ok(());
                };
                self.reject(conn, &req, tick, why);
                self.flush(conn);
                Ok(())
            }
            Event::TickDone { conn, tick: t } => {
                let Some(state) = self.conns.get(&conn) else {
                    return Ok(());
                };
                if state.role != Role::Workload || !collecting || t != tick {
                    let detail = format!("unexpected TickDone({t}) at tick {tick}");
                    self.send_now(conn, Outbound::Close(close_code::PROTOCOL, detail.clone()));
                    self.record_drop(conn, tick, close_code::PROTOCOL, &detail);
                    return self.depart(conn, tick, collecting, "protocol: bad TickDone");
                }
                self.done.insert(conn);
                Ok(())
            }
            Event::Dropped { conn, code, detail } => {
                self.record_drop(conn, tick, code, &detail);
                // The reader's last event: nothing can name `conn` again.
                self.ended.remove(&conn);
                self.depart(conn, tick, collecting, "dropped")
            }
            Event::Left { conn } => {
                // The reader's last event. A drop the loop already
                // recorded stays the connection's terminal record.
                if !self.ended.remove(&conn) {
                    self.audit(tick, AuditKind::Note, format!("conn{conn}"), "bye".into());
                }
                self.depart(conn, tick, collecting, "left")
            }
        }
    }

    /// Count and audit a dropped connection. This is the connection's
    /// terminal record, so a connection that already has one is skipped.
    fn record_drop(&mut self, conn: u64, tick: u64, code: u16, detail: &str) {
        if !self.ended.insert(conn) {
            return;
        }
        self.drops += 1;
        Self::count("net.conn.dropped", 1);
        self.audit(
            tick,
            AuditKind::Note,
            format!("conn{conn}"),
            format!("drop code={code} ({}): {detail}", close_code::name(code)),
        );
    }

    /// Answer an attributable bad request with a fail-closed deny, staged
    /// on its connection, and audit it. The request never reaches the
    /// service.
    fn reject(&mut self, conn: u64, req: &DecisionRequest, tick: u64, why: &str) {
        if self.conns.contains_key(&conn) {
            let snap = DecisionSnap {
                request_id: req.id,
                tenant: req.tenant.0,
                device: req.device,
                action: req.proposed.name().to_string(),
                verdict: GuardVerdict::Deny {
                    reason: format!("net:reject:{why}"),
                },
                shed: None,
                submitted_at: req.submitted_at,
                decided_at: tick,
            };
            let frame = Frame::traced(
                FrameType::Decision,
                req.ctx.map(|c| c.child(NET_SLOT)),
                encode_payload(&snap),
            );
            self.stage(conn, &frame);
        }
        self.rejects += 1;
        Self::count("net.request.rejected", 1);
        self.audit(
            tick,
            AuditKind::Decision,
            format!("conn{conn}/req{}", req.id),
            format!("fail-closed deny: {why}"),
        );
    }

    /// Remove a connection. A workload client vanishing while the barrier
    /// still depends on it (`critical`, i.e. during the arrival window)
    /// makes the deterministic run impossible and fails the run; after the
    /// window its departure is routine.
    fn depart(&mut self, conn: u64, tick: u64, critical: bool, why: &str) -> io::Result<()> {
        let Some(state) = self.conns.remove(&conn) else {
            return Ok(());
        };
        self.done.remove(&conn);
        if state.role == Role::Workload {
            self.workload.remove(&state.index);
            if critical {
                return Err(io::Error::other(format!(
                    "workload client {} {} at tick {tick}: deterministic run impossible",
                    state.index, why
                )));
            }
        }
        Ok(())
    }

    /// Stage one decision for the connection that submitted its request,
    /// advancing the causal chain with a `net.send` hop.
    fn route(&mut self, decision: &Decision) {
        let ctx = net_hop(decision.ctx, "net.send", decision.device);
        let owner = self.owed.remove(&decision.request_id);
        let Some(state) = owner.and_then(|conn| self.conns.get_mut(&conn)) else {
            self.decisions_dropped += 1;
            return;
        };
        let frame = Frame::traced(
            FrameType::Decision,
            ctx,
            encode_payload(&DecisionSnap::from(decision)),
        );
        encode_into(&frame, &mut state.staged);
        state.staged_decisions += 1;
    }

    /// Run barrier tick `tick`: submit the collected requests in id order,
    /// tick the service, stage each connection's rejects, sheds and
    /// decisions in routing order and then its `TickAck`, and flush.
    fn arrival_tick<O: HarmOracle + Copy + Send + Sync>(
        &mut self,
        svc: &mut PolicyDecisionService<O>,
        tick: u64,
    ) {
        // The OS delivered this tick's requests in arbitrary interleaving;
        // id order is the workload generator's emission order, which is
        // what the in-process driver submits.
        for (conn, mut req) in std::mem::take(&mut self.pending).into_values() {
            if req.submitted_at != tick {
                self.reject(conn, &req, tick, "tick-mismatch");
                continue;
            }
            req.ctx = net_hop(req.ctx, "net.recv", req.device);
            self.owed.insert(req.id, conn);
            if let Some(shed) = svc.submit(req, tick) {
                self.route(&shed);
            }
        }
        for decision in svc.tick(tick) {
            self.route(&decision);
        }
        self.done.clear();
        let ack = Frame::new(FrameType::TickAck, encode_payload(&TickPayload { tick }));
        for conn in self.workload.values() {
            if let Some(state) = self.conns.get_mut(conn) {
                encode_into(&ack, &mut state.staged);
            }
        }
        self.flush_all();
    }

    /// Run drain tick `now`: tick the service and flush its decisions.
    fn drain_tick<O: HarmOracle + Copy + Send + Sync>(
        &mut self,
        svc: &mut PolicyDecisionService<O>,
        now: u64,
    ) {
        for decision in svc.tick(now) {
            self.route(&decision);
        }
        self.flush_all();
    }
}

/// The `Welcome` answering a valid `Hello`.
fn welcome_frame(clients: u32) -> Frame {
    let welcome = WelcomePayload {
        version: VERSION,
        clients,
    };
    Frame::new(FrameType::Welcome, encode_payload(&welcome))
}

/// Advance a request's causal chain by one wire hop, emitting the event
/// when the trace records. Mirrors the serve pipeline's stage events but
/// uses the wire slot.
fn net_hop(ctx: Option<TraceContext>, name: &'static str, device: u64) -> Option<TraceContext> {
    let next = ctx?.child(NET_SLOT);
    if telemetry::enabled() && next.sampled {
        let mut fields = Vec::new();
        next.push_fields(device, &mut fields);
        telemetry::emit_event(name, telemetry::Level::Debug, fields);
    }
    Some(next)
}

/// Serve one deterministic run over TCP and seal the ledger.
///
/// Accepts connections on `listener` until `cfg.clients` workload clients
/// have driven all `cfg.arrival_ticks` ticks through the lockstep barrier,
/// drains the service queue, seals the segmented decision ledger, and
/// returns it together with the boundary audit ledger. The caller
/// supplies a fresh [`PolicyDecisionService`]; the function never spawns
/// a thread that touches it.
///
/// Shutdown closes every connection and handles the last event of each
/// before the audit ledger seals, so a peer still connected at the end is
/// recorded too: a departure when it sat at a frame boundary, a drop
/// (code 4) when it held a partial frame.
pub fn serve<O: HarmOracle + Copy + Send + Sync>(
    listener: TcpListener,
    mut svc: PolicyDecisionService<O>,
    cfg: NetServerConfig,
) -> io::Result<ServeOutcome> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let (events_tx, events) = mpsc::channel::<Vec<Event>>();
    let mut inbox = Inbox::new(events);
    let accepted = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let accept_handle = spawn_acceptor(
        listener,
        events_tx,
        shutdown.clone(),
        accepted.clone(),
        &cfg,
    )?;

    let mut state = Loop::new(cfg.seed, cfg.clients);

    let run = drive(&mut svc, &mut state, &mut inbox, &cfg);
    // Orderly shutdown regardless of how the run ended: stop accepting,
    // close every connection, and let the threads unwind.
    shutdown.store(true, Ordering::SeqCst);
    state.flush_all();
    for conn in state.conns.values() {
        let _ = conn.out.send(Outbound::Finish);
    }
    let _ = accept_handle.join();
    let final_tick = run?;
    // Every connection thread has exited, so each connection's last event
    // is queued. Handle them all before sealing the audit ledger: a
    // departure or drop that raced the end of the run is still recorded.
    while let Some(ev) = inbox.try_recv() {
        state.handle(ev, final_tick, false)?;
    }

    let (ledger, stats) = svc.finish_segmented(final_tick);
    let audit = state
        .audit
        .finish(final_tick, 0)
        .into_single()
        .expect("the audit ledger never rotates");
    Ok(ServeOutcome {
        ledger,
        stats,
        audit,
        final_tick,
        decisions_sent: state.decisions_sent,
        decisions_dropped: state.decisions_dropped,
        rejects: state.rejects,
        drops: state.drops,
        connections: accepted.load(Ordering::SeqCst),
    })
}

/// The deterministic tick loop: barrier-collect, sort, submit, tick,
/// route; then drain. Returns the final tick for `finish_segmented`.
fn drive<O: HarmOracle + Copy + Send + Sync>(
    svc: &mut PolicyDecisionService<O>,
    state: &mut Loop,
    events: &mut Inbox,
    cfg: &NetServerConfig,
) -> io::Result<u64> {
    let mut now = 0u64;
    // Phase A: the arrival window, one barrier per tick.
    for tick in 1..=cfg.arrival_ticks {
        now = tick;
        while !state.barrier_met() {
            match events.recv_timeout(cfg.barrier_timeout) {
                Ok(ev) => state.handle(ev, tick, true)?,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "tick {tick} barrier stalled: {}/{} clients joined, {} done",
                            state.workload.len(),
                            cfg.clients,
                            state.done.len()
                        ),
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other("acceptor vanished"));
                }
            }
        }
        state.arrival_tick(svc, tick);
    }
    // Phase B: drain the queue without the barrier (clients only read).
    while svc.queue_depth() > 0 {
        now += 1;
        if now > cfg.max_ticks {
            return Err(io::Error::other(format!(
                "drain watchdog tripped at tick {now}"
            )));
        }
        while let Some(ev) = events.try_recv() {
            state.handle(ev, now, false)?;
        }
        state.drain_tick(svc, now);
    }
    Ok(now)
}

/// Spawn the accept loop: non-blocking accept so the shutdown flag is
/// honored promptly, one reader + one writer thread per connection.
fn spawn_acceptor(
    listener: TcpListener,
    events: Sender<Vec<Event>>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<std::sync::atomic::AtomicU64>,
    cfg: &NetServerConfig,
) -> io::Result<thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let read_timeout = cfg.read_timeout;
    let write_timeout = cfg.write_timeout;
    Ok(thread::spawn(move || {
        let mut next_conn = 0u64;
        let mut handles = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let conn = next_conn;
                    next_conn += 1;
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let events = events.clone();
                    let shutdown = shutdown.clone();
                    handles.push(thread::spawn(move || {
                        connection(conn, stream, events, shutdown, read_timeout, write_timeout);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }))
}

/// One connection: spawn the writer, then run the reader in this thread.
fn connection(
    conn: u64,
    stream: TcpStream,
    events: Sender<Vec<Event>>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
    write_timeout: Duration,
) {
    if socket::configure(&stream, read_timeout, write_timeout).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<Outbound>();
    let writer = thread::spawn(move || writer_loop(write_half, out_rx));
    reader_loop(conn, stream, &mut Batch::new(&events), &out_tx, &shutdown);
    drop(out_tx);
    let _ = writer.join();
}

/// Drain the outbound queue onto the socket, one `write_all` per
/// message; any close instruction (or a write failure) ends the
/// connection.
fn writer_loop(mut stream: TcpStream, out: Receiver<Outbound>) {
    for msg in out {
        match msg {
            Outbound::Bytes(bytes) => {
                if stream.write_all(&bytes).is_err() {
                    break;
                }
            }
            Outbound::Close(code, detail) => {
                let payload = encode_payload(&ErrorPayload { code, detail });
                let _ = write_frame(&mut stream, &Frame::new(FrameType::Error, payload));
                break;
            }
            Outbound::Finish => {
                let _ = write_frame(&mut stream, &Frame::new(FrameType::Bye, Vec::new()));
                break;
            }
            Outbound::Quiet => break,
        }
    }
    // Unblocks the reader (its next read returns EOF) and flushes RST-free.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decode and dispatch frames until the peer closes, errs out, or the
/// server shuts down. All fail-closed classification lives here.
///
/// The socket is read through a buffer, and the events of every frame
/// one fill holds go to the tick loop as one batch: the batch is
/// forwarded before any read that may block on the socket, so an event
/// never waits on bytes that have not arrived.
fn reader_loop(
    conn: u64,
    stream: TcpStream,
    events: &mut Batch,
    out: &Sender<Outbound>,
    shutdown: &Arc<AtomicBool>,
) {
    let mut reader = BufReader::with_capacity(socket::READ_BUFFER, stream);
    let mut role: Option<Role> = None;
    let mut idle = 0u32;
    // A connection gets ~10s of pre-Hello idling before it is treated as a
    // slow-loris and dropped (each Idle is one read-timeout period).
    let hello_budget = 200u32;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // The run ended with the peer idle at a frame boundary.
            leave(conn, role, events, out, Outbound::Finish);
            return;
        }
        if !holds_frame(reader.buffer()) {
            events.forward();
        }
        let mut counted = Counted {
            inner: &mut reader,
            read: 0,
        };
        let frame = match read_frame(&mut counted) {
            Ok(ReadOutcome::Frame(f)) => {
                idle = 0;
                f
            }
            Ok(ReadOutcome::Idle) => {
                idle += 1;
                if role.is_none() && idle > hello_budget {
                    drop_conn(conn, events, out, close_code::STALLED, "no hello".into());
                    return;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => {
                leave(conn, role, events, out, Outbound::Quiet);
                return;
            }
            Err(ReadError::Malformed(e)) => {
                let code = match e {
                    crate::frame::FrameError::BadVersion(_) => close_code::BAD_VERSION,
                    crate::frame::FrameError::Oversize(_) => close_code::OVERSIZE,
                    _ => close_code::MALFORMED,
                };
                drop_conn(conn, events, out, code, e.to_string());
                return;
            }
            Err(ReadError::Stalled) | Err(ReadError::Truncated) => {
                drop_conn(conn, events, out, close_code::STALLED, "torn frame".into());
                return;
            }
            Err(ReadError::Io(_)) if counted.read == 0 && shutdown.load(Ordering::SeqCst) => {
                // A reset at a frame boundary once the server is closing
                // is a departure, like a clean close.
                leave(conn, role, events, out, Outbound::Quiet);
                return;
            }
            Err(ReadError::Io(e)) => {
                drop_conn(conn, events, out, close_code::STALLED, e.to_string());
                return;
            }
        };
        match (frame.frame_type, role) {
            (FrameType::Hello, None) => {
                let Some(hello) = decode_payload::<HelloPayload>(&frame.payload) else {
                    drop_conn(conn, events, out, close_code::MALFORMED, "bad hello".into());
                    return;
                };
                role = Some(hello.role);
                events.push(Event::Joined {
                    conn,
                    role: hello.role,
                    index: hello.client,
                    clients: hello.clients,
                    out: out.clone(),
                });
            }
            (FrameType::Request, Some(_)) => {
                let Some(snap) = decode_payload::<ReqSnap>(&frame.payload) else {
                    // Valid envelope, undecodable request: no request id to
                    // answer, so this is unattributable — drop.
                    drop_conn(
                        conn,
                        events,
                        out,
                        close_code::MALFORMED,
                        "bad request".into(),
                    );
                    return;
                };
                let mut req = DecisionRequest::from(snap);
                req.ctx = frame.ctx;
                events.push(Event::Request { conn, req });
            }
            (FrameType::TickDone, Some(Role::Workload)) => {
                let Some(tick) = decode_payload::<TickPayload>(&frame.payload) else {
                    drop_conn(
                        conn,
                        events,
                        out,
                        close_code::MALFORMED,
                        "bad tickdone".into(),
                    );
                    return;
                };
                events.push(Event::TickDone {
                    conn,
                    tick: tick.tick,
                });
            }
            (FrameType::Ping, Some(_)) => {
                // The `Pong` follows every event decoded before its `Ping`
                // into the tick loop: a peer that reads it knows the
                // server holds what it sent first.
                events.forward();
                let pong = encode(&Frame::new(FrameType::Pong, Vec::new()));
                let _ = out.send(Outbound::Bytes(pong));
            }
            (FrameType::Bye, _) => {
                leave(conn, role, events, out, Outbound::Quiet);
                return;
            }
            (ty, _) => {
                drop_conn(
                    conn,
                    events,
                    out,
                    close_code::PROTOCOL,
                    format!("unexpected {ty:?} frame"),
                );
                return;
            }
        }
    }
}

/// Tear down a connection fail-closed: best-effort `Error` frame to the
/// peer, `Dropped` event to the tick loop (which audits it) after the
/// events decoded before it.
fn drop_conn(conn: u64, events: &mut Batch, out: &Sender<Outbound>, code: u16, detail: String) {
    let _ = out.send(Outbound::Close(code, detail.clone()));
    events.push(Event::Dropped { conn, code, detail });
    events.forward();
}

/// End a connection as an orderly departure: a `Left` event to the tick
/// loop (for a peer that completed `Hello`), then `then` to the writer.
fn leave(
    conn: u64,
    role: Option<Role>,
    events: &mut Batch,
    out: &Sender<Outbound>,
    then: Outbound,
) {
    if role.is_some() {
        events.push(Event::Left { conn });
    }
    events.forward();
    let _ = out.send(then);
}

/// The events one buffer fill decoded, not yet forwarded to the tick
/// loop.
struct Batch<'a> {
    tx: &'a Sender<Vec<Event>>,
    events: Vec<Event>,
}

impl<'a> Batch<'a> {
    fn new(tx: &'a Sender<Vec<Event>>) -> Self {
        Batch {
            tx,
            events: Vec::new(),
        }
    }

    fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Send the held events to the tick loop as one message.
    fn forward(&mut self) {
        if !self.events.is_empty() {
            let _ = self.tx.send(std::mem::take(&mut self.events));
        }
    }
}

/// Whether `buf` begins with a whole frame, so decoding it needs no
/// further read from the socket. A length prefix is trusted only to size
/// this check; `read_frame` still validates it.
fn holds_frame(buf: &[u8]) -> bool {
    let Some(len) = buf.get(HEADER_LEN - 4..HEADER_LEN) else {
        return false;
    };
    let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
    buf.len() >= HEADER_LEN + len + TRAILER_LEN
}

/// A stream that counts the bytes read through it, so the reader can tell
/// an I/O error at a frame boundary from one inside a frame.
struct Counted<'a> {
    inner: &'a mut BufReader<TcpStream>,
    read: usize,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::E17Config;
    use crate::frame::decode;
    use apdm_serve::WorkloadGen;

    /// The single message `rx` holds: a write of encoded frames.
    fn one_write(rx: &Receiver<Outbound>) -> Vec<u8> {
        let msgs: Vec<Outbound> = rx.try_iter().collect();
        assert_eq!(msgs.len(), 1, "expected exactly one message");
        match msgs.into_iter().next() {
            Some(Outbound::Bytes(bytes)) => bytes,
            _ => panic!("expected encoded frames"),
        }
    }

    /// The wire bytes of `decision` as its own frame.
    fn decision_frame(decision: &Decision) -> Vec<u8> {
        encode(&Frame::traced(
            FrameType::Decision,
            decision.ctx,
            encode_payload(&DecisionSnap::from(decision)),
        ))
    }

    #[test]
    fn each_tick_reaches_each_workload_writer_as_one_write_of_its_frames() {
        const CLIENTS: u32 = 2;
        let cfg = E17Config {
            arrival_ticks: 4,
            per_tick: 10,
            ..E17Config::default()
        };
        // `reference` is driven the way the server once wrote: each
        // decision as its own frame, in routing order, then `TickAck`.
        let (mut served, mut reference) = (cfg.service(), cfg.service());
        let mut state = Loop::new(42, CLIENTS);
        let mut writers = Vec::new();
        for index in 0..CLIENTS {
            let (out, rx) = mpsc::channel();
            let conn = u64::from(index);
            let joined = Event::Joined {
                conn,
                role: Role::Workload,
                index,
                clients: CLIENTS,
                out,
            };
            state.handle(joined, 1, true).unwrap();
            let welcome = decode(&one_write(&rx)).expect("one frame");
            assert_eq!(welcome.frame_type, FrameType::Welcome);
            writers.push(rx);
        }
        let (out, observer) = mpsc::channel();
        let joined = Event::Joined {
            conn: 9,
            role: Role::Observer,
            index: 0,
            clients: 0,
            out,
        };
        state.handle(joined, 1, true).unwrap();
        assert_eq!(one_write(&observer), encode(&welcome_frame(CLIENTS)));

        // A reject made between ticks goes out at once, before any tick.
        let mut probe = WorkloadGen::new(cfg.spec()).tick_requests(1)[0].clone();
        probe.id = 1_000_000;
        state
            .handle(
                Event::Request {
                    conn: 9,
                    req: probe,
                },
                1,
                true,
            )
            .unwrap();
        let deny = decode(&one_write(&observer)).expect("one frame");
        let snap: DecisionSnap = decode_payload(&deny.payload).expect("decision");
        assert_eq!(
            snap.verdict,
            GuardVerdict::Deny {
                reason: "net:reject:role".into()
            }
        );

        let mut gen = WorkloadGen::new(cfg.spec());
        let mut expected = vec![Vec::new(); CLIENTS as usize];
        let owed = |expected: &mut Vec<Vec<u8>>, d: &Decision| {
            expected[(d.request_id % u64::from(CLIENTS)) as usize].extend(decision_frame(d));
        };
        for tick in 1..=cfg.arrival_ticks {
            let reqs = gen.tick_requests(tick);
            assert!(reqs.iter().all(|r| r.ctx.is_none()));
            // Arrival order is resolved by the barrier: feed it reversed.
            for req in reqs.iter().rev() {
                let conn = req.id % u64::from(CLIENTS);
                let ev = Event::Request {
                    conn,
                    req: req.clone(),
                };
                state.handle(ev, tick, true).unwrap();
            }
            for conn in 0..u64::from(CLIENTS) {
                state
                    .handle(Event::TickDone { conn, tick }, tick, true)
                    .unwrap();
            }
            assert!(state.barrier_met());
            for rx in &writers {
                assert!(rx.try_recv().is_err(), "nothing goes out before the tick");
            }
            state.arrival_tick(&mut served, tick);

            for req in reqs {
                if let Some(shed) = reference.submit(req, tick) {
                    owed(&mut expected, &shed);
                }
            }
            for d in reference.tick(tick) {
                owed(&mut expected, &d);
            }
            let ack = encode(&Frame::new(
                FrameType::TickAck,
                encode_payload(&TickPayload { tick }),
            ));
            for (c, rx) in writers.iter().enumerate() {
                let frames = std::mem::take(&mut expected[c]);
                assert_eq!(one_write(rx), [frames, ack.clone()].concat(), "tick {tick}");
            }
        }
        // A drain tick writes its decisions, once per connection that has
        // any.
        let mut now = cfg.arrival_ticks;
        while served.queue_depth() > 0 {
            now += 1;
            state.drain_tick(&mut served, now);
            for d in reference.tick(now) {
                owed(&mut expected, &d);
            }
            for (c, rx) in writers.iter().enumerate() {
                let frames = std::mem::take(&mut expected[c]);
                if frames.is_empty() {
                    assert!(rx.try_recv().is_err(), "drain tick {now}: empty write");
                } else {
                    assert_eq!(one_write(rx), frames, "drain tick {now}");
                }
            }
        }
        assert_eq!(reference.queue_depth(), 0);
        assert!(
            now > cfg.arrival_ticks,
            "the workload left nothing to drain"
        );
        assert!(observer.try_recv().is_err());
        assert_eq!(
            state.decisions_sent,
            cfg.per_tick as u64 * cfg.arrival_ticks
        );
        assert_eq!(state.decisions_dropped, 0);
    }

    /// The audit details of `state`'s records so far.
    fn audit_details(state: &Loop) -> Vec<String> {
        state
            .audit
            .current()
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                RunEvent::Audit(entry) => Some(entry.detail.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn ended_connections_are_forgotten_after_their_last_event() {
        const CYCLES: u64 = 200;
        let mut state = Loop::new(42, 1);
        let (out, _rx) = mpsc::channel::<Outbound>();
        let joined = |conn, role, index| Event::Joined {
            conn,
            role,
            index,
            clients: 1,
            out: out.clone(),
        };
        let mut feed = |ev| state.handle(ev, 1, false).unwrap();
        for cycle in 0..CYCLES {
            let conn = 4 * cycle;
            // An observer that joins and leaves.
            feed(joined(conn, Role::Observer, 0));
            feed(Event::Left { conn });
            // A bad hello the loop drops, whose reader then leaves.
            feed(joined(conn + 1, Role::Workload, 7));
            feed(Event::Left { conn: conn + 1 });
            // A bad hello the loop drops, whose reader then reports the
            // dropped socket too.
            feed(joined(conn + 2, Role::Workload, 7));
            feed(Event::Dropped {
                conn: conn + 2,
                code: close_code::STALLED,
                detail: "eof".into(),
            });
            // A connection dropped before any hello.
            feed(Event::Dropped {
                conn: conn + 3,
                code: close_code::MALFORMED,
                detail: "garbage".into(),
            });
        }
        assert!(state.ended.is_empty(), "{} entries kept", state.ended.len());
        assert!(state.conns.is_empty());
        // Still exactly one terminal record per connection.
        let details = audit_details(&state);
        let count = |prefix: &str| details.iter().filter(|d| d.starts_with(prefix)).count() as u64;
        assert_eq!(count("bye"), CYCLES);
        assert_eq!(count("drop "), 3 * CYCLES);
        assert_eq!(state.drops, 3 * CYCLES);
    }
}
