//! Transport tests over real loopback sockets: Nagle is off on both ends,
//! so the lockstep barrier runs at loopback speed, the boundary audit
//! stays complete when a run ends with peers still connected, and every
//! decision goes back to the connection that owns its request.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use apdm_guards::GuardVerdict;
use apdm_ledger::RunEvent;
use apdm_net::frame::{
    encode, read_frame, write_frame, Frame, FrameType, ReadOutcome, MAX_PAYLOAD,
};
use apdm_net::wire::{decode_payload, encode_payload};
use apdm_net::{
    close_code, connect_with_retry, run_workload_client, serve, DecisionSnap, E17Config,
    ErrorPayload, HelloPayload, NetServerConfig, ReqSnap, Role, ServeOutcome, TickPayload,
};
use apdm_serve::{DecisionRequest, WorkloadGen};

const DEADLINE: Duration = Duration::from_secs(30);

/// Start a loopback server for `cfg`'s workload; returns its address.
fn start_server(
    cfg: &E17Config,
    net: NetServerConfig,
) -> (String, JoinHandle<io::Result<ServeOutcome>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let cfg = cfg.clone();
    let server = thread::spawn(move || serve(listener, cfg.service(), net));
    (addr, server)
}

/// The next frame on `stream`, waiting through idle read timeouts.
fn next_frame(stream: &mut TcpStream) -> Frame {
    let deadline = Instant::now() + DEADLINE;
    while Instant::now() < deadline {
        match read_frame(stream).expect("well-formed frame") {
            ReadOutcome::Frame(frame) => return frame,
            ReadOutcome::Idle => continue,
            ReadOutcome::Closed => panic!("server closed the connection"),
        }
    }
    panic!("no frame within {DEADLINE:?}");
}

/// Write `Hello` for `role` and wait for the server's `Welcome`.
fn handshake(stream: &mut TcpStream, role: Role, client: u32, clients: u32) {
    let hello = HelloPayload {
        role,
        client,
        clients,
    };
    write_frame(
        stream,
        &Frame::new(FrameType::Hello, encode_payload(&hello)),
    )
    .expect("write hello");
    assert_eq!(next_frame(stream).frame_type, FrameType::Welcome);
}

/// The audit details recorded against connection subject `conn`.
fn audit_details(outcome: &ServeOutcome, conn: &str) -> Vec<String> {
    outcome
        .audit
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            RunEvent::Audit(entry) if entry.subject == conn => Some(entry.detail.clone()),
            _ => None,
        })
        .collect()
}

/// The connection subject whose join record names `role`.
fn joined_subject(outcome: &ServeOutcome, role: Role) -> String {
    let joined = format!("joined role={role:?} ");
    outcome
        .audit
        .records()
        .iter()
        .find_map(|r| match &r.event {
            RunEvent::Audit(entry) if entry.detail.starts_with(&joined) => {
                Some(entry.subject.clone())
            }
            _ => None,
        })
        .expect("join record")
}

/// Terminal records are departures (`bye`) and drops.
fn terminal(detail: &str) -> bool {
    detail == "bye" || detail.starts_with("drop ")
}

#[test]
fn connect_with_retry_disables_nagle_and_sets_timeouts() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let stream = connect_with_retry(&addr, 1, Duration::ZERO).expect("connect");
    assert!(stream.nodelay().expect("read TCP_NODELAY"), "Nagle left on");
    // The kernel rounds timeouts to its tick, so only their presence is
    // checked.
    assert!(stream.read_timeout().expect("read timeout").is_some());
    assert!(stream.write_timeout().expect("write timeout").is_some());
}

/// Two workload connections driven in lockstep from one thread. With
/// Nagle on either end, each `TickDone` → `TickAck` round trip waits out
/// the peer's delayed-ACK timer (~40 ms on Linux); with it off, a
/// loopback tick takes under a millisecond.
#[test]
fn lockstep_tick_round_trip_is_not_held_by_delayed_acks() {
    const CLIENTS: u32 = 2;
    let cfg = E17Config {
        arrival_ticks: 32,
        ..E17Config::default()
    };
    let (addr, server) = start_server(&cfg, cfg.net_config(CLIENTS));
    let mut conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|index| {
            let mut conn =
                connect_with_retry(&addr, 50, Duration::from_millis(100)).expect("connect");
            handshake(&mut conn, Role::Workload, index, CLIENTS);
            conn
        })
        .collect();

    let mut gen = WorkloadGen::new(cfg.spec());
    let mut sent = [0u64; CLIENTS as usize];
    let mut received = [0u64; CLIENTS as usize];
    let mut round_trips = Vec::new();
    for tick in 1..=cfg.arrival_ticks {
        for req in gen.tick_requests(tick) {
            let c = (req.id % CLIENTS as u64) as usize;
            let payload = encode_payload(&ReqSnap::from(&req));
            write_frame(&mut conns[c], &Frame::new(FrameType::Request, payload))
                .expect("write request");
            sent[c] += 1;
        }
        let started = Instant::now();
        let done = encode_payload(&TickPayload { tick });
        for conn in &mut conns {
            write_frame(conn, &Frame::new(FrameType::TickDone, done.clone()))
                .expect("write TickDone");
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            loop {
                let frame = next_frame(conn);
                match frame.frame_type {
                    FrameType::Decision => received[c] += 1,
                    FrameType::TickAck => {
                        let ack: TickPayload = decode_payload(&frame.payload).expect("tick");
                        assert_eq!(ack.tick, tick, "TickAck out of order");
                        break;
                    }
                    other => panic!("unexpected {other:?} frame"),
                }
            }
        }
        round_trips.push(started.elapsed());
    }
    for (c, conn) in conns.iter_mut().enumerate() {
        while received[c] < sent[c] {
            assert_eq!(next_frame(conn).frame_type, FrameType::Decision);
            received[c] += 1;
        }
        write_frame(conn, &Frame::new(FrameType::Bye, Vec::new())).expect("write bye");
    }
    drop(conns);
    let outcome = server.join().expect("server thread").expect("served run");
    assert!(outcome.ledger.verify().is_ok());

    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median TickDone -> TickAck round trip {median:?}: Nagle is holding frames \
         back until the delayed ACK"
    );
}

#[test]
fn workload_bye_after_the_last_tick_is_audited_once() {
    let cfg = E17Config {
        arrival_ticks: 4,
        per_tick: 2,
        ..E17Config::default()
    };
    let (addr, server) = start_server(&cfg, cfg.net_config(1));
    let report = run_workload_client(&addr, cfg.spec(), 0, 1, None, DEADLINE).expect("client");
    let outcome = server.join().expect("server thread").expect("served run");
    assert_eq!(report.decisions.len() as u64, report.sent);

    let subject = joined_subject(&outcome, Role::Workload);
    let terminals: Vec<String> = audit_details(&outcome, &subject)
        .into_iter()
        .filter(|d| terminal(d))
        .collect();
    assert_eq!(terminals, ["bye"], "{subject}: expected one departure");
    assert_eq!(outcome.drops, 0);
    assert!(outcome.audit.verify().is_ok());
}

/// An observer that stalls mid-frame and is still holding the partial
/// frame when the run ends. The read timeout is far longer than the run,
/// so the stall is only found by the shutdown classification.
#[test]
fn peer_mid_frame_at_shutdown_is_audited_as_one_stalled_drop() {
    let cfg = E17Config {
        arrival_ticks: 4,
        per_tick: 2,
        ..E17Config::default()
    };
    let net = NetServerConfig {
        read_timeout: Duration::from_secs(10),
        ..cfg.net_config(1)
    };
    let (addr, server) = start_server(&cfg, net);

    let mut observer = connect_with_retry(&addr, 50, Duration::from_millis(100)).expect("connect");
    handshake(&mut observer, Role::Observer, 0, 0);
    // A whole Ping and the first 10 bytes of another, in one segment: the
    // Pong proves the server has the partial frame before the run starts.
    let ping = encode(&Frame::new(FrameType::Ping, Vec::new()));
    let bytes = [&ping[..], &ping[..10]].concat();
    io::Write::write_all(&mut observer, &bytes).expect("write ping + partial frame");
    assert_eq!(next_frame(&mut observer).frame_type, FrameType::Pong);

    run_workload_client(&addr, cfg.spec(), 0, 1, None, DEADLINE).expect("client");
    let outcome = server.join().expect("server thread").expect("served run");
    drop(observer);

    let subject = joined_subject(&outcome, Role::Observer);
    let terminals: Vec<String> = audit_details(&outcome, &subject)
        .into_iter()
        .filter(|d| terminal(d))
        .collect();
    assert_eq!(terminals.len(), 1, "{subject}: {terminals:?}");
    assert!(
        terminals[0].starts_with("drop code=4 (stalled)"),
        "{subject}: expected a stalled drop, got {terminals:?}"
    );
    assert_eq!(outcome.drops, 1);
    assert!(outcome.audit.verify().is_ok());
}

/// A `Hello` whose payload is the largest the frame codec allows, all
/// `[`, behind a valid CRC: decoding it must fail with an error rather
/// than recurse once per byte and abort the server on a stack overflow.
/// The server drops that peer as malformed and still serves the run.
#[test]
fn deeply_nested_hello_is_dropped_and_the_run_completes() {
    let cfg = E17Config {
        arrival_ticks: 4,
        per_tick: 2,
        ..E17Config::default()
    };
    let (addr, server) = start_server(&cfg, cfg.net_config(1));

    let mut hostile = connect_with_retry(&addr, 50, Duration::from_millis(100)).expect("connect");
    let payload = vec![b'['; MAX_PAYLOAD as usize];
    write_frame(&mut hostile, &Frame::new(FrameType::Hello, payload)).expect("write hello");
    let reply = next_frame(&mut hostile);
    assert_eq!(reply.frame_type, FrameType::Error);
    let error: ErrorPayload = decode_payload(&reply.payload).expect("error payload");
    assert_eq!(error.code, close_code::MALFORMED, "{error:?}");

    let report = run_workload_client(&addr, cfg.spec(), 0, 1, None, DEADLINE).expect("client");
    let outcome = server.join().expect("server thread").expect("served run");
    assert_eq!(report.decisions.len() as u64, report.sent);
    assert!(outcome.ledger.verify().is_ok());
    assert_eq!(outcome.drops, 1);
    let drops: Vec<String> = outcome
        .audit
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            RunEvent::Audit(entry) if entry.detail.starts_with("drop ") => {
                Some(entry.detail.clone())
            }
            _ => None,
        })
        .collect();
    assert_eq!(drops, ["drop code=2 (malformed): bad hello"]);
    assert!(outcome.audit.verify().is_ok());
}

/// Write one request frame.
fn send_request(stream: &mut TcpStream, req: &DecisionRequest) {
    let payload = encode_payload(&ReqSnap::from(req));
    write_frame(stream, &Frame::new(FrameType::Request, payload)).expect("write request");
}

/// Drive `clients` raw workload connections in lockstep through `cfg`'s
/// arrival window. Each tick every connection sends its own partition,
/// then `inject` may write extra frames, then every connection sends
/// `TickDone`. Returns the decisions each connection received before the
/// server's closing `Bye`, and the server's outcome.
fn drive_raw(
    cfg: &E17Config,
    clients: u32,
    mut inject: impl FnMut(&[DecisionRequest], &mut [TcpStream]),
) -> (Vec<Vec<DecisionSnap>>, ServeOutcome) {
    let (addr, server) = start_server(cfg, cfg.net_config(clients));
    let mut conns: Vec<TcpStream> = (0..clients)
        .map(|index| {
            let mut conn =
                connect_with_retry(&addr, 50, Duration::from_millis(100)).expect("connect");
            handshake(&mut conn, Role::Workload, index, clients);
            conn
        })
        .collect();
    let mut received: Vec<Vec<DecisionSnap>> = vec![Vec::new(); clients as usize];
    let mut gen = WorkloadGen::new(cfg.spec());
    for tick in 1..=cfg.arrival_ticks {
        let reqs = gen.tick_requests(tick);
        for req in &reqs {
            send_request(&mut conns[(req.id % u64::from(clients)) as usize], req);
        }
        inject(&reqs, &mut conns);
        let done = encode_payload(&TickPayload { tick });
        for conn in &mut conns {
            write_frame(conn, &Frame::new(FrameType::TickDone, done.clone()))
                .expect("write TickDone");
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            loop {
                let frame = next_frame(conn);
                match frame.frame_type {
                    FrameType::Decision => {
                        received[c].push(decode_payload(&frame.payload).expect("decision payload"))
                    }
                    FrameType::TickAck => break,
                    other => panic!("unexpected {other:?} frame"),
                }
            }
        }
    }
    // The server drains its queue, then closes every connection with Bye.
    for (c, conn) in conns.iter_mut().enumerate() {
        loop {
            let frame = next_frame(conn);
            match frame.frame_type {
                FrameType::Decision => {
                    received[c].push(decode_payload(&frame.payload).expect("decision payload"))
                }
                FrameType::Bye => break,
                other => panic!("unexpected {other:?} frame"),
            }
        }
    }
    drop(conns);
    let outcome = server.join().expect("server thread").expect("served run");
    (received, outcome)
}

/// The fail-closed reject reason of a decision, if it is one.
fn reject_reason(decision: &DecisionSnap) -> Option<&str> {
    match &decision.verdict {
        GuardVerdict::Deny { reason } => reason.strip_prefix("net:reject:"),
        _ => None,
    }
}

/// The audit records of fail-closed denies for request `id`.
fn reject_audits(outcome: &ServeOutcome, id: u64) -> Vec<String> {
    let suffix = format!("/req{id}");
    outcome
        .audit
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            RunEvent::Audit(entry) if entry.subject.ends_with(&suffix) => {
                Some(entry.detail.clone())
            }
            _ => None,
        })
        .collect()
}

/// A workload client that copies another client's request id cannot
/// capture its decision: the copy is denied and audited, and the owner
/// still receives the evaluated decision.
#[test]
fn foreign_request_id_is_rejected_and_the_owner_keeps_its_decision() {
    const CLIENTS: u32 = 2;
    let cfg = E17Config {
        arrival_ticks: 3,
        per_tick: 4,
        ..E17Config::default()
    };
    let mut stolen = None;
    let (received, outcome) = drive_raw(&cfg, CLIENTS, |reqs, conns| {
        if stolen.is_some() {
            return;
        }
        let victim = reqs.iter().find(|r| r.id % u64::from(CLIENTS) == 0);
        let victim = victim.expect("a request owned by client 0").clone();
        // A Ping round trip on the owner's connection proves the server
        // holds the owner's copy before the foreign one is sent.
        write_frame(&mut conns[0], &Frame::new(FrameType::Ping, Vec::new())).expect("ping");
        assert_eq!(next_frame(&mut conns[0]).frame_type, FrameType::Pong);
        send_request(&mut conns[1], &victim);
        stolen = Some(victim.id);
    });
    let id = stolen.expect("a request was copied");

    let owner: Vec<&DecisionSnap> = received[0].iter().filter(|d| d.request_id == id).collect();
    assert_eq!(owner.len(), 1, "owner decisions for req{id}: {owner:?}");
    assert_eq!(
        reject_reason(owner[0]),
        None,
        "the owner's request was evaluated"
    );
    let thief: Vec<&DecisionSnap> = received[1].iter().filter(|d| d.request_id == id).collect();
    assert_eq!(thief.len(), 1, "foreign decisions for req{id}: {thief:?}");
    assert_eq!(reject_reason(thief[0]), Some("foreign-id"));

    let offered = cfg.per_tick as u64 * cfg.arrival_ticks;
    assert_eq!(
        outcome.stats.submitted, offered,
        "the copy never reached the service"
    );
    assert_eq!(outcome.rejects, 1);
    assert_eq!(outcome.decisions_dropped, 0, "a decision lost its owner");
    assert_eq!(outcome.decisions_sent, offered);
    assert_eq!(
        reject_audits(&outcome, id),
        ["fail-closed deny: foreign-id"]
    );
    assert!(outcome.audit.verify().is_ok());
    assert!(outcome.ledger.verify().is_ok());
}

/// A request id sent twice is evaluated once: the repeat is denied and
/// audited instead of overwriting the routing entry of the first.
#[test]
fn duplicate_request_id_is_rejected_and_decided_once() {
    let cfg = E17Config {
        arrival_ticks: 3,
        per_tick: 4,
        ..E17Config::default()
    };
    let mut repeated = None;
    let (received, outcome) = drive_raw(&cfg, 1, |reqs, conns| {
        if repeated.is_none() {
            send_request(&mut conns[0], &reqs[0]);
            repeated = Some(reqs[0].id);
        }
    });
    let id = repeated.expect("a request was repeated");

    let mine: Vec<&DecisionSnap> = received[0].iter().filter(|d| d.request_id == id).collect();
    assert_eq!(mine.len(), 2, "decisions for req{id}: {mine:?}");
    let reasons: Vec<Option<&str>> = mine.iter().map(|d| reject_reason(d)).collect();
    assert!(reasons.contains(&Some("duplicate-id")), "{reasons:?}");
    assert!(
        reasons.contains(&None),
        "the first copy was evaluated: {reasons:?}"
    );

    let offered = cfg.per_tick as u64 * cfg.arrival_ticks;
    assert_eq!(
        outcome.stats.submitted, offered,
        "the repeat never reached the service"
    );
    assert_eq!(outcome.rejects, 1);
    assert_eq!(outcome.decisions_dropped, 0);
    assert_eq!(
        reject_audits(&outcome, id),
        ["fail-closed deny: duplicate-id"]
    );
    assert!(outcome.audit.verify().is_ok());
}

/// `payload` (a JSON request) with every component of its state removed,
/// so the state no longer matches its schema.
fn strip_state_values(payload: &[u8]) -> Vec<u8> {
    let json = String::from_utf8(payload.to_vec()).expect("utf-8 payload");
    let at = json.find("\"values\":[").expect("state values") + "\"values\":[".len();
    let end = at + json[at..].find(']').expect("end of values");
    assert!(end > at, "the state already has no components");
    [&json[..at], &json[end..]].concat().into_bytes()
}

/// A request whose state has fewer components than its schema declares
/// would index past its values when evaluated. It is denied fail-closed
/// (`bad-state`) and audited, never reaches the service, and the
/// connection stays open for the rest of the run.
#[test]
fn request_with_a_malformed_state_is_rejected_and_never_evaluated() {
    let cfg = E17Config {
        arrival_ticks: 3,
        per_tick: 4,
        ..E17Config::default()
    };
    let bad_id = 1_000_000;
    let mut sent = false;
    let (received, outcome) = drive_raw(&cfg, 1, |reqs, conns| {
        if sent {
            return;
        }
        let mut snap = ReqSnap::from(&reqs[0]);
        snap.id = bad_id;
        let payload = strip_state_values(&encode_payload(&snap));
        let bad: ReqSnap = decode_payload(&payload).expect("the request still decodes");
        assert!(bad.state.values().is_empty());
        write_frame(&mut conns[0], &Frame::new(FrameType::Request, payload)).expect("write");
        sent = true;
    });

    let mine: Vec<&DecisionSnap> = received[0]
        .iter()
        .filter(|d| d.request_id == bad_id)
        .collect();
    assert_eq!(mine.len(), 1, "decisions for req{bad_id}: {mine:?}");
    assert_eq!(reject_reason(mine[0]), Some("bad-state"));

    let offered = cfg.per_tick as u64 * cfg.arrival_ticks;
    assert_eq!(
        outcome.stats.submitted, offered,
        "it never reached the service"
    );
    assert_eq!(received[0].len() as u64, offered + 1);
    assert_eq!(outcome.rejects, 1);
    assert_eq!(outcome.drops, 0, "the connection stayed open");
    assert_eq!(
        reject_audits(&outcome, bad_id),
        ["fail-closed deny: bad-state"]
    );
    assert!(outcome.audit.verify().is_ok());
    assert!(outcome.ledger.verify().is_ok());
}

/// The server reads through a buffer, so one read can hold several
/// frames. Two whole requests and the first bytes of a third, written at
/// once by an observer: both whole frames are handled (each answered
/// with a deny) while the server waits on the torn one, and the torn
/// frame then costs exactly one code-4 drop.
#[test]
fn whole_frames_before_a_torn_one_are_handled_then_dropped_once() {
    let cfg = E17Config {
        arrival_ticks: 4,
        per_tick: 2,
        ..E17Config::default()
    };
    let (addr, server) = start_server(&cfg, cfg.net_config(1));

    let mut observer = connect_with_retry(&addr, 50, Duration::from_millis(100)).expect("connect");
    handshake(&mut observer, Role::Observer, 0, 0);
    let mut gen = WorkloadGen::new(cfg.spec());
    let template = gen.tick_requests(1)[0].clone();
    let ids = [2_000_001u64, 2_000_002];
    let mut bytes = Vec::new();
    for id in ids {
        let req = DecisionRequest {
            id,
            ..template.clone()
        };
        let payload = encode_payload(&ReqSnap::from(&req));
        bytes.extend(encode(&Frame::new(FrameType::Request, payload)));
    }
    let ping = encode(&Frame::new(FrameType::Ping, Vec::new()));
    bytes.extend_from_slice(&ping[..20]);
    io::Write::write_all(&mut observer, &bytes).expect("write two frames and a torn one");
    for id in ids {
        let frame = next_frame(&mut observer);
        assert_eq!(frame.frame_type, FrameType::Decision);
        let deny: DecisionSnap = decode_payload(&frame.payload).expect("decision payload");
        assert_eq!(deny.request_id, id);
        assert_eq!(reject_reason(&deny), Some("role"));
    }
    drop(observer);

    let report = run_workload_client(&addr, cfg.spec(), 0, 1, None, DEADLINE).expect("client");
    let outcome = server.join().expect("server thread").expect("served run");
    assert_eq!(report.decisions.len() as u64, report.sent);

    assert_eq!(outcome.rejects, 2);
    for id in ids {
        assert_eq!(reject_audits(&outcome, id), ["fail-closed deny: role"]);
    }
    let subject = joined_subject(&outcome, Role::Observer);
    let terminals: Vec<String> = audit_details(&outcome, &subject)
        .into_iter()
        .filter(|d| terminal(d))
        .collect();
    assert_eq!(terminals.len(), 1, "{subject}: {terminals:?}");
    assert!(
        terminals[0].starts_with("drop code=4 (stalled)"),
        "{subject}: expected a stalled drop, got {terminals:?}"
    );
    assert_eq!(outcome.drops, 1);
    assert!(outcome.audit.verify().is_ok());
}
