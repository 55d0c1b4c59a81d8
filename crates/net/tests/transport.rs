//! Transport tests over real loopback sockets: Nagle is off on both ends,
//! so the lockstep barrier runs at loopback speed, and the boundary audit
//! stays complete when a run ends with peers still connected.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use apdm_ledger::RunEvent;
use apdm_net::frame::{encode, read_frame, write_frame, Frame, FrameType, ReadOutcome};
use apdm_net::wire::{decode_payload, encode_payload};
use apdm_net::{
    connect_with_retry, run_workload_client, serve, E17Config, HelloPayload, NetServerConfig,
    ReqSnap, Role, ServeOutcome, TickPayload,
};
use apdm_serve::{standard_stacks, PolicyDecisionService, WorkloadGen, WorkloadOracle};

const DEADLINE: Duration = Duration::from_secs(30);

/// Start a loopback server for `cfg`'s workload; returns its address.
fn start_server(
    cfg: &E17Config,
    net: NetServerConfig,
) -> (String, JoinHandle<io::Result<ServeOutcome>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let cfg = cfg.clone();
    let server = thread::spawn(move || {
        let svc = PolicyDecisionService::new(
            cfg.serve_config(),
            standard_stacks(cfg.shards, true),
            WorkloadOracle,
            &cfg.run_name(),
        );
        serve(listener, svc, net)
    });
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
