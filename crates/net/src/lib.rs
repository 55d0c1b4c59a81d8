//! # apdm-net — a framed TCP boundary for the policy decision service
//!
//! The paper's governance model only matters if untrusted device clients
//! reach the guard stack through a real I/O boundary. This crate puts a
//! std-only, blocking TCP transport in front of
//! [`apdm_serve::PolicyDecisionService`] **without letting wall-clock
//! nondeterminism leak into it**:
//!
//! * [`frame`] — the length-prefixed codec (magic, version, type, trace
//!   context, payload length, CRC-32). Decoding is total and fail-closed:
//!   garbage maps to typed errors, never panics, and oversized length
//!   prefixes are rejected before any allocation. The byte-level contract
//!   is specified in `docs/PROTOCOL.md`.
//! * [`wire`] — the JSON payloads and close codes.
//! * [`server`] — a thread-per-connection accept loop funneling decoded
//!   events over an mpsc channel into the single-threaded tick loop. A
//!   per-tick barrier plus a deterministic sort resolve within-tick
//!   arrival order, so the decision stream and sealed segmented-ledger
//!   bytes are identical to the in-process path. Malformed traffic is
//!   answered fail-closed — an audited deny when the request can be
//!   attributed, an audited connection drop otherwise.
//! * [`client`] — the deterministic workload driver (each client sends
//!   the partition `id % clients == index` of one shared seeded workload)
//!   and scripted chaos clients.
//! * [`experiment`] — the E17 harness asserting all of the above, plus a
//!   traced probe showing [`TraceContext`](apdm_telemetry::TraceContext)
//!   riding the frame headers end to end: client → wire → service → wire
//!   → client.
//!
//! ## Example
//!
//! One server, one workload client, over a real loopback socket:
//!
//! ```
//! use std::net::TcpListener;
//! use std::thread;
//! use std::time::Duration;
//!
//! use apdm_net::{run_workload_client, serve, E17Config};
//! use apdm_serve::{standard_stacks, PolicyDecisionService, WorkloadOracle};
//!
//! let cfg = E17Config {
//!     arrival_ticks: 4,
//!     per_tick: 2,
//!     ..E17Config::default()
//! };
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap().to_string();
//!
//! let (serve_cfg, net_cfg) = (cfg.serve_config(), cfg.net_config(1));
//! let (shards, name, spec) = (cfg.shards, cfg.run_name(), cfg.spec());
//! let server = thread::spawn(move || {
//!     let svc = PolicyDecisionService::new(
//!         serve_cfg,
//!         standard_stacks(shards, true),
//!         WorkloadOracle,
//!         &name,
//!     );
//!     serve(listener, svc, net_cfg).unwrap()
//! });
//!
//! let report = run_workload_client(&addr, spec, 0, 1, None, Duration::from_secs(30)).unwrap();
//! let outcome = server.join().unwrap();
//!
//! // Every request came back decided, and the ledger sealed and verifies.
//! assert_eq!(report.decisions.len() as u64, report.sent);
//! assert!(outcome.ledger.verify().is_ok());
//! assert_eq!(outcome.drops, 0);
//! ```
//!
//! Participates in experiment **E17** (`apdm-experiments run e17`, the
//! `e17` entry of the `apdm::experiments` registry, whose table run writes
//! `BENCH_e17_net.json`); the multi-process variant is exercised by the
//! `serve-net` CLI subcommand and the CI smoke.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod experiment;
pub mod frame;
pub mod server;
mod socket;
pub mod wire;

pub use client::{
    connect_with_retry, run_chaos_client, run_workload_client, ChaosKind, ChaosReport, ClientReport,
};
pub use experiment::{golden_segments, run_e17, E17CellReport, E17Config, E17Report};
pub use frame::{
    crc32, decode, encode, read_frame, write_frame, Crc32, Frame, FrameError, FrameType, ReadError,
    ReadOutcome, HEADER_LEN, MAGIC, MAX_PAYLOAD, TRAILER_LEN, VERSION,
};
pub use server::{serve, NetServerConfig, ServeOutcome};
pub use wire::{
    close_code, DecisionSnap, ErrorPayload, HelloPayload, ReqSnap, Role, TickPayload,
    WelcomePayload,
};
