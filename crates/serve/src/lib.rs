//! A sharded, micro-batching **policy decision service** with admission
//! control and fail-closed load shedding.
//!
//! The paper's guards (Section VI) assume every proposed action is checked
//! before it executes. At fleet scale that check is a *service*: thousands
//! of devices stream `(state, proposed action)` decision requests to a
//! shared decision point, and the decision point must stay correct — and
//! stay *safe* — under overload. This crate is that serving layer:
//!
//! - [`DecisionRequest`] / [`Decision`] — the request/verdict vocabulary,
//!   multi-tenant ([`TenantId`]) with per-request deadlines.
//! - [`AdmissionQueue`] — bounded per-tenant lanes drained by deficit
//!   round-robin; the bounds are the shed points ([`AdmissionConfig`]).
//! - [`BatchPolicy`] / [`CostModel`] / [`Meter`] — micro-batch close rules
//!   and a deterministic (virtual-cost) account of how much evaluation the
//!   backend absorbs per tick, so saturation is bit-reproducible.
//! - [`PolicyDecisionService`] — the assembled service: admission →
//!   micro-batch → shard by device across [`apdm_par`]'s pool → per-shard
//!   [`apdm_guards::GuardStack`] evaluation (the verdict memo cache makes
//!   it cheaper, never different) → hash-chained [`apdm_ledger`] audit of **every** verdict.
//! - [`WorkloadGen`] / [`run_e13`] — seeded open-loop workload generation
//!   and experiment E13, the load sweep crossing batching × cache ×
//!   shedding.
//! - [`run_to_completion`] — the one driver of a service over a
//!   [`WorkloadGen`] in process: every E13, E15 and E16 cell and E17's
//!   reference run use it, so all stop by one rule. The completion check
//!   (arrival window passed, queue empty) runs before each tick, and a
//!   run that reaches its tick bound returns a [`Completion`] carrying
//!   the trip instead of running on. E14 keeps its own loop: its requests
//!   arrive over the simulated network.
//! - [`SchedSummary`] / [`run_e15`] — skew-aware shard scheduling
//!   (deterministic work stealing via [`apdm_par::run_sharded_balanced`]),
//!   cross-shard admission backpressure, and experiment E15, the Zipf
//!   device-skew sweep over skew × threads reporting each batch's static
//!   and balanced virtual schedules side by side.
//! - [`run_calibration`] — fits the virtual [`CostModel`] to measured
//!   per-batch nanoseconds so shed curves track real hardware.
//! - [`ServeCheckpoint`] / [`run_e16`] — crash tolerance: the service
//!   checkpoints its full decision state into the ledger at segment
//!   rotation points ([`ServeConfig::rotation`]), a killed process
//!   restores from the latest valid frame and resumes bit-identically,
//!   and experiment E16 kill-and-resume-sweeps every crash point to
//!   prove it.
//!
//! The design rule throughout is the paper's safety bias applied to
//! serving: **overload may only make the service more conservative.** A
//! request the service cannot afford to evaluate is *denied* (shed), never
//! allowed through unevaluated — see `Decision::shed`, whose only
//! constructor produces a denial.
//!
//! ## Example
//!
//! Drive a seeded workload through a two-shard service to completion and
//! check the service's core invariant — every offered request ends in
//! exactly one audited decision:
//!
//! ```
//! use apdm_serve::{
//!     run_to_completion, standard_stacks, PolicyDecisionService, ServeConfig,
//!     WorkloadGen, WorkloadOracle, WorkloadSpec,
//! };
//!
//! let cfg = ServeConfig {
//!     shards: 2,
//!     ..ServeConfig::default()
//! };
//! let mut svc = PolicyDecisionService::new(
//!     cfg,
//!     standard_stacks(2, true),
//!     WorkloadOracle,
//!     "docs/quickstart",
//! );
//! let mut gen = WorkloadGen::new(WorkloadSpec {
//!     per_tick: 4,
//!     arrival_ticks: 3,
//!     ..WorkloadSpec::default()
//! });
//!
//! let run = run_to_completion(&mut svc, &mut gen, 1, 100, |_, _| {});
//! assert!(run.watchdog.is_none(), "drained within 100 ticks");
//! let (ledger, stats) = svc.finish_segmented(run.final_tick);
//!
//! assert_eq!(run.decisions.len() as u64, gen.total_offered());
//! assert_eq!(stats.decided + stats.shed_total(), gen.total_offered());
//! assert!(ledger.verify().is_ok(), "hash-chained audit trail seals");
//! ```
//!
//! Participates in experiments **E13**–**E17** (DESIGN.md §3): the load
//! sweep (E13), causal tracing (E14), skew scheduling (E15), crash
//! tolerance (E16), and — through the `apdm-net` transport in front of
//! this service — the networked byte-identity experiment (E17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod batcher;
mod calibrate;
mod checkpoint;
mod crash;
mod drive;
mod experiment;
mod request;
mod service;
mod skew;
mod traced;
mod workload;

pub use admission::{AdmissionConfig, AdmissionQueue};
pub use batcher::{BatchPolicy, CostModel, Meter};
pub use calibrate::{run_calibration, CalibrationReport};
pub use checkpoint::{
    CheckpointError, CtxSnap, LaneSnap, ReqRow, ReqSnap, ServeCheckpoint, CHECKPOINT_FORMAT,
};
pub use crash::{
    recover_segments, resume_run, run_e16, run_e16_cell, segment_header, E16CellReport, E16Config,
    E16Report, Recovery, SimDisk,
};
pub use drive::{run_to_completion, Completion};
pub use experiment::{run_e13, run_e13_cell, E13CellReport, E13Config, E13Report, Knobs};
pub use request::{Decision, DecisionRequest, ShedReason, TenantId};
pub use service::{
    standard_slos, PolicyDecisionService, SchedSummary, ServeConfig, ServeStats, WaitCounts,
};
pub use skew::{run_e15, run_e15_cell, E15CellReport, E15Config, E15Report, ScheduleFigures};
pub use traced::{run_e14, run_e14_mode, E14Config, E14ModeReport, E14Report, ServeMsg, TraceMode};
pub use workload::{schema, standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};
