//! Tamper-evident flight recorder for simulation runs.
//!
//! Section VI of the paper assumes every prevention mechanism "can be
//! performed in a manner that is tamper-proof" and that break-glass use
//! "would require support for audits ... \[and\] the collection of
//! comprehensive context information". The in-memory
//! [`AuditLog`](apdm_policy::AuditLog) satisfies neither: it vanishes with
//! the process and any byte of it can be rewritten silently. This crate
//! supplies the durable half of the audit story:
//!
//! - [`Ledger`] — an append-only event log where each record's 64-bit
//!   FNV-1a digest chains over the previous record's digest plus the
//!   record's canonical JSON payload. [`Ledger::verify`] localizes the
//!   first corrupted record; random mutation, deletion, truncation and
//!   reordering are all caught (see the crate's property tests).
//! - [`SnapshotFrame`] — periodic checkpoint frames carrying world, fleet
//!   and RNG state so a run can resume mid-stream instead of from tick 0.
//! - [`Replayer`] — compares a re-executed event stream against the
//!   recorded reference and reports the first divergence.
//! - JSONL import/export ([`Ledger::to_jsonl`] / [`Ledger::from_jsonl`])
//!   so ledgers survive on disk and can be shipped for forensics.
//! - [`SegmentedRecorder`] / [`SegmentedLedger`] — the run recorder every
//!   caller appends through: it opens a run with [`RunEvent::RunStarted`]
//!   and seals it with [`RunEvent::RunFinished`]. Under the default
//!   [`RotationPolicy`] a run is one flat ledger; long-lived serving
//!   processes set a policy, and the ledger rolls at a configurable
//!   record/byte budget, each sealed segment's head digest is anchored in
//!   its successor's first frame, and retention prunes old segments while
//!   the retained chain stays verifiable (see [`segment`]).
//!
//! # Threat model
//!
//! The chain makes *inconsistent* tampering evident: an attacker who edits
//! a record without recomputing every later digest is localized by
//! [`Ledger::verify`]. An attacker who can rewrite the whole suffix can
//! forge a consistent chain; defeating that requires anchoring the head
//! digest outside the attacker's reach — publish [`Ledger::head_digest`]
//! (e.g. to the tripartite governor) and check with
//! [`Ledger::verify_anchored`].
//!
//! # Example
//!
//! ```
//! use apdm_ledger::{Ledger, RotationPolicy, RunEvent, SegmentedRecorder};
//!
//! // The default policy never rotates: one flat, sealed ledger.
//! let mut rec = SegmentedRecorder::new("demo", 42, 1, RotationPolicy::default());
//! rec.record(1, RunEvent::Proposal { device: 0, action: "strike".into() });
//! rec.record(1, RunEvent::Verdict {
//!     device: 0,
//!     action: "strike".into(),
//!     verdict: "deny".into(),
//!     reason: "direct harm predicted".into(),
//! });
//! let ledger = rec.finish(1, 0).into_single().expect("never rotated");
//! assert!(ledger.verify().is_ok());
//!
//! // Round-trip through JSONL and verify again.
//! let reloaded = Ledger::from_jsonl(&ledger.to_jsonl()).unwrap();
//! assert!(reloaded.verify().is_ok());
//! assert_eq!(reloaded.len(), 4); // RunStarted + 2 events + RunFinished
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hash;
pub mod ledger;
pub mod name;
pub mod replay;
pub mod segment;

pub use event::{DeviceSnap, RawJson, RunEvent, SnapshotFrame};
pub use ledger::{Corruption, Ledger, LedgerError, LedgerRecord, TornTail};
pub use name::{Name, NamePool, NAME_POOL_CAP};
pub use replay::{Divergence, ReplayReport, Replayer, StreamReplayer};
pub use segment::{
    RotationPolicy, SegmentCorruption, SegmentReport, SegmentedLedger, SegmentedRecorder,
};
