//! The hash-chained, append-only ledger and its verification pass.

use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

use apdm_telemetry::{self as telemetry, event, Level};
use serde::{Deserialize, Serialize};

use crate::canon::{format_1_payload, with_canonical_record, LEDGER_FORMAT};
use crate::event::{RunEvent, SnapshotFrame};
use crate::hash::{chain_digest, GENESIS};

/// Latency sampling period for `ledger.append.ns`: appends happen several
/// times per device per tick, so only one in this many pays the clock
/// reads. Verification is rare and long; it is always timed.
const APPEND_LATENCY_SAMPLE_PERIOD: u32 = 8;

thread_local! {
    /// Cached instrument handles: the ledger is on the recorder hot path, so
    /// per-append observations must not touch the registry's name table.
    static APPEND_NS: telemetry::CachedHistogram =
        const { telemetry::CachedHistogram::new("ledger.append.ns") };
    static APPEND_SAMPLER: telemetry::Sampler =
        const { telemetry::Sampler::every(APPEND_LATENCY_SAMPLE_PERIOD) };
    static VERIFY_NS: telemetry::CachedHistogram =
        const { telemetry::CachedHistogram::new("ledger.verify.ns") };
    static CORRUPTION_DETECTED: telemetry::CachedCounter =
        const { telemetry::CachedCounter::new("ledger.corruption.detected") };
    static TORN_TAIL_RECOVERED: telemetry::CachedCounter =
        const { telemetry::CachedCounter::new("ledger.torn_tail.recovered") };
}

/// Like [`timed`], but pays the clock reads on a sampled subset of calls.
fn sampled_timed<R>(
    hist: &'static std::thread::LocalKey<telemetry::CachedHistogram>,
    sampler: &'static std::thread::LocalKey<telemetry::Sampler>,
    f: impl FnOnce() -> R,
) -> R {
    if !telemetry::enabled() || !sampler.with(|s| s.sample()) {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hist.with(|h| h.record(ns));
    out
}

/// Run `f` under a latency histogram when a telemetry dispatch is
/// installed; a bare call otherwise.
fn timed<R>(
    hist: &'static std::thread::LocalKey<telemetry::CachedHistogram>,
    f: impl FnOnce() -> R,
) -> R {
    if !telemetry::enabled() {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hist.with(|h| h.record(ns));
    out
}

/// Build a [`Corruption`], surfacing it through telemetry: a
/// `ledger.corruption` event localizing the record plus a
/// `ledger.corruption.detected` counter (E9 corruption visibility).
fn corruption(seq: u64, reason: String) -> Corruption {
    event!(
        Level::Error,
        "ledger.corruption",
        seq = seq,
        reason = reason.as_str()
    );
    CORRUPTION_DETECTED.with(|c| c.inc());
    Corruption {
        seq,
        reason,
        older_format: None,
    }
}

/// One chained record: position, tick, payload and chained digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// Zero-based position in the ledger.
    pub seq: u64,
    /// Simulation tick the event belongs to.
    pub tick: u64,
    /// The recorded occurrence.
    pub event: RunEvent,
    /// FNV-1a digest over the previous record's digest + this record's
    /// canonical record: a compact binary form of `(seq, tick, event)`, not
    /// its JSON text (ledger format 2; see [`crate::canon`]).
    pub digest: u64,
}

/// Verification failure: the first record at which the chain breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Position of the first corrupt record; equals [`Ledger::len`] when
    /// the corruption is a missing terminal [`RunEvent::RunFinished`]
    /// (truncation or tail deletion).
    pub seq: u64,
    /// What broke.
    pub reason: String,
    /// `Some(1)` when nothing broke but the ledger is format 1, whose
    /// digests covered each record's compact JSON text: its first record
    /// chains under that format's digest instead of this build's format
    /// [`LEDGER_FORMAT`]. Only the first record is checked, so this
    /// recognizes a format and verifies nothing.
    pub older_format: Option<u64>,
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.older_format {
            Some(_) => f.write_str(&self.reason),
            None => write!(f, "ledger corrupt at record {}: {}", self.seq, self.reason),
        }
    }
}

impl std::error::Error for Corruption {}

/// Import/export failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// A JSONL line failed to parse (1-based line number).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A snapshot payload could not be re-hydrated.
    Snapshot(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Parse { line, message } => {
                write!(f, "ledger import failed at line {line}: {message}")
            }
            LedgerError::Snapshot(message) => write!(f, "snapshot restore failed: {message}"),
        }
    }
}

impl std::error::Error for LedgerError {}

thread_local! {
    /// Reused line buffer for [`jsonl_line_len`].
    static LINE: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Byte length of `record`'s [`Ledger::to_jsonl`] line, newline included.
/// Only a recorder under a byte budget asks, so only it writes JSON on
/// append.
pub(crate) fn jsonl_line_len(record: &LedgerRecord) -> usize {
    LINE.with(|line| {
        let mut line = line.borrow_mut();
        line.clear();
        record.write_json(&mut line);
        line.len() + 1
    })
}

/// Does `first`, the first record of a ledger, chain under format 1's
/// digest, FNV-1a over its compact JSON text? The one use of that text.
fn is_format_1(first: &LedgerRecord) -> bool {
    let text = format_1_payload(first.seq, first.tick, &first.event);
    first.digest == chain_digest(GENESIS, text.as_bytes())
}

/// An append-only, hash-chained event log.
///
/// Records can be appended and read but never modified or removed through
/// this API; [`verify`](Ledger::verify) makes out-of-band modification
/// evident and localizes the first corrupt record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    records: Vec<LedgerRecord>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// An empty ledger with room for `records` records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        Ledger {
            records: Vec::with_capacity(records),
        }
    }

    /// Append an event, chaining its digest; returns the new record's seq.
    pub fn append(&mut self, tick: u64, event: RunEvent) -> u64 {
        sampled_timed(&APPEND_NS, &APPEND_SAMPLER, || {
            let seq = self.records.len() as u64;
            let prev = self.head_digest();
            let digest =
                with_canonical_record(seq, tick, &event, |record| chain_digest(prev, record));
            self.records.push(LedgerRecord {
                seq,
                tick,
                event,
                digest,
            });
            seq
        })
    }

    /// All records in append order.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The digest of the last record ([`GENESIS`] for an empty ledger).
    /// Publishing this value out-of-band turns
    /// [`verify_anchored`](Ledger::verify_anchored) into protection against whole-suffix
    /// rewrites, which chain verification alone cannot detect.
    pub fn head_digest(&self) -> u64 {
        self.records.last().map_or(GENESIS, |r| r.digest)
    }

    /// Is the ledger sealed with a terminal [`RunEvent::RunFinished`]?
    pub fn is_sealed(&self) -> bool {
        matches!(
            self.records.last().map(|r| &r.event),
            Some(RunEvent::RunFinished { .. })
        )
    }

    /// Verify chain integrity only (no completeness check). Useful on a
    /// still-recording ledger.
    pub fn verify_chain(&self) -> Result<(), Corruption> {
        timed(&VERIFY_NS, || {
            let mut prev = GENESIS;
            for (position, record) in self.records.iter().enumerate() {
                let seq = position as u64;
                if record.seq != seq {
                    return Err(corruption(
                        seq,
                        format!(
                            "sequence break: position {position} carries seq {} (record deleted or reordered)",
                            record.seq
                        ),
                    ));
                }
                let expected = with_canonical_record(record.seq, record.tick, &record.event, |r| {
                    chain_digest(prev, r)
                });
                if record.digest != expected {
                    if seq == 0 && is_format_1(record) {
                        return Err(Corruption {
                            seq,
                            reason: format!(
                                "ledger format 1 (its digests cover each record's JSON text); \
                                 this build reads format {LEDGER_FORMAT}"
                            ),
                            older_format: Some(1),
                        });
                    }
                    return Err(corruption(
                        seq,
                        format!(
                            "digest mismatch: stored {:#018x}, chain expects {expected:#018x}",
                            record.digest
                        ),
                    ));
                }
                prev = record.digest;
            }
            Ok(())
        })
    }

    /// Full verification: chain integrity plus the sealed-run check. A
    /// ledger whose tail was truncated or whose final record was deleted has
    /// a perfectly valid chain prefix — the missing terminal
    /// [`RunEvent::RunFinished`] is what gives the amputation away.
    pub fn verify(&self) -> Result<(), Corruption> {
        self.verify_chain()?;
        if self.is_sealed() {
            Ok(())
        } else {
            Err(corruption(
                self.records.len() as u64,
                "not sealed: terminal run-finished record missing (truncated or tail deleted)"
                    .into(),
            ))
        }
    }

    /// [`verify`](Ledger::verify) plus a check of the head digest against an
    /// externally anchored value.
    pub fn verify_anchored(&self, anchored_head: u64) -> Result<(), Corruption> {
        self.verify()?;
        if self.head_digest() == anchored_head {
            Ok(())
        } else {
            Err(corruption(
                self.records.len().saturating_sub(1) as u64,
                format!(
                    "head digest {:#018x} does not match anchor {anchored_head:#018x} (suffix rewritten)",
                    self.head_digest()
                ),
            ))
        }
    }

    /// Snapshot frames in the ledger, with their record seqs.
    pub fn snapshots(&self) -> impl Iterator<Item = (u64, &SnapshotFrame)> {
        self.records.iter().filter_map(|r| match &r.event {
            RunEvent::Snapshot(frame) => Some((r.seq, frame)),
            _ => None,
        })
    }

    /// The latest snapshot taken at or before `tick`, with its record seq.
    pub fn latest_snapshot_at_or_before(&self, tick: u64) -> Option<(u64, &SnapshotFrame)> {
        self.snapshots().filter(|(_, f)| f.tick <= tick).last()
    }

    /// Export as JSONL: one record per line, in append order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out
    }

    /// Append the [`to_jsonl`](Ledger::to_jsonl) text to `out`, each record
    /// streamed straight into it.
    pub fn write_jsonl(&self, out: &mut String) {
        for record in &self.records {
            record.write_json(out);
            out.push('\n');
        }
    }

    /// Import from JSONL. Parse failures report the 1-based line number;
    /// call [`verify`](Ledger::verify) afterwards to check integrity.
    pub fn from_jsonl(text: &str) -> Result<Ledger, LedgerError> {
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: LedgerRecord =
                serde_json::from_str(line).map_err(|e| LedgerError::Parse {
                    line: idx + 1,
                    message: e.to_string(),
                })?;
            records.push(record);
        }
        Ok(Ledger { records })
    }

    /// Import from JSONL, tolerating a torn *final* line (a mid-write
    /// crash): when only the last non-empty line fails to parse, it is
    /// dropped and the valid prefix is returned together with a
    /// [`TornTail`] describing the recovery, surfaced as a telemetry
    /// warning. A parse failure anywhere *before* the last line is still a
    /// hard [`LedgerError::Parse`] — only the append point can legitimately
    /// be torn, so earlier damage remains tamper evidence.
    ///
    /// The recovered ledger is unsealed (its terminal record was cut), so
    /// [`verify`](Ledger::verify) still refuses it; use
    /// [`verify_chain`](Ledger::verify_chain) on the prefix.
    pub fn from_jsonl_recovering(text: &str) -> Result<(Ledger, Option<TornTail>), LedgerError> {
        match Ledger::from_jsonl(text) {
            Ok(ledger) => Ok((ledger, None)),
            Err(LedgerError::Parse { line, message }) => {
                let last_nonempty = text
                    .lines()
                    .enumerate()
                    .filter(|(_, l)| !l.trim().is_empty())
                    .map(|(idx, _)| idx + 1)
                    .last();
                if last_nonempty != Some(line) {
                    return Err(LedgerError::Parse { line, message });
                }
                let prefix: String = text
                    .lines()
                    .take(line - 1)
                    .flat_map(|l| [l, "\n"])
                    .collect();
                let ledger = Ledger::from_jsonl(&prefix)?;
                event!(
                    Level::Warn,
                    "ledger.torn_tail",
                    line = line as u64,
                    recovered_records = ledger.len() as u64
                );
                TORN_TAIL_RECOVERED.with(|c| c.inc());
                Ok((ledger, Some(TornTail { line, message })))
            }
            Err(other) => Err(other),
        }
    }
}

/// Evidence that [`Ledger::from_jsonl_recovering`] dropped a torn final
/// line (simulated mid-write crash) and recovered the valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the torn line that was dropped.
    pub line: usize,
    /// The parser's message for the torn line.
    pub message: String,
}

impl fmt::Display for TornTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "torn final line {} dropped (mid-write crash): {}",
            self.line, self.message
        )
    }
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ledger: {} records, head {:#018x}, {}",
            self.len(),
            self.head_digest(),
            if self.is_sealed() { "sealed" } else { "open" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RawJson;
    use serde::Value;

    fn sample() -> Ledger {
        let mut ledger = Ledger::new();
        ledger.append(
            0,
            RunEvent::RunStarted {
                experiment: "t".into(),
                seed: 1,
                devices: 2,
            },
        );
        ledger.append(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "strike".into(),
            },
        );
        ledger.append(
            1,
            RunEvent::Execution {
                device: 0,
                action: "strike".into(),
            },
        );
        ledger.append(
            2,
            RunEvent::Harm {
                human: 0,
                cause: "direct strike".into(),
                device: Some(0),
            },
        );
        ledger.append(2, RunEvent::RunFinished { ticks: 2, harms: 1 });
        ledger
    }

    #[test]
    fn intact_ledger_verifies() {
        let ledger = sample();
        assert!(ledger.verify().is_ok());
        assert!(ledger.is_sealed());
    }

    #[test]
    fn payload_mutation_is_localized() {
        let mut ledger = sample();
        if let RunEvent::Proposal { action, .. } = &mut ledger.records[1].event {
            *action = "retreat".into();
        }
        let corruption = ledger.verify().unwrap_err();
        assert_eq!(corruption.seq, 1);
        assert!(
            corruption.reason.contains("digest mismatch"),
            "{corruption}"
        );
    }

    #[test]
    fn digest_mutation_is_localized() {
        let mut ledger = sample();
        ledger.records[3].digest ^= 1;
        assert_eq!(ledger.verify().unwrap_err().seq, 3);
    }

    #[test]
    fn record_deletion_breaks_the_chain() {
        let mut ledger = sample();
        ledger.records.remove(2);
        let corruption = ledger.verify().unwrap_err();
        assert_eq!(corruption.seq, 2);
        assert!(corruption.reason.contains("sequence break"), "{corruption}");
    }

    #[test]
    fn truncation_is_detected_by_the_seal() {
        let mut ledger = sample();
        ledger.records.truncate(3);
        assert!(
            ledger.verify_chain().is_ok(),
            "prefix chain itself is valid"
        );
        let corruption = ledger.verify().unwrap_err();
        assert_eq!(corruption.seq, 3);
        assert!(corruption.reason.contains("not sealed"), "{corruption}");
    }

    #[test]
    fn reordering_is_detected() {
        let mut ledger = sample();
        ledger.records.swap(1, 2);
        assert_eq!(ledger.verify().unwrap_err().seq, 1);
    }

    #[test]
    fn anchored_verification_catches_suffix_rewrite() {
        let ledger = sample();
        let anchor = ledger.head_digest();
        // A consistent forgery: rebuild the ledger with one event changed
        // and every digest recomputed. Chain verification passes...
        let mut forged = Ledger::new();
        for record in ledger.records() {
            let mut event = record.event.clone();
            if let RunEvent::Harm { human, .. } = &mut event {
                *human = 99;
            }
            forged.append(record.tick, event);
        }
        assert!(
            forged.verify().is_ok(),
            "forged chain is internally consistent"
        );
        // ...but the anchored head gives it away.
        assert!(forged.verify_anchored(anchor).is_err());
        assert!(ledger.verify_anchored(anchor).is_ok());
    }

    #[test]
    fn corruption_detection_is_visible_through_telemetry() {
        use std::rc::Rc;

        let collector = Rc::new(telemetry::RingCollector::new(64));
        let guard = telemetry::install(collector.clone());
        let registry = telemetry::current_registry().unwrap();

        let mut tampered = sample();
        tampered.records[3].digest ^= 1;
        assert_eq!(
            tampered
                .verify_anchored(tampered.head_digest())
                .unwrap_err()
                .seq,
            3
        );
        // A clean anchored verification emits nothing.
        assert!(sample().verify_anchored(sample().head_digest()).is_ok());
        drop(guard);

        let detected = registry
            .counter_values()
            .into_iter()
            .find(|(n, _)| n == "ledger.corruption.detected")
            .map(|(_, v)| v);
        assert_eq!(detected, Some(1));
        let events: Vec<_> = collector
            .records()
            .into_iter()
            .filter(|r| r.name == "ledger.corruption")
            .collect();
        assert_eq!(events.len(), 1);
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "seq" && *v == telemetry::FieldValue::U64(3)));
        // Verification latency was sampled for both passes.
        let verify_count = registry
            .histogram_summaries()
            .into_iter()
            .find(|(n, _)| n == "ledger.verify.ns")
            .map(|(_, s)| s.count)
            .unwrap_or(0);
        assert!(verify_count >= 2);
    }

    #[test]
    fn jsonl_roundtrip_preserves_the_chain() {
        let ledger = sample();
        let jsonl = ledger.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        let back = Ledger::from_jsonl(&jsonl).unwrap();
        assert_eq!(back, ledger);
        assert!(back.verify().is_ok());
    }

    #[test]
    fn jsonl_import_reports_the_bad_line() {
        let ledger = sample();
        let mut jsonl = ledger.to_jsonl();
        jsonl.push_str("{not json\n");
        match Ledger::from_jsonl(&jsonl) {
            Err(LedgerError::Parse { line, .. }) => assert_eq!(line, 6),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn measured_line_lengths_match_the_exported_lines() {
        let ledger = sample();
        let measured: Vec<usize> = ledger.records().iter().map(jsonl_line_len).collect();
        let exported: Vec<usize> = ledger.to_jsonl().lines().map(|l| l.len() + 1).collect();
        assert_eq!(measured, exported);
    }

    #[test]
    fn canonical_payload_matches_the_value_route() {
        // The format-1 payload, kept to recognize format-1 ledgers, is the
        // compact JSON of `[seq,tick,event]`.
        for record in sample().records() {
            let reference = serde_json::to_string_via_value(&Value::Seq(vec![
                Value::UInt(record.seq),
                Value::UInt(record.tick),
                record.event.to_value(),
            ]))
            .unwrap();
            assert_eq!(
                format_1_payload(record.seq, record.tick, &record.event),
                reference
            );
        }
    }

    /// `sample()` chained the way format 1 chained it: each digest over the
    /// record's compact JSON text.
    fn format_1_sample() -> Ledger {
        let mut ledger = sample();
        let mut prev = GENESIS;
        for record in &mut ledger.records {
            let text = format_1_payload(record.seq, record.tick, &record.event);
            record.digest = chain_digest(prev, text.as_bytes());
            prev = record.digest;
        }
        ledger
    }

    #[test]
    fn a_format_1_ledger_is_named_not_called_corrupt() {
        let old = format_1_sample();
        let named = old.verify().unwrap_err();
        assert_eq!((named.seq, named.older_format), (0, Some(1)));
        assert_eq!(
            named.to_string(),
            "ledger format 1 (its digests cover each record's JSON text); \
             this build reads format 2"
        );
        // Through JSONL too: the export of a format-1 ledger reads back as
        // one.
        let back = Ledger::from_jsonl(&old.to_jsonl()).unwrap();
        assert_eq!(back.verify_chain().unwrap_err().older_format, Some(1));
    }

    #[test]
    fn only_a_first_record_of_format_1_is_named() {
        // A damaged first record is damage, whatever the format.
        let mut old = format_1_sample();
        old.records[0].digest ^= 1;
        let corruption = old.verify().unwrap_err();
        assert_eq!(corruption.older_format, None);
        assert!(
            corruption.reason.contains("digest mismatch"),
            "{corruption}"
        );
        // A format-2 ledger broken after record 0 is corrupt, not old.
        let mut new = sample();
        new.records[2].digest = format_1_sample().records[2].digest;
        let corruption = new.verify().unwrap_err();
        assert_eq!((corruption.seq, corruption.older_format), (2, None));
        assert!(
            corruption.reason.contains("digest mismatch"),
            "{corruption}"
        );
    }

    #[test]
    fn snapshot_lookup_finds_latest_at_or_before() {
        let mut ledger = Ledger::new();
        let frame = |tick| {
            RunEvent::Snapshot(SnapshotFrame {
                tick,
                rng: [0; 4],
                world: RawJson::of(&()),
                metrics: RawJson::of(&()),
                devices: vec![],
            })
        };
        ledger.append(
            0,
            RunEvent::RunStarted {
                experiment: "t".into(),
                seed: 1,
                devices: 0,
            },
        );
        ledger.append(10, frame(10));
        ledger.append(20, frame(20));
        ledger.append(
            20,
            RunEvent::RunFinished {
                ticks: 20,
                harms: 0,
            },
        );
        assert_eq!(ledger.snapshots().count(), 2);
        assert_eq!(ledger.latest_snapshot_at_or_before(15).unwrap().1.tick, 10);
        assert_eq!(ledger.latest_snapshot_at_or_before(25).unwrap().1.tick, 20);
        assert!(ledger.latest_snapshot_at_or_before(5).is_none());
    }
}
