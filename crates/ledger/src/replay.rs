//! Divergence detection between a recorded reference and a re-execution.
//!
//! The replayer does not run the simulation itself (that would drag the sim
//! layer into this crate); the sim re-executes a run — from the seed or
//! from a restored snapshot — while recording into a fresh ledger, and the
//! [`Replayer`] aligns the two event streams and reports the first
//! divergence. A faithful deterministic replay reproduces the recorded
//! stream event for event, snapshots included.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::fmt;

use crate::event::RunEvent;
use crate::ledger::{Ledger, LedgerError, LedgerRecord};

/// The first point at which a replay departed from the recorded run.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Both streams have an event at this position but they differ.
    Mismatch {
        /// Reference-ledger seq of the differing record.
        seq: u64,
        /// Kind tag of the recorded event.
        expected: String,
        /// Kind tag of the replayed event.
        observed: String,
    },
    /// The replay produced more events than were recorded.
    ExtraEvents {
        /// Reference-ledger seq where recorded events ran out.
        seq: u64,
        /// How many surplus events the replay produced.
        surplus: u64,
    },
    /// The replay ended before reproducing every recorded event.
    MissingEvents {
        /// Reference-ledger seq of the first unreproduced record.
        seq: u64,
        /// How many recorded events were never reproduced.
        missing: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Mismatch {
                seq,
                expected,
                observed,
            } => {
                write!(
                    f,
                    "diverged at record {seq}: recorded {expected}, replayed {observed}"
                )
            }
            Divergence::ExtraEvents { seq, surplus } => {
                write!(
                    f,
                    "replay produced {surplus} extra events past record {seq}"
                )
            }
            Divergence::MissingEvents { seq, missing } => {
                write!(f, "replay missing {missing} events from record {seq}")
            }
        }
    }
}

/// Outcome of a replay comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Reference seq the comparison started from.
    pub start_seq: u64,
    /// Events compared successfully before the end (or the divergence).
    pub matched: u64,
    /// The first divergence, if the replay was not faithful.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Did the replay reproduce the recorded stream exactly?
    pub fn is_faithful(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            None => write!(
                f,
                "replay faithful: {} events reproduced from record {}",
                self.matched, self.start_seq
            ),
            Some(divergence) => write!(f, "{divergence} ({} matched before)", self.matched),
        }
    }
}

/// Aligns a replayed ledger against the recorded reference.
#[derive(Debug, Clone, Copy)]
pub struct Replayer<'a> {
    reference: &'a Ledger,
    /// First reference seq to compare (0 for from-origin replays,
    /// `snapshot seq + 1` for from-snapshot replays).
    start: u64,
}

impl<'a> Replayer<'a> {
    /// Compare a replay that re-executed the run from tick 0. The replayed
    /// ledger's own run header is compared against the reference header, so
    /// a replay under a different seed or fleet size diverges at record 0.
    pub fn from_origin(reference: &'a Ledger) -> Self {
        Replayer {
            reference,
            start: 0,
        }
    }

    /// Compare a replay that resumed from the snapshot stored at reference
    /// seq `snapshot_seq`. Comparison starts just past the snapshot record;
    /// the replayed ledger's run header (its record 0) is skipped.
    pub fn from_snapshot(reference: &'a Ledger, snapshot_seq: u64) -> Self {
        Replayer {
            reference,
            start: snapshot_seq + 1,
        }
    }

    /// Align the two streams and report the first divergence.
    pub fn compare(&self, replayed: &Ledger) -> ReplayReport {
        self.align(replayed, false)
    }

    /// Like [`compare`](Replayer::compare), but for a reference recovered
    /// from a torn (crash-truncated) ledger: the replay re-executes the
    /// whole run, so it legitimately extends past the reference's cut —
    /// the comparison only requires the surviving reference prefix to be
    /// reproduced exactly, and surplus replay events are not a divergence.
    pub fn compare_prefix(&self, replayed: &Ledger) -> ReplayReport {
        self.align(replayed, true)
    }

    fn align(&self, replayed: &Ledger, allow_extra: bool) -> ReplayReport {
        // From-snapshot replays open with their own RunStarted header that
        // has no counterpart in the reference suffix — skip it.
        let reference = self.reference.records().iter().skip(self.start as usize);
        let replayed = replayed.records().iter().skip(usize::from(self.start > 0));
        let Ok(report) = align(
            self.start,
            reference.map(|r| Ok::<_, Infallible>((r.seq, r))),
            replayed.map(Ok),
            allow_extra,
        );
        report
    }
}

/// Streaming variant of [`Replayer`]: both event streams arrive as JSONL
/// lines (for a rotated run, the segment files' lines chained oldest
/// first) and are aligned one record at a time, so comparison memory is
/// bounded by a single record no matter how long the run — where
/// [`Replayer`] requires both ledgers materialized in memory.
///
/// Record seqs restart at 0 in every rotated segment, so alignment is by
/// stream position and [`Divergence`] seqs report stream positions.
#[derive(Debug, Clone, Copy)]
pub struct StreamReplayer {
    /// First reference stream position to compare.
    start: u64,
}

impl StreamReplayer {
    /// Compare a replay that re-executed the run from tick 0.
    pub fn from_origin() -> Self {
        StreamReplayer { start: 0 }
    }

    /// Compare a replay that resumed from the snapshot at reference stream
    /// position `snapshot_seq`; the replay's own header line is skipped.
    pub fn from_snapshot(snapshot_seq: u64) -> Self {
        StreamReplayer {
            start: snapshot_seq + 1,
        }
    }

    /// Align the two streams and report the first divergence. Errs only
    /// when a line fails to parse (1-based line number of that stream).
    pub fn compare_lines<'a, 'b>(
        &self,
        reference: impl IntoIterator<Item = &'a str>,
        replayed: impl IntoIterator<Item = &'b str>,
    ) -> Result<ReplayReport, LedgerError> {
        /// The non-blank lines of a stream, parsed lazily, past its first
        /// `skip` records.
        fn records<'l, L: IntoIterator<Item = &'l str>>(
            lines: L,
            skip: u64,
        ) -> impl Iterator<Item = Result<LedgerRecord, LedgerError>> + use<'l, L> {
            lines
                .into_iter()
                .enumerate()
                .filter(|(_, l)| !l.trim().is_empty())
                .skip(skip as usize)
                .map(|(idx, l)| {
                    serde_json::from_str(l).map_err(|e| LedgerError::Parse {
                        line: idx + 1,
                        message: e.to_string(),
                    })
                })
        }
        let start = self.start;
        let reference = (start..)
            .zip(records(reference, start))
            .map(|(position, record)| record.map(|r| (position, r)));
        align(
            start,
            reference,
            records(replayed, u64::from(start > 0)),
            false,
        )
    }
}

/// The one alignment loop behind [`Replayer`] and [`StreamReplayer`]:
/// walk both record streams in step — `reference` already past its first
/// `start` records, `replayed` already past its own header on a
/// from-snapshot replay — and report the first divergence. `reference`
/// yields each record with the seq a divergence names. Unless
/// `allow_extra`, a replay that outruns the reference diverges. Errs with
/// the first `Err` either stream yields.
fn align<R, P, E>(
    start: u64,
    mut reference: impl Iterator<Item = Result<(u64, R), E>>,
    mut replayed: impl Iterator<Item = Result<P, E>>,
    allow_extra: bool,
) -> Result<ReplayReport, E>
where
    R: Borrow<LedgerRecord>,
    P: Borrow<LedgerRecord>,
{
    let mut matched = 0u64;
    let divergence = loop {
        match (reference.next().transpose()?, replayed.next().transpose()?) {
            (None, None) => break None,
            (None, Some(_)) => {
                break (!allow_extra).then(|| Divergence::ExtraEvents {
                    seq: start + matched,
                    surplus: 1 + replayed.count() as u64,
                });
            }
            (Some((seq, _)), None) => {
                break Some(Divergence::MissingEvents {
                    seq,
                    missing: 1 + reference.count() as u64,
                });
            }
            (Some((seq, expected)), Some(observed)) => {
                let (expected, observed) = (expected.borrow(), observed.borrow());
                if expected.tick != observed.tick || expected.event != observed.event {
                    break Some(Divergence::Mismatch {
                        seq,
                        expected: describe(&expected.event),
                        observed: describe(&observed.event),
                    });
                }
                matched += 1;
            }
        }
    };
    Ok(ReplayReport {
        start_seq: start,
        matched,
        divergence,
    })
}

fn describe(event: &RunEvent) -> String {
    match event {
        RunEvent::Proposal { device, action } | RunEvent::Execution { device, action } => {
            format!("{} d{device}:{action}", event.kind())
        }
        RunEvent::Verdict {
            device, verdict, ..
        } => {
            format!("verdict d{device}:{verdict}")
        }
        other => other.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{RotationPolicy, SegmentedRecorder};

    fn recorder() -> SegmentedRecorder {
        SegmentedRecorder::new("demo", 1, 1, RotationPolicy::default())
    }

    fn reference() -> Ledger {
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.finish(2, 0).into_single().unwrap()
    }

    #[test]
    fn identical_replay_is_faithful() {
        let reference = reference();
        let replay = reference.clone();
        let report = Replayer::from_origin(&reference).compare(&replay);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.matched, reference.len() as u64);
    }

    #[test]
    fn differing_event_is_localized() {
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "strike".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = rec.finish(2, 0).into_single().unwrap();
        let report = Replayer::from_origin(&reference).compare(&replay);
        match report.divergence {
            Some(Divergence::Mismatch { seq, .. }) => assert_eq!(seq, 2),
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert_eq!(report.matched, 2);
    }

    #[test]
    fn short_replay_reports_missing_events() {
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = rec.finish(1, 0).into_single().unwrap();
        let report = Replayer::from_origin(&reference).compare(&replay);
        assert!(matches!(
            report.divergence,
            Some(Divergence::Mismatch { .. })
        ));
    }

    #[test]
    fn prefix_compare_tolerates_replay_overrun() {
        // Simulate a torn reference: keep only the first three records of
        // the sealed run. A full faithful replay overruns the cut; the
        // prefix comparison accepts that, while strict compare flags it.
        let full = reference();
        let prefix: String = full
            .to_jsonl()
            .lines()
            .take(3)
            .flat_map(|l| [l, "\n"])
            .collect();
        let torn = Ledger::from_jsonl(&prefix).unwrap();
        let strict = Replayer::from_origin(&torn).compare(&full);
        assert!(matches!(
            strict.divergence,
            Some(Divergence::ExtraEvents { .. })
        ));
        let report = Replayer::from_origin(&torn).compare_prefix(&full);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.matched, 3);
        // A replay that differs *inside* the surviving prefix still fails.
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "strike".into(),
            },
        );
        let divergent = rec.finish(1, 0).into_single().unwrap();
        let report = Replayer::from_origin(&torn).compare_prefix(&divergent);
        assert!(!report.is_faithful());
    }

    #[test]
    fn streamed_compare_matches_in_memory_compare() {
        let reference = reference();
        let faithful = reference.clone();
        let jsonl = reference.to_jsonl();
        let report = StreamReplayer::from_origin()
            .compare_lines(jsonl.lines(), faithful.to_jsonl().lines())
            .unwrap();
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.matched, reference.len() as u64);

        // Divergence localization agrees with the in-memory replayer.
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "strike".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let divergent = rec.finish(2, 0).into_single().unwrap();
        let in_memory = Replayer::from_origin(&reference).compare(&divergent);
        let streamed = StreamReplayer::from_origin()
            .compare_lines(jsonl.lines(), divergent.to_jsonl().lines())
            .unwrap();
        assert_eq!(streamed.divergence, in_memory.divergence);
        assert_eq!(streamed.matched, in_memory.matched);
    }

    #[test]
    fn streamed_compare_spans_segment_boundaries() {
        let run = |bad: bool| {
            let mut rec = SegmentedRecorder::new("seg", 3, 1, RotationPolicy::by_records(3));
            for i in 0..10u64 {
                let action = if bad && i == 7 { "strike" } else { "dig" };
                rec.record(
                    i + 1,
                    RunEvent::Proposal {
                        device: i,
                        action: action.into(),
                    },
                );
                if rec.should_rotate() {
                    rec.rotate(i + 1);
                }
            }
            rec.finish(10, 0)
        };
        let golden = run(false);
        assert!(golden.segments().len() > 2);
        let chain = |led: &crate::segment::SegmentedLedger| {
            led.to_jsonl_segments()
                .into_iter()
                .map(|(_, text)| text)
                .collect::<String>()
        };
        let report = StreamReplayer::from_origin()
            .compare_lines(chain(&golden).lines(), chain(&run(false)).lines())
            .unwrap();
        assert!(report.is_faithful(), "{report}");
        let report = StreamReplayer::from_origin()
            .compare_lines(chain(&golden).lines(), chain(&run(true)).lines())
            .unwrap();
        assert!(matches!(
            report.divergence,
            Some(Divergence::Mismatch { .. })
        ));
    }

    #[test]
    fn streamed_compare_reports_parse_failures() {
        let reference = reference();
        let jsonl = reference.to_jsonl();
        let mut torn = jsonl.clone();
        torn.push_str("{not json\n");
        match StreamReplayer::from_origin().compare_lines(torn.lines(), torn.lines()) {
            Err(LedgerError::Parse { line, .. }) => assert_eq!(line, 6),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_alignment_skips_the_replay_header() {
        // Reference: header, two events, seal. Pretend record 1 was a
        // snapshot; a resumed replay reproduces records 2.. only.
        let reference = reference();
        let mut rec = recorder();
        rec.record(
            1,
            RunEvent::Execution {
                device: 0,
                action: "dig".into(),
            },
        );
        rec.record(
            2,
            RunEvent::Proposal {
                device: 0,
                action: "dig".into(),
            },
        );
        let replay = rec.finish(2, 0).into_single().unwrap();
        let report = Replayer::from_snapshot(&reference, 1).compare(&replay);
        assert!(report.is_faithful(), "{report}");
        assert_eq!(report.start_seq, 2);
        assert_eq!(report.matched, 3);
    }
}
