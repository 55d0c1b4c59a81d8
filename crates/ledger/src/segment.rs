//! Segment rotation for long-lived recording processes.
//!
//! A serving process that records every decision through one [`Ledger`]
//! grows that ledger without bound. Rotation bounds it: the recorder rolls
//! to a fresh segment whenever the current one exceeds a configurable
//! record or byte budget. Each segment is an independent hash chain rooted
//! at [`GENESIS`](crate::hash::GENESIS), so the existing per-ledger verification applies
//! unchanged — and the chains are *anchored* to each other: the first
//! record of every successor segment is a [`RunEvent::SegmentOpened`]
//! frame carrying the predecessor's head digest and record count. Because
//! that frame is itself inside the successor's hash chain, rewriting any
//! sealed predecessor breaks the anchor even after retention has pruned
//! the predecessor's bytes — E9's tamper-evidence survives rotation.
//!
//! Layout invariants, checked by [`SegmentedLedger::verify`]:
//!
//! - segment 0 opens with [`RunEvent::RunStarted`]; every later segment
//!   opens with a `SegmentOpened` anchor frame,
//! - every non-final segment seals with [`RunEvent::SegmentSealed`]; the
//!   final segment seals with [`RunEvent::RunFinished`],
//! - each anchor's `prev_head` / `prev_records` match the predecessor.
//!
//! Retention (`keep_sealed`) prunes the oldest sealed segments while the
//! anchors embedded in their successors survive; the chain from the first
//! retained segment onward stays fully verifiable.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::event::RunEvent;
use crate::ledger::{Corruption, Ledger, LedgerError};

/// When and how a [`SegmentedRecorder`] rolls to a new segment.
///
/// A budget of zero disables that trigger; the all-zero default never
/// rotates, so the run is one flat ledger
/// ([`SegmentedLedger::into_single`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RotationPolicy {
    /// Roll when the current segment holds at least this many records
    /// beyond its header frames (0 = no record budget).
    pub max_records: usize,
    /// Roll when the current segment's serialized JSONL exceeds this many
    /// bytes (0 = no byte budget).
    pub max_bytes: usize,
    /// Retain at most this many *sealed* segments, pruning the oldest
    /// (0 = keep everything). The open segment never counts.
    pub keep_sealed: usize,
}

impl RotationPolicy {
    /// A policy rotating every `max_records` records, keeping all segments.
    pub fn by_records(max_records: usize) -> Self {
        RotationPolicy {
            max_records,
            ..RotationPolicy::default()
        }
    }

    /// Does any trigger fire? (Retention alone never rotates.)
    pub fn enabled(&self) -> bool {
        self.max_records > 0 || self.max_bytes > 0
    }
}

/// Records a rotated segment holds besides its body: the anchor frame, one
/// header frame of the owner's and the seal. Sizes a new segment.
const SEGMENT_FRAMES: usize = 3;

/// The segment index encoded in a ledger's first record, when it has the
/// shape of a segment head.
fn segment_index_of(ledger: &Ledger) -> Option<u64> {
    match ledger.records().first().map(|r| &r.event) {
        Some(RunEvent::RunStarted { .. }) => Some(0),
        Some(RunEvent::SegmentOpened { segment, .. }) => Some(*segment),
        _ => None,
    }
}

/// The flight recorder a run appends through: opens the ledger with
/// [`RunEvent::RunStarted`], accepts events while the run executes, seals
/// it with [`RunEvent::RunFinished`] on [`finish`](SegmentedRecorder::finish),
/// and rolls it into anchored segments under a [`RotationPolicy`]. Under
/// the default policy it never rolls, and the run is one flat ledger.
///
/// The recorder decides nothing by itself: the owner checks
/// [`should_rotate`](SegmentedRecorder::should_rotate) at a deterministic
/// point (the serving layer does so at end of tick) and calls
/// [`rotate`](SegmentedRecorder::rotate), so rotation points are identical
/// across reruns — a requirement for byte-identical crash recovery.
#[derive(Debug, Clone)]
pub struct SegmentedRecorder {
    policy: RotationPolicy,
    sealed: Vec<Ledger>,
    current: Ledger,
    index: u64,
    pruned: u64,
    /// Byte length of `current`'s JSONL export, kept only under a byte
    /// budget (0 otherwise).
    current_bytes: usize,
    header_len: usize,
}

impl SegmentedRecorder {
    /// Open a recorder; record 0 of segment 0 is the run header.
    pub fn new(experiment: &str, seed: u64, devices: u64, policy: RotationPolicy) -> Self {
        let mut rec = SegmentedRecorder {
            policy,
            sealed: Vec::new(),
            current: Ledger::new(),
            index: 0,
            pruned: 0,
            current_bytes: 0,
            header_len: 1,
        };
        rec.record(
            0,
            RunEvent::RunStarted {
                experiment: experiment.to_string(),
                seed,
                devices,
            },
        );
        rec
    }

    /// Reopen a recorder from recovered segments: the retained sealed
    /// segments (oldest first, cleanly parsed) plus the open segment,
    /// already truncated to the point recording resumes from. The segment
    /// index and pruned count are re-derived from the segments' own header
    /// frames; everything currently in `current` is treated as header.
    pub fn resume(policy: RotationPolicy, sealed: Vec<Ledger>, current: Ledger) -> Self {
        let index = segment_index_of(&current).unwrap_or(0);
        let pruned = sealed
            .first()
            .map_or_else(|| index, |s| segment_index_of(s).unwrap_or(0));
        let current_bytes = if policy.max_bytes > 0 {
            current.to_jsonl().len()
        } else {
            0
        };
        let header_len = current.len();
        SegmentedRecorder {
            policy,
            sealed,
            current,
            index,
            pruned,
            current_bytes,
            header_len,
        }
    }

    /// Append an event to the current segment; returns its in-segment seq.
    pub fn record(&mut self, tick: u64, event: RunEvent) -> u64 {
        let (seq, line_len) = self.current.append_measured(tick, event);
        if self.policy.max_bytes > 0 {
            self.current_bytes += line_len;
        }
        seq
    }

    /// Mark everything recorded so far in the current segment as header
    /// frames: they never trigger rotation by themselves. The serving layer
    /// calls this after appending the checkpoint snapshot that follows an
    /// anchor frame, so a tiny budget cannot rotate an empty segment.
    /// (Header bytes still count toward the byte budget.)
    pub fn mark_header(&mut self) {
        self.header_len = self.current.len();
    }

    /// Should the owner rotate now? True when the policy is enabled, the
    /// current segment holds at least one record beyond its header frames,
    /// and a budget is met.
    pub fn should_rotate(&self) -> bool {
        if self.current.len() <= self.header_len {
            return false;
        }
        let body = self.current.len() - self.header_len;
        (self.policy.max_records > 0 && body >= self.policy.max_records)
            || (self.policy.max_bytes > 0 && self.current_bytes >= self.policy.max_bytes)
    }

    /// Seal the current segment with a [`RunEvent::SegmentSealed`] record,
    /// apply retention, and open the successor with its anchor frame.
    /// Returns the new segment's index.
    pub fn rotate(&mut self, tick: u64) -> u64 {
        self.current.append(
            tick,
            RunEvent::SegmentSealed {
                segment: self.index,
                records: self.current.len() as u64 + 1,
            },
        );
        let prev_head = self.current.head_digest();
        let prev_records = self.current.len() as u64;
        // The successor holds its anchor, the owner's header frames (the
        // serving layer's checkpoint), a budget's worth of body and its
        // seal; room for all of it up front spares the doublings.
        let next = Ledger::with_capacity(self.policy.max_records + SEGMENT_FRAMES);
        self.sealed.push(std::mem::replace(&mut self.current, next));
        if self.policy.keep_sealed > 0 {
            while self.sealed.len() > self.policy.keep_sealed {
                self.sealed.remove(0);
                self.pruned += 1;
            }
        }
        self.index += 1;
        self.current_bytes = 0;
        self.record(
            tick,
            RunEvent::SegmentOpened {
                segment: self.index,
                prev_head,
                prev_records,
            },
        );
        self.header_len = 1;
        self.index
    }

    /// Index of the segment currently recording.
    pub fn segment_index(&self) -> u64 {
        self.index
    }

    /// Segments pruned by retention so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// The configured rotation policy.
    pub fn policy(&self) -> &RotationPolicy {
        &self.policy
    }

    /// The open segment (still recording).
    pub fn current(&self) -> &Ledger {
        &self.current
    }

    /// Retained sealed segments, oldest first.
    pub fn sealed(&self) -> &[Ledger] {
        &self.sealed
    }

    /// Records in the current segment.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// A recorder always holds at least a segment header.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Seal the run and hand back every retained segment.
    pub fn finish(mut self, ticks: u64, harms: u64) -> SegmentedLedger {
        self.current
            .append(ticks, RunEvent::RunFinished { ticks, harms });
        let mut segments = self.sealed;
        segments.push(self.current);
        SegmentedLedger { segments }
    }
}

/// Verification failure localized to one segment of a rotated chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCorruption {
    /// Index of the corrupt segment.
    pub segment: u64,
    /// The failure within (or at the boundary of) that segment.
    pub corruption: Corruption,
}

impl fmt::Display for SegmentCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment {}: {}", self.segment, self.corruption)
    }
}

impl std::error::Error for SegmentCorruption {}

/// One row of a per-segment verification report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// Segment index.
    pub segment: u64,
    /// Records in the segment.
    pub records: u64,
    /// The segment's head digest.
    pub head: u64,
    /// The first failure in this segment, if any (chain break, bad header
    /// or seal shape, or an anchor mismatch against the predecessor).
    pub error: Option<Corruption>,
}

/// A complete rotated run: the retained segments, oldest first.
///
/// Pruned prefix segments are represented only by the anchor frame inside
/// the first retained segment; [`first_index`](SegmentedLedger::first_index)
/// says how many were pruned.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedLedger {
    segments: Vec<Ledger>,
}

impl SegmentedLedger {
    /// Wrap retained segments (oldest first). Panics on an empty list —
    /// a run always has at least its open segment.
    pub fn from_segments(segments: Vec<Ledger>) -> Self {
        assert!(!segments.is_empty(), "a segmented ledger has >= 1 segment");
        SegmentedLedger { segments }
    }

    /// Retained segments, oldest first.
    pub fn segments(&self) -> &[Ledger] {
        &self.segments
    }

    /// Index of the first retained segment — equal to the number of
    /// segments pruned by retention.
    pub fn first_index(&self) -> u64 {
        segment_index_of(&self.segments[0]).unwrap_or(0)
    }

    /// Segments pruned by retention.
    pub fn pruned_count(&self) -> u64 {
        self.first_index()
    }

    /// Index of the final segment.
    pub fn last_index(&self) -> u64 {
        self.first_index() + self.segments.len() as u64 - 1
    }

    /// Total records across retained segments.
    pub fn total_records(&self) -> usize {
        self.segments.iter().map(Ledger::len).sum()
    }

    /// Head digest of the final segment — the value to anchor out-of-band.
    pub fn head_digest(&self) -> u64 {
        self.segments.last().expect("non-empty").head_digest()
    }

    /// The unrotated case: exactly one segment and nothing pruned. Returns
    /// the segment, a plain sealed [`Ledger`]: the run header, every
    /// recorded event, and the run seal.
    pub fn into_single(mut self) -> Option<Ledger> {
        if self.segments.len() == 1 && self.first_index() == 0 {
            self.segments.pop()
        } else {
            None
        }
    }

    /// Verify every retained segment and every boundary between them:
    /// per-segment chain integrity, header/seal shapes, and anchor
    /// continuity. One row per segment, in order, so a caller can report
    /// *all* failures rather than just the first.
    pub fn verify_report(&self) -> Vec<SegmentReport> {
        let first = self.first_index();
        let last_pos = self.segments.len() - 1;
        self.segments
            .iter()
            .enumerate()
            .map(|(pos, seg)| {
                let index = first + pos as u64;
                let error = self.check_segment(pos, index, seg, pos == last_pos);
                SegmentReport {
                    segment: index,
                    records: seg.len() as u64,
                    head: seg.head_digest(),
                    error,
                }
            })
            .collect()
    }

    fn check_segment(
        &self,
        pos: usize,
        index: u64,
        seg: &Ledger,
        is_last: bool,
    ) -> Option<Corruption> {
        if seg.is_empty() {
            return Some(Corruption {
                seq: 0,
                reason: "empty segment".into(),
            });
        }
        if let Err(c) = seg.verify_chain() {
            return Some(c);
        }
        // Header shape: segment 0 carries the run header; later segments an
        // anchor frame whose fields must match the predecessor (when it is
        // retained — the first retained segment's anchor points at pruned
        // bytes and is vouched for by being inside this segment's chain).
        match &seg.records()[0].event {
            RunEvent::RunStarted { .. } if index == 0 => {}
            RunEvent::SegmentOpened {
                segment,
                prev_head,
                prev_records,
            } if index > 0 => {
                if *segment != index {
                    return Some(Corruption {
                        seq: 0,
                        reason: format!(
                            "anchor frame carries segment index {segment}, expected {index}"
                        ),
                    });
                }
                if pos > 0 {
                    let prev = &self.segments[pos - 1];
                    if *prev_head != prev.head_digest() {
                        return Some(Corruption {
                            seq: 0,
                            reason: format!(
                                "anchor mismatch: frame anchors predecessor head {prev_head:#018x}, segment {} heads {:#018x} (predecessor rewritten)",
                                index - 1,
                                prev.head_digest()
                            ),
                        });
                    }
                    if *prev_records != prev.len() as u64 {
                        return Some(Corruption {
                            seq: 0,
                            reason: format!(
                                "anchor mismatch: frame anchors {prev_records} predecessor records, segment {} holds {}",
                                index - 1,
                                prev.len()
                            ),
                        });
                    }
                }
            }
            other => {
                return Some(Corruption {
                    seq: 0,
                    reason: format!(
                        "segment head must be {} but is {}",
                        if index == 0 {
                            "run-started"
                        } else {
                            "segment-opened"
                        },
                        other.kind()
                    ),
                });
            }
        }
        // Seal shape: non-final segments end with a segment seal naming
        // themselves and their own record count; the final segment ends
        // with the run seal.
        let tail = &seg.records()[seg.len() - 1].event;
        if is_last {
            if !seg.is_sealed() {
                return Some(Corruption {
                    seq: seg.len() as u64,
                    reason:
                        "not sealed: terminal run-finished record missing (truncated or tail deleted)"
                            .into(),
                });
            }
        } else {
            match tail {
                RunEvent::SegmentSealed { segment, records }
                    if *segment == index && *records == seg.len() as u64 => {}
                other => {
                    return Some(Corruption {
                        seq: seg.len() as u64 - 1,
                        reason: format!(
                            "non-final segment must seal with segment-sealed[{index}, {}] but ends with {}",
                            seg.len(),
                            other.kind()
                        ),
                    });
                }
            }
        }
        None
    }

    /// Verify the whole retained chain; the first failing segment's error.
    pub fn verify(&self) -> Result<(), SegmentCorruption> {
        for report in self.verify_report() {
            if let Some(corruption) = report.error {
                return Err(SegmentCorruption {
                    segment: report.segment,
                    corruption,
                });
            }
        }
        Ok(())
    }

    /// [`verify`](SegmentedLedger::verify) plus a check of the final
    /// segment's head digest against an externally anchored value.
    pub fn verify_anchored(&self, anchored_head: u64) -> Result<(), SegmentCorruption> {
        self.verify()?;
        let last = self.segments.last().expect("non-empty");
        if last.head_digest() == anchored_head {
            Ok(())
        } else {
            Err(SegmentCorruption {
                segment: self.last_index(),
                corruption: Corruption {
                    seq: last.len().saturating_sub(1) as u64,
                    reason: format!(
                        "head digest {:#018x} does not match anchor {anchored_head:#018x} (suffix rewritten)",
                        last.head_digest()
                    ),
                },
            })
        }
    }

    /// Export each retained segment as `(index, jsonl)`, oldest first.
    pub fn to_jsonl_segments(&self) -> Vec<(u64, String)> {
        let first = self.first_index();
        self.segments
            .iter()
            .enumerate()
            .map(|(pos, seg)| (first + pos as u64, seg.to_jsonl()))
            .collect()
    }

    /// Import retained segments from `(index, jsonl)` pairs in any order.
    /// Parsing is strict — recovery of a torn open segment is the caller's
    /// job (via [`Ledger::from_jsonl_recovering`]) *before* sealing a run
    /// into this form.
    pub fn from_jsonl_segments(mut segs: Vec<(u64, String)>) -> Result<Self, LedgerError> {
        segs.sort_by_key(|(idx, _)| *idx);
        let mut segments = Vec::with_capacity(segs.len());
        for (_, text) in &segs {
            segments.push(Ledger::from_jsonl(text)?);
        }
        Ok(SegmentedLedger::from_segments(segments))
    }
}

impl fmt::Display for SegmentedLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segmented ledger: segments {}..={} ({} pruned), {} records, head {:#018x}",
            self.first_index(),
            self.last_index(),
            self.pruned_count(),
            self.total_records(),
            self.head_digest()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposal(device: u64) -> RunEvent {
        RunEvent::Proposal {
            device,
            action: "dig".into(),
        }
    }

    fn rotated(policy: RotationPolicy, events: u64) -> SegmentedLedger {
        let mut rec = SegmentedRecorder::new("seg", 7, 2, policy);
        for i in 0..events {
            rec.record(i + 1, proposal(i));
            if rec.should_rotate() {
                rec.rotate(i + 1);
            }
        }
        rec.finish(events, 0)
    }

    #[test]
    fn recorder_opens_and_seals() {
        let mut rec = SegmentedRecorder::new("demo", 7, 3, RotationPolicy::default());
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
        rec.record(1, proposal(0));
        let ledger = rec.finish(1, 0).into_single().expect("one segment");
        assert!(ledger.verify().is_ok());
        assert_eq!(ledger.len(), 3);
        assert!(matches!(
            ledger.records()[0].event,
            RunEvent::RunStarted { seed: 7, .. }
        ));
        assert!(ledger.is_sealed());
    }

    #[test]
    fn disabled_policy_matches_plain_recorder_bytes() {
        let mut seg = SegmentedRecorder::new("demo", 7, 3, RotationPolicy::default());
        let mut plain = Ledger::new();
        plain.append(
            0,
            RunEvent::RunStarted {
                experiment: "demo".into(),
                seed: 7,
                devices: 3,
            },
        );
        for i in 0..20 {
            seg.record(i + 1, proposal(i));
            plain.append(i + 1, proposal(i));
            assert!(!seg.should_rotate());
        }
        let seg = seg.finish(20, 0);
        plain.append(
            20,
            RunEvent::RunFinished {
                ticks: 20,
                harms: 0,
            },
        );
        let single = seg.into_single().expect("one segment");
        assert_eq!(single.to_jsonl(), plain.to_jsonl());
        assert!(single.verify().is_ok());
    }

    #[test]
    fn rotation_produces_an_anchored_verifiable_chain() {
        let led = rotated(RotationPolicy::by_records(4), 18);
        assert!(led.segments().len() > 2, "{led}");
        assert_eq!(led.first_index(), 0);
        led.verify().expect("rotated chain verifies");
        led.verify_anchored(led.head_digest()).expect("anchored");
        assert!(led.verify_anchored(led.head_digest() ^ 1).is_err());
        // Every boundary: seal then anchor.
        for seg in &led.segments()[..led.segments().len() - 1] {
            assert!(matches!(
                seg.records().last().unwrap().event,
                RunEvent::SegmentSealed { .. }
            ));
        }
        assert!(led.segments().last().unwrap().is_sealed());
        assert!(led.clone().into_single().is_none());
    }

    #[test]
    fn tamper_inside_a_sealed_segment_is_localized() {
        let led = rotated(RotationPolicy::by_records(4), 18);
        let mut segs = led.to_jsonl_segments();
        // Flip one digest bit inside segment 1 by editing its JSONL.
        segs[1].1 = segs[1].1.replacen("\"digest\":", "\"digest\":1", 1);
        let tampered = SegmentedLedger::from_jsonl_segments(segs).unwrap();
        let err = tampered.verify().unwrap_err();
        assert_eq!(err.segment, 1, "{err}");
    }

    #[test]
    fn consistent_rewrite_of_a_sealed_segment_breaks_the_anchor() {
        let led = rotated(RotationPolicy::by_records(4), 18);
        // Rebuild segment 1 with one event changed and all digests
        // recomputed: its own chain verifies, but the successor's anchor
        // frame gives the rewrite away.
        let mut segments: Vec<Ledger> = led.segments().to_vec();
        let mut forged = Ledger::new();
        for record in segments[1].records() {
            let mut event = record.event.clone();
            if let RunEvent::Proposal { device, .. } = &mut event {
                *device = 99;
            }
            forged.append(record.tick, event);
        }
        assert!(forged.verify_chain().is_ok());
        segments[1] = forged;
        let tampered = SegmentedLedger::from_segments(segments);
        let err = tampered.verify().unwrap_err();
        assert_eq!(err.segment, 2, "anchor check fires on the successor");
        assert!(err.corruption.reason.contains("anchor mismatch"), "{err}");
    }

    #[test]
    fn retention_prunes_oldest_but_chain_stays_verifiable() {
        let policy = RotationPolicy {
            max_records: 4,
            max_bytes: 0,
            keep_sealed: 2,
        };
        let led = rotated(policy, 30);
        assert!(led.pruned_count() > 0, "{led}");
        assert_eq!(led.segments().len(), 3, "2 sealed + open");
        assert!(led.first_index() > 0);
        led.verify().expect("retained chain verifies after pruning");
        let report = led.verify_report();
        assert_eq!(report.len(), 3);
        assert!(report.iter().all(|r| r.error.is_none()));
    }

    #[test]
    fn byte_budget_rotates() {
        let policy = RotationPolicy {
            max_records: 0,
            max_bytes: 600,
            keep_sealed: 0,
        };
        let led = rotated(policy, 30);
        assert!(led.segments().len() > 1, "{led}");
        led.verify().unwrap();
    }

    #[test]
    fn byte_count_tracks_the_export_and_rotates_where_the_export_does() {
        let policy = RotationPolicy {
            max_records: 0,
            max_bytes: 700,
            keep_sealed: 2,
        };
        let mut rec = SegmentedRecorder::new("bytes \"é\"", 7, 2, policy);
        assert_eq!(rec.current_bytes, rec.current().to_jsonl().len());
        let mut rotations = Vec::new();
        for i in 0..60u64 {
            let event = if i % 7 == 3 {
                RunEvent::Deactivation {
                    device: i,
                    reason: "escaped \u{1}\n ünïcode".repeat(i as usize % 4),
                }
            } else {
                proposal(i * 1_000_003)
            };
            rec.record(i + 1, event);
            let exported = rec.current().to_jsonl().len();
            assert_eq!(rec.current_bytes, exported, "after append {i}");
            // The reference rule: rotate once the exported segment's bytes
            // reach the budget and it holds a record past its header.
            let expected = rec.current().len() > rec.header_len && exported >= policy.max_bytes;
            assert_eq!(rec.should_rotate(), expected, "after append {i}");
            if rec.should_rotate() {
                rotations.push(i + 1);
                rec.rotate(i + 1);
                assert_eq!(rec.current_bytes, rec.current().to_jsonl().len());
                rec.record(i + 1, proposal(0));
                rec.mark_header();
                assert_eq!(rec.current_bytes, rec.current().to_jsonl().len());
            }
        }
        // Rotation ticks and final head of the same run under the earlier
        // recorder, which re-serialized the open segment to count bytes.
        assert_eq!(rotations, [5, 10, 14, 19, 24, 29, 33, 38, 42, 47, 52, 57]);
        let sealed = rec.finish(61, 0);
        sealed.verify().unwrap();
        assert_eq!(sealed.head_digest(), 0x29f2_57bc_fbc2_dc85);
    }

    #[test]
    fn unbudgeted_recorder_counts_nothing() {
        let mut rec = SegmentedRecorder::new("seg", 7, 2, RotationPolicy::by_records(2));
        for i in 0..5 {
            rec.record(i + 1, proposal(i));
            if rec.should_rotate() {
                rec.rotate(i + 1);
            }
        }
        assert_eq!(rec.current_bytes, 0);
        let resumed = SegmentedRecorder::resume(
            RotationPolicy::default(),
            rec.sealed().to_vec(),
            rec.current().clone(),
        );
        assert_eq!(resumed.current_bytes, 0);
        let budgeted = SegmentedRecorder::resume(
            RotationPolicy {
                max_bytes: 1 << 20,
                ..RotationPolicy::default()
            },
            rec.sealed().to_vec(),
            rec.current().clone(),
        );
        assert_eq!(budgeted.current_bytes, rec.current().to_jsonl().len());
    }

    #[test]
    fn jsonl_roundtrip_preserves_segments() {
        let led = rotated(RotationPolicy::by_records(5), 17);
        let back = SegmentedLedger::from_jsonl_segments(led.to_jsonl_segments()).unwrap();
        assert_eq!(back, led);
        back.verify().unwrap();
    }

    #[test]
    fn resume_rederives_index_and_pruned_count() {
        let policy = RotationPolicy {
            max_records: 4,
            max_bytes: 0,
            keep_sealed: 2,
        };
        let mut rec = SegmentedRecorder::new("seg", 7, 2, policy);
        for i in 0..30 {
            rec.record(i + 1, proposal(i));
            if rec.should_rotate() {
                rec.rotate(i + 1);
            }
        }
        let index = rec.segment_index();
        let pruned = rec.pruned();
        let resumed =
            SegmentedRecorder::resume(policy, rec.sealed().to_vec(), rec.current().clone());
        assert_eq!(resumed.segment_index(), index);
        assert_eq!(resumed.pruned(), pruned);
    }

    #[test]
    fn missing_seal_and_bad_header_are_reported() {
        let led = rotated(RotationPolicy::by_records(4), 12);
        let mut segs = led.to_jsonl_segments();
        // Drop segment 0's seal line: the boundary check names it.
        let truncated: String = segs[0]
            .1
            .lines()
            .take(segs[0].1.lines().count() - 1)
            .flat_map(|l| [l, "\n"])
            .collect();
        segs[0].1 = truncated;
        let broken = SegmentedLedger::from_jsonl_segments(segs).unwrap();
        let report = broken.verify_report();
        let seg0 = &report[0];
        assert!(seg0.error.as_ref().unwrap().reason.contains("must seal"));
        // The successor's anchor also no longer matches.
        assert!(report[1].error.is_some());
    }
}
