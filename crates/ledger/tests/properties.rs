//! Chain-integrity properties: every naive corruption of a serialized
//! ledger — single-byte mutation, record deletion, truncation, reordering —
//! is caught by `verify()` on re-import.

use apdm_ledger::{Ledger, RotationPolicy, RunEvent, SegmentedLedger, SegmentedRecorder};
use apdm_policy::{AuditEntry, AuditKind};
use proptest::prelude::*;

/// A deterministic sealed ledger exercising every event shape that carries
/// strings, numbers, options and nested structs.
fn sample_ledger(events: usize, seed: u64) -> Ledger {
    let mut rec = SegmentedRecorder::new("properties", seed, 4, RotationPolicy::default());
    for i in 0..events as u64 {
        let tick = i / 2 + 1;
        match i % 5 {
            0 => rec.record(
                tick,
                RunEvent::Proposal {
                    device: i % 4,
                    action: "strike".into(),
                },
            ),
            1 => rec.record(
                tick,
                RunEvent::Verdict {
                    device: i % 4,
                    action: "strike".into(),
                    verdict: "deny".into(),
                    reason: format!("harm predicted at ({i}, {})", i + 1),
                },
            ),
            2 => rec.record(
                tick,
                RunEvent::Execution {
                    device: i % 4,
                    action: "dig-hole".into(),
                },
            ),
            3 => rec.record(
                tick,
                RunEvent::Harm {
                    human: i,
                    cause: "fell into hole".into(),
                    device: (i % 2 == 0).then_some(i % 4),
                },
            ),
            _ => rec.record(
                tick,
                RunEvent::Audit(AuditEntry {
                    seq: i,
                    tick,
                    subject: format!("device-{}", i % 4),
                    kind: AuditKind::GuardIntervention,
                    detail: "denied: direct harm".into(),
                }),
            ),
        };
    }
    rec.finish(events as u64 / 2 + 1, events as u64 / 4)
        .into_single()
        .expect("never rotated")
}

/// The same event stream recorded under segment rotation: roll to a new
/// segment whenever the body budget fills, as the serving layer does once
/// per tick.
fn sample_segmented(
    events: usize,
    seed: u64,
    budget: usize,
    keep_sealed: usize,
) -> SegmentedLedger {
    let policy = RotationPolicy {
        max_records: budget,
        max_bytes: 0,
        keep_sealed,
    };
    let mut rec = SegmentedRecorder::new("properties", seed, 4, policy);
    for i in 0..events as u64 {
        let tick = i / 2 + 1;
        rec.record(
            tick,
            RunEvent::Verdict {
                device: i % 4,
                action: "strike".into(),
                verdict: "deny".into(),
                reason: format!("harm predicted at ({i}, {})", i + 1),
            },
        );
        if rec.should_rotate() {
            rec.rotate(tick);
        }
    }
    rec.finish(events as u64 / 2 + 1, events as u64 / 4)
}

/// Re-import corrupted bytes and check whether any layer flags them:
/// UTF-8 decoding, JSONL parsing, or chain/seal verification.
fn corruption_detected(bytes: &[u8]) -> bool {
    match std::str::from_utf8(bytes) {
        Err(_) => true,
        Ok(text) => match Ledger::from_jsonl(text) {
            Err(_) => true,
            Ok(ledger) => ledger.verify().is_err(),
        },
    }
}

proptest! {
    /// Flipping any single byte anywhere in the JSONL export is caught.
    #[test]
    fn single_byte_mutation_is_caught(
        events in 3usize..24,
        seed in 0u64..1000,
        position in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let jsonl = sample_ledger(events, seed).to_jsonl();
        let mut bytes = jsonl.into_bytes();
        let index = position % bytes.len();
        bytes[index] ^= mask;
        prop_assert!(
            corruption_detected(&bytes),
            "mutation at byte {index} (xor {mask:#04x}) went undetected"
        );
    }

    /// Deleting any single record line is caught, and when the damaged
    /// ledger still parses, verify() localizes the break at the deletion.
    #[test]
    fn record_deletion_is_caught(
        events in 3usize..24,
        seed in 0u64..1000,
        victim in 0usize..10_000,
    ) {
        let ledger = sample_ledger(events, seed);
        let jsonl = ledger.to_jsonl();
        let mut lines: Vec<&str> = jsonl.lines().collect();
        let index = victim % lines.len();
        lines.remove(index);
        let damaged = lines.join("\n");
        let reimported = Ledger::from_jsonl(&damaged).unwrap();
        let corruption = reimported.verify().expect_err("deletion must be detected");
        prop_assert_eq!(corruption.seq, index as u64, "not localized: {}", corruption);
    }

    /// Cutting the tail off at any point is caught by the seal check even
    /// though the remaining prefix chain is internally valid.
    #[test]
    fn truncation_is_caught(
        events in 3usize..24,
        seed in 0u64..1000,
        keep in 0usize..10_000,
    ) {
        let ledger = sample_ledger(events, seed);
        let jsonl = ledger.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        let kept = keep % lines.len(); // strictly fewer lines than recorded
        let damaged = lines[..kept].join("\n");
        let reimported = Ledger::from_jsonl(&damaged).unwrap();
        prop_assert!(reimported.verify_chain().is_ok(), "prefix chain should be valid");
        let corruption = reimported.verify().expect_err("truncation must be detected");
        prop_assert_eq!(corruption.seq, kept as u64);
    }

    /// Swapping any two distinct record lines is caught at the earlier of
    /// the two positions.
    #[test]
    fn reordering_is_caught(
        events in 3usize..24,
        seed in 0u64..1000,
        a in 0usize..10_000,
        b in 0usize..10_000,
    ) {
        let ledger = sample_ledger(events, seed);
        let jsonl = ledger.to_jsonl();
        let mut lines: Vec<&str> = jsonl.lines().collect();
        let i = a % lines.len();
        let mut j = b % lines.len();
        if i == j {
            j = (j + 1) % lines.len();
        }
        lines.swap(i, j);
        let damaged = lines.join("\n");
        let reimported = Ledger::from_jsonl(&damaged).unwrap();
        let corruption = reimported.verify().expect_err("reordering must be detected");
        prop_assert_eq!(corruption.seq, i.min(j) as u64, "not localized: {}", corruption);
    }

    /// Sanity: the untouched export always re-imports and verifies clean.
    #[test]
    fn intact_export_always_verifies(events in 3usize..24, seed in 0u64..1000) {
        let ledger = sample_ledger(events, seed);
        let reimported = Ledger::from_jsonl(&ledger.to_jsonl()).unwrap();
        prop_assert_eq!(&reimported, &ledger);
        prop_assert!(reimported.verify().is_ok());
    }

    /// Crash-safe load: truncate the sealed export at EVERY byte offset and
    /// require `from_jsonl_recovering` to do the right thing at each one —
    /// whole-line prefixes load strictly (no recovery), mid-line cuts drop
    /// exactly the torn final line with a [`TornTail`], and every recovered
    /// prefix still has an intact hash chain. Only the full export passes
    /// the seal check; every shorter prefix is refused by `verify()`.
    #[test]
    fn every_byte_truncation_recovers_or_loads(events in 3usize..10, seed in 0u64..1000) {
        let ledger = sample_ledger(events, seed);
        let jsonl = ledger.to_jsonl();
        let bytes = jsonl.as_bytes();
        let total_lines = jsonl.lines().count();
        for cut in 0..=bytes.len() {
            // The export is ASCII JSON, so every offset is a char boundary.
            let prefix = std::str::from_utf8(&bytes[..cut]).unwrap();
            let line_count = prefix.lines().count();
            // A prefix is "clean" when its last line is a complete record:
            // it ends at a newline, or the cut landed exactly at the end of
            // a line's content (the next byte would have been '\n').
            let clean = cut == 0
                || bytes[cut - 1] == b'\n'
                || bytes.get(cut) == Some(&b'\n');
            let (recovered, torn) = Ledger::from_jsonl_recovering(prefix)
                .expect("truncation must never be a hard error");
            if clean {
                prop_assert!(torn.is_none(), "cut {cut}: spurious recovery");
                prop_assert_eq!(recovered.len(), line_count);
            } else {
                let torn = torn.expect("mid-line cut must report a torn tail");
                prop_assert_eq!(torn.line, line_count, "cut {cut}");
                prop_assert_eq!(recovered.len(), line_count - 1);
                prop_assert!(
                    Ledger::from_jsonl(prefix).is_err(),
                    "strict import must still refuse the torn text"
                );
            }
            prop_assert!(
                recovered.verify_chain().is_ok(),
                "cut {cut}: recovered prefix chain must be intact"
            );
            let sealed = recovered.len() == total_lines;
            prop_assert_eq!(
                recovered.verify().is_ok(),
                sealed,
                "cut {cut}: only the full export may pass the seal check"
            );
        }
    }

    /// Crash-safety across a segment boundary: tear the *final* segment of
    /// a rotated run at EVERY byte offset — including every offset inside
    /// its anchor frame, the record that chains it to the sealed
    /// predecessor — and require a valid recovery point at each one.
    /// Whole-record prefixes keep an intact chain whose anchor still names
    /// the predecessor's head digest; a cut inside the anchor line itself
    /// recovers to empty, and the sealed predecessor then stands on its
    /// own as the fallback recovery point (the ladder `recover_segments`
    /// walks in `apdm-serve`).
    #[test]
    fn every_byte_tear_across_a_segment_boundary_recovers(
        events in 12usize..36,
        seed in 0u64..1000,
        budget in 3usize..8,
        keep_sealed in 0usize..3,
    ) {
        let segmented = sample_segmented(events, seed, budget, keep_sealed);
        prop_assert!(segmented.verify().is_ok());
        let segs = segmented.to_jsonl_segments();
        prop_assert!(segs.len() > 1, "the budget must force a rotation");
        // The boundary under attack: the final segment (opened by the last
        // rotation) and the sealed predecessor its anchor frame names.
        let (_, last_text) = segs.last().unwrap();
        let (_, prev_text) = &segs[segs.len() - 2];
        let prev = Ledger::from_jsonl(prev_text).unwrap();
        prop_assert!(prev.verify_chain().is_ok(), "predecessor must stand on its own");
        let prev_head = prev.head_digest();
        let bytes = last_text.as_bytes();
        let anchor_line_len = last_text.lines().next().unwrap().len();
        for cut in 0..bytes.len() {
            let prefix = std::str::from_utf8(&bytes[..cut]).unwrap();
            let clean = cut == 0 || bytes[cut - 1] == b'\n' || bytes.get(cut) == Some(&b'\n');
            let (recovered, torn) = Ledger::from_jsonl_recovering(prefix)
                .expect("a torn tail must never be a hard error");
            if !clean {
                prop_assert!(torn.is_some(), "cut {cut}: mid-line cut must report a tear");
            }
            prop_assert!(
                recovered.verify_chain().is_ok(),
                "cut {cut}: recovered prefix chain must be intact"
            );
            if recovered.is_empty() {
                // The anchor frame itself is the casualty: nothing of this
                // segment survives, so the cut must lie within its first
                // line — and the predecessor remains a clean fallback.
                prop_assert!(
                    cut <= anchor_line_len,
                    "cut {cut}: only an anchor tear may lose the whole segment"
                );
            } else {
                // Any surviving prefix leads with the anchor, still naming
                // the predecessor's head: pruning-resistant tamper evidence
                // survives the crash.
                match &recovered.records()[0].event {
                    RunEvent::SegmentOpened { prev_head: anchored, .. } => {
                        prop_assert_eq!(*anchored, prev_head, "cut {}", cut);
                    }
                    other => prop_assert!(
                        false,
                        "cut {cut}: recovered segment must lead with its anchor, got {other:?}"
                    ),
                }
            }
        }
    }

    /// A parse failure anywhere *before* the final line is tamper evidence,
    /// not a torn tail: recovery must refuse it like the strict importer.
    #[test]
    fn mid_ledger_damage_is_never_recovered(
        events in 3usize..10,
        seed in 0u64..1000,
        victim in 0usize..10_000,
    ) {
        let jsonl = sample_ledger(events, seed).to_jsonl();
        let mut lines: Vec<String> = jsonl.lines().map(str::to_string).collect();
        // Tear a line that is not the last one.
        let index = victim % (lines.len() - 1);
        let keep = lines[index].len() / 2;
        lines[index].truncate(keep);
        let damaged = lines.join("\n");
        prop_assert!(
            Ledger::from_jsonl_recovering(&damaged).is_err(),
            "damage at line {} must stay a hard error",
            index + 1
        );
    }
}
