//! A checkpoint read back from disk is untrusted input: `resume` parses
//! whatever a crashed, truncated or tampered segment holds. Seeded
//! mutations of a committed golden checkpoint line go through the same
//! path `resume` takes — [`Ledger::from_jsonl_recovering`], then
//! [`ServeCheckpoint::from_frame`] on every snapshot — and each must end in
//! an error, a ledger whose chain fails, or a checkpoint. None may panic,
//! and none may abort the process (deep nesting once overflowed the
//! parser's stack).

use std::panic::{catch_unwind, AssertUnwindSafe};

use apdm::ledger::{Ledger, RunEvent};
use apdm::serve::ServeCheckpoint;

/// The golden segment whose second line is a serve checkpoint.
const FIXTURE: &str = "e16-42.seg0006.jsonl";

fn fixture_lines() -> Vec<String> {
    let path = format!("{}/tests/fixtures/{FIXTURE}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    text.lines().map(str::to_string).collect()
}

/// Where a mutant ended up.
#[derive(Debug, Default)]
struct Tally {
    /// `from_jsonl_recovering` refused the text.
    parse_errors: usize,
    /// Parsed, but `verify_chain` found the damage.
    chain_failures: usize,
    /// Snapshot frames `from_frame` refused.
    frame_errors: usize,
    /// Snapshot frames that decoded to a checkpoint.
    checkpoints: usize,
    /// Frames `from_frame` refused inside a chain that verifies: the
    /// service wrote every verified byte, so this must never happen.
    verified_but_undecodable: usize,
}

impl Tally {
    /// Run `text` down the resume path, counting where it ends.
    fn feed(&mut self, text: &str) {
        let ledger = match Ledger::from_jsonl_recovering(text) {
            Ok((ledger, _torn)) => ledger,
            Err(_) => {
                self.parse_errors += 1;
                return;
            }
        };
        let verified = ledger.verify_chain().is_ok();
        if !verified {
            self.chain_failures += 1;
        }
        // Decode every frame, verified or not: a reader that skipped the
        // chain check must still get an error, not a panic.
        for record in ledger.records() {
            if let RunEvent::Snapshot(frame) = &record.event {
                match ServeCheckpoint::from_frame(frame) {
                    Ok(_) => self.checkpoints += 1,
                    Err(_) if verified => self.verified_but_undecodable += 1,
                    Err(_) => self.frame_errors += 1,
                }
            }
        }
    }
}

/// SplitMix64, for seeded offsets and flip masks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Every mutant of `line`, labelled: truncations at every 997th byte,
/// single-byte flips at 256 seeded offsets, and an inner number replaced
/// by nesting just inside and far past the parser's depth cap.
fn mutants(line: &str) -> Vec<(String, Vec<u8>)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for cut in (997..bytes.len()).step_by(997) {
        out.push((format!("truncated at {cut}"), bytes[..cut].to_vec()));
    }
    let mut rng = Rng(0x5eed_0006);
    for _ in 0..256 {
        let at = (rng.next() % bytes.len() as u64) as usize;
        let mask = (rng.next() % 255 + 1) as u8;
        let mut flipped = bytes.to_vec();
        flipped[at] ^= mask;
        out.push((format!("byte {at} ^ {mask:#04x}"), flipped));
    }
    let key = "\"meter_spent\":";
    let start = line.find(key).expect("checkpoint has a meter") + key.len();
    let end = start
        + line[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("number ends");
    for depth in [64, 200_000] {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        let text = format!("{}{nested}{}", &line[..start], &line[end..]);
        out.push((
            format!("meter_spent nested {depth} deep"),
            text.into_bytes(),
        ));
    }
    out
}

#[test]
fn mutated_checkpoint_lines_never_panic_on_the_resume_path() {
    let lines = fixture_lines();
    let checkpoint = &lines[1];
    assert!(
        checkpoint.contains("\"Snapshot\""),
        "{FIXTURE} line 2 is the checkpoint"
    );
    let mut tally = Tally::default();
    for (label, bytes) in mutants(checkpoint) {
        // A flip can break UTF-8, which reading the file as a `String`
        // refuses outright; a lossy read keeps such a mutant in play.
        let mutant = String::from_utf8_lossy(&bytes);
        // Inside its segment (a damaged interior line), and as the final
        // line (what torn-tail recovery may drop).
        let interior = [&lines[0], mutant.as_ref()]
            .into_iter()
            .chain(lines[2..].iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join("\n");
        let tail = format!("{}\n{mutant}\n", lines[0]);
        for text in [interior, tail] {
            catch_unwind(AssertUnwindSafe(|| tally.feed(&text)))
                .unwrap_or_else(|_| panic!("mutant `{label}` panicked"));
        }
    }
    // Truncations and deep nesting are refused, flips reach all three ends.
    assert!(tally.parse_errors > 0, "{tally:?}");
    assert!(tally.chain_failures > 0, "{tally:?}");
    assert!(tally.frame_errors > 0, "{tally:?}");
    assert!(tally.checkpoints > 0, "{tally:?}");
    assert_eq!(tally.verified_but_undecodable, 0, "{tally:?}");
}

#[test]
fn the_unmutated_checkpoint_line_resumes() {
    let lines = fixture_lines();
    let mut tally = Tally::default();
    tally.feed(&(lines.join("\n") + "\n"));
    assert_eq!(tally.parse_errors + tally.chain_failures, 0, "{tally:?}");
    assert_eq!((tally.checkpoints, tally.frame_errors), (1, 0), "{tally:?}");
}
