//! Trace files: the bytes the exporters write, and the importer facing
//! whatever a trace file on disk holds.
//!
//! * The committed fixtures `tests/fixtures/trace-e14.*` (24 complete
//!   traces plus the SLO events of `run e14 --seed 42 --out`) and
//!   `trace-synthetic.*` (spans, extreme integers, floats, escapes) were
//!   rendered by the exporters of the earlier, dependency-free telemetry
//!   codec. Every exporter must still write them byte for byte.
//! * A seeded mutation loop feeds damaged fixture lines to
//!   [`import_jsonl`]: each must end in records or in an error naming a
//!   line of its input, never in a panic or a stack-overflow abort.
//! * Export then import is the identity on arbitrary normalized records
//!   (property).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use apdm::telemetry::{FieldValue, Level, Name, RecordKind, TraceRecord, VirtualTs};
use apdm::trace_files::{export_chrome, export_chrome_devices, export_jsonl, import_jsonl};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The fixtures' stems: each has a `.jsonl` export and its
/// `.chrome.json` and `.devices.json` renderings.
const STEMS: [&str; 2] = ["trace-e14", "trace-synthetic"];

/// `written` must equal the fixture `name` byte for byte.
fn assert_pinned(name: &str, written: &str) {
    let pinned = fixture(name);
    if written != pinned {
        let at = written
            .bytes()
            .zip(pinned.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(written.len().min(pinned.len()));
        let show = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_string)
        };
        panic!(
            "{name}: first difference at byte {at} (written {} B, pinned {} B)\n\
             written: {:?}\npinned:  {:?}",
            written.len(),
            pinned.len(),
            show(written),
            show(&pinned),
        );
    }
}

#[test]
fn exporters_write_the_pinned_bytes() {
    for stem in STEMS {
        let jsonl = fixture(&format!("{stem}.jsonl"));
        let records = import_jsonl(&jsonl).expect("the fixture imports");
        assert_eq!(records.len(), jsonl.lines().count(), "{stem}");
        assert_pinned(&format!("{stem}.jsonl"), &export_jsonl(&records));
        assert_pinned(&format!("{stem}.chrome.json"), &export_chrome(&records));
        assert_pinned(
            &format!("{stem}.devices.json"),
            &export_chrome_devices(&records),
        );
    }
}

// ---------------------------------------------------------------------------
// Damaged trace files (seeded mutation loop)
// ---------------------------------------------------------------------------

/// Mutants fed to the importer.
const MUTANTS: usize = 2_000;

/// SplitMix64, for seeded windows, offsets and masks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One labelled mutant of a window of one to four consecutive `lines`:
/// a byte flip, a truncation, a splice of two lines, or a run of opening
/// brackets (some far past the parser's nesting cap).
fn mutant(rng: &mut Rng, lines: &[&str]) -> (String, Vec<u8>) {
    let start = rng.below(lines.len());
    let end = (start + 1 + rng.below(4)).min(lines.len());
    let mut bytes = lines[start..end].join("\n").into_bytes();
    if rng.below(2) == 0 {
        bytes.push(b'\n');
    }
    let window = format!("lines {}..={}", start + 1, end);
    let at = rng.below(bytes.len() + 1);
    match rng.below(4) {
        0 => {
            let at = at.min(bytes.len() - 1);
            let mask = (rng.below(255) + 1) as u8;
            bytes[at] ^= mask;
            (format!("{window}, byte {at} ^ {mask:#04x}"), bytes)
        }
        1 => {
            bytes.truncate(at);
            (format!("{window}, truncated at {at}"), bytes)
        }
        2 => {
            let other = lines[rng.below(lines.len())].as_bytes();
            let from = rng.below(other.len() + 1);
            let tail = bytes.split_off(at);
            bytes.extend_from_slice(&other[from..]);
            if rng.below(2) == 0 {
                bytes.extend_from_slice(&tail);
            }
            (format!("{window}, spliced at {at} from byte {from}"), bytes)
        }
        _ => {
            const RUNS: [usize; 7] = [1, 2, 127, 128, 129, 1_000, 100_000];
            let run = RUNS[rng.below(RUNS.len())];
            let open = if rng.below(2) == 0 { b'[' } else { b'{' };
            let tail = bytes.split_off(at);
            bytes.extend(std::iter::repeat_n(open, run));
            bytes.extend_from_slice(&tail);
            (format!("{window}, {run} `{}` at {at}", open as char), bytes)
        }
    }
}

#[test]
fn damaged_trace_lines_end_in_records_or_a_located_error() {
    let texts: Vec<String> = STEMS
        .iter()
        .map(|stem| fixture(&format!("{stem}.jsonl")))
        .collect();
    let lines: Vec<&str> = texts.iter().flat_map(|t| t.lines()).collect();
    let mut rng = Rng(0x5eed_7ace);
    let (mut imported, mut refused) = (0, 0);
    for _ in 0..MUTANTS {
        let (label, bytes) = mutant(&mut rng, &lines);
        // A flip can break UTF-8, which reading the file as a `String`
        // refuses outright; a lossy read keeps such a mutant in play.
        let text = String::from_utf8_lossy(&bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| import_jsonl(&text)))
            .unwrap_or_else(|_| panic!("mutant `{label}` panicked"));
        match outcome {
            Ok(records) => {
                imported += 1;
                // What imports re-exports to a fixed point.
                let wire = export_jsonl(&records);
                let again = import_jsonl(&wire).expect("an export re-imports");
                assert_eq!(export_jsonl(&again), wire, "mutant `{label}`");
            }
            Err(e) => {
                refused += 1;
                let last = text.lines().count();
                assert!(
                    (1..=last).contains(&e.line),
                    "mutant `{label}`: line {} outside 1..={last}: {e}",
                    e.line
                );
            }
        }
    }
    // Flips inside strings and digits leave valid records; most damage
    // does not.
    assert!(
        imported > 0 && refused > imported,
        "{imported} imported, {refused} refused"
    );
}

// ---------------------------------------------------------------------------
// JSONL round trip (property)
// ---------------------------------------------------------------------------

/// Alphabet exercising the JSON writer's escape paths: quotes, backslash,
/// control characters, multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', '_', '.', '-', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', 'λ',
    '🛰',
];

fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(0usize..CHARS.len(), 0..8)
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARS[i]).collect())
}

/// A field value from the *normalized* domain the `From` impls produce:
/// non-negative integers are always `U64` (the wire cannot tell `5i64`
/// from `5u64`), floats are finite (NaN serializes as `null` and is not
/// `PartialEq`-comparable anyway).
fn arb_field_value() -> impl Strategy<Value = FieldValue> {
    (
        0usize..5,
        any::<u64>(),
        any::<i64>(),
        -1.0e9..1.0e9f64,
        any::<bool>(),
        arb_string(),
    )
        .prop_map(|(sel, u, i, f, b, s)| match sel {
            0 => FieldValue::U64(u),
            1 => FieldValue::from(i), // normalizes non-negative to U64
            2 => FieldValue::F64(f),
            3 => FieldValue::Bool(b),
            _ => FieldValue::Str(s),
        })
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        (0usize..3, 0usize..4),
        arb_string(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>()),
        collection::vec((arb_string(), arb_field_value()), 0..5),
    )
        .prop_map(
            |((k, l), name, (tick, seq, depth), (has_dur, dur), fields)| {
                let kind = [
                    RecordKind::SpanStart,
                    RecordKind::SpanEnd,
                    RecordKind::Event,
                ][k];
                let level = [Level::Debug, Level::Info, Level::Warn, Level::Error][l];
                TraceRecord {
                    kind,
                    name: Name::Owned(name),
                    ts: VirtualTs { tick, seq },
                    level,
                    depth,
                    dur_ns: has_dur.then_some(dur),
                    fields: fields
                        .into_iter()
                        .map(|(key, value)| (Name::Owned(key), value))
                        .collect(),
                }
            },
        )
}

proptest! {
    /// export_jsonl → import_jsonl is the identity on arbitrary normalized
    /// records, including hostile names/keys (quotes, escapes, control
    /// characters, multi-byte UTF-8) and `u64` extremes.
    #[test]
    fn jsonl_round_trip_is_identity(records in collection::vec(arb_record(), 0..12)) {
        let wire = export_jsonl(&records);
        let back = import_jsonl(&wire).expect("exported trace must re-import");
        prop_assert_eq!(back, records);
    }

    /// One JSON line per record, in emission order, each independently
    /// re-importable (tools may stream line-by-line).
    #[test]
    fn jsonl_lines_are_independent(records in collection::vec(arb_record(), 1..8)) {
        let wire = export_jsonl(&records);
        let lines: Vec<&str> = wire.lines().collect();
        prop_assert_eq!(lines.len(), records.len());
        for (line, rec) in lines.iter().zip(&records) {
            let solo = import_jsonl(line).expect("single line must import");
            prop_assert_eq!(&solo, std::slice::from_ref(rec));
        }
    }
}
