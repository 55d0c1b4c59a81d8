//! Recorded runs, deterministic replay, and experiment E9 (tamper evidence).
//!
//! The canonical recorded scenario mirrors experiment A3: a fleet of
//! guarded strikers whose pre-action checks are *vulnerable* to tampering,
//! probed by an attacker every tick. It exercises every event class the
//! flight recorder captures — proposals, verdicts, executions, tamper
//! attempts, harms — and is the workload behind the `record` / `verify` /
//! `replay` subcommands of `apdm-experiments` and the E9 table in
//! EXPERIMENTS.md.
//!
//! E9 turns chain verification into a *detection* mechanism for the
//! compromised-guard pathway (Section IV vs Section VI's tamper-proofness
//! premise): an adversary who strikes through a compromised guard and then
//! mutates, deletes, truncates or reorders the flight record to hide it is
//! caught by [`Ledger::verify`], while a plain (unchained) audit export
//! only notices corruptions that happen to break JSON syntax.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use apdm_device::{Device, DeviceId, DeviceKind, OrgId};
use apdm_guards::tamper::{TamperStatus, Tamperable};
use apdm_guards::{GuardStack, PreActionCheck};
use apdm_ledger::{
    Ledger, LedgerError, ReplayReport, Replayer, RotationPolicy, RunEvent, SegmentedRecorder,
};
use apdm_policy::{Action, Condition, EcaRule, Event};
use apdm_statespace::{StateDelta, StateSchema};

use crate::oracle::actions;
use crate::runner::skynet_score;
use crate::world::WorldConfig;
use crate::{Fleet, FleetConfig, Metrics, SkynetScore, World};

/// Parameters of the canonical recorded scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecordSpec {
    /// Fleet size.
    pub n_devices: usize,
    /// Ticks to simulate.
    pub ticks: u64,
    /// Master seed (device placement, tamper rolls).
    pub seed: u64,
    /// Per-attempt guard compromise probability.
    pub p_tamper: f64,
    /// Checkpoint cadence in ticks (0 disables snapshots).
    pub snapshot_every: u64,
    /// Decide-phase worker threads (`1` = sequential engine, `0` = auto);
    /// the recorded ledger is identical for every value.
    pub threads: usize,
    /// Install guard-verdict memo caches (identical ledger either way).
    pub cache: bool,
}

impl Default for RecordSpec {
    fn default() -> Self {
        RecordSpec {
            n_devices: 6,
            ticks: 120,
            seed: 42,
            p_tamper: 0.02,
            snapshot_every: 40,
            threads: 1,
            cache: false,
        }
    }
}

/// A completed recorded run.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    /// The sealed, hash-chained flight record.
    pub ledger: Ledger,
    /// Final ground-truth metrics.
    pub metrics: Metrics,
    /// Final Skynet scorecard.
    pub score: SkynetScore,
}

/// Where a replay starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStart {
    /// Re-execute from tick 0 with the recorded seed.
    Origin,
    /// Resume from the last checkpoint frame in the ledger.
    LatestSnapshot,
}

/// A completed replay with its divergence report.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Stream comparison against the reference ledger.
    pub report: ReplayReport,
    /// Final metrics of the re-execution.
    pub metrics: Metrics,
    /// Final scorecard of the re-execution.
    pub score: SkynetScore,
}

fn build_world(_spec: &RecordSpec) -> World {
    let mut world = World::new(WorldConfig {
        width: 20,
        height: 20,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    for i in 0..5 {
        let row = 4 * i;
        world.add_human(vec![(5, row), (6, row)], true);
    }
    world
}

fn build_fleet(spec: &RecordSpec, rng: &mut StdRng) -> Fleet {
    let schema = StateSchema::builder().var("threat", 0.0, 1.0).build();
    let mut fleet = Fleet::new(FleetConfig {
        threads: spec.threads,
        cache: spec.cache,
        ..FleetConfig::default()
    });
    for i in 0..spec.n_devices {
        let device = Device::builder(i as u64, DeviceKind::new("striker"), OrgId::new("us"))
            .schema(schema.clone())
            .rule(EcaRule::new(
                "strike",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::STRIKE, StateDelta::empty()).physical(),
            ))
            .build();
        let stack = GuardStack::new().with_preaction(
            PreActionCheck::new().with_tamper(TamperStatus::vulnerable(spec.p_tamper)),
        );
        let pos = (rng.random_range(4..8), rng.random_range(0..20));
        fleet.add(device, stack, pos);
    }
    fleet
}

fn tick_events(fleet: &Fleet) -> Vec<(DeviceId, Event)> {
    fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect()
}

/// Advance one tick of the canonical scenario: tamper probes (recorded),
/// then the guarded fleet step, then an optional checkpoint frame.
fn advance_tick(
    spec: &RecordSpec,
    fleet: &mut Fleet,
    world: &mut World,
    rng: &mut StdRng,
    events: &[(DeviceId, Event)],
    tick: u64,
) {
    let mut probes = Vec::new();
    for (&id, member) in fleet.iter_mut() {
        if let Some(pre) = member.stack.preaction_mut() {
            let compromised = pre.attempt_tamper(rng);
            probes.push((id.0, compromised));
        }
    }
    for (device, compromised) in probes {
        fleet.record_event(
            tick,
            RunEvent::TamperAttempt {
                device,
                compromised,
            },
        );
    }
    fleet.step(world, tick, events);
    if spec.snapshot_every > 0 && tick.is_multiple_of(spec.snapshot_every) && tick < spec.ticks {
        let frame = fleet.snapshot(tick, world, rng.state_words());
        fleet.record_event(tick, RunEvent::Snapshot(frame));
    }
}

/// The recorder a canonical run appends through: one flat ledger, never
/// rotated.
fn flat_recorder(spec: &RecordSpec) -> SegmentedRecorder {
    SegmentedRecorder::new(
        "record",
        spec.seed,
        spec.n_devices as u64,
        RotationPolicy::default(),
    )
}

/// Seal a canonical run's recorder into its flat ledger.
fn seal(recorder: SegmentedRecorder, spec: &RecordSpec, metrics: &Metrics) -> Ledger {
    recorder
        .finish(spec.ticks, metrics.harm_count() as u64)
        .into_single()
        .expect("a canonical run never rotates")
}

/// Execute the canonical scenario under a flight recorder and return the
/// sealed ledger plus the run's ground truth.
pub fn run_recorded(spec: &RecordSpec) -> RecordedRun {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut world = build_world(spec);
    let mut fleet = build_fleet(spec, &mut rng);
    fleet.set_recorder(flat_recorder(spec));
    let events = tick_events(&fleet);
    for tick in 1..=spec.ticks {
        advance_tick(spec, &mut fleet, &mut world, &mut rng, &events, tick);
    }
    let metrics = fleet.metrics().clone();
    let score = skynet_score(&fleet, &world, 1, 1);
    let recorder = fleet.take_recorder().expect("recorder was attached");
    let ledger = seal(recorder, spec, &metrics);
    RecordedRun {
        ledger,
        metrics,
        score,
    }
}

/// Re-execute a recorded run — from tick 0 or from the latest checkpoint —
/// and report the first divergence from the reference ledger. A faithful
/// replay reproduces the recorded event stream exactly, snapshots included,
/// and therefore the same final metrics and scorecard.
pub fn replay_recorded(
    spec: &RecordSpec,
    reference: &Ledger,
    start: ReplayStart,
) -> Result<ReplayOutcome, LedgerError> {
    replay_recorded_against(spec, reference, start, false)
}

/// [`replay_recorded`] against a reference recovered from a torn (crash-
/// truncated) ledger: the replay re-executes the full run, so it
/// legitimately extends past the reference's cut; only the surviving prefix
/// must be reproduced exactly.
pub fn replay_recorded_prefix(
    spec: &RecordSpec,
    reference: &Ledger,
    start: ReplayStart,
) -> Result<ReplayOutcome, LedgerError> {
    replay_recorded_against(spec, reference, start, true)
}

fn replay_recorded_against(
    spec: &RecordSpec,
    reference: &Ledger,
    start: ReplayStart,
    prefix: bool,
) -> Result<ReplayOutcome, LedgerError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut world = build_world(spec);
    let mut fleet = build_fleet(spec, &mut rng);

    let (start_tick, replayer) = match start {
        ReplayStart::Origin => (0, Replayer::from_origin(reference)),
        ReplayStart::LatestSnapshot => {
            let (seq, frame) = reference
                .latest_snapshot_at_or_before(u64::MAX)
                .ok_or_else(|| LedgerError::Snapshot("ledger holds no snapshot".into()))?;
            world = frame
                .world
                .parse()
                .map_err(|e| LedgerError::Snapshot(format!("world: {e}")))?;
            fleet.restore_snapshot(frame, &world)?;
            rng = StdRng::from_state_words(frame.rng);
            (frame.tick, Replayer::from_snapshot(reference, seq))
        }
    };

    fleet.set_recorder(flat_recorder(spec));
    let events = tick_events(&fleet);
    for tick in (start_tick + 1)..=spec.ticks {
        advance_tick(spec, &mut fleet, &mut world, &mut rng, &events, tick);
    }
    let metrics = fleet.metrics().clone();
    let score = skynet_score(&fleet, &world, 1, 1);
    let recorder = fleet.take_recorder().expect("recorder was attached");
    let replayed = seal(recorder, spec, &metrics);
    let report = if prefix {
        replayer.compare_prefix(&replayed)
    } else {
        replayer.compare(&replayed)
    };
    Ok(ReplayOutcome {
        report,
        metrics,
        score,
    })
}

// ---------------------------------------------------------------------------
// E9 — tamper evidence
// ---------------------------------------------------------------------------

/// Report row of experiment E9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E9Report {
    /// Corruption attacks applied to the exported ledger.
    pub attacks: u64,
    /// Attacks the hash chain (or import layer) caught.
    pub detected: u64,
    /// `detected / attacks`.
    pub detection_rate: f64,
    /// Attacks a plain (unchained) audit export caught.
    pub baseline_detected: u64,
    /// Baseline detection rate.
    pub baseline_detection_rate: f64,
    /// Mean distance in records between the corruption site and the record
    /// `verify()` flagged, over detected attacks (0 = exact localization).
    pub mean_detection_offset: f64,
    /// Records in the recorded run's ledger.
    pub ledger_records: u64,
    /// Tamper probes the adversary made during the recorded run.
    pub tamper_attempts: u64,
}

/// One corruption: (kind tag, damaged text, 0-based line of the corruption).
fn corrupt(lines: &[&str], rng: &mut StdRng, kind: usize) -> (Vec<u8>, usize) {
    let mut damaged: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    match kind % 4 {
        0 => {
            // Single-byte mutation, applied at the byte level so flips that
            // produce invalid UTF-8 are preserved rather than sanitized.
            let line = rng.random_range(0..damaged.len());
            let at = rng.random_range(0..lines[line].len());
            let mask = rng.random_range(1..256u32) as u8;
            let mut all = Vec::new();
            for (i, l) in lines.iter().enumerate() {
                if i == line {
                    let mut b = l.as_bytes().to_vec();
                    b[at] ^= mask;
                    all.extend_from_slice(&b);
                } else {
                    all.extend_from_slice(l.as_bytes());
                }
                all.push(b'\n');
            }
            (all, line)
        }
        1 => {
            // Record deletion.
            let line = rng.random_range(0..damaged.len());
            damaged.remove(line);
            (join(&damaged), line)
        }
        2 => {
            // Truncation.
            let keep = rng.random_range(0..damaged.len());
            damaged.truncate(keep);
            (join(&damaged), keep)
        }
        _ => {
            // Reordering: swap two distinct lines.
            let i = rng.random_range(0..damaged.len());
            let mut j = rng.random_range(0..damaged.len());
            if i == j {
                j = (j + 1) % damaged.len();
            }
            damaged.swap(i, j);
            (join(&damaged), i.min(j))
        }
    }
}

fn join(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Chained detection: UTF-8, JSONL parse, then chain + seal verification.
/// Returns the 0-based record position flagged, or `None` if undetected.
fn chained_flag(bytes: &[u8]) -> Option<usize> {
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => {
            let line = bytes[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            return Some(line);
        }
    };
    match Ledger::from_jsonl(text) {
        Err(LedgerError::Parse { line, .. }) => Some(line - 1),
        Err(_) => Some(0),
        Ok(ledger) => ledger.verify().err().map(|c| c.seq as usize),
    }
}

/// Baseline detection on an unchained export: only syntactic damage shows.
fn baseline_detected(bytes: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return true;
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .any(|l| serde_json::from_str::<Value>(l).is_err())
}

/// Run experiment E9: record the canonical scenario, export the ledger,
/// apply `attacks` seeded corruptions (cycling mutation / deletion /
/// truncation / reordering) and measure how many the chain catches and how
/// precisely, against a plain unchained audit export as baseline.
pub fn run_e9(attacks: usize, seed: u64) -> E9Report {
    let spec = RecordSpec {
        seed,
        ..RecordSpec::default()
    };
    let recorded = run_recorded(&spec);
    let jsonl = recorded.ledger.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();

    // The unchained baseline: same events, no seq/digest — what the
    // in-memory AuditLog would give you if simply dumped to disk.
    let baseline_lines: Vec<String> = recorded
        .ledger
        .records()
        .iter()
        .map(|r| {
            let value = Value::Map(vec![
                ("tick".into(), Value::UInt(r.tick)),
                ("event".into(), Serialize::to_value(&r.event)),
            ]);
            serde_json::to_string(&value).expect("event serialization cannot fail")
        })
        .collect();
    let baseline_refs: Vec<&str> = baseline_lines.iter().map(String::as_str).collect();

    let tamper_attempts = recorded
        .ledger
        .records()
        .iter()
        .filter(|r| matches!(r.event, RunEvent::TamperAttempt { .. }))
        .count() as u64;

    let mut detected = 0u64;
    let mut baseline_hits = 0u64;
    let mut offset_sum = 0u64;
    for k in 0..attacks {
        // Two rngs drawing identical corruption choices, so the chained and
        // baseline exports face the same attack.
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0xE9 + k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut baseline_rng = rng.clone();
        let (damaged, site) = corrupt(&lines, &mut rng, k);
        if let Some(flagged) = chained_flag(&damaged) {
            detected += 1;
            offset_sum += flagged.abs_diff(site) as u64;
        }
        let (baseline_damaged, _) = corrupt(&baseline_refs, &mut baseline_rng, k);
        if baseline_detected(&baseline_damaged) {
            baseline_hits += 1;
        }
    }

    E9Report {
        attacks: attacks as u64,
        detected,
        detection_rate: detected as f64 / (attacks as f64).max(1.0),
        baseline_detected: baseline_hits,
        baseline_detection_rate: baseline_hits as f64 / (attacks as f64).max(1.0),
        mean_detection_offset: offset_sum as f64 / (detected as f64).max(1.0),
        ledger_records: recorded.ledger.len() as u64,
        tamper_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_is_deterministic() {
        let spec = RecordSpec::default();
        let a = run_recorded(&spec);
        let b = run_recorded(&spec);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.ledger.verify().is_ok());
        assert!(
            a.ledger.len() > spec.ticks as usize,
            "events outnumber ticks"
        );
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        let seq = run_recorded(&RecordSpec::default());
        for threads in [0, 2, 4, 8] {
            let par = run_recorded(&RecordSpec {
                threads,
                ..RecordSpec::default()
            });
            assert_eq!(seq.ledger, par.ledger, "threads={threads}");
            assert_eq!(seq.metrics, par.metrics, "threads={threads}");
        }
    }

    #[test]
    fn verdict_cache_leaves_the_ledger_identical() {
        let plain = run_recorded(&RecordSpec::default());
        let cached = run_recorded(&RecordSpec {
            cache: true,
            ..RecordSpec::default()
        });
        assert_eq!(plain.ledger, cached.ledger);
        assert_eq!(plain.metrics, cached.metrics);
    }

    #[test]
    fn recorded_run_replays_faithfully_from_origin() {
        let spec = RecordSpec::default();
        let recorded = run_recorded(&spec);
        // Round-trip through JSONL first: disk is the interesting path.
        let reloaded = Ledger::from_jsonl(&recorded.ledger.to_jsonl()).unwrap();
        assert!(reloaded.verify().is_ok());
        let outcome = replay_recorded(&spec, &reloaded, ReplayStart::Origin).unwrap();
        assert!(outcome.report.is_faithful(), "{}", outcome.report);
        assert_eq!(outcome.metrics, recorded.metrics);
        assert_eq!(outcome.score, recorded.score);
    }

    #[test]
    fn recorded_run_replays_faithfully_from_snapshot() {
        let spec = RecordSpec::default();
        let recorded = run_recorded(&spec);
        assert!(
            recorded.ledger.snapshots().count() >= 2,
            "cadence yields mid-run frames"
        );
        let reloaded = Ledger::from_jsonl(&recorded.ledger.to_jsonl()).unwrap();
        let outcome = replay_recorded(&spec, &reloaded, ReplayStart::LatestSnapshot).unwrap();
        assert!(outcome.report.is_faithful(), "{}", outcome.report);
        assert_eq!(outcome.metrics, recorded.metrics);
        assert_eq!(outcome.score, recorded.score);
    }

    #[test]
    fn replay_under_wrong_seed_diverges() {
        let spec = RecordSpec::default();
        let recorded = run_recorded(&spec);
        let wrong = RecordSpec {
            seed: spec.seed + 1,
            ..spec
        };
        let outcome = replay_recorded(&wrong, &recorded.ledger, ReplayStart::Origin).unwrap();
        assert!(
            !outcome.report.is_faithful(),
            "a different seed must diverge"
        );
    }

    #[test]
    fn e9_shape_chain_catches_everything_baseline_does_not() {
        let report = run_e9(40, 7);
        assert_eq!(report.detection_rate, 1.0, "{report:?}");
        assert!(
            report.baseline_detection_rate < report.detection_rate,
            "{report:?}"
        );
        assert_eq!(
            report.mean_detection_offset, 0.0,
            "verify localizes exactly: {report:?}"
        );
        assert!(report.tamper_attempts > 0);
    }
}
