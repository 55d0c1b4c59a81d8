//! Experiment E16: kill-and-resume fault injection for the serving layer.
//!
//! The crash-tolerance claim is strong: SIGKILL the decision service at
//! *any* point — a batch boundary, or halfway through writing a segment
//! file to disk — restore from the latest valid checkpoint, replay the
//! suffix, and the resumed run's decision stream and sealed ledger are
//! **bit-identical** to an uninterrupted run, at any worker thread count.
//! This module is the harness that sweeps that claim.
//!
//! The kill is simulated, not delivered: a [`SimDisk`] snapshots the
//! recorder's segment files after every tick, and a crash at tick `t` (or
//! at byte offset `b` inside the last file) is modeled by handing recovery
//! exactly the bytes a killed process would have left behind. That keeps
//! the sweep deterministic and lets one golden run serve hundreds of
//! crash points.
//!
//! Recovery ([`recover_segments`]) walks the on-disk segments newest
//! first:
//!
//! 1. If the newest segment's header — its anchor frame plus the
//!    checkpoint snapshot that follows it — parses and its chain
//!    verifies, resume from that checkpoint: everything recorded after
//!    the header is discarded and regenerated by deterministic replay.
//! 2. If the header itself is torn (the crash hit the anchor write),
//!    fall back to the *previous* segment's header: replay regenerates
//!    the discarded seal, the rotation, and the torn segment
//!    byte-identically.
//! 3. If the fallback bottoms out at segment 0 (whose header is the run
//!    header, with no checkpoint), restart the run from tick 1 — still
//!    bit-identical, just with nothing saved.
//!
//! A header whose chain verifies but whose checkpoint is in another
//! format than [`CHECKPOINT_FORMAT`](crate::CHECKPOINT_FORMAT) (say, a
//! format-4 one written by an older build, whose rows were objects with
//! decimal values) is not damage, so it does not step down the ladder:
//! recovery refuses with [`CheckpointError::Format`] instead of silently
//! restarting the run from tick 1. A segment of an older ledger format
//! (format 1, whose digests covered each record's JSON text) is refused the
//! same way, with [`CheckpointError::LedgerFormat`]: its chain does not
//! verify under this build's digests, but it is not damage either.
//!
//! Recovery work is bounded by the rotation budget: a crash never forces
//! replay of more than roughly two segments' worth of records (asserted
//! per crash point by the `e16` entry of the `apdm::experiments` registry,
//! `apdm-experiments run e16`).
//!
//! Swept: one cell per rotation budget; per cell: every `crash_stride`-th
//! tick boundary, plus torn-write byte offsets through segment-head frames
//! at rotation ticks and through the final record line elsewhere. Resumed
//! services cycle worker thread counts {1, 3, 8} and the memo cache on
//! and off (the golden run caches) to prove the checkpoint is portable
//! across both: neither is decision state.

use std::collections::BTreeMap;
use std::time::Instant;

use apdm_ledger::{Ledger, RotationPolicy, RunEvent, SegmentedLedger, SegmentedRecorder};
use apdm_par::{par_map, resolve_threads};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointError, ServeCheckpoint};
use crate::drive::{run_to_completion, Completion};
use crate::request::Decision;
use crate::service::{PolicyDecisionService, ServeConfig, ServeStats};
use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};

/// The simulated durable store: one JSONL file per ledger segment, keyed
/// by segment index. [`persist`](SimDisk::persist) mirrors the recorder's
/// retained segments exactly (pruned segments disappear, as retention
/// deletes their files), and the crash harness tears it the way a real
/// kill would: whole missing suffixes and half-written final lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDisk {
    files: BTreeMap<u64, String>,
    /// Files below this segment index hold sealed segments, which never
    /// change: [`persist`](SimDisk::persist) writes each of them once.
    sealed_through: u64,
}

impl SimDisk {
    /// Mirror the recorder's current retained state: every sealed segment
    /// plus the open one, pruned files removed. Successive calls track one
    /// recorder as it runs: a sealed segment is written once, when it is
    /// first seen sealed, and only the open segment is rewritten.
    pub fn persist(&mut self, rec: &SegmentedRecorder) {
        let first = rec.pruned();
        let open = rec.segment_index();
        self.files
            .retain(|&index, _| (first..=open).contains(&index));
        for (index, seg) in (first..).zip(rec.sealed()) {
            if index >= self.sealed_through {
                self.files.insert(index, seg.to_jsonl());
            }
        }
        self.sealed_through = open;
        let text = self.files.entry(open).or_default();
        text.clear();
        rec.current().write_jsonl(text);
    }

    /// The stored segment files, oldest first.
    pub fn files(&self) -> &BTreeMap<u64, String> {
        &self.files
    }

    /// Insert (or replace) one segment file's contents — how the CLI
    /// rebuilds a disk image from real `.segNNNN.jsonl` files.
    pub fn insert(&mut self, segment: u64, text: String) {
        self.files.insert(segment, text);
    }

    /// Byte length of the newest segment file.
    pub fn last_len(&self) -> usize {
        self.files.values().next_back().map_or(0, String::len)
    }

    /// Records (non-empty lines) in the newest segment file.
    pub fn last_records(&self) -> usize {
        self.files
            .values()
            .next_back()
            .map_or(0, |t| t.lines().filter(|l| !l.trim().is_empty()).count())
    }

    /// Simulate a torn write: keep only the first `bytes` bytes of the
    /// newest segment file (clamped to a UTF-8 boundary, as JSONL is
    /// ASCII here that is the byte offset itself).
    pub fn tear_last(&mut self, bytes: usize) {
        if let Some(text) = self.files.values_mut().next_back() {
            let mut cut = bytes.min(text.len());
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
    }

    /// Total records (non-empty lines) across all stored files.
    fn total_records(&self) -> u64 {
        self.files
            .values()
            .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count() as u64)
            .sum()
    }
}

/// What [`recover_segments`] salvaged from a crashed process's disk.
#[derive(Debug, Clone)]
pub enum Recovery {
    /// A usable checkpoint was found: resume from it.
    Resume {
        /// The decision-state checkpoint to restore the service from;
        /// replay resumes at `checkpoint.tick + 1`. Boxed: it is by far
        /// the enum's largest field.
        checkpoint: Box<ServeCheckpoint>,
        /// Cleanly parsed retained sealed segments, oldest first.
        sealed: Vec<Ledger>,
        /// The open segment, truncated to its two header frames.
        current: Ledger,
        /// Records on disk that recovery dropped (deterministic replay
        /// regenerates every one of them byte-identically).
        discarded: u64,
    },
    /// No checkpoint survived (the run never rotated, or every anchor was
    /// torn): restart from tick 1.
    Restart {
        /// Records on disk that recovery dropped.
        discarded: u64,
    },
}

impl Recovery {
    /// Records recovery discarded — the replay work bound's numerator.
    pub fn discarded(&self) -> u64 {
        match self {
            Recovery::Resume { discarded, .. } | Recovery::Restart { discarded } => *discarded,
        }
    }
}

/// Parse a segment file's header — its [`RunEvent::SegmentOpened`] anchor
/// plus the [`RunEvent::Snapshot`] checkpoint that follows — tolerating a
/// torn final line anywhere later in the file. Returns the decoded
/// checkpoint and a ledger holding exactly the two header frames (their
/// digests re-chain identically, so a recorder resumed from it emits the
/// same bytes the crashed process would have). `Ok(None)` when the header
/// is torn, malformed, or belongs to segment 0 (whose header is the run
/// header, which carries no checkpoint).
///
/// # Errors
///
/// [`CheckpointError::Format`] when the header's chain verifies but its
/// checkpoint is in a format this build does not read;
/// [`CheckpointError::LedgerFormat`] when the segment is an older ledger
/// format, whose chain this build does not verify.
pub fn segment_header(text: &str) -> Result<Option<(ServeCheckpoint, Ledger)>, CheckpointError> {
    let Ok((ledger, _torn)) = Ledger::from_jsonl_recovering(text) else {
        return Ok(None);
    };
    if ledger.len() < 2 {
        return Ok(None);
    }
    if let Err(corruption) = ledger.verify_chain() {
        return match corruption.older_format {
            Some(found) => Err(CheckpointError::LedgerFormat { found }),
            None => Ok(None),
        };
    }
    let (RunEvent::SegmentOpened { .. }, RunEvent::Snapshot(frame)) =
        (&ledger.records()[0].event, &ledger.records()[1].event)
    else {
        return Ok(None);
    };
    let checkpoint = match ServeCheckpoint::from_frame(frame) {
        Ok(checkpoint) => checkpoint,
        Err(e @ CheckpointError::Format { .. }) => return Err(e),
        Err(_) => return Ok(None),
    };
    let mut header = Ledger::new();
    for record in ledger.records().iter().take(2) {
        header.append(record.tick, record.event.clone());
    }
    Ok(Some((checkpoint, header)))
}

/// Walk a crashed process's segment files newest-first and salvage the
/// most recent usable checkpoint (see the module docs for the fallback
/// ladder). Sealed predecessors of the chosen segment must parse cleanly
/// — a kill tears at most the newest file, so anything older that fails
/// to parse is treated as unrecoverable and the run restarts.
///
/// # Errors
///
/// A verified header holding a checkpoint of another format (see
/// [`segment_header`]) stops the walk: recovery refuses rather than
/// restarting over it.
pub fn recover_segments(disk: &SimDisk) -> Result<Recovery, CheckpointError> {
    let total = disk.total_records();
    let files: Vec<(&u64, &String)> = disk.files().iter().collect();
    for pos in (0..files.len()).rev() {
        let (&index, text) = files[pos];
        if index == 0 {
            break;
        }
        let Some((checkpoint, current)) = segment_header(text)? else {
            // Torn anchor: fall back to the predecessor's header.
            continue;
        };
        let mut sealed = Vec::with_capacity(pos);
        let mut parsed_ok = true;
        for &(_, earlier) in &files[..pos] {
            match Ledger::from_jsonl(earlier) {
                Ok(seg) => sealed.push(seg),
                Err(_) => {
                    parsed_ok = false;
                    break;
                }
            }
        }
        if !parsed_ok {
            break;
        }
        let retained: u64 = sealed.iter().map(|s| s.len() as u64).sum::<u64>() + 2;
        return Ok(Recovery::Resume {
            checkpoint: Box::new(checkpoint),
            sealed,
            current,
            discarded: total.saturating_sub(retained),
        });
    }
    Ok(Recovery::Restart { discarded: total })
}

/// Sweep configuration for experiment E16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16Config {
    /// Master seed (workload streams derive from it and the budget).
    pub seed: u64,
    /// Offered load (requests per tick).
    pub per_tick: usize,
    /// Ticks during which the generator offers requests.
    pub arrival_ticks: u64,
    /// Device population.
    pub devices: u64,
    /// Tenants multiplexed onto the service.
    pub tenants: u32,
    /// Shards (= guard stacks) per service instance.
    pub shards: usize,
    /// Zipf exponent of the device draw (skew keeps backpressure busy, so
    /// deferral state is exercised across the crash).
    pub zipf: f64,
    /// Rotation budgets to sweep (records per segment).
    pub budgets: Vec<usize>,
    /// Sealed segments retained by rotation (0 = keep everything).
    pub keep_sealed: usize,
    /// Test every this-many-th tick as a kill point.
    pub crash_stride: u64,
    /// Byte stride of the torn-write sweep through segment files.
    pub torn_stride: usize,
    /// Maximum torn-write cuts sampled per rotation-tick disk image. Cuts
    /// are spread evenly across the newest file, the first landing inside
    /// the anchor frame itself; the cap matters because checkpoint frames
    /// grow with the admission backlog, and an unbounded per-byte sweep
    /// would quadratically dominate the cell. (The genuinely every-byte-offset
    /// boundary sweep lives in `apdm-ledger`'s property tests.)
    pub torn_cuts: usize,
    /// Threads for the cell fan-out (0 = auto); resumed services cycle
    /// their own worker counts through {1, 3, 8} regardless.
    pub threads: usize,
    /// Watchdog budget in ticks per run.
    pub max_ticks: u64,
}

impl Default for E16Config {
    fn default() -> Self {
        E16Config {
            seed: 42,
            per_tick: 8,
            arrival_ticks: 80,
            devices: 64,
            tenants: 4,
            shards: 8,
            zipf: 0.8,
            budgets: vec![16, 64],
            keep_sealed: 3,
            crash_stride: 2,
            torn_stride: 13,
            torn_cuts: 12,
            threads: 0,
            max_ticks: 4_000,
        }
    }
}

impl E16Config {
    /// A fast configuration for CI smoke runs.
    pub fn smoke() -> Self {
        E16Config {
            arrival_ticks: 32,
            budgets: vec![24],
            crash_stride: 4,
            torn_stride: 41,
            torn_cuts: 6,
            max_ticks: 2_000,
            ..E16Config::default()
        }
    }

    /// The workload driving one budget cell. Depends only on
    /// `(seed, budget)` — never on the worker thread count — so a resumed
    /// run at any thread count replays the identical request stream and
    /// must seal byte-identical ledgers.
    pub fn spec(&self, budget: usize) -> WorkloadSpec {
        WorkloadSpec {
            seed: self.seed ^ (budget as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            per_tick: self.per_tick,
            arrival_ticks: self.arrival_ticks,
            devices: self.devices,
            tenants: self.tenants,
            zipf: self.zipf,
            ..WorkloadSpec::default()
        }
    }

    /// The service configuration of one cell (worker threads aside).
    pub fn serve_config(&self, budget: usize, threads: usize) -> ServeConfig {
        ServeConfig {
            seed: self.spec(budget).seed,
            threads,
            shards: self.shards,
            cache: true,
            backpressure: true,
            rotation: Some(RotationPolicy {
                max_records: budget,
                max_bytes: 0,
                keep_sealed: self.keep_sealed,
            }),
            ..ServeConfig::default()
        }
    }

    /// Recovery-work bound asserted per crash point: recovery may discard
    /// (and replay must regenerate) at most two segments' worth of
    /// records plus one tick's in-flight slack — independent of run
    /// length, which is the point of rotation.
    pub fn discard_bound(&self, budget: usize) -> u64 {
        2 * (budget as u64
            + self.per_tick as u64
            + ServeConfig::default().admission.capacity as u64)
            + 8
    }

    /// The ledger name of one budget cell — shared by golden and resumed
    /// runs, and deliberately free of thread/crash parameters.
    pub fn run_name(&self, budget: usize) -> String {
        format!("e16/b{budget}")
    }

    /// Run one budget cell uninterrupted from tick 1 on a fresh service
    /// at `threads` workers, with the memo cache on or off (neither
    /// changes a decision or a ledger byte), and seal its ledger.
    /// `after_tick` observes the recorder after every tick, as in
    /// [`run_to_completion`]. Returns the run, the sealed ledger and the
    /// final counters.
    ///
    /// # Panics
    ///
    /// When the cell does not drain by `max_ticks`.
    pub fn run_uninterrupted(
        &self,
        budget: usize,
        threads: usize,
        cache: bool,
        after_tick: impl FnMut(u64, &SegmentedRecorder),
    ) -> (Completion, SegmentedLedger, ServeStats) {
        let svc = PolicyDecisionService::new(
            ServeConfig {
                cache,
                ..self.serve_config(budget, threads)
            },
            standard_stacks(self.shards, cache),
            WorkloadOracle,
            &self.run_name(budget),
        );
        let gen = WorkloadGen::new(self.spec(budget));
        drain_and_seal(svc, gen, 1, self.max_ticks, after_tick)
    }
}

/// Drive `svc` from tick `start` to completion and seal its ledger.
///
/// # Panics
///
/// When the run does not drain by `max_ticks`: every E16 configuration
/// drains long before its bound.
fn drain_and_seal(
    mut svc: PolicyDecisionService<WorkloadOracle>,
    mut gen: WorkloadGen,
    start: u64,
    max_ticks: u64,
    after_tick: impl FnMut(u64, &SegmentedRecorder),
) -> (Completion, SegmentedLedger, ServeStats) {
    let run = run_to_completion(&mut svc, &mut gen, start, max_ticks, after_tick);
    if let Some(trip) = run.watchdog {
        panic!("E16 cell did not drain: {trip}");
    }
    let (ledger, stats) = svc.finish_segmented(run.final_tick);
    (run, ledger, stats)
}

/// Measurements of one E16 cell (one rotation budget).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16CellReport {
    /// Rotation budget (records per segment).
    pub budget: usize,
    /// Tick-boundary kill points tested.
    pub crash_points: u64,
    /// Torn-write byte-offset kill points tested.
    pub torn_points: u64,
    /// Crash points whose resumed run diverged from golden — must be 0.
    pub divergences: u64,
    /// Resumed ledgers that failed verification — must be 0.
    pub verify_failures: u64,
    /// Crash points whose discarded-record count exceeded the bound —
    /// must be 0.
    pub unbounded_recoveries: u64,
    /// Largest discarded-record count over all crash points.
    pub max_discarded: u64,
    /// The bound `max_discarded` is held to.
    pub discard_bound: u64,
    /// Human-readable locator of the first divergence, if any.
    pub first_divergence: Option<String>,
    /// Segments in the golden run's sealed ledger.
    pub segments: u64,
    /// Segments pruned by retention in the golden run.
    pub pruned: u64,
    /// Total records across the golden run's retained segments.
    pub ledger_records: u64,
    /// Head digest of the golden run's final segment.
    pub final_head: u64,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests evaluated by a guard stack.
    pub decided: u64,
    /// Requests refused (all reasons).
    pub shed: u64,
    /// Wall-clock for the cell. Not part of the determinism contract.
    pub wall_ns: u64,
}

/// The full E16 sweep report (serialized to `BENCH_e16_crash.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E16Report {
    /// The sweep configuration.
    pub config: E16Config,
    /// One report per budget, in sweep order.
    pub cells: Vec<E16CellReport>,
    /// Wall-clock for the whole sweep. Not deterministic.
    pub wall_ns: u64,
}

impl E16Report {
    /// A copy with every wall-clock field zeroed: two sweeps over the
    /// same config must compare equal under this projection.
    pub fn normalized(&self) -> E16Report {
        let mut report = self.clone();
        report.wall_ns = 0;
        for cell in &mut report.cells {
            cell.wall_ns = 0;
        }
        report
    }
}

/// The golden (uninterrupted) run of one cell, with its per-tick disk
/// snapshots — the crash points.
struct GoldenRun {
    decisions: Vec<Decision>,
    segments: Vec<(u64, String)>,
    ledger: SegmentedLedger,
    snapshots: Vec<(u64, SimDisk)>,
    stats: ServeStats,
}

fn golden_run(cfg: &E16Config, budget: usize) -> GoldenRun {
    let mut disk = SimDisk::default();
    let mut snapshots = Vec::new();
    let (run, ledger, stats) = cfg.run_uninterrupted(budget, 1, true, |now, rec| {
        disk.persist(rec);
        snapshots.push((now, disk.clone()));
    });
    ledger.verify().expect("golden ledger must verify");
    GoldenRun {
        decisions: run.decisions,
        segments: ledger.to_jsonl_segments(),
        ledger,
        snapshots,
        stats,
    }
}

/// Recover from `disk`, replay to completion at `threads` workers with the
/// memo cache on or off (`cache`; neither is constrained by the
/// checkpoint), and return the resumed run's sealed segments, its full
/// regenerated decision stream, the tick replay started at (1 when
/// recovery had to restart), and the discarded-record count.
///
/// # Errors
///
/// When recovery refuses the newest verified checkpoint (another format,
/// see [`recover_segments`]) or the checkpoint does not fit the cell's
/// configuration (see [`PolicyDecisionService::restore`]).
pub fn resume_run(
    cfg: &E16Config,
    budget: usize,
    threads: usize,
    cache: bool,
    disk: &SimDisk,
) -> Result<(SegmentedLedger, Vec<Decision>, u64, u64), CheckpointError> {
    Ok(match recover_segments(disk)? {
        Recovery::Resume {
            checkpoint,
            sealed,
            current,
            discarded,
        } => {
            let serve_cfg = ServeConfig {
                cache,
                ..cfg.serve_config(budget, threads)
            };
            let policy = serve_cfg.rotation.expect("E16 always rotates");
            let recorder = SegmentedRecorder::resume(policy, sealed, current);
            let svc = PolicyDecisionService::restore(
                serve_cfg,
                standard_stacks(cfg.shards, cache),
                WorkloadOracle,
                &checkpoint,
                recorder,
            )?;
            let mut gen = WorkloadGen::new(cfg.spec(budget));
            // The workload stream is a pure function of consecutive tick
            // draws: burn the prefix the crashed process already consumed.
            for t in 1..=checkpoint.tick {
                let _ = gen.tick_requests(t);
            }
            let start = checkpoint.tick + 1;
            let (run, ledger, _) = drain_and_seal(svc, gen, start, cfg.max_ticks, |_, _| {});
            (ledger, run.decisions, start, discarded)
        }
        Recovery::Restart { discarded } => {
            let (run, ledger, _) = cfg.run_uninterrupted(budget, threads, cache, |_, _| {});
            (ledger, run.decisions, 1, discarded)
        }
    })
}

/// Locate the first differing record between golden and resumed segment
/// files, for the report's `first_divergence` field.
fn locate_divergence(golden: &[(u64, String)], resumed: &[(u64, String)]) -> String {
    if golden.len() != resumed.len() {
        return format!(
            "segment count differs: golden {} vs resumed {}",
            golden.len(),
            resumed.len()
        );
    }
    for ((gi, gt), (ri, rt)) in golden.iter().zip(resumed) {
        if gi != ri {
            return format!("segment index differs: golden {gi} vs resumed {ri}");
        }
        if gt != rt {
            let replayer = apdm_ledger::StreamReplayer::from_origin();
            return match replayer.compare_lines(gt.lines(), rt.lines()) {
                Ok(report) if report.divergence.is_some() => format!("segment {gi}: {report}"),
                Ok(_) => format!("segment {gi}: byte-level difference only"),
                Err(e) => format!("segment {gi}: unparseable during diff: {e}"),
            };
        }
    }
    "streams equal (divergence was in decisions)".to_string()
}

/// One crash point's verdict, folded into the cell report.
struct CrashOutcome {
    diverged: Option<String>,
    verify_failed: bool,
    discarded: u64,
}

/// Resume from `disk` and compare with `golden`. The resumed service runs
/// with the `setting`-th worker count and memo cache setting: 3 and 2 are
/// coprime, so any six consecutive settings cover every thread count of
/// {1, 3, 8} with the cache on and off.
fn check_crash_point(
    cfg: &E16Config,
    budget: usize,
    setting: usize,
    disk: &SimDisk,
    golden: &GoldenRun,
) -> CrashOutcome {
    let (threads, cache) = ([1, 3, 8][setting % 3], setting % 2 == 1);
    let (ledger, decisions, start, discarded) = match resume_run(cfg, budget, threads, cache, disk)
    {
        Ok(resumed) => resumed,
        Err(e) => {
            return CrashOutcome {
                diverged: Some(format!("resume refused: {e}")),
                verify_failed: false,
                discarded: 0,
            }
        }
    };
    let verify_failed = ledger.verify().is_err();
    let resumed_segments = ledger.to_jsonl_segments();
    let mut diverged = None;
    if resumed_segments != golden.segments {
        diverged = Some(locate_divergence(&golden.segments, &resumed_segments));
    } else {
        let golden_suffix: Vec<&Decision> = golden
            .decisions
            .iter()
            .filter(|d| d.decided_at >= start)
            .collect();
        let resumed: Vec<&Decision> = decisions.iter().collect();
        if golden_suffix != resumed {
            diverged = Some(format!(
                "decision suffix from tick {start} differs: golden {} vs resumed {} decisions",
                golden_suffix.len(),
                resumed.len()
            ));
        }
    }
    CrashOutcome {
        diverged,
        verify_failed,
        discarded,
    }
}

/// Run one E16 cell: one golden run, then every kill point swept against
/// it. Returns the report plus the golden sealed segments (the CLI writes
/// them out for the byte-for-byte CI comparison).
pub fn run_e16_cell(cfg: &E16Config, budget: usize) -> (E16CellReport, SegmentedLedger) {
    let started = Instant::now();
    let golden = golden_run(cfg, budget);
    let spec = cfg.spec(budget);
    let bound = cfg.discard_bound(budget);

    let mut outcomes: Vec<CrashOutcome> = Vec::new();
    let mut crash_points = 0u64;
    let mut torn_points = 0u64;

    // Kill at every crash_stride-th tick boundary (always including the
    // very first and last persisted ticks).
    for (i, (tick, disk)) in golden.snapshots.iter().enumerate() {
        let last = i + 1 == golden.snapshots.len();
        if !last && i != 0 && !tick.is_multiple_of(cfg.crash_stride) {
            continue;
        }
        crash_points += 1;
        outcomes.push(check_crash_point(cfg, budget, i, disk, &golden));
    }

    // Kill mid-write: at rotation ticks the newest file holds exactly the
    // two header frames — tear it at every torn_stride-th byte so the
    // anchor itself is the casualty and recovery must fall back a
    // segment. Elsewhere, tear into the final record line (a half-written
    // decision record).
    for (i, (_, disk)) in golden.snapshots.iter().enumerate() {
        let len = disk.last_len();
        if len == 0 {
            continue;
        }
        let offsets: Vec<usize> = if disk.last_records() == 2 {
            let stride = (len / cfg.torn_cuts.max(1)).max(cfg.torn_stride.max(1));
            (1..len).step_by(stride).collect()
        } else if i.is_multiple_of(3) {
            // Sampled mid-segment tears: clip the tail of the last line.
            let tail_start = disk
                .files()
                .values()
                .next_back()
                .map_or(0, |t| t.trim_end().rfind('\n').map_or(0, |p| p + 1));
            (tail_start + 1..len)
                .step_by(cfg.torn_stride.max(1))
                .take(2)
                .collect()
        } else {
            Vec::new()
        };
        for cut in offsets {
            torn_points += 1;
            let mut torn = disk.clone();
            torn.tear_last(cut);
            outcomes.push(check_crash_point(cfg, budget, cut, &torn, &golden));
        }
    }

    let divergences = outcomes.iter().filter(|o| o.diverged.is_some()).count() as u64;
    let verify_failures = outcomes.iter().filter(|o| o.verify_failed).count() as u64;
    let max_discarded = outcomes.iter().map(|o| o.discarded).max().unwrap_or(0);
    let unbounded_recoveries = outcomes.iter().filter(|o| o.discarded > bound).count() as u64;
    let first_divergence = outcomes.iter().find_map(|o| o.diverged.clone());

    let report = E16CellReport {
        budget,
        crash_points,
        torn_points,
        divergences,
        verify_failures,
        unbounded_recoveries,
        max_discarded,
        discard_bound: bound,
        first_divergence,
        segments: golden.ledger.segments().len() as u64,
        pruned: golden.ledger.pruned_count(),
        ledger_records: golden.ledger.total_records() as u64,
        final_head: golden.ledger.head_digest(),
        offered: spec.arrival_ticks * spec.per_tick as u64,
        decided: golden.stats.decided,
        shed: golden.stats.shed_total(),
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    (report, golden.ledger)
}

/// Run the full E16 sweep: one cell per budget, fanned out across the
/// worker pool with order-preserving collection.
pub fn run_e16(cfg: &E16Config) -> E16Report {
    let started = Instant::now();
    let threads = resolve_threads(cfg.threads);
    let cells = par_map(threads, cfg.budgets.clone(), |_, budget| {
        run_e16_cell(cfg, budget).0
    });
    E16Report {
        config: cfg.clone(),
        cells,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E16Config {
        E16Config {
            arrival_ticks: 18,
            per_tick: 6,
            budgets: vec![12],
            keep_sealed: 2,
            crash_stride: 5,
            torn_stride: 97,
            max_ticks: 1_000,
            ..E16Config::default()
        }
    }

    #[test]
    fn every_swept_crash_point_resumes_bit_identically() {
        let cfg = tiny();
        let (cell, ledger) = run_e16_cell(&cfg, 12);
        assert!(cell.crash_points > 0);
        assert!(cell.torn_points > 0, "rotation ticks must be swept");
        assert_eq!(cell.divergences, 0, "{:?}", cell.first_divergence);
        assert_eq!(cell.verify_failures, 0);
        assert_eq!(cell.unbounded_recoveries, 0);
        assert!(cell.segments > 1, "budget 12 must rotate");
        ledger.verify().unwrap();
    }

    #[test]
    fn incremental_persist_matches_a_full_mirror_every_tick() {
        let cfg = E16Config::smoke();
        let budget = cfg.budgets[0];
        let mut disk = SimDisk::default();
        let (mut ticks, mut pruned) = (0, 0);
        cfg.run_uninterrupted(budget, 1, true, |now, rec| {
            disk.persist(rec);
            let mut mirror = BTreeMap::new();
            for (i, seg) in rec.sealed().iter().enumerate() {
                mirror.insert(rec.pruned() + i as u64, seg.to_jsonl());
            }
            mirror.insert(rec.segment_index(), rec.current().to_jsonl());
            assert_eq!(disk.files(), &mirror, "tick {now}");
            ticks += 1;
            pruned = rec.pruned();
        });
        assert!(ticks > 0);
        assert!(pruned > 0, "retention must prune files during the cell");
    }

    #[test]
    fn golden_ledger_is_scheduling_invariant() {
        // The golden run is driven on one worker; an uninterrupted run on
        // eight workers, under another virtual schedule, seals the same
        // segment bytes.
        let cfg = tiny();
        let golden = golden_run(&cfg, 12);
        let (run, ledger, _) = cfg.run_uninterrupted(12, 8, true, |_, _| {});
        assert_eq!(run.decisions, golden.decisions);
        assert_eq!(ledger.to_jsonl_segments(), golden.segments);
    }

    #[test]
    fn resuming_a_cached_golden_run_with_the_cache_off_is_bit_identical() {
        let cfg = tiny();
        let golden = golden_run(&cfg, 12);
        assert!(golden.stats.cache_hits > 0, "the golden run must hit");
        let mut resumed_from_checkpoint = 0;
        for (_, disk) in &golden.snapshots {
            let (ledger, decisions, start, _) =
                resume_run(&cfg, 12, 1, false, disk).expect("a current-format disk");
            assert_eq!(
                ledger.to_jsonl_segments(),
                golden.segments,
                "from tick {start}"
            );
            let suffix: Vec<&Decision> = golden
                .decisions
                .iter()
                .filter(|d| d.decided_at >= start)
                .collect();
            assert_eq!(suffix, decisions.iter().collect::<Vec<_>>());
            resumed_from_checkpoint += usize::from(start > 1);
        }
        assert!(resumed_from_checkpoint > 0, "some crash point must restore");
    }

    #[test]
    fn torn_anchor_falls_back_to_the_previous_segment() {
        let cfg = tiny();
        let golden = golden_run(&cfg, 12);
        // Find a rotation tick: the newest file holds exactly the header.
        let (_, disk) = golden
            .snapshots
            .iter()
            .rev()
            .find(|(_, d)| d.last_records() == 2 && d.files().len() > 1)
            .expect("a rotation tick with a sealed predecessor");
        let last_index = *disk.files().keys().next_back().unwrap();
        let mut torn = disk.clone();
        torn.tear_last(7); // deep inside the anchor frame's first line
        match recover_segments(&torn).expect("a current-format disk") {
            Recovery::Resume { current, .. } => {
                let RunEvent::SegmentOpened { segment, .. } = current.records()[0].event else {
                    panic!("recovered header must be an anchor frame");
                };
                assert_eq!(segment, last_index - 1, "must fall back one segment");
            }
            Recovery::Restart { .. } => panic!("predecessor header was intact"),
        }
        let outcome = check_crash_point(&cfg, 12, 1, &torn, &golden);
        assert!(outcome.diverged.is_none(), "{:?}", outcome.diverged);
        assert!(!outcome.verify_failed);
    }

    #[test]
    fn empty_and_unrotated_disks_restart() {
        assert!(matches!(
            recover_segments(&SimDisk::default()),
            Ok(Recovery::Restart { discarded: 0 })
        ));
        let cfg = tiny();
        let golden = golden_run(&cfg, 12);
        // The first tick's disk holds only segment 0: no checkpoint yet.
        let (_, disk) = &golden.snapshots[0];
        assert_eq!(disk.files().len(), 1);
        let rec = recover_segments(disk).unwrap();
        assert!(matches!(rec, Recovery::Restart { .. }));
        assert!(rec.discarded() > 0);
    }
}
