//! The experiment registry: every experiment of `EXPERIMENTS.md`, defined
//! once.
//!
//! Each [`Experiment`] names its id and title and carries its table
//! configuration (seed [`TABLE_SEED`] unless told otherwise), an optional
//! smaller smoke configuration, the run itself, the table printer and the
//! acceptance predicate — the claims the run must uphold. The
//! `apdm-experiments` CLI (`list`, `run <id|all>`), the `cargo bench
//! --bench experiments` target and `tests/experiments_shape.rs` are all
//! loops over [`EXPERIMENTS`].
//!
//! A failed claim is a [`Outcome::verdict`] error naming it, never a panic,
//! so a sweep over many experiments reports every failure, not only the
//! first.

use std::fs;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::comms::FailMode;
use crate::device::{Actuator, Attributes, Device, DeviceId, DeviceKind, OrgId, Sensor};
use crate::genpolicy::{
    ActionForm, ConditionForm, InteractionGraph, KindSpec, PolicyGenerator, PolicyGrammar,
    PolicyTemplate,
};
use crate::governance::{CouncilGovernor, Integrity, MetaPolicy};
use crate::guards::{GuardStack, PreActionCheck};
use crate::net::{run_e17, E17Config, E17Report};
use crate::policy::{Action, Condition, EcaRule, Event, PolicyEngine};
use crate::serve::{
    run_e13, run_e14, run_e14_mode, run_e15, run_e15_cell, run_e16, run_e16_cell, E13CellReport,
    E13Config, E13Report, E14Config, E14Report, E15Config, E15Report, E16Config, E16Report, Knobs,
    TraceMode,
};
use crate::sim::contagion::{
    run_contagion, run_contagion_on, ContagionArm, ContagionReport, TopologyKind,
};
use crate::sim::degraded::{run_e12, run_e12_cell, E12Config, E12Report};
use crate::sim::faults::{FaultInjector, Pathway};
use crate::sim::recorder::{
    replay_recorded, run_e9, run_recorded, E9Report, RecordSpec, ReplayStart,
};
use crate::sim::runner::*;
use crate::sim::scenario::{
    run_convoy_interception, run_repair_cycle, run_surveillance, RepairReport, SurveillanceReport,
};
use crate::sim::{actions, Fleet, FleetConfig, SkynetScore, World, WorldConfig};
use crate::statespace::grid::Grid2;
use crate::statespace::reach::{can_reach_bad, guarded_reachable, safe_kernel, VonNeumannMoves};
use crate::statespace::{Label, Region, RegionClassifier, StateDelta, StateSchema, VarId};
use crate::telemetry::{self, event, span, Level, RingCollector};

/// The seed every table configuration uses unless told otherwise.
pub const TABLE_SEED: u64 = 42;

/// Run-time knobs that never change an experiment's results.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Worker threads; `None` keeps each configuration's own default
    /// (`0` = one per hardware thread).
    pub threads: Option<usize>,
    /// The guard-verdict memo cache (read by E11).
    pub cache: bool,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            threads: None,
            cache: true,
        }
    }
}

impl Env {
    fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    fn runner(&self) -> ParRunner {
        ParRunner::new(self.threads_or(0))
    }
}

/// Which configuration of an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The `EXPERIMENTS.md` table configuration at this seed.
    Table(u64),
    /// The small configuration the shape tests run.
    Smoke,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The report, as `--json` prints it and `BENCH_*.json` stores it.
    pub report: Value,
    /// `Err` names the first acceptance claim the run broke.
    pub verdict: Result<(), String>,
}

/// A single-cell run of an experiment that writes a file for byte-level
/// comparison (`apdm-experiments run <id> --out <path>`): run the cell at
/// a seed, write its artifact to the path, and return the cell's report.
pub type Artifact = fn(u64, &Env, &str) -> Result<Value, String>;

/// One registry entry.
pub struct Experiment {
    /// Lower-case id: the `EXPERIMENTS.md` heading without its dash.
    pub id: &'static str,
    /// The `BENCH_*.json` file the bench target regenerates, if any.
    pub bench_file: Option<&'static str>,
    /// The `--out` artifact cell, if any.
    pub artifact: Option<Artifact>,
    /// Whether the run reads [`Env::cache`].
    pub reads_cache: bool,
    spec: &'static dyn Run,
}

impl Experiment {
    /// One-line title.
    pub fn title(&self) -> &'static str {
        self.spec.title()
    }

    /// Whether the entry has a smoke configuration.
    pub fn has_smoke(&self) -> bool {
        self.spec.has_smoke()
    }

    /// Run one configuration, print its table to stdout when `table` is
    /// set, and judge the result. `Err` is a run that could not finish.
    pub fn run(&self, scale: Scale, env: &Env, table: bool) -> Result<Outcome, String> {
        self.spec.execute(scale, env, table)
    }
}

/// The registry entry with this id, if any.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The typed parts of an entry.
struct Spec<C, R> {
    title: &'static str,
    config: fn(u64) -> C,
    smoke: Option<fn() -> C>,
    run: fn(&C, &Env) -> Result<R, String>,
    table: fn(&R),
    /// The acceptance predicate; claims that only hold on one
    /// configuration test the [`Scale`] they are bound to.
    check: fn(Scale, &C, &R, &Env) -> Result<(), String>,
}

trait Run: Sync {
    fn title(&self) -> &'static str;
    fn has_smoke(&self) -> bool;
    fn execute(&self, scale: Scale, env: &Env, table: bool) -> Result<Outcome, String>;
}

impl<C, R: Serialize> Run for Spec<C, R> {
    fn title(&self) -> &'static str {
        self.title
    }

    fn has_smoke(&self) -> bool {
        self.smoke.is_some()
    }

    fn execute(&self, scale: Scale, env: &Env, table: bool) -> Result<Outcome, String> {
        let cfg = match (scale, self.smoke) {
            (Scale::Table(seed), _) => (self.config)(seed),
            (Scale::Smoke, Some(smoke)) => smoke(),
            (Scale::Smoke, None) => return Err("no smoke configuration".into()),
        };
        let report = (self.run)(&cfg, env)?;
        if table {
            (self.table)(&report);
        }
        let verdict = (self.check)(scale, &cfg, &report, env);
        let report = serde_json::to_value(&report).map_err(|e| format!("report: {e}"))?;
        Ok(Outcome { report, verdict })
    }
}

const fn entry(id: &'static str, spec: &'static dyn Run) -> Experiment {
    Experiment {
        id,
        bench_file: None,
        artifact: None,
        reads_cache: false,
        spec,
    }
}

/// Return `Err(message)` from an acceptance predicate unless `cond` holds;
/// without a message, the condition's source text names the claim.
macro_rules! ensure {
    ($cond:expr) => {
        ensure!($cond, "`{}` does not hold", stringify!($cond))
    };
    ($cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    }};
}

/// The predicate of an experiment whose table states no checked claim.
fn no_claims<C, R>(_: Scale, _: &C, _: &R, _: &Env) -> Result<(), String> {
    Ok(())
}

/// Median wall time of one call of `f`, in nanoseconds, over `samples`
/// timed batches of `iters` calls each.
fn median_ns<T>(samples: usize, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Every `(point, arm)` pair, points outermost.
fn cross<P: Copy, A: Copy>(points: &[P], arms: &[A]) -> Vec<(P, A)> {
    points
        .iter()
        .flat_map(|&p| arms.iter().map(move |&a| (p, a)))
        .collect()
}

/// `Some(t)` as `t`, `None` as `never`.
fn tick_or_never(tick: Option<u64>) -> String {
    tick.map_or_else(|| "never".into(), |t| t.to_string())
}

/// Every experiment, in `EXPERIMENTS.md` order.
pub static EXPERIMENTS: &[Experiment] = &[
    entry("f1", &F1),
    entry("f2", &F2),
    entry("f3", &F3),
    entry("e1", &E1),
    entry("e2", &E2),
    entry("e2d", &E2D),
    entry("e3", &E3),
    entry("e4", &E4),
    entry("e5", &E5),
    entry("e5n", &E5N),
    entry("e6", &E6),
    entry("e7", &E7),
    entry("e8", &E8),
    entry("a1", &A1),
    entry("a2", &A2),
    entry("a3", &A3),
    entry("e9", &E9),
    entry("g1", &G1),
    entry("e10", &E10),
    Experiment {
        bench_file: Some("BENCH_e11_parallel.json"),
        reads_cache: true,
        ..entry("e11", &E11)
    },
    Experiment {
        bench_file: Some("BENCH_e12_comms.json"),
        artifact: Some(e12_artifact),
        ..entry("e12", &E12)
    },
    Experiment {
        bench_file: Some("BENCH_e13_serve.json"),
        ..entry("e13", &E13)
    },
    Experiment {
        bench_file: Some("BENCH_e14_tracing.json"),
        artifact: Some(e14_artifact),
        ..entry("e14", &E14)
    },
    Experiment {
        bench_file: Some("BENCH_e15_skew.json"),
        artifact: Some(e15_artifact),
        ..entry("e15", &E15)
    },
    Experiment {
        bench_file: Some("BENCH_e16_crash.json"),
        artifact: Some(e16_artifact),
        ..entry("e16", &E16)
    },
    Experiment {
        bench_file: Some("BENCH_e17_net.json"),
        ..entry("e17", &E17)
    },
];

// ---------------------------------------------------------------------------
// F1–F3: the paper's figures
// ---------------------------------------------------------------------------

/// Aggregate convoy interceptions of one dispatch policy over six seeds.
#[derive(Debug, Serialize)]
struct ConvoyRow {
    predictive: bool,
    convoys: usize,
    intercepted: usize,
    escaped: usize,
    mean_interception_ticks: f64,
}

#[derive(Debug, Serialize)]
struct F1Report {
    /// `(drones, report)` per fleet size.
    surveillance: Vec<(usize, SurveillanceReport)>,
    convoy: Vec<ConvoyRow>,
    /// Without, then with mechanic devices.
    repair: Vec<RepairReport>,
}

static F1: Spec<u64, F1Report> = Spec {
    title: "mode of operation: command fan-out over a coalition fleet",
    config: |seed| seed,
    smoke: None,
    run: |&seed, _| {
        let convoy = [false, true].map(|predictive| {
            // Interception is geometry-sensitive: aggregate over seeds.
            let runs: Vec<_> = (1..=6u64)
                .map(|s| run_convoy_interception(12, predictive, 60, s))
                .collect();
            ConvoyRow {
                predictive,
                convoys: 12 * runs.len(),
                intercepted: runs.iter().map(|r| r.intercepted).sum(),
                escaped: runs.iter().map(|r| r.escaped).sum(),
                mean_interception_ticks: runs
                    .iter()
                    .map(|r| r.mean_interception_ticks)
                    .sum::<f64>()
                    / runs.len() as f64,
            }
        });
        Ok(F1Report {
            surveillance: [4usize, 8, 16, 32, 64]
                .map(|n| (n, run_surveillance(n, 300, seed)))
                .to_vec(),
            convoy: convoy.into(),
            repair: [false, true]
                .map(|m| run_repair_cycle(20, m, 200, seed))
                .to_vec(),
        })
    },
    table: |r| {
        println!("drones    devices   policies  sightings   handled   autonomy");
        for (n, s) in &r.surveillance {
            println!(
                "{:<8} {:>8} {:>10} {:>10} {:>9} {:>9.1}%",
                n,
                s.devices,
                s.policies_generated,
                s.sightings,
                s.handled,
                s.autonomy() * 100.0
            );
        }
        println!("\nF1-b: convoy interception: dispatch with path prediction (Section II)");
        println!("dispatch      convoys  intercepted  escaped         mean-ticks");
        for c in &r.convoy {
            println!(
                "{:<12} {:>8} {:>12} {:>8} {:>18.1}",
                if c.predictive { "predictive" } else { "chase" },
                c.convoys,
                c.intercepted,
                c.escaped,
                c.mean_interception_ticks
            );
        }
        println!();
        println!("expected shape: a half-speed ground mule cannot run down a convoy;");
        println!("\"intercept the convoy along the path\" (predictive dispatch) is what");
        println!("makes the Section-II use case work at all");
        println!("\nF1-c: self-maintenance: repair via mechanic devices (Section II)");
        println!("mechanics     workers  repairs   availability operational-at-end");
        for (m, rep) in [false, true].iter().zip(&r.repair) {
            println!(
                "{:<12} {:>8} {:>8} {:>13.0}% {:>18}",
                m,
                rep.workers,
                rep.repairs,
                rep.availability * 100.0,
                rep.operational_at_end
            );
        }
        println!();
        println!("expected shape: without the repair loop every worker wears out and");
        println!("stays degraded; with mechanic devices the fleet self-sustains —");
        println!("\"they would need to repair themselves, or go to another mechanic");
        println!("device to be repaired\" (Section II)");
    },
    check: no_claims,
};

/// A cooler whose engine holds `n_rules` rules with distinct thresholds, so
/// conflict resolution has real work to do.
fn device_with_rules(n_rules: usize) -> Device {
    let schema = StateSchema::builder().var("temp", 0.0, 100.0).build();
    let mut builder = Device::builder(1u64, DeviceKind::new("cooler"), OrgId::new("us"))
        .schema(schema)
        .sensor(Sensor::new("thermometer", VarId(0)))
        .actuator(Actuator::new("vent", VarId(0), 50.0));
    for i in 0..n_rules {
        let threshold = (i as f64) * 100.0 / n_rules.max(1) as f64;
        builder = builder.rule(
            EcaRule::new(
                format!("rule-{i}"),
                Event::pattern("tick"),
                Condition::state_at_least(VarId(0), threshold),
                Action::adjust("vent", StateDelta::single(VarId(0), -1.0)),
            )
            .with_priority((i % 7) as i32),
        );
    }
    builder.build()
}

#[derive(Debug, Serialize)]
struct F2Row {
    rules: usize,
    decided: bool,
    /// Median wall time of one sense → decide → act step.
    step_ns: f64,
}

static F2: Spec<(), Vec<F2Row>> = Spec {
    title: "device loop: decisions through the ECA engine by rule count",
    config: |_| (),
    smoke: None,
    run: |_, _| {
        Ok([1usize, 10, 100, 1000]
            .map(|rules| {
                let mut d = device_with_rules(rules);
                d.sense(&[(0, 90.0)]);
                let decided = d.propose(&Event::named("tick")).is_some();
                let step_ns = median_ns(31, 100, || d.step(&Event::named("tick")));
                F2Row {
                    rules,
                    decided,
                    step_ns,
                }
            })
            .into())
    },
    table: |rows| {
        println!("rules       decision made      step ns");
        for r in rows {
            println!("{:<10} {:>14} {:>12.0}", r.rules, r.decided, r.step_ns);
        }
    },
    check: |_, _, rows, _| {
        for r in rows {
            ensure!(
                r.decided,
                "F2: no decision with {} rules installed",
                r.rules
            );
        }
        Ok(())
    },
};

fn f3_setup(n: usize) -> (Grid2, RegionClassifier) {
    let schema = StateSchema::builder()
        .var("state-variable-1", 0.0, 10.0)
        .var("state-variable-2", 0.0, 10.0)
        .build();
    let grid = Grid2::new(schema, n, n).expect("valid grid");
    let classifier = RegionClassifier::new(Region::rect(&[(3.0, 7.0), (3.0, 7.0)]));
    (grid, classifier)
}

#[derive(Debug, Serialize)]
struct F3Report {
    render: String,
    fractions: (f64, f64, f64),
    good_connected: bool,
    unguarded_reaches_bad: bool,
    guarded_reach: usize,
    good_cells: usize,
    safe_kernel: usize,
}

static F3: Spec<usize, F3Report> = Spec {
    title: "simplified state description: partition and reachability",
    config: |_| 16,
    smoke: None,
    run: |&n, _| {
        let (grid, classifier) = f3_setup(n);
        let labels = grid.classify(&classifier);
        let start = grid.cell_of(&grid.schema().midpoint());
        let kernel = safe_kernel(&grid, &labels, &VonNeumannMoves);
        Ok(F3Report {
            render: labels.render(),
            fractions: labels.fractions(),
            good_connected: labels.good_is_connected(),
            unguarded_reaches_bad: can_reach_bad(&grid, &labels, &VonNeumannMoves, start),
            guarded_reach: guarded_reachable(&grid, &labels, &VonNeumannMoves, start).count(),
            good_cells: labels.count(Label::Good),
            safe_kernel: kernel.iter().flatten().filter(|&&k| k).count(),
        })
    },
    table: |r| {
        println!("{}", r.render);
        let (good, neutral, bad) = r.fractions;
        println!("fractions: good={good:.2} neutral={neutral:.2} bad={bad:.2}");
        println!("good region connected: {}", r.good_connected);
        println!(
            "unguarded logic can reach a bad state: {}",
            r.unguarded_reaches_bad
        );
        println!(
            "guarded logic reaches {} cells (= {} good cells), none bad",
            r.guarded_reach, r.good_cells
        );
        println!("safe kernel size: {}", r.safe_kernel);
    },
    check: no_claims,
};

// ---------------------------------------------------------------------------
// E1–E8, A1–A3: the prevention mechanisms and their ablations
// ---------------------------------------------------------------------------

/// A simulator sweep: the swept points (none for `Sweep<()>`, whose runs
/// cover a fixed arm set), a run length (ticks, steps or actions) and a
/// seed.
struct Sweep<P> {
    points: Vec<P>,
    length: u64,
    seed: u64,
}

fn sweep<P>(points: Vec<P>, length: u64, seed: u64) -> Sweep<P> {
    Sweep {
        points,
        length,
        seed,
    }
}

static E1: Spec<Sweep<()>, Vec<E1Report>> = Spec {
    title: "pre-action checks: direct vs indirect harm (Section VI.A)",
    config: |seed| sweep(vec![], 100, seed),
    smoke: Some(|| sweep(vec![], 80, 2)),
    run: |c, env| {
        Ok(env.runner().map(E1Arm::all().to_vec(), |_, arm| {
            run_e1(arm, 12, 12, c.length, c.seed)
        }))
    },
    table: |rows| {
        println!("arm                         direct  indirect  interventions  availability");
        for r in rows {
            println!(
                "{:<26} {:>7} {:>9} {:>14} {:>12.0}%",
                r.arm,
                r.direct_harms,
                r.indirect_harms,
                r.interventions,
                r.availability * 100.0
            );
        }
        println!();
        println!("expected shape: direct -> 0 with any pre-action check; indirect");
        println!("persists under myopia and vanishes with lookahead or obligations");
    },
    check: |_, _, rows, _| {
        let [none, pre, look, oblig] = &rows[..] else {
            return Err(format!("E1: {} arms, expected 4", rows.len()));
        };
        // A properly defined check stops direct harm...
        ensure!(none.direct_harms > 0);
        ensure!(pre.direct_harms == 0);
        // ...but "may fail in some cases" on indirect harm...
        ensure!(pre.indirect_harms > 0);
        // ...which prediction or obligations close.
        ensure!(look.indirect_harms == 0);
        ensure!(oblig.indirect_harms == 0);
        ensure!(oblig.availability >= look.availability);
        Ok(())
    },
};

/// E2: `length` steps per episode; `points` holds the episode count.
static E2: Spec<Sweep<u64>, Vec<E2Report>> = Spec {
    title: "state-space checks: bad entries and dilemmas (Section VI.B)",
    config: |seed| sweep(vec![16], 80, seed),
    smoke: Some(|| sweep(vec![12], 60, 3)),
    run: |c, env| {
        Ok(env.runner().map(E2Arm::all().to_vec(), |_, arm| {
            run_e2(arm, c.points[0], c.length, c.seed)
        }))
    },
    table: |rows| {
        println!(
            "arm                          bad-entries worst-entries   frozen  break-glass   steps"
        );
        for r in rows {
            println!(
                "{:<28} {:>11} {:>13} {:>8} {:>12} {:>7}",
                r.arm, r.bad_entries, r.worst_entries, r.frozen_steps, r.breakglass_grants, r.steps
            );
        }
        println!();
        println!("expected shape: the hard check blocks bad entries from good starts");
        println!("but freezes in dilemmas; the ontology trades worst-class entries");
        println!("for survivable ones; break-glass escapes are few and audited");
    },
    check: |_, _, rows, _| {
        let [none, hard, ont, bg] = &rows[..] else {
            return Err(format!("E2: {} arms, expected 4", rows.len()));
        };
        ensure!(none.bad_entries > 0);
        ensure!(hard.bad_entries < none.bad_entries);
        ensure!(hard.frozen_steps > 0);
        // The ontology resolves dilemmas toward less-bad states: fewer
        // worst-class entries per bad entry than the unguarded walk.
        let worst_ratio = |r: &E2Report| r.worst_entries as f64 / r.bad_entries.max(1) as f64;
        ensure!(worst_ratio(ont) <= worst_ratio(none));
        ensure!(bg.breakglass_grants > 0);
        Ok(())
    },
};

/// E2-D: `points` are deception rates, `length` the episode count.
static E2D: Spec<Sweep<f64>, Vec<(f64, E2dReport)>> = Spec {
    title: "break-glass trustworthiness under sensor deception (Section VI.B)",
    config: |seed| sweep(vec![0.1, 0.3, 0.5], 400, seed),
    smoke: None,
    run: |c, env| {
        let cells = cross(&c.points, &E2dArm::all());
        Ok(env
            .runner()
            .map(cells, |_, (p, arm)| (p, run_e2d(arm, c.length, p, c.seed))))
    },
    table: |rows| {
        println!("arm              deceived-p  wrongful-grants  rightful-grants   missed");
        for (p, r) in rows {
            println!(
                "{:<16} {:>10.1} {:>16} {:>16} {:>8}",
                r.arm, p, r.wrongful_grants, r.rightful_grants, r.missed_emergencies
            );
        }
        println!();
        println!("expected shape: a lone sensor grants the attacker's fake emergencies");
        println!("at the deception rate; collusion-robust fusion over 5 sensors (2");
        println!("attacked) grants none of them and misses no real emergency");
    },
    check: no_claims,
};

/// E3: `points` are compromise fractions, `length` the ticks.
static E3: Spec<Sweep<f64>, Vec<E3Report>> = Spec {
    title: "deactivation: containing compromised devices (Section VI.C)",
    config: |seed| sweep(vec![0.1, 0.3, 0.5], 100, seed),
    smoke: Some(|| sweep(vec![0.25], 80, 4)),
    run: |c, env| {
        let cells = cross(&c.points, &E3Arm::all());
        Ok(env
            .runner()
            .map(cells, |_, (p, arm)| run_e3(arm, 12, p, c.length, c.seed)))
    },
    table: |rows| {
        println!("arm                    p   harms  contained-at  healthy-killed  availability");
        for r in rows {
            println!(
                "{:<17} {:>6.1} {:>7} {:>13} {:>15} {:>12.0}%",
                r.arm,
                r.p_compromised,
                r.harms,
                tick_or_never(r.containment_tick),
                r.healthy_killed,
                r.availability * 100.0
            );
        }
        println!();
        println!("expected shape: containment arms bound harm and contain quickly;");
        println!("quorum kill avoids single-watcher false kills");
    },
    check: |_, _, rows, _| {
        for p in rows.chunks(E3Arm::all().len()) {
            let (none, quorum) = (&p[0], &p[2]);
            let at = none.p_compromised;
            ensure!(none.harms > 0, "E3 p={at}: uncontained rogues never harmed");
            ensure!(
                none.containment_tick.is_none(),
                "E3 p={at}: the no-containment arm contained"
            );
            ensure!(
                quorum.containment_tick.is_some(),
                "E3 p={at}: quorum kill never contained the rogues"
            );
            ensure!(
                quorum.harms <= none.harms,
                "E3 p={at}: quorum kill raised harm"
            );
            ensure!(
                quorum.availability > 0.5,
                "E3 p={at}: quorum kill took down most healthy devices"
            );
        }
        Ok(())
    },
};

/// E4: `points` are collection sizes, `length` the ticks.
static E4: Spec<Sweep<usize>, Vec<(usize, E4Report)>> = Spec {
    title: "collection formation: emergent aggregate hazards (Section VI.D)",
    config: |seed| sweep(vec![4, 6, 8], 50, seed),
    smoke: Some(|| sweep(vec![6], 40, 5)),
    run: |c, env| {
        let cells = cross(&c.points, &E4Arm::all());
        Ok(env.runner().map(cells, |_, (n, arm)| {
            (n, run_e4(arm, n, 2.5, 10.0, c.length, c.seed))
        }))
    },
    table: |rows| {
        println!("arm                           devices  admitted  refused   fires  work-done");
        for (n, r) in rows {
            println!(
                "{:<28} {:>8} {:>9} {:>8} {:>7} {:>10.0}",
                r.arm, n, r.admitted, r.refused, r.aggregate_harms, r.work_done
            );
        }
        println!();
        println!("expected shape: fires occur only without checks and only once the");
        println!("collection is large enough (4 x 2.5 = 10.0 sits exactly at the limit);");
        println!("collaboration admits everyone yet matches formation-check safety");
    },
    check: |_, _, rows, _| {
        for cell in rows.chunks(E4Arm::all().len()) {
            let [(n, none), (_, formation), (_, collab)] = cell else {
                return Err("E4: incomplete arm set".into());
            };
            // Individually-safe heaters are collectively harmful only once
            // their total heat exceeds the enclosure limit.
            let over = *n as f64 * 2.5 > 10.0;
            ensure!(
                (none.aggregate_harms > 0) == over,
                "E4 n={n}: unchecked fires {} (over the limit: {over})",
                none.aggregate_harms
            );
            ensure!(
                formation.aggregate_harms == 0,
                "E4 n={n}: formation check let a fire through"
            );
            ensure!(
                collab.aggregate_harms == 0,
                "E4 n={n}: collaboration let a fire through"
            );
            // Formation refuses members; collaboration admits all and is
            // still safe.
            ensure!(
                (formation.refused > 0) == over,
                "E4 n={n}: formation check refused {} members",
                formation.refused
            );
            ensure!(
                collab.admitted == *n,
                "E4 n={n}: collaboration refused members"
            );
        }
        Ok(())
    },
};

/// E5: `points` are corrupted-branch counts, `length` the actions.
static E5: Spec<Sweep<usize>, Vec<E5Report>> = Spec {
    title: "AI overseeing AI: 2-of-3 collectives (Section VI.E)",
    config: |seed| sweep(vec![0, 1, 2, 3], 400, seed),
    smoke: Some(|| sweep(vec![1, 2], 300, 6)),
    run: |c, env| {
        let cells = cross(&c.points, &E5Arm::all());
        Ok(env
            .runner()
            .map(cells, |_, (k, arm)| run_e5(arm, k, c.length, c.seed)))
    },
    table: |rows| {
        println!("arm                 corrupted  mal-executed  mal-blocked  false-blocks");
        for r in rows {
            println!(
                "{:<18} {:>10} {:>13} {:>12} {:>13}",
                r.arm,
                r.corrupted_branches,
                r.malevolent_executed,
                r.malevolent_blocked,
                r.false_blocks
            );
        }
        println!();
        println!("expected shape: tripartite holds at 1 corrupted branch, fails at 2");
        println!("(the paper's own 'two of three prevail' assumption)");
    },
    check: |_, _, rows, _| {
        let cell = |arm: E5Arm, k: usize| {
            rows.iter()
                .find(|r| r.arm == arm.name() && r.corrupted_branches == k)
                .ok_or(format!("E5: no {} cell at {k} corrupted", arm.name()))
        };
        // One corrupted collective: solo executes malevolence, 2-of-3
        // blocks all of it.
        let (solo, tri) = (cell(E5Arm::ExecutiveOnly, 1)?, cell(E5Arm::Tripartite, 1)?);
        ensure!(
            solo.malevolent_executed as f64 > 0.4 * solo.decisions as f64,
            "E5: a corrupted executive executed only {} of {} actions",
            solo.malevolent_executed,
            solo.decisions
        );
        ensure!(tri.malevolent_executed == 0);
        ensure!(tri.false_blocks == 0);
        // The paper's boundary: two corrupted collectives defeat 2-of-3.
        ensure!(cell(E5Arm::Tripartite, 2)?.malevolent_executed > 0);
        Ok(())
    },
};

#[derive(Debug, Serialize)]
struct CouncilRow {
    council: String,
    corrupted: usize,
    tolerance: usize,
    malevolent_executed: u64,
}

/// E5-N: malevolent actions put to each council.
static E5N: Spec<u64, Vec<CouncilRow>> = Spec {
    title: "generalized councils: corruption tolerance of k-of-n (Section VI.E extension)",
    config: |_| 50,
    smoke: None,
    run: |&rounds, _| {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        let state = schema.state(&[5.0]).expect("in range");
        let strike = Action::adjust("strike-humans", StateDelta::empty());
        let mut rows = Vec::new();
        for (n, k) in [(3usize, 2usize), (5, 3), (7, 4)] {
            for corrupted in 0..=n {
                let scope = MetaPolicy::new().forbid_action("strike-humans");
                let mut council = CouncilGovernor::new(scope, n, k);
                for i in 0..corrupted {
                    council
                        .collective_mut(i)
                        .set_integrity(Integrity::Compromised);
                }
                for round in 0..rounds {
                    let ballots: Vec<_> = (0..n)
                        .map(|m| council.ballot_of(m, round, &state, &strike))
                        .collect();
                    council.tally(round, &ballots, &state, &strike);
                }
                rows.push(CouncilRow {
                    council: format!("{k}-of-{n}"),
                    corrupted,
                    tolerance: council.corruption_tolerance(),
                    malevolent_executed: council.stats().malevolent_executed,
                });
            }
        }
        Ok(rows)
    },
    table: |rows| {
        println!("council     corrupted   tolerance  mal-executed");
        for r in rows {
            println!(
                "{:<10} {:>10} {:>11} {:>13}",
                r.council, r.corrupted, r.tolerance, r.malevolent_executed
            );
        }
        println!();
        println!("expected shape: a k-of-n council tolerates exactly k-1 compromised");
        println!("collectives — larger councils buy tolerance, which is the paper's");
        println!("closing 'promising area of investigation' made quantitative");
    },
    check: no_claims,
};

/// E6: `points` are dimensions, `length` the episodes per arm.
static E6: Spec<Sweep<usize>, Vec<E6Report>> = Spec {
    title: "ill-defined spaces: utility from derivative signs (Section VII)",
    config: |seed| sweep(vec![2, 4, 6, 8], 40, seed),
    smoke: Some(|| sweep(vec![4, 6, 8], 30, 7)),
    run: |c, env| {
        let cells = cross(&c.points, &E6Arm::all());
        Ok(env.runner().map(cells, |_, (dims, arm)| {
            run_e6(arm, dims, c.length, 60, c.seed)
        }))
    },
    table: |rows| {
        println!("arm                    dims   harm-probability    steps");
        for r in rows {
            println!(
                "{:<20} {:>6} {:>18.4} {:>8}",
                r.arm, r.dims, r.harm_probability, r.steps
            );
        }
        println!();
        println!("expected shape: gradient-utility sits far below random and near the");
        println!("exact oracle, but stays nonzero for dims >= 3 where one variable's");
        println!("derivative sign is unknown — 'not an absolute fool-proof mechanism'");
    },
    check: |_, _, rows, _| {
        for cell in rows.chunks(E6Arm::all().len()) {
            let [oracle, gradient, random] = cell else {
                return Err("E6: incomplete arm set".into());
            };
            let dims = oracle.dims;
            // Gradient utility significantly reduces harm relative to
            // random...
            ensure!(
                gradient.harm_probability < 0.5 * random.harm_probability,
                "E6 dims={dims}: gradient {} vs random {}",
                gradient.harm_probability,
                random.harm_probability
            );
            // ...but cannot beat full knowledge by construction.
            ensure!(
                gradient.harm_probability + 1e-9 >= oracle.harm_probability - 0.05,
                "E6 dims={dims}: gradient {} beat the oracle {}",
                gradient.harm_probability,
                oracle.harm_probability
            );
        }
        Ok(())
    },
};

/// E7: ticks per pathway run (the guarded backdoor always gets 600).
static E7: Spec<Sweep<()>, Vec<E7Report>> = Spec {
    title: "malevolence pathways: time to first harm (Section IV)",
    config: |seed| sweep(vec![], 100, seed),
    smoke: Some(|| sweep(vec![], 80, 8)),
    run: |c, env| {
        let cells = cross(&Pathway::all(), &[false, true]);
        Ok(env.runner().map(cells, |_, (pathway, guarded)| {
            let ticks = if pathway == Pathway::Backdoor && guarded {
                600
            } else {
                c.length
            };
            run_e7(pathway, guarded, 4, ticks, c.seed)
        }))
    },
    table: |rows| {
        println!("pathway                       guarded first-harm-tick   harms");
        for r in rows {
            println!(
                "{:<26} {:>10} {:>15} {:>7}",
                r.pathway,
                r.guarded,
                tick_or_never(r.first_harm_tick),
                r.harms
            );
        }
        println!();
        println!("expected shape: every pathway harms an unguarded fleet; guards stop");
        println!("all pathways that do not attack the guard layer itself; the backdoor");
        println!("pathway defeats tamperable guards given enough probing time");
    },
    check: |scale, _, rows, _| {
        // At the table seed no pathway harms even the unguarded fleet (an
        // open discrepancy with EXPERIMENTS.md), so these claims stay bound
        // to the smoke seed they were written against.
        if scale != Scale::Smoke {
            return Ok(());
        }
        for (pathway, pair) in Pathway::all().into_iter().zip(rows.chunks(2)) {
            let [unguarded, guarded] = pair else {
                return Err("E7: incomplete pathway pair".into());
            };
            let name = pathway.name();
            ensure!(
                unguarded.first_harm_tick.is_some(),
                "E7: pathway {name} must harm an unguarded fleet"
            );
            // Guards hold against every pathway that does not attack the
            // guard layer; the backdoor attacks the guards themselves and
            // eventually wins.
            match pathway {
                Pathway::Backdoor => {
                    ensure!(
                        guarded.harms > 0,
                        "E7: a tamperable guard must eventually fall"
                    )
                }
                Pathway::CyberAttack => {}
                _ => ensure!(guarded.harms == 0, "E7: guards should hold against {name}"),
            }
        }
        Ok(())
    },
};

#[derive(Debug, Serialize)]
struct E8Report {
    arms: Vec<ContagionReport>,
    /// Open exchange per topology.
    topologies: Vec<(&'static str, ContagionReport)>,
}

/// E8: `points` holds the fleet size, `length` the ticks of the arm sweep.
static E8: Spec<Sweep<usize>, E8Report> = Spec {
    title: "policy contagion: converting other devices (Section IV)",
    config: |seed| sweep(vec![16], 40, seed),
    smoke: Some(|| sweep(vec![12], 30, 11)),
    run: |c, env| {
        let n = c.points[0];
        let runner = env.runner();
        Ok(E8Report {
            arms: runner.map(ContagionArm::all().to_vec(), |_, arm| {
                run_contagion(arm, n, c.length, c.seed)
            }),
            topologies: runner.map(TopologyKind::all().to_vec(), |_, t| {
                let r = run_contagion_on(ContagionArm::OpenExchange, t, n, 60, c.seed);
                (t.name(), r)
            }),
        })
    },
    table: |r| {
        println!(
            "arm                     infected   coverage   infection-rate  full-infection-tick"
        );
        for a in &r.arms {
            println!(
                "{:<22} {:>9} {:>10} {:>15.0}% {:>20}",
                a.arm,
                a.infected,
                a.benign_coverage,
                a.infection_rate() * 100.0,
                tick_or_never(a.full_infection_tick)
            );
        }
        println!();
        println!("expected shape: open exchange converts the whole fleet in a few");
        println!("ticks; org filtering and physical-blocking cap infection at the org");
        println!("boundary (physical-blocking without starving benign updates);");
        println!("per-offer human review only DELAYS the epidemic — repeated exposure");
        println!("defeats a 90% catch rate — while indicator sharing (blacklist after");
        println!("first detection) actually stops it");
        println!("\nE8-b: contagion vs connectivity: spread speed by topology");
        println!("topology    infected  full-infection-tick");
        for (name, t) in &r.topologies {
            println!(
                "{:<10} {:>9} {:>20}",
                name,
                t.infected,
                tick_or_never(t.full_infection_tick)
            );
        }
        println!();
        println!("expected shape: every connected topology eventually converts, but");
        println!("sparse links buy containment time — mesh in one round, ring in n/2");
        println!("hops, line in n hops");
    },
    check: |_, c, r, _| {
        let n = c.points[0];
        let arm = |a: ContagionArm| {
            r.arms
                .iter()
                .find(|x| x.arm == a.name())
                .ok_or(format!("E8: no {} arm", a.name()))
        };
        // Unthrottled gossip and per-offer review (beaten by repeated
        // exposure) convert everyone; physical blocking caps infection at
        // the org boundary without starving benign updates; indicator
        // sharing stops the epidemic.
        let open = arm(ContagionArm::OpenExchange)?;
        let phys = arm(ContagionArm::PhysicalBlocked)?;
        ensure!(open.infected == n);
        ensure!(phys.infected == n / 2);
        ensure!(phys.benign_coverage == n);
        ensure!(arm(ContagionArm::HumanAck)?.infected == n);
        ensure!(arm(ContagionArm::HumanAckBlacklist)?.infected < 4);
        Ok(())
    },
};

static A1: Spec<Sweep<()>, Vec<A1Report>> = Spec {
    title: "ablation: 2^4 guard-stack combinations under mixed faults",
    config: |seed| sweep(vec![], 60, seed),
    smoke: Some(|| sweep(vec![], 50, 9)),
    run: |c, env| {
        Ok(env
            .runner()
            .map(GuardMask::all(), |_, mask| run_a1(mask, c.length, c.seed)))
    },
    table: |rows| {
        println!("mask        direct  indirect  aggregate   total  availability");
        for r in rows {
            println!(
                "{:<10} {:>7} {:>9} {:>10} {:>7} {:>12.0}%",
                r.mask,
                r.direct,
                r.indirect,
                r.aggregate,
                r.total,
                r.availability * 100.0
            );
        }
        println!();
        println!("expected shape: each mechanism removes its own harm class (P: direct,");
        println!("P-lookahead: indirect, F: aggregate, D: persistence); only the full");
        println!("stack minimizes total harm — the mechanisms are complementary");
    },
    check: |_, _, rows, _| {
        // `GuardMask::all` is in binary order: none first, full last, the
        // single mechanisms at the powers of two.
        let (none, full) = (&rows[0], &rows[15]);
        ensure!(none.total > 0);
        ensure!(full.total < none.total);
        ensure!(full.direct == 0);
        // Mechanisms are complementary: no single guard beats the full
        // stack.
        for single in [&rows[1], &rows[2], &rows[4], &rows[8]] {
            ensure!(
                single.total >= full.total,
                "A1: single guard {} ({} harms) beat the full stack ({})",
                single.mask,
                single.total,
                full.total
            );
        }
        Ok(())
    },
};

/// The A2 fleet: eight patrolling drones of two orgs with generated rules,
/// under a cyber attack, with or without pre-action checks.
fn a2_scorecard(guarded: bool) -> SkynetScore {
    let schema = StateSchema::builder().var("threat", 0.0, 1.0).build();
    let mut world = World::new(WorldConfig {
        width: 20,
        height: 20,
        heat_limit: f64::MAX,
        heat_zone: None,
    });
    for i in 0..5 {
        world.add_human(vec![(5, 4 * i), (6, 4 * i)], true);
    }
    let mut fleet = Fleet::new(FleetConfig::default());
    for i in 0..8u64 {
        let org = if i % 2 == 0 { "us" } else { "uk" };
        let mut device = Device::builder(i, DeviceKind::new("drone"), OrgId::new(org))
            .schema(schema.clone())
            .rule(EcaRule::new(
                "patrol",
                Event::pattern("tick"),
                Condition::True,
                Action::adjust(actions::MOVE, StateDelta::empty())
                    .with_param("dx", "1")
                    .physical(),
            ))
            .build();
        device.engine_mut().add_rule(
            EcaRule::new(
                "generated-scan",
                Event::pattern("scan"),
                Condition::True,
                Action::noop(),
            )
            .generated(),
        );
        let stack = if guarded {
            GuardStack::new().with_preaction(PreActionCheck::new())
        } else {
            GuardStack::new()
        };
        fleet.add(device, stack, (5 + (i as i32 % 3), 2 * i as i32));
    }
    let mut injector = FaultInjector::new(Pathway::CyberAttack, 3);
    injector.inject(&mut fleet);
    let events: Vec<(DeviceId, Event)> = fleet
        .iter()
        .map(|(&id, _)| (id, Event::named("tick")))
        .collect();
    for t in 1..=60 {
        injector.tick(&mut fleet);
        fleet.step(&mut world, t, &events);
    }
    skynet_score(&fleet, &world, 2, 2)
}

/// A2: the unguarded fleet, then the guarded one.
static A2: Spec<(), Vec<SkynetScore>> = Spec {
    title: "Skynet property scorecard under cyber attack (Section III)",
    config: |_| (),
    smoke: None,
    run: |_, _| Ok(vec![a2_scorecard(false), a2_scorecard(true)]),
    table: |rows| {
        println!(
            "fleet        net  learn   cog   org  phys  MALEVOLENT   capability         verdict"
        );
        for (guarded, s) in [false, true].into_iter().zip(rows) {
            println!(
                "{:<10} {:>5.2} {:>6.2} {:>5.2} {:>5.2} {:>5.2} {:>11.2} {:>12.2} {:>15}",
                if guarded { "guarded" } else { "unguarded" },
                s.networked,
                s.learning,
                s.cognitive,
                s.multi_org,
                s.physical,
                s.malevolent,
                s.capability(),
                if s.is_skynet() {
                    "SKYNET FORMED"
                } else {
                    "not Skynet"
                }
            );
        }
        println!();
        println!("expected shape: both fleets score high on the five capability");
        println!("properties; only the unguarded one acquires malevolence");
    },
    check: no_claims,
};

#[derive(Debug, Serialize)]
struct A3Row {
    p_tamper: f64,
    /// One run per seed.
    runs: Vec<A3Report>,
}

/// A3: `points` are tamper probabilities, `length` the ticks; the `u64`
/// is the number of consecutive seeds per point.
static A3: Spec<(Sweep<f64>, u64), Vec<A3Row>> = Spec {
    title: "tamper-proofness ablation (Section VI premise)",
    config: |seed| {
        (
            sweep(vec![0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2], 400, seed),
            5,
        )
    },
    smoke: Some(|| (sweep(vec![0.0, 0.02, 0.2], 150, 10), 1)),
    run: |(c, seeds), env| {
        // Tamper success is a geometric race; several seeds show the trend
        // rather than one lucky draw.
        let cells = cross(&c.points, &(0..*seeds).collect::<Vec<_>>());
        let runs = env
            .runner()
            .map(cells, |_, (p, s)| run_a3(p, 5, c.length, c.seed + s));
        Ok(c.points
            .iter()
            .zip(runs.chunks(*seeds as usize))
            .map(|(&p_tamper, runs)| A3Row {
                p_tamper,
                runs: runs.to_vec(),
            })
            .collect())
    },
    table: |rows| {
        println!("p-tamper     mean harms  median first-harm-tick");
        for r in rows {
            let mean_harms =
                r.runs.iter().map(|r| r.harms as f64).sum::<f64>() / r.runs.len() as f64;
            let mut firsts: Vec<u64> = r.runs.iter().filter_map(|r| r.first_harm_tick).collect();
            firsts.sort_unstable();
            let median = if firsts.len() == r.runs.len() {
                firsts[firsts.len() / 2].to_string()
            } else {
                "never".to_string()
            };
            println!("{:<10} {:>12.1} {:>23}", r.p_tamper, mean_harms, median);
        }
        println!();
        println!("expected shape: zero harm at p=0; protection collapses as p grows,");
        println!("with first-harm time shrinking roughly like 1/p");
    },
    check: |_, _, rows, _| {
        let at = |p: f64| {
            rows.iter()
                .find(|r| r.p_tamper == p)
                .map(|r| &r.runs)
                .ok_or(format!("A3: no cell at p={p}"))
        };
        let (solid, leaky, sieve) = (at(0.0)?, at(0.02)?, at(0.2)?);
        for ((solid, leaky), sieve) in solid.iter().zip(leaky).zip(sieve) {
            ensure!(solid.harms == 0);
            ensure!(leaky.harms > 0);
            ensure!(
                sieve.first_harm_tick.is_some() && sieve.first_harm_tick <= leaky.first_harm_tick
            );
        }
        Ok(())
    },
};

// ---------------------------------------------------------------------------
// E9, G1, E10, E11: audits, generation, telemetry and scaling
// ---------------------------------------------------------------------------

#[derive(Debug, Serialize)]
struct E9Table {
    rows: Vec<E9Report>,
    /// Median wall times over the canonical recorded run.
    record_ns: f64,
    verify_ns: f64,
    replay_from_snapshot_ns: f64,
}

static E9: Spec<u64, E9Table> = Spec {
    title: "tamper evidence: ledger corruption detection (VI.B audits)",
    config: |seed| seed,
    smoke: None,
    run: |&seed, env| {
        let spec = RecordSpec {
            seed,
            ..RecordSpec::default()
        };
        let recorded = run_recorded(&spec);
        let ledger = &recorded.ledger;
        Ok(E9Table {
            rows: env
                .runner()
                .map(vec![25usize, 100, 400], |_, attacks| run_e9(attacks, seed)),
            record_ns: median_ns(11, 1, || run_recorded(&spec)),
            verify_ns: median_ns(11, 1, || ledger.verify().is_ok()),
            replay_from_snapshot_ns: median_ns(11, 1, || {
                replay_recorded(&spec, ledger, ReplayStart::LatestSnapshot)
            }),
        })
    },
    table: |t| {
        println!("attacks   detected   chained rate   baseline rate   mean offset");
        for r in &t.rows {
            println!(
                "{:<8} {:>9} {:>14.2} {:>15.2} {:>13.1}",
                r.attacks,
                r.detected,
                r.detection_rate,
                r.baseline_detection_rate,
                r.mean_detection_offset
            );
        }
        println!();
        let r = &t.rows[0];
        println!(
            "recorded run: {} ledger records, {} tamper probes",
            r.ledger_records, r.tamper_attempts
        );
        println!(
            "median wall time: record {:.2} ms, verify {:.2} ms, replay from snapshot {:.2} ms",
            t.record_ns / 1e6,
            t.verify_ns / 1e6,
            t.replay_from_snapshot_ns / 1e6
        );
        println!("expected shape: chained detection rate 1.0 with offset 0 (every");
        println!("corruption localized at its site); the unchained baseline only");
        println!("catches the minority of edits that break JSON syntax");
    },
    check: no_claims,
};

fn g1_grammar(n_events: usize, n_thresholds: usize) -> PolicyGrammar {
    let mut g = PolicyGrammar::new();
    for i in 0..n_events {
        g = g.event(format!("event-{i}"));
    }
    let thresholds: Vec<f64> = (0..n_thresholds).map(|i| i as f64).collect();
    g.condition(ConditionForm::Always)
        .condition(ConditionForm::VarAtLeast(VarId(0), thresholds))
        .action(ActionForm::Signal("report".into()))
        .action(ActionForm::Invoke {
            actuator: "vent".into(),
            var: VarId(0),
            steps: vec![-1.0, -5.0],
            physical: false,
        })
}

/// Rules an observer generates on discovering `n_kinds` peer kinds.
fn g1_generate(n_kinds: usize) -> usize {
    let mut graph = InteractionGraph::new();
    graph.add_kind(KindSpec::new("observer"));
    for i in 0..n_kinds {
        graph.add_kind(KindSpec::new(format!("kind-{i}")));
        graph.add_interaction("observer", format!("kind-{i}"), "dispatch");
    }
    let mut gen = PolicyGenerator::new("observer", graph);
    gen.template_for(
        "dispatch",
        PolicyTemplate::new(
            "dispatch-{peer}",
            "sighting",
            Condition::True,
            Action::adjust("radio-{peer}", Default::default()),
        ),
    );
    (0..n_kinds)
        .map(|i| {
            gen.on_discovery(&format!("kind-{i}"), "us", &Attributes::new())
                .len()
        })
        .sum()
}

#[derive(Debug, Serialize)]
struct G1Report {
    /// `(events, thresholds, space size, median enumeration ns)`.
    grammars: Vec<(usize, usize, usize, f64)>,
    /// `(kinds discovered, rules generated, median generation ns)`.
    discovery: Vec<(usize, usize, f64)>,
    /// Rules absorbed into an engine with equivalence dedup, and the
    /// median ns to absorb them all.
    dedup: (usize, f64),
}

static G1: Spec<(), G1Report> = Spec {
    title: "generative policies: grammar size and generation volume (Section IV)",
    config: |_| (),
    smoke: None,
    run: |_, _| {
        let rules = g1_grammar(8, 16).enumerate();
        let absorb_ns = median_ns(11, 1, || {
            let mut engine = PolicyEngine::new();
            for rule in &rules {
                engine.add_rule_deduped(rule.clone());
            }
            engine.len()
        });
        Ok(G1Report {
            grammars: [(2usize, 4usize), (8, 16), (32, 64)]
                .map(|(e, t)| {
                    let g = g1_grammar(e, t);
                    (e, t, g.space_size(), median_ns(11, 1, || g.enumerate()))
                })
                .into(),
            discovery: [8usize, 64, 256]
                .map(|n| (n, g1_generate(n), median_ns(11, 1, || g1_generate(n))))
                .into(),
            dedup: (rules.len(), absorb_ns),
        })
    },
    table: |r| {
        println!("grammar (events x thresholds)    space size   enumerate ns");
        for (e, t, size, ns) in &r.grammars {
            println!("{:<30} {:>12} {:>14.0}", format!("{e} x {t}"), size, ns);
        }
        println!();
        println!("graph kinds discovered         rules generated    generate ns");
        for (n, rules, ns) in &r.discovery {
            println!("{:<30} {:>12} {:>14.0}", n, rules, ns);
        }
        println!();
        println!(
            "dedup: absorbing {} rules into an engine takes {:.0} ns (median)",
            r.dedup.0, r.dedup.1
        );
        println!();
        println!("expected shape: generation scales linearly with discovered kinds —");
        println!("the scaling a human policy author cannot match (the motivation of");
        println!("Section IV) and the attack surface Section VI guards against");
    },
    check: no_claims,
};

#[derive(Debug, Serialize)]
struct E10Table {
    rows: Vec<E10Report>,
    /// Median ns per call of each telemetry primitive.
    primitives: Vec<(&'static str, f64)>,
}

static E10: Spec<u64, E10Table> = Spec {
    title: "observability overhead: telemetry on the hot loop",
    config: |seed| seed,
    smoke: None,
    // Timing experiments never go through the fan-out pool.
    run: |&seed, _| {
        let rows = [8usize, 16, 32]
            .map(|devices| run_e10(devices, 600, 1 << 18, seed))
            .into();
        let span = || drop(span!("bench.probe", i = black_box(1u64)));
        let event = || event!(Level::Info, "bench.probe", i = black_box(1u64));
        let time = |f: &dyn Fn()| median_ns(31, 10_000, f);
        let mut primitives = Vec::new();
        // The disabled path only exists while no subscriber is installed.
        if !telemetry::enabled() {
            primitives.extend([
                ("span, disabled", time(&span)),
                ("event, disabled", time(&event)),
            ]);
        }
        let guard = telemetry::install(Rc::new(RingCollector::new(1 << 16)));
        let registry = telemetry::current_registry().expect("dispatch installed");
        let counter = registry.counter("bench.counter");
        let histogram = registry.histogram("bench.histogram");
        primitives.extend([
            ("span, ring", time(&span)),
            ("event, ring", time(&event)),
            ("counter.inc", time(&|| counter.inc())),
            (
                "histogram.record",
                time(&|| histogram.record(black_box(12_345))),
            ),
        ]);
        drop(guard);
        Ok(E10Table { rows, primitives })
    },
    table: |t| {
        println!(
            "devices     ticks    baseline t/s      ring t/s   overhead%      ns/tick   records"
        );
        for r in &t.rows {
            println!(
                "{:<9} {:>7} {:>15.0} {:>13.0} {:>11.2} {:>12.0} {:>9}",
                r.devices,
                r.ticks,
                r.baseline_ticks_per_sec,
                r.ring_ticks_per_sec,
                r.overhead_pct,
                r.overhead_ns_per_tick,
                r.records_captured
            );
        }
        println!();
        println!("primitive             ns/call");
        for (name, ns) in &t.primitives {
            println!("{name:<20} {ns:>8.1}");
        }
        println!();
        println!("expected shape: ring overhead under 5%; negative values are noise.");
        println!("disabled-path primitives should be a few ns per call.");
    },
    check: no_claims,
};

static E11: Spec<u64, E11Report> = Spec {
    title: "strong scaling: two-phase parallel tick, ledger-verified",
    config: |seed| seed,
    smoke: None,
    run: |&seed, env| {
        Ok(run_e11(
            &[8, 24, 48, 96],
            &[1, 2, 4, 8],
            200,
            seed,
            env.cache,
        ))
    },
    table: |report| {
        println!("devices    threads    wall ms   speedup   cache hit  cache miss   digest");
        for c in &report.cells {
            println!(
                "{:<9} {:>8} {:>10.2} {:>9.2} {:>11} {:>11} {:>8}",
                c.n_devices,
                c.threads,
                c.wall_ms,
                c.speedup,
                c.cache_hits,
                c.cache_misses,
                if c.digest_matches_sequential {
                    "ok"
                } else {
                    "DIFF"
                }
            );
        }
        println!();
        println!(
            "hardware threads on this host: {} (speedup is bounded above by this)",
            report.hardware_threads
        );
    },
    check: |_, _, report, _| {
        for c in &report.cells {
            ensure!(
                c.digest_matches_sequential,
                "E11 cell n={} threads={} diverged from the sequential ledger",
                c.n_devices,
                c.threads
            );
        }
        Ok(())
    },
};

// ---------------------------------------------------------------------------
// E12–E17: degraded comms and the decision service
// ---------------------------------------------------------------------------

static E12: Spec<E12Config, E12Report> = Spec {
    title: "degraded comms: safety coordination under loss/partition (IV)",
    config: |seed| E12Config {
        seed,
        ..E12Config::default()
    },
    smoke: None,
    run: |c, env| {
        let cfg = E12Config {
            threads: env.threads_or(c.threads),
            ..*c
        };
        Ok(run_e12(
            &cfg,
            &[0.0, 0.1, 0.3, 0.6],
            &[0, 20, 60],
            env.threads_or(0),
        ))
    },
    table: |report| {
        println!(
            "loss    partition            mode  harms   contain  fkills  avail  retries  expired"
        );
        for c in &report.cells {
            println!(
                "{:<6} {:>10} {:>15} {:>6} {:>9} {:>7} {:>6.3} {:>8} {:>8}",
                c.loss,
                c.partition_ticks,
                c.mode,
                c.harms,
                tick_or_never(c.containment_tick),
                c.false_kills,
                c.availability,
                c.retries,
                c.expired_requests,
            );
        }
    },
    check: |_, _, report, _| {
        // The §IV acceptance: modes must diverge once the network degrades.
        for (loss, partition) in [(0.3, 20), (0.3, 60), (0.6, 20), (0.6, 60)] {
            let pick = |mode: &str| {
                report
                    .cells
                    .iter()
                    .find(|c| c.loss == loss && c.partition_ticks == partition && c.mode == mode)
                    .ok_or(format!(
                        "E12: no {mode} cell at loss={loss} partition={partition}"
                    ))
            };
            let (open, closed) = (pick("open")?, pick("closed")?);
            ensure!(
                open.harms > closed.harms,
                "E12 loss={loss} partition={partition}: fail-open must reopen the harm \
                 pathway (open={} closed={})",
                open.harms,
                closed.harms
            );
            ensure!(
                closed.availability <= open.availability,
                "E12 loss={loss} partition={partition}: fail-closed must pay availability"
            );
        }
        Ok(())
    },
};

/// Write `body` to `path`.
fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

fn to_value(report: &impl Serialize) -> Result<Value, String> {
    serde_json::to_value(report).map_err(|e| format!("report: {e}"))
}

/// The canonical lossy E12 cell; writes its sealed ledger for the
/// byte-for-byte determinism check across thread counts.
fn e12_artifact(seed: u64, env: &Env, path: &str) -> Result<Value, String> {
    let cfg = E12Config {
        seed,
        threads: env.threads_or(0),
        ..E12Config::default()
    };
    let (report, ledger) = run_e12_cell(&cfg, 0.3, 30, FailMode::Closed);
    write_file(path, ledger.to_jsonl())?;
    to_value(&report)
}

static E13: Spec<E13Config, E13Report> = Spec {
    title: "serving: micro-batching decision service under load (VI at fleet scale)",
    config: |seed| E13Config {
        seed,
        ..E13Config::default()
    },
    smoke: Some(E13Config::smoke),
    run: |c, env| {
        Ok(run_e13(&E13Config {
            threads: env.threads_or(c.threads),
            ..c.clone()
        }))
    },
    table: print_e13_table,
    check: |_, c, report, env| {
        let loads = &report.config.loads;
        let (lowest, highest) = match (loads.first(), loads.last()) {
            (Some(&l), Some(&h)) => (l, h),
            _ => return Err("E13: empty sweep".into()),
        };
        // Fail-closed everywhere, and full accounting: every cell serves
        // work, resolves every offered request, and no shed ever permits
        // execution.
        for cell in &report.cells {
            let (label, load) = (&cell.label, cell.load);
            ensure!(cell.watchdog.is_none(), "{label}: watchdog tripped");
            ensure!(
                cell.throughput > 0.0,
                "{label} load={load}: zero throughput"
            );
            ensure!(
                cell.shed_allows == 0,
                "{label} load={load}: a shed request was allowed"
            );
            ensure!(
                cell.decided + cell.shed == cell.offered,
                "{label} load={load}: requests lost"
            );
            ensure!(
                cell.shedding || cell.shed == 0,
                "{label} load={load}: shedding-off cell refused work"
            );
        }
        let cell = |load: usize, knobs: Knobs| {
            report
                .cell(load, knobs)
                .ok_or(format!("E13: no {} cell at load {load}", knobs.label()))
        };
        // The memo cache is a speed device: it changes how many full guard
        // evaluations a cell runs, never what the cell decides, sheds or
        // sustains.
        for cached in report.cells.iter().filter(|c| c.cache) {
            let uncached = cell(
                cached.load,
                Knobs {
                    batching: cached.batching,
                    cache: false,
                    shedding: cached.shedding,
                },
            )?;
            let served = |c: &E13CellReport| (c.decided, c.shed, c.throughput);
            let (label, load) = (&cached.label, cached.load);
            ensure!(
                served(cached) == served(uncached),
                "{label} load={load}: the cache changed (decided, shed, throughput) \
                 from {:?} to {:?}",
                served(uncached),
                served(cached)
            );
            ensure!(
                cached.cache_hits == 0 || cached.evaluations() < uncached.evaluations(),
                "{label} load={load}: {} hits but no fewer evaluations than nocache",
                cached.cache_hits
            );
        }
        let shedding = |batching: bool| Knobs {
            batching,
            cache: true,
            shedding: true,
        };
        // Batching beats unbatched at the highest offered load (shedding
        // on, so both serve at their sustainable rate).
        let (batched, unbatched) = (
            cell(highest, shedding(true))?,
            cell(highest, shedding(false))?,
        );
        ensure!(
            batched.throughput > unbatched.throughput,
            "E13 load={highest}: batching must raise throughput \
             (batched={:.2} unbatched={:.2})",
            batched.throughput,
            unbatched.throughput
        );
        // Shed-rate curves: zero at the lowest load, non-zero at the
        // highest, and strictly increasing once the queue bound binds.
        for batching in [true, false] {
            let curve = loads
                .iter()
                .map(|&l| cell(l, shedding(batching)).map(|c| c.shed_rate))
                .collect::<Result<Vec<f64>, _>>()?;
            let label = shedding(batching).label();
            ensure!(
                curve[0] == 0.0,
                "{label}: must not shed at load {lowest} (curve {curve:?})"
            );
            ensure!(
                curve[curve.len() - 1] > 0.0,
                "{label}: must shed at load {highest} (curve {curve:?})"
            );
            for w in curve.windows(2) {
                ensure!(
                    w[1] >= w[0] && (w[0] == 0.0 || w[1] > w[0]),
                    "{label}: shed rate must keep rising once the bound binds \
                     (curve {curve:?})"
                );
            }
        }
        // Determinism: a second identical sweep reproduces the report once
        // wall-clock fields are stripped.
        let rerun = (E13.run)(c, env)?;
        same_modulo_wall_clock("E13", &report.normalized(), &rerun.normalized())
    },
};

/// The E13 sweep table: one row per (load × knobs) cell.
fn print_e13_table(report: &E13Report) {
    println!("load   knobs                   decided     shed   shed%   thruput    p50    p99   p99.9     hit%    evals");
    for c in &report.cells {
        let lookups = c.cache_hits + c.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            c.cache_hits as f64 / lookups as f64
        };
        println!(
            "{:<6} {:<22} {:>8} {:>8} {:>7.3} {:>9.2} {:>6} {:>6} {:>7} {:>8.3} {:>8}",
            c.load,
            c.label,
            c.decided,
            c.shed,
            c.shed_rate,
            c.throughput,
            c.p50_queue_ticks,
            c.p99_queue_ticks,
            c.p999_queue_ticks,
            hit_rate,
            c.evaluations(),
        );
    }
}

/// Determinism acceptance of E13–E17: two normalized reports must be equal
/// and serialize identically.
fn same_modulo_wall_clock<T: PartialEq + Serialize>(id: &str, a: &T, b: &T) -> Result<(), String> {
    ensure!(a == b, "{id}: two identical sweeps diverged");
    ensure!(
        serde_json::to_string(a).ok() == serde_json::to_string(b).ok(),
        "{id}: normalized reports must serialize identically"
    );
    Ok(())
}

/// Wall-clock overhead bound for E14's sampled tracing, as a fraction.
const SAMPLED_OVERHEAD_BOUND: f64 = 0.05;

/// E14 timing attempts before the overhead bound counts as violated.
const E14_ATTEMPTS: usize = 5;

static E14: Spec<E14Config, E14Report> = Spec {
    title: "distributed tracing: causal propagation, critical paths, overhead",
    config: |seed| E14Config {
        seed,
        ..E14Config::default()
    },
    smoke: None,
    run: |c, env| {
        let cfg = E14Config {
            threads: env.threads_or(c.threads),
            ..c.clone()
        };
        // Timing is the one non-deterministic acceptance: keep the best
        // sampled-mode overhead over a few attempts so one preempted run
        // does not fail the experiment.
        let mut report = run_e14(&cfg);
        for attempt in 1..E14_ATTEMPTS {
            if report.overhead_sampled < SAMPLED_OVERHEAD_BOUND {
                break;
            }
            event!(
                Level::Info,
                "e14.retry",
                attempt = attempt as u64,
                overhead_sampled = report.overhead_sampled,
            );
            let rerun = run_e14(&cfg);
            if rerun.overhead_sampled < report.overhead_sampled {
                report = rerun;
            }
        }
        Ok(report)
    },
    table: |report| {
        println!(
            "mode       offered completed  retries  records  traces  maxpath  dominant    wall ms"
        );
        for m in &report.modes {
            println!(
                "{:<9} {:>8} {:>9} {:>8} {:>8} {:>7} {:>8} {:>9} {:>10.2}",
                m.mode,
                m.offered,
                m.completed,
                m.retries,
                m.records,
                m.traces,
                m.max_path_ticks,
                m.dominant_hop,
                m.wall_ns as f64 / 1e6,
            );
        }
        println!(
            "overhead vs disabled: sampled {:+.3}, full {:+.3}",
            report.overhead_sampled, report.overhead_full
        );
    },
    check: |_, c, report, env| {
        let mode = |m: TraceMode| report.mode(m).ok_or(format!("E14: no {} mode", m.label()));
        // Observing the run must not change it.
        let disabled = mode(TraceMode::Disabled)?;
        for m in &report.modes {
            let same = m.offered == disabled.offered
                && m.decided == disabled.decided
                && m.shed == disabled.shed
                && m.expired == disabled.expired
                && m.completed == disabled.completed;
            ensure!(same, "E14 {}: tracing changed the run's outcome", m.mode);
            ensure!(
                m.unresolved_parents == 0,
                "E14 {}: every span parent must resolve",
                m.mode
            );
        }
        // Completeness: disabled records nothing, sampled a strict subset,
        // full every request — and every path was reconstructed and checked.
        let (sampled, full) = (mode(TraceMode::Sampled)?, mode(TraceMode::Full)?);
        ensure!(disabled.records == 0);
        ensure!(
            sampled.traces > 0 && sampled.traces < full.traces,
            "E14: sampling must keep a strict non-empty subset (sampled={} full={})",
            sampled.traces,
            full.traces
        );
        ensure!(full.traces == full.offered);
        ensure!(
            full.paths_checked == full.traces,
            "E14: {} of {} critical paths checked",
            full.paths_checked,
            full.traces
        );
        ensure!(
            full.retries > 0 && full.dedup_dropped > 0,
            "E14: the lossy network must exercise retries and dedup (retries={} dedup={})",
            full.retries,
            full.dedup_dropped
        );
        ensure!(
            report.overhead_sampled < SAMPLED_OVERHEAD_BOUND,
            "E14: sampled tracing overhead {:.3} exceeds {SAMPLED_OVERHEAD_BOUND} \
             in every attempt",
            report.overhead_sampled
        );
        // Determinism: a second run reproduces everything but the wall clock.
        let rerun = run_e14(&E14Config {
            threads: env.threads_or(c.threads),
            ..c.clone()
        });
        ensure!(report.normalized() == rerun.normalized());
        Ok(())
    },
};

/// The fully traced E14 run; writes its record stream as JSONL for
/// `trace-analyze`.
fn e14_artifact(seed: u64, env: &Env, path: &str) -> Result<Value, String> {
    let cfg = E14Config {
        seed,
        threads: env.threads_or(0),
        ..E14Config::default()
    };
    let (report, records) = run_e14_mode(&cfg, TraceMode::Full);
    write_file(path, crate::trace_files::export_jsonl(&records))?;
    to_value(&report)
}

static E15: Spec<E15Config, E15Report> = Spec {
    title: "serving: skew-aware sharded scheduling (deterministic work stealing)",
    config: |seed| E15Config {
        seed,
        ..E15Config::default()
    },
    smoke: Some(E15Config::smoke),
    run: |c, env| {
        Ok(run_e15(&E15Config {
            threads: env.threads_or(c.threads),
            ..c.clone()
        }))
    },
    table: |report| {
        println!("                                            ----------- static -----------  ---------- balanced ----------");
        println!("zipf     t  decided    shed   defer   hot%  hotP50w  hotP99w  allP99w makespan  hotP50w  hotP99w  allP99w makespan  steals             ledger");
        for c in &report.cells {
            let (s, b) = (&c.static_schedule, &c.balanced_schedule);
            println!(
                "{:<6} {:>3} {:>8} {:>7} {:>7} {:>6.3} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>18x}",
                c.zipf,
                c.threads,
                c.decided,
                c.shed,
                c.deferrals,
                c.hot_share,
                s.hot_p50_wait,
                s.hot_p99_wait,
                s.all_p99_wait,
                s.makespan_units,
                b.hot_p50_wait,
                b.hot_p99_wait,
                b.all_p99_wait,
                b.makespan_units,
                c.virtual_steals,
                c.ledger_digest,
            );
        }
    },
    check: |_, c, report, env| {
        let cfg = &report.config;
        // Fail-closed and fully accounted, in every cell.
        for cell in &report.cells {
            let label = format!("zipf={} t={}", cell.zipf, cell.threads);
            ensure!(cell.watchdog.is_none(), "{label}: watchdog tripped");
            ensure!(cell.shed_allows == 0, "{label}: a shed request was allowed");
            ensure!(
                cell.decided + cell.shed == cell.offered,
                "{label}: requests lost"
            );
        }
        // One ledger per skew point: digest identical across thread counts.
        for &zipf in &cfg.zipfs {
            let digests: Vec<u64> = report
                .cells
                .iter()
                .filter(|c| c.zipf == zipf)
                .map(|c| c.ledger_digest)
                .collect();
            ensure!(!digests.is_empty(), "zipf={zipf}: no cells");
            ensure!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "zipf={zipf}: ledger digests diverged across threads ({digests:?})"
            );
        }
        // Balanced beats static on hot-shard p99 virtual wait wherever the
        // skew is strong enough to matter, within each cell.
        for &zipf in cfg.zipfs.iter().filter(|&&z| z >= 1.0) {
            for &threads in &cfg.threads_sweep {
                let cell = report
                    .cell(zipf, threads)
                    .ok_or(format!("E15: no cell at zipf={zipf} t={threads}"))?;
                let (stat, bal) = (&cell.static_schedule, &cell.balanced_schedule);
                ensure!(
                    bal.hot_p99_wait < stat.hot_p99_wait,
                    "zipf={zipf} t={threads}: balanced hot p99 wait {} must beat static {}",
                    bal.hot_p99_wait,
                    stat.hot_p99_wait
                );
                // A lone worker has nowhere to steal from; the balanced
                // schedule degenerates to LPT ordering on one worker.
                ensure!(
                    threads == 1 || cell.virtual_steals > 0,
                    "zipf={zipf} t={threads}: the balanced schedule never stole"
                );
            }
        }
        // The top skew point trips cross-shard backpressure.
        let top = cfg.zipfs.iter().cloned().fold(f64::MIN, f64::max);
        for cell in report.cells.iter().filter(|c| c.zipf == top) {
            ensure!(
                cell.deferrals > 0,
                "zipf={top} t={}: hot shard never deferred",
                cell.threads
            );
        }
        let rerun = (E15.run)(c, env)?;
        same_modulo_wall_clock("E15", &report.normalized(), &rerun.normalized())
    },
};

/// The canonical skewed E15 cell (Zipf 1.2, smoke shape); writes its
/// sealed ledger so runs at different thread counts can be compared byte
/// for byte.
fn e15_artifact(seed: u64, env: &Env, path: &str) -> Result<Value, String> {
    let threads = env.threads_or(0);
    let cfg = E15Config {
        seed,
        threads,
        ..E15Config::smoke()
    };
    let cell_threads = if threads == 0 { 3 } else { threads };
    let (report, ledger) = run_e15_cell(&cfg, 1.2, cell_threads);
    write_file(path, ledger.to_jsonl())?;
    to_value(&report)
}

static E16: Spec<E16Config, E16Report> = Spec {
    title: "serving: kill-and-resume crash tolerance (checkpoint/restore + segment rotation)",
    config: |seed| E16Config {
        seed,
        ..E16Config::default()
    },
    smoke: Some(E16Config::smoke),
    run: |c, env| {
        Ok(run_e16(&E16Config {
            threads: env.threads_or(c.threads),
            ..c.clone()
        }))
    },
    table: |report| {
        println!("budget    kills   torn diverge  badver  maxdisc   segs  pruned   records               head");
        for c in &report.cells {
            println!(
                "{:<7} {:>7} {:>6} {:>7} {:>7} {:>8} {:>6} {:>7} {:>9} {:>18x}",
                c.budget,
                c.crash_points,
                c.torn_points,
                c.divergences,
                c.verify_failures,
                c.max_discarded,
                c.segments,
                c.pruned,
                c.ledger_records,
                c.final_head,
            );
        }
    },
    check: |_, c, report, env| {
        let cfg = &report.config;
        for cell in &report.cells {
            let label = format!("budget={}", cell.budget);
            // Zero divergence across every crash point.
            ensure!(cell.crash_points > 0, "{label}: no crash points swept");
            ensure!(cell.torn_points > 0, "{label}: no torn writes swept");
            ensure!(
                cell.divergences == 0,
                "{label}: resumed run diverged — {:?}",
                cell.first_divergence
            );
            // Every resumed ledger verifies end to end.
            ensure!(cell.verify_failures == 0, "{label}: resumed ledger corrupt");
            // Recovery work is bounded by the rotation budget.
            ensure!(
                cell.unbounded_recoveries == 0 && cell.max_discarded <= cell.discard_bound,
                "{label}: recovery discarded {} records, bound {}",
                cell.max_discarded,
                cell.discard_bound
            );
            // Rotation and retention actually exercised.
            ensure!(cell.segments > 1, "{label}: budget never rotated");
            ensure!(
                cfg.keep_sealed == 0 || cell.pruned > 0,
                "{label}: retention never pruned"
            );
            ensure!(
                cell.decided + cell.shed == cell.offered,
                "{label}: requests lost"
            );
        }
        let rerun = (E16.run)(c, env)?;
        same_modulo_wall_clock("E16", &report.normalized(), &rerun.normalized())
    },
};

/// The canonical rotating E16 cell (one budget, smoke shape): sweeps every
/// kill point and writes the golden sealed segment files.
fn e16_artifact(seed: u64, env: &Env, path: &str) -> Result<Value, String> {
    let cfg = E16Config {
        seed,
        threads: env.threads_or(0),
        ..E16Config::smoke()
    };
    let (report, ledger) = run_e16_cell(&cfg, cfg.budgets[0]);
    write_segments(path, &ledger.to_jsonl_segments())?;
    to_value(&report)
}

static E17: Spec<E17Config, E17Report> = Spec {
    title: "networked serving: framed TCP path, ledger byte-identical under chaos",
    config: |seed| E17Config {
        seed,
        ..E17Config::default()
    },
    smoke: Some(E17Config::smoke),
    // The TCP sweep drives its own loopback threads; the in-service worker
    // pool stays at 1 so the ledger matches the in-process run byte for
    // byte.
    run: |c, _| run_e17(c).map_err(|e| format!("e17 failed: {e}")),
    table: |report| {
        println!("clients   offered returned ledger decisions rejects  drops  audit unaudit   segs               head");
        let same = |b: bool| if b { "=" } else { "DIFF" };
        for c in &report.cells {
            println!(
                "{:<8} {:>8} {:>8} {:>6} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6} {:>18x}",
                c.clients,
                c.offered,
                c.returned,
                same(c.ledger_identical),
                same(c.decisions_identical),
                c.rejects,
                c.drops,
                c.audit_records,
                c.unaudited,
                c.segments,
                c.final_head,
            );
        }
        println!(
            "trace probe: context spans client -> wire -> service -> wire -> client: {}",
            report.trace_spans_wire
        );
    },
    check: |_, c, report, env| {
        ensure!(!report.cells.is_empty());
        for cell in &report.cells {
            let label = format!("clients={}", cell.clients);
            // The transport is invisible in the audit trail.
            ensure!(cell.ledger_identical, "{label}: sealed segments diverged");
            ensure!(
                cell.decisions_identical,
                "{label}: decision stream diverged"
            );
            // Every offered request came back over its own connection.
            ensure!(cell.returned == cell.offered, "{label}: decisions lost");
            ensure!(cell.undelivered == 0, "{label}: undeliverable decisions");
            ensure!(
                cell.decided + cell.shed == cell.offered,
                "{label}: requests lost"
            );
            // Chaos was rejected fail-closed, and every rejection audited.
            ensure!(cell.chaos, "{label}: chaos pack did not run");
            ensure!(cell.rejects >= 1, "{label}: unauthorized probe not denied");
            // One drop per dropping chaos kind: garbage, bad CRC, oversize,
            // slow-loris and mid-frame disconnect.
            ensure!(cell.drops == 5, "{label}: garbage connections not dropped");
            ensure!(cell.unaudited == 0, "{label}: unaudited rejection");
            ensure!(
                cell.unterminated == 0,
                "{label}: a connection lacks exactly one terminal audit record"
            );
            ensure!(cell.audit_verified, "{label}: boundary audit corrupt");
            // Rotation really engaged on the wire path too.
            ensure!(cell.segments > 1, "{label}: budget never rotated");
        }
        // All cells seal the same ledger: the head digest is client-count
        // invariant.
        let heads: Vec<u64> = report.cells.iter().map(|c| c.final_head).collect();
        ensure!(
            heads.windows(2).all(|w| w[0] == w[1]),
            "head digests diverged across client counts ({heads:?})"
        );
        // The causal chain crossed the wire in both directions.
        ensure!(report.trace_spans_wire);
        ensure!(report.holds());
        let rerun = (E17.run)(c, env)?;
        same_modulo_wall_clock("E17", &report.normalized(), &rerun.normalized())
    },
};

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Write a rotated run's segments as a `base.segNNNN.jsonl` file family.
pub fn write_segments(base: &str, segs: &[(u64, String)]) -> Result<(), String> {
    for (index, text) in segs {
        write_file(&format!("{base}.seg{index:04}.jsonl"), text)?;
    }
    Ok(())
}

/// Host provenance stamped into every `BENCH_*.json`: wall-clock numbers
/// (throughput, speedup, overhead) are only comparable between runs on the
/// same parallel budget, so the report must say what that budget was.
#[derive(Debug, Serialize)]
struct HostInfo {
    /// Hardware threads the host advertises (`apdm_par::hardware_threads`).
    pub hardware_threads: usize,
    /// The raw `APDM_THREADS` override, if the environment set one.
    pub apdm_threads: Option<String>,
    /// Cargo profile the harness was compiled under (`debug` timings are
    /// not comparable with `release` ones).
    pub profile: String,
    /// Short git revision of the working tree, when the repo is available.
    pub git_revision: Option<String>,
}

/// Short `git rev-parse` of the source tree this crate was built from.
fn git_revision() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

/// Detect the current host's parallel budget and build provenance.
fn host_info() -> HostInfo {
    HostInfo {
        hardware_threads: crate::par::hardware_threads(),
        apdm_threads: std::env::var("APDM_THREADS").ok(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        git_revision: git_revision(),
    }
}

/// Write an experiment report as pretty JSON with the host provenance header
/// spliced in as a leading `"host"` key; the report's own top-level keys
/// are untouched.
pub fn write_report<T: Serialize>(path: &str, report: &T) -> Result<(), String> {
    let mut value = to_value(report)?;
    let host = to_value(&host_info())?;
    if let Value::Map(entries) = &mut value {
        entries.insert(0, ("host".into(), host));
    }
    let body = serde_json::to_string_pretty(&value).map_err(|e| format!("render: {e}"))?;
    write_file(path, body)
}
