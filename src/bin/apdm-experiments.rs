//! Command-line experiment runner: run any experiment of the
//! `apdm::experiments` registry, print its table (or, with `--json`, its
//! report) and exit non-zero when it breaks an acceptance claim.
//!
//! ```text
//! apdm-experiments list
//! apdm-experiments run e1 [--seed 42] [--json] [--trace out.jsonl] [--quiet]
//! apdm-experiments run all              # every experiment; lists each failure
//! apdm-experiments record [--seed 42] [--out run.jsonl]
//! apdm-experiments verify run.jsonl
//! apdm-experiments replay run.jsonl [--seed 42] [--from-snapshot]
//! apdm-experiments trace [--seed 42] [--out trace.jsonl]
//! apdm-experiments calibrate [--seed 42] [--json]
//! apdm-experiments trace-analyze trace.jsonl [--chrome out.json]
//! apdm-experiments checkpoint [--kill-tick T] [--seed 42] --out base
//! apdm-experiments resume base [--seed 42] [--out base2]
//! apdm-experiments serve-net serve [--listen 127.0.0.1:0] [--addr-file p] \
//!     [--clients N] [--smoke] [--out base]
//! apdm-experiments serve-net client (--connect addr | --addr-file p) \
//!     --index I --clients N [--smoke]
//! apdm-experiments serve-net chaos (--connect addr | --addr-file p) --kind k
//! apdm-experiments serve-net golden [--smoke] [--out base]
//! ```
//!
//! Parallelism: the global `--threads N` flag sets the worker count for
//! both the two-phase fleet tick and the experiment fan-out (`0` = one
//! per hardware thread, the default; `1` = fully sequential; the
//! `APDM_THREADS` env var overrides auto-detection). Experiment sweeps
//! distribute their cells across the pool but always print in table
//! order, and recorded ledgers are bit-identical at any thread count.
//! `--no-cache` disables the guard-verdict memo cache. `run` rejects a flag
//! the chosen experiment never reads (`--out` outside e12/e14/e15/e16,
//! `--no-cache` outside e11) before anything runs.
//!
//! `record` runs the canonical guarded-striker scenario under the
//! `apdm-ledger` flight recorder and writes the hash-chained ledger as
//! JSONL; `verify` re-imports it and localizes the first corrupt record if
//! any; `replay` re-executes the run (from tick 0, or from the last
//! checkpoint with `--from-snapshot`) and reports the first divergence.
//!
//! Observability: progress lines route through an `apdm-telemetry` stderr
//! subscriber, so `--quiet` silences them without touching result output
//! (stdout). The global `--trace <path>` flag additionally captures every
//! span and event into a ring buffer and, when the command finishes, writes
//! the trace as JSONL to `<path>` and as a Chrome `trace_event` document to
//! `<path>.chrome.json`, then prints the metrics percentile table
//! (per-guard latency, per-tick phase timings). The `trace` subcommand does
//! this for the canonical recorded scenario in one step.
//!
//! Skew scheduling: `run e15` sweeps Zipf device skew × worker threads
//! (experiment E15), each cell reporting the static and the balanced
//! virtual schedule of the same batches side by side; `run e15 --out
//! cell.jsonl` runs the canonical skewed cell and writes its sealed
//! ledger — CI runs it at two thread counts and compares the files byte
//! for byte. `calibrate` measures real per-batch guard-stack nanoseconds
//! and prints the least-squares-fitted `CostModel` constants with their
//! residual error.
//!
//! Distributed tracing: `run e14 --out traced.jsonl` records the full-mode
//! causally-traced serve run (experiment E14) as JSONL, and
//! `trace-analyze` rebuilds the cross-device span DAG from any such
//! export, prints each trace's critical path (per-step waits telescope to
//! the end-to-end tick latency), and with `--chrome <path>` writes a
//! multi-device Chrome timeline (one track per device).
//!
//! Crash tolerance: `checkpoint --out base` runs the canonical rotating
//! serve cell (experiment E16's smoke shape) and writes its sealed
//! segment files as `base.segNNNN.jsonl`; with `--kill-tick T` it instead
//! writes the segment files exactly as a process SIGKILLed at tick `T`
//! would leave them (an open, checkpoint-headed tail). `resume base`
//! recovers from those files — latest valid checkpoint, fallback ladder,
//! full restart if nothing survived — replays the suffix, and writes the
//! resumed run's sealed segments; CI `cmp`s them byte for byte against
//! the golden files. A verified checkpoint of another format than this
//! build's (e.g. a format-1 checkpoint, which stored memo-cache verdicts)
//! is refused: `resume` names the format and exits nonzero rather than
//! restarting the run from tick 1. `verify` recognizes rotated runs: pointed at any
//! `.segNNNN.jsonl` file (or the family's base path), it checks every
//! retained segment's hash chain *and* the cross-segment anchors, prints
//! a per-segment report, and exits nonzero if any segment fails.
//!
//! Networked serving: `serve-net` exposes the experiment E17 machinery as
//! separate processes so CI can prove the TCP path is ledger-invisible
//! across real process boundaries. `serve-net serve` binds a listener
//! (writing the bound address to `--addr-file` for rendezvous), drives the
//! canonical seeded workload through `apdm-net`, and writes the sealed
//! segment family to `--out`; `serve-net client` connects and drives
//! workload partition `--index` of `--clients`; `serve-net chaos` runs one
//! scripted hostile connection (`--kind garbage|badcrc|oversize|slow|`
//! `disconnect|unauthorized`); `serve-net golden` writes the in-process
//! run's segments for a byte-for-byte `cmp`. The wire format is specified
//! in `docs/PROTOCOL.md`.

use std::env;
use std::fs;
use std::process::ExitCode;
use std::rc::Rc;

use apdm::experiments::{self, write_segments, Env, Experiment, Scale, EXPERIMENTS};
use apdm::ledger::{Ledger, SegmentedLedger};
use apdm::net::{
    golden_segments, run_chaos_client, run_workload_client, serve, ChaosKind, E17Config,
};
use apdm::serve::{
    resume_run, run_calibration, run_to_completion, standard_stacks, E16Config,
    PolicyDecisionService, SimDisk, WorkloadGen, WorkloadOracle,
};
use apdm::sim::recorder::{
    replay_recorded, replay_recorded_prefix, run_recorded, RecordSpec, ReplayStart,
};
use apdm::telemetry::{self, event, Fanout, Level, RingCollector, StderrSubscriber, Subscriber};

/// `--help` text: every subcommand with its flags.
const USAGE: &str = "\
usage: apdm-experiments <command> [flags]

commands:
  list
  run <id|all> [--seed N] [--json]
      [--no-cache]                        e11 only
      [--out path]                        e12, e14, e15, e16: one cell, written to path
  record [--seed N] [--out run.jsonl]
  verify <ledger.jsonl | run.segNNNN.jsonl>
  replay <ledger.jsonl> [--seed N] [--from-snapshot]
  trace [--seed N] [--out trace.jsonl]
  calibrate [--seed N] [--json]
  trace-analyze <trace.jsonl> [--chrome out.json]
  checkpoint [--seed N] [--kill-tick T] [--out base]
  resume <base> [--seed N] [--out base2]
  serve-net serve [--listen addr] [--addr-file path] [--clients N] [--smoke] [--out base]
  serve-net client (--connect addr | --addr-file path) --index I --clients N [--smoke]
  serve-net chaos (--connect addr | --addr-file path) --kind k [--smoke]
  serve-net golden [--smoke] [--out base]

global flags:
  --threads N   worker threads (0 = one per hardware thread)
  --no-cache    disable the guard-verdict memo cache
  --quiet       silence progress lines on stderr
  --trace path  capture spans and events to path (JSONL) and path.chrome.json
  --help, -h    print this text";

/// How many positional words `command` takes, the command itself
/// included; `None` for an unknown command.
fn positional_limit(command: &str) -> Option<usize> {
    match command {
        "list" | "record" | "trace" | "calibrate" | "checkpoint" => Some(1),
        "run" | "verify" | "replay" | "trace-analyze" | "resume" | "serve-net" => Some(2),
        _ => None,
    }
}

/// Reject a command line with a usage line and a non-zero exit.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    eprintln!("usage: apdm-experiments <command> [flags]; see `apdm-experiments --help`");
    ExitCode::FAILURE
}

/// Ring-buffer capacity for `--trace` captures (most recent records win).
const TRACE_RING_CAPACITY: usize = 262_144;

/// Flags specific to the `serve-net` subcommand.
#[derive(Debug, Clone, Default)]
struct NetFlags {
    /// Listen address for `serve` (`--listen`, default an ephemeral
    /// loopback port).
    listen: Option<String>,
    /// Explicit server address for `client`/`chaos` (`--connect`).
    connect: Option<String>,
    /// Rendezvous file: `serve` writes its bound address there,
    /// `client`/`chaos` poll it (`--addr-file`).
    addr_file: Option<String>,
    /// Workload client count the run is partitioned across (`--clients`).
    clients: u32,
    /// This client's partition index in `0..clients` (`--index`).
    index: u32,
    /// Chaos script name (`--kind`).
    kind: Option<String>,
}

/// Every command-line flag, at its default unless given.
#[derive(Debug)]
struct Flags {
    json: bool,
    quiet: bool,
    seed: u64,
    out: Option<String>,
    trace: Option<String>,
    chrome: Option<String>,
    from_snapshot: bool,
    threads: usize,
    cache: bool,
    smoke: bool,
    kill_tick: Option<u64>,
    net: NetFlags,
    /// The flags given, in command-line order.
    given: Vec<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            json: false,
            quiet: false,
            seed: 42,
            out: None,
            trace: None,
            chrome: None,
            from_snapshot: false,
            threads: 0,
            cache: true,
            smoke: false,
            kill_tick: None,
            net: NetFlags {
                clients: 1,
                ..NetFlags::default()
            },
            given: Vec::new(),
        }
    }
}

/// Print `message` and fail.
fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// The value after `flag`, parsed, or the failure to exit with.
fn value<T: std::str::FromStr>(
    iter: &mut std::slice::Iter<String>,
    flag: &str,
    what: &str,
) -> Result<T, ExitCode> {
    iter.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| fail(&format!("{flag} requires {what}")))
}

/// Split the command line into positional words and flags. `Err` is the
/// exit code to return at once: after `--help`, or after printing why the
/// line is malformed.
fn parse(args: &[String]) -> Result<(Vec<String>, Flags), ExitCode> {
    let mut f = Flags::default();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with('-') {
            f.given.push(arg.clone());
        }
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            "--json" => f.json = true,
            "--quiet" => f.quiet = true,
            "--from-snapshot" => f.from_snapshot = true,
            "--no-cache" => f.cache = false,
            "--smoke" => f.smoke = true,
            "--seed" => f.seed = value(&mut iter, arg, "an integer")?,
            "--threads" => f.threads = value(&mut iter, arg, "an integer (0 = auto)")?,
            "--kill-tick" => f.kill_tick = Some(value(&mut iter, arg, "a tick number")?),
            "--out" => f.out = Some(value(&mut iter, arg, "a path")?),
            "--trace" => f.trace = Some(value(&mut iter, arg, "a path")?),
            "--chrome" => f.chrome = Some(value(&mut iter, arg, "a path")?),
            "--listen" => f.net.listen = Some(value(&mut iter, arg, "an address")?),
            "--connect" => f.net.connect = Some(value(&mut iter, arg, "an address")?),
            "--addr-file" => f.net.addr_file = Some(value(&mut iter, arg, "a path")?),
            "--clients" => match value(&mut iter, arg, "an integer >= 1")? {
                0 => return Err(fail("--clients requires an integer >= 1")),
                n => f.net.clients = n,
            },
            "--index" => f.net.index = value(&mut iter, arg, "an integer")?,
            "--kind" => f.net.kind = Some(value(&mut iter, arg, "a chaos script name")?),
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(usage_error(&format!("unknown flag `{flag}`")));
            }
            other => positional.push(other.to_string()),
        }
    }
    if let Some(command) = positional.first() {
        if let Some(limit) = positional_limit(command) {
            if let Some(extra) = positional.get(limit) {
                return Err(usage_error(&format!(
                    "unexpected argument `{extra}` for `{command}`"
                )));
            }
        }
        if command == "run" {
            check_run_flags(positional.get(1).map(String::as_str), &f.given)
                .map_err(|e| usage_error(&e))?;
        }
    }
    Ok((positional, f))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (positional, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let mut trace = flags.trace.clone();

    // The `trace` subcommand is the canonical recorded scenario run under
    // `--trace`, with `--out` naming the trace file.
    if positional.first().map(String::as_str) == Some("trace") && trace.is_none() {
        let default = format!("trace-{}.jsonl", flags.seed);
        trace = Some(flags.out.clone().unwrap_or(default));
    }

    // Telemetry: progress lines go to stderr (unless --quiet); --trace adds
    // a ring-buffer capture. With neither, no subscriber is installed and
    // the span!/event! call sites in the hot loop stay disabled.
    let collector = trace
        .as_ref()
        .map(|_| Rc::new(RingCollector::new(TRACE_RING_CAPACITY)));
    let mut sinks: Vec<Rc<dyn Subscriber>> = Vec::new();
    if !flags.quiet {
        sinks.push(Rc::new(StderrSubscriber::default()));
    }
    if let Some(c) = &collector {
        sinks.push(c.clone());
    }
    let _guard = (!sinks.is_empty()).then(|| telemetry::install(Rc::new(Fanout::new(sinks))));

    let code = dispatch(&positional, &flags);

    // Dump even when the command failed: a trace of a failing verify run
    // carries the ledger.corruption events that explain it.
    if let (Some(path), Some(collector)) = (&trace, &collector) {
        if let Err(e) = dump_trace(path, collector) {
            return fail(&e);
        }
    }
    code
}

/// Execute the chosen subcommand.
fn dispatch(positional: &[String], flags: &Flags) -> ExitCode {
    let Flags {
        json,
        seed,
        from_snapshot,
        threads,
        cache,
        smoke,
        kill_tick,
        ..
    } = *flags;
    let (out, net) = (flags.out.clone(), &flags.net);
    let env = Env {
        threads: flags
            .given
            .iter()
            .any(|f| f == "--threads")
            .then_some(threads),
        cache,
    };
    match positional.first().map(String::as_str) {
        Some("list") => {
            for e in EXPERIMENTS {
                println!("{:<5} {}", e.id, e.title());
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let selected: Vec<&Experiment> = match positional.get(1).map(String::as_str) {
                Some("all") => EXPERIMENTS.iter().collect(),
                Some(id) => match experiments::find(id) {
                    Some(e) => vec![e],
                    None => {
                        return fail(&format!(
                            "unknown experiment `{id}`; see `apdm-experiments list`"
                        ))
                    }
                },
                None => return fail("usage: apdm-experiments run <id|all> [--seed N] [--json]"),
            };
            let failed: Vec<String> = selected
                .into_iter()
                .filter_map(|e| run_one(e, seed, json, out.as_deref(), &env).err())
                .collect();
            for line in &failed {
                eprintln!("{line}");
            }
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("record") => {
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let recorded = run_recorded(&spec);
            let path = out.unwrap_or_else(|| format!("run-{seed}.jsonl"));
            if let Err(e) = fs::write(&path, recorded.ledger.to_jsonl()) {
                return fail(&format!("cannot write {path}: {e}"));
            }
            event!(
                Level::Info,
                "record.written",
                path = path.as_str(),
                records = recorded.ledger.len(),
                harms = recorded.metrics.harm_count(),
            );
            emit(json, &recorded.metrics);
            ExitCode::SUCCESS
        }
        Some("trace") => {
            // The traced canonical scenario; main() installed the collector
            // and writes the files after we return. Tracing stays useful at
            // any thread count: workers run with telemetry disabled, so the
            // phase spans come from the sequential commit path.
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let recorded = run_recorded(&spec);
            event!(
                Level::Info,
                "trace.run-finished",
                records = recorded.ledger.len(),
                harms = recorded.metrics.harm_count(),
            );
            emit(json, &recorded.metrics);
            ExitCode::SUCCESS
        }
        Some("verify") => {
            let Some(path) = positional.get(1) else {
                return fail("usage: apdm-experiments verify <ledger.jsonl | run.segNNNN.jsonl>");
            };
            // A rotated run is a family of `.segNNNN.jsonl` files. If the
            // path names one of them (or their common base), verify the
            // whole chain — per-segment hash chains plus cross-segment
            // anchors — and report every segment.
            let base = segment_base(path);
            match discover_segments(&base) {
                Err(e) => return fail(&e),
                Ok(segs) if !segs.is_empty() => return verify_segmented(&base, &segs),
                Ok(_) => {}
            }
            match load_ledger(path) {
                Err(code) => code,
                Ok((ledger, torn)) => {
                    if torn {
                        // A torn final line is crash evidence, not tamper
                        // evidence: the recovered prefix must still chain,
                        // but the seal is legitimately missing.
                        match ledger.verify_chain() {
                            Ok(()) => {
                                println!("{ledger}: chain intact, torn tail recovered (unsealed)");
                                ExitCode::SUCCESS
                            }
                            Err(corruption) => fail(&corruption.to_string()),
                        }
                    } else {
                        match ledger.verify() {
                            Ok(()) => {
                                println!("{ledger}: chain intact, sealed");
                                ExitCode::SUCCESS
                            }
                            Err(corruption) => fail(&corruption.to_string()),
                        }
                    }
                }
            }
        }
        Some("replay") => {
            let Some(path) = positional.get(1) else {
                return fail(
                    "usage: apdm-experiments replay <ledger.jsonl> [--seed N] [--from-snapshot]",
                );
            };
            let (ledger, torn) = match load_ledger(path) {
                Err(code) => return code,
                Ok(loaded) => loaded,
            };
            let spec = RecordSpec {
                seed,
                threads,
                cache,
                ..RecordSpec::default()
            };
            let start = if from_snapshot {
                ReplayStart::LatestSnapshot
            } else {
                ReplayStart::Origin
            };
            // A torn reference is a prefix of the real run: the replay will
            // legitimately run past its cut, so only the surviving prefix is
            // required to match.
            let outcome = if torn {
                replay_recorded_prefix(&spec, &ledger, start)
            } else {
                replay_recorded(&spec, &ledger, start)
            };
            match outcome {
                Err(e) => fail(&format!("replay failed: {e}")),
                Ok(outcome) => {
                    println!("{}", outcome.report);
                    emit(json, &outcome.metrics);
                    if outcome.report.is_faithful() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
            }
        }
        Some("calibrate") => {
            // The wall-clock cost model fit: measure real per-batch
            // guard-stack nanoseconds and print the least-squares constants
            // plus residual error.
            let report = run_calibration(seed, 8, 1_000_000);
            if json {
                emit(true, &report);
                return ExitCode::SUCCESS;
            }
            println!(
                "calibration: {} timed batches (seed {seed})",
                report.samples
            );
            println!(
                "  fit: batch_ns ~= {:.1} + {:.1}*hits + {:.1}*misses",
                report.overhead_ns, report.hit_ns, report.miss_ns
            );
            println!(
                "  residual: {:.1} ns rms ({:.1}% of mean batch)",
                report.residual_rms_ns,
                report.residual_rel * 100.0
            );
            let m = &report.fitted;
            println!(
                "fitted CostModel (1 unit = one cache hit, tick budget {} ns):",
                report.tick_budget_ns
            );
            println!(
                "  capacity_per_tick={} batch_overhead={} cost_hit={} cost_miss={}",
                m.capacity_per_tick, m.batch_overhead, m.cost_hit, m.cost_miss
            );
            ExitCode::SUCCESS
        }
        Some("trace-analyze") => {
            let Some(path) = positional.get(1) else {
                return fail(
                    "usage: apdm-experiments trace-analyze <trace.jsonl> [--chrome out.json]",
                );
            };
            trace_analyze(path, flags.chrome.as_deref())
        }
        Some("checkpoint") => {
            let cfg = E16Config {
                seed,
                ..E16Config::smoke()
            };
            let base = out.unwrap_or_else(|| format!("e16-{seed}"));
            checkpoint_cmd(&cfg, kill_tick, &base)
        }
        Some("resume") => {
            let Some(base) = positional.get(1) else {
                return fail("usage: apdm-experiments resume <base> [--seed N] [--out base2]");
            };
            let cfg = E16Config {
                seed,
                ..E16Config::smoke()
            };
            let out_base = out.unwrap_or_else(|| format!("{base}-resumed"));
            resume_cmd(&cfg, base, &out_base)
        }
        Some("serve-net") => {
            let cfg = E17Config {
                seed,
                ..if smoke {
                    E17Config::smoke()
                } else {
                    E17Config::default()
                }
            };
            serve_net_cmd(positional.get(1).map(String::as_str), &cfg, out, net)
        }
        _ => fail(
            "usage: apdm-experiments \
                 <list|run|record|verify|replay|trace|calibrate|trace-analyze\
                 |checkpoint|resume|serve-net> ...",
        ),
    }
}

/// How long `client`/`chaos` poll the `--addr-file` rendezvous before
/// giving up, and how long workload clients wait for the run to finish.
const NET_RENDEZVOUS: std::time::Duration = std::time::Duration::from_secs(20);
const NET_DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

/// Resolve the server address for `serve-net client`/`chaos`: an explicit
/// `--connect`, or polling the `--addr-file` the server writes on bind.
fn resolve_addr(net: &NetFlags) -> Result<String, String> {
    if let Some(addr) = &net.connect {
        return Ok(addr.clone());
    }
    let Some(path) = &net.addr_file else {
        return Err("need --connect ADDR or --addr-file PATH".to_string());
    };
    let deadline = std::time::Instant::now() + NET_RENDEZVOUS;
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(format!("timed out waiting for server address in {path}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// The multi-process face of experiment E17 (see `docs/PROTOCOL.md`).
fn serve_net_cmd(
    mode: Option<&str>,
    cfg: &E17Config,
    out: Option<String>,
    net: &NetFlags,
) -> ExitCode {
    match mode {
        Some("serve") => {
            let listen = net.listen.as_deref().unwrap_or("127.0.0.1:0");
            let listener = match std::net::TcpListener::bind(listen) {
                Ok(l) => l,
                Err(e) => return fail(&format!("cannot bind {listen}: {e}")),
            };
            let addr = match listener.local_addr() {
                Ok(a) => a.to_string(),
                Err(e) => return fail(&format!("cannot read bound address: {e}")),
            };
            // Write-then-rename so pollers never see a partial address.
            if let Some(path) = &net.addr_file {
                let tmp = format!("{path}.tmp");
                if let Err(e) =
                    fs::write(&tmp, &addr).and_then(|()| fs::rename(&tmp, path.as_str()))
                {
                    return fail(&format!("cannot write {path}: {e}"));
                }
            }
            eprintln!(
                "serving on {addr} ({} workload clients expected)",
                net.clients
            );
            let svc = PolicyDecisionService::new(
                cfg.serve_config(),
                standard_stacks(cfg.shards, true),
                WorkloadOracle,
                &cfg.run_name(),
            );
            let outcome = match serve(listener, svc, cfg.net_config(net.clients)) {
                Ok(outcome) => outcome,
                Err(e) => return fail(&format!("serve failed: {e}")),
            };
            if let Err(e) = outcome.ledger.verify() {
                return fail(&format!("served ledger corrupt: {e}"));
            }
            if outcome.audit.verify().is_err() {
                return fail("boundary audit ledger corrupt");
            }
            let base = out.unwrap_or_else(|| format!("e17-{}", cfg.seed));
            if let Err(e) = write_segments(&base, &outcome.ledger.to_jsonl_segments()) {
                return fail(&e);
            }
            println!(
                "sealed at tick {}: {} decisions delivered, {} rejects, {} drops, \
                 {} segments, head {:016x} -> {base}.seg*.jsonl",
                outcome.final_tick,
                outcome.decisions_sent,
                outcome.rejects,
                outcome.drops,
                outcome.ledger.segments().len(),
                outcome.ledger.head_digest(),
            );
            ExitCode::SUCCESS
        }
        Some("client") => {
            let addr = match resolve_addr(net) {
                Ok(addr) => addr,
                Err(e) => return fail(&e),
            };
            if net.index >= net.clients {
                return fail(&format!(
                    "--index {} out of range 0..{}",
                    net.index, net.clients
                ));
            }
            match run_workload_client(
                &addr,
                cfg.spec(),
                net.index,
                net.clients,
                None,
                NET_DEADLINE,
            ) {
                Ok(report) => {
                    println!(
                        "client {}/{}: {} requests sent, {} decisions returned",
                        net.index,
                        net.clients,
                        report.sent,
                        report.decisions.len(),
                    );
                    if report.decisions.len() as u64 == report.sent {
                        ExitCode::SUCCESS
                    } else {
                        fail("decision stream incomplete")
                    }
                }
                Err(e) => fail(&format!("client failed: {e}")),
            }
        }
        Some("chaos") => {
            let Some(kind) = net.kind.as_deref().and_then(ChaosKind::parse) else {
                let names: Vec<&str> = ChaosKind::all().iter().map(|k| k.name()).collect();
                return fail(&format!("--kind must be one of: {}", names.join(", ")));
            };
            let addr = match resolve_addr(net) {
                Ok(addr) => addr,
                Err(e) => return fail(&e),
            };
            match run_chaos_client(&addr, kind) {
                Ok(report) => {
                    println!(
                        "chaos {}: closed with {:?}, {} fail-closed denies",
                        kind.name(),
                        report.closed_code,
                        report.denies,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("chaos {} failed: {e}", kind.name())),
            }
        }
        Some("golden") => {
            let base = out.unwrap_or_else(|| format!("e17-{}-golden", cfg.seed));
            let segments = golden_segments(cfg);
            if let Err(e) = write_segments(&base, &segments) {
                return fail(&e);
            }
            println!(
                "golden in-process run: {} segments -> {base}.seg*.jsonl",
                segments.len(),
            );
            ExitCode::SUCCESS
        }
        _ => fail(
            "usage: apdm-experiments serve-net <serve|client|chaos|golden> \
                 [--listen A] [--connect A] [--addr-file P] [--clients N] \
                 [--index I] [--kind K] [--smoke] [--out base]",
        ),
    }
}

/// Strip a `.segNNNN.jsonl` suffix, mapping any member of a rotated-run
/// file family to the family's base path; other paths pass through.
fn segment_base(path: &str) -> String {
    if let Some(pos) = path.rfind(".seg") {
        if let Some(digits) = path[pos + 4..].strip_suffix(".jsonl") {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return path[..pos].to_string();
            }
        }
    }
    path.to_string()
}

/// Find every `base.segNNNN.jsonl` sibling on disk, sorted by segment
/// index. An unreadable directory is treated as "no family" (the caller
/// falls back to single-file handling); an unreadable family member is a
/// hard error.
fn discover_segments(base: &str) -> Result<Vec<(u64, String)>, String> {
    let path = std::path::Path::new(base);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let Some(stem) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{stem}.seg");
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut segs = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(".jsonl") else {
            continue;
        };
        let Ok(index) = digits.parse::<u64>() else {
            continue;
        };
        let text = fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        segs.push((index, text));
    }
    segs.sort_by_key(|(index, _)| *index);
    Ok(segs)
}

/// Verify a rotated run end to end and print one line per retained
/// segment. Any unparseable, chain-broken, or mis-anchored segment makes
/// the whole command fail.
fn verify_segmented(base: &str, segs: &[(u64, String)]) -> ExitCode {
    let mut ledgers = Vec::new();
    let mut failed = false;
    for (index, text) in segs {
        match Ledger::from_jsonl(text) {
            Ok(ledger) => ledgers.push(ledger),
            Err(e) => {
                eprintln!("segment {index:04}: unparseable: {e}");
                failed = true;
            }
        }
    }
    if failed || ledgers.is_empty() {
        return ExitCode::FAILURE;
    }
    let ledger = SegmentedLedger::from_segments(ledgers);
    for report in ledger.verify_report() {
        match &report.error {
            None => println!(
                "segment {:04}: {} records, head {:016x}: ok",
                report.segment, report.records, report.head
            ),
            Some(corruption) => {
                eprintln!(
                    "segment {:04}: {} records, head {:016x}: {corruption}",
                    report.segment, report.records, report.head
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "{base}: {} segments intact ({} pruned), {} records, anchored head {:016x}",
            ledger.segments().len(),
            ledger.pruned_count(),
            ledger.total_records(),
            ledger.head_digest(),
        );
        ExitCode::SUCCESS
    }
}

/// Run the canonical rotating serve cell (E16 smoke shape) and write its
/// segment files: the sealed golden run, or — with a kill tick — the
/// exact bytes a SIGKILLed process would leave behind.
fn checkpoint_cmd(cfg: &E16Config, kill_tick: Option<u64>, base: &str) -> ExitCode {
    let budget = cfg.budgets[0];
    let mut svc = PolicyDecisionService::new(
        cfg.serve_config(budget, 1),
        standard_stacks(cfg.shards, true),
        WorkloadOracle,
        &cfg.run_name(budget),
    );
    let mut gen = WorkloadGen::new(cfg.spec(budget));
    let mut disk = SimDisk::default();
    let mut killed: Option<SimDisk> = None;
    let (decisions, final_tick) = run_to_completion(
        &mut svc,
        &mut gen,
        1,
        cfg.arrival_ticks,
        cfg.max_ticks,
        |now, rec| {
            disk.persist(rec);
            if kill_tick == Some(now) {
                killed = Some(disk.clone());
            }
        },
    );
    match kill_tick {
        Some(tick) => {
            let Some(killed) = killed else {
                return fail(&format!(
                    "--kill-tick {tick} is past the run's final tick {final_tick}"
                ));
            };
            let segs: Vec<(u64, String)> = killed
                .files()
                .iter()
                .map(|(&index, text)| (index, text.clone()))
                .collect();
            if let Err(e) = write_segments(base, &segs) {
                return fail(&e);
            }
            println!(
                "killed at tick {tick}: {} segment files -> {base}.seg*.jsonl \
                 (open tail; recover with `apdm-experiments resume {base}`)",
                segs.len(),
            );
        }
        None => {
            let (ledger, _) = svc.finish_segmented(final_tick);
            if let Err(e) = ledger.verify() {
                return fail(&format!("golden ledger corrupt: {e}"));
            }
            if let Err(e) = write_segments(base, &ledger.to_jsonl_segments()) {
                return fail(&e);
            }
            println!(
                "golden run sealed at tick {final_tick}: {} decisions, {} segments \
                 ({} pruned), head {:016x} -> {base}.seg*.jsonl",
                decisions.len(),
                ledger.segments().len(),
                ledger.pruned_count(),
                ledger.head_digest(),
            );
        }
    }
    ExitCode::SUCCESS
}

/// Recover a crashed run from its `base.segNNNN.jsonl` files, replay the
/// suffix to completion, and write the resumed run's sealed segments.
fn resume_cmd(cfg: &E16Config, base: &str, out_base: &str) -> ExitCode {
    let segs = match discover_segments(base) {
        Ok(segs) if !segs.is_empty() => segs,
        Ok(_) => return fail(&format!("no {base}.seg*.jsonl files found")),
        Err(e) => return fail(&e),
    };
    let mut disk = SimDisk::default();
    for (index, text) in segs {
        disk.insert(index, text);
    }
    let budget = cfg.budgets[0];
    let (ledger, decisions, start, discarded) = match resume_run(cfg, budget, 1, &disk) {
        Ok(resumed) => resumed,
        Err(e) => return fail(&format!("cannot resume {base}: {e}")),
    };
    if let Err(e) = ledger.verify() {
        return fail(&format!("resumed ledger corrupt: {e}"));
    }
    if let Err(e) = write_segments(out_base, &ledger.to_jsonl_segments()) {
        return fail(&e);
    }
    if start > 1 {
        println!(
            "resumed from the checkpoint at tick {} ({discarded} on-disk records \
             discarded and regenerated by replay)",
            start - 1,
        );
    } else {
        println!("no usable checkpoint survived: restarted from tick 1 ({discarded} discarded)");
    }
    println!(
        "{} decisions replayed; {} sealed segments ({} pruned), head {:016x} \
         -> {out_base}.seg*.jsonl",
        decisions.len(),
        ledger.segments().len(),
        ledger.pruned_count(),
        ledger.head_digest(),
    );
    ExitCode::SUCCESS
}

/// Rebuild the span DAG from an exported trace, print every trace's
/// critical path, and optionally write the multi-device Chrome timeline.
/// Fails when the export carries no trace contexts or any delivered span
/// names a parent that was never recorded.
fn trace_analyze(path: &str, chrome: Option<&str>) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let records = match telemetry::import_jsonl(&text) {
        Ok(records) => records,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    let graph = telemetry::TraceGraph::build(&records);
    if graph.is_empty() {
        return fail(&format!(
            "{path}: no trace-context records (was the run traced?)"
        ));
    }
    let unresolved = graph.unresolved_parents();
    println!(
        "{path}: {} records, {} traces, {} span nodes, {} unresolved parents",
        records.len(),
        graph.traces().len(),
        graph.node_count(),
        unresolved.len(),
    );
    for trace in graph.traces() {
        if let Some(p) = graph.critical_path(trace) {
            print!("{}", p.render());
        }
    }
    if let Some(chrome_path) = chrome {
        if let Err(e) = fs::write(chrome_path, telemetry::export_chrome_devices(&records)) {
            return fail(&format!("cannot write {chrome_path}: {e}"));
        }
        println!("device timeline written to {chrome_path} (load in chrome://tracing)");
    }
    if unresolved.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (trace, span, parent) in unresolved {
            eprintln!("trace {trace:016x}: span {span:016x} orphaned (parent {parent:016x})");
        }
        ExitCode::FAILURE
    }
}

/// Write the captured trace as JSONL plus a Chrome `trace_event` document,
/// and print the percentile summary table.
fn dump_trace(path: &str, collector: &RingCollector) -> Result<(), String> {
    let records = collector.records();
    fs::write(path, telemetry::export_jsonl(&records))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let chrome_path = format!("{path}.chrome.json");
    fs::write(&chrome_path, telemetry::export_chrome(&records))
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
    println!(
        "trace: {} records -> {path}, {chrome_path} (load in chrome://tracing){}",
        records.len(),
        if collector.dropped() > 0 {
            format!(
                "; {} oldest records evicted by the ring bound",
                collector.dropped()
            )
        } else {
            String::new()
        }
    );
    if let Some(registry) = telemetry::current_registry() {
        print!("{}", registry.render_summary());
    }
    Ok(())
}

/// Load a ledger crash-safely: a torn final JSONL line (interrupted write)
/// is dropped with a warning and reported as `true`; damage anywhere else
/// stays a hard error.
fn load_ledger(path: &str) -> Result<(Ledger, bool), ExitCode> {
    let text = fs::read_to_string(path).map_err(|e| fail(&format!("cannot read {path}: {e}")))?;
    let (ledger, torn) = Ledger::from_jsonl_recovering(&text).map_err(|e| fail(&e.to_string()))?;
    if let Some(tail) = &torn {
        eprintln!("warning: {path}: {tail}");
    }
    Ok((ledger, torn.is_some()))
}

fn emit<T: serde::Serialize + std::fmt::Debug>(json: bool, value: &T) {
    if json {
        println!(
            "{}",
            serde_json::to_string(value).expect("serializable report")
        );
    } else {
        println!("{value:#?}");
    }
}

/// Reject a `run` flag the chosen experiment never reads (with `all`: any
/// flag not every experiment reads). An unknown id is left to `run` itself.
fn check_run_flags(id: Option<&str>, given: &[String]) -> Result<(), String> {
    let exp = match id {
        Some("all") | None => None,
        Some(id) => match experiments::find(id) {
            Some(e) => Some(e),
            None => return Ok(()),
        },
    };
    for flag in given {
        let read = match flag.as_str() {
            "--seed" | "--json" | "--threads" | "--quiet" | "--trace" => true,
            "--out" => exp.is_some_and(|e| e.artifact.is_some()),
            "--no-cache" => exp.is_some_and(|e| e.reads_cache),
            _ => false,
        };
        if !read {
            return Err(format!("`run {}` does not read `{flag}`", id.unwrap_or("")));
        }
    }
    Ok(())
}

/// Run one experiment: its table configuration at `seed`, or with `out`
/// its artifact cell. `Err` is the line naming the failure.
fn run_one(
    exp: &Experiment,
    seed: u64,
    json: bool,
    out: Option<&str>,
    env: &Env,
) -> Result<(), String> {
    let id = exp.id;
    if !json {
        event!(
            Level::Info,
            "experiment.start",
            id = id,
            title = exp.title(),
            seed = seed
        );
    }
    let (report, verdict) = match (out, exp.artifact) {
        (Some(path), Some(artifact)) => {
            let report = artifact(seed, env, path).map_err(|e| format!("{id} failed: {e}"))?;
            if !json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("renderable report")
                );
            }
            (report, Ok(()))
        }
        _ => {
            let outcome = exp
                .run(Scale::Table(seed), env, !json)
                .map_err(|e| format!("{id} failed: {e}"))?;
            (outcome.report, outcome.verdict)
        }
    };
    if json {
        println!(
            "{}",
            serde_json::to_string(&report).expect("renderable report")
        );
    }
    verdict.map_err(|e| format!("{id} failed: {e}"))
}
