//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <path>]`
//!
//! Prints one JSON result line on stdout and a readable table on stderr.
//! Exits non-zero, printing no result, when any round fails the
//! correctness gate. A traced run also writes its spans as JSONL to
//! `--spans`.

use std::process::ExitCode;

use wallbench::{run, Options, Workload};

fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = value == "1",
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke: false,
        },
        spans,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, spans_path) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "wallbench: {} FAILED the correctness gate: {e}",
                opts.workload.name()
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "wallbench {} seed={} rounds={} offered={} worker_threads={}",
        opts.workload.name(),
        opts.seed,
        report.rounds,
        report.attempted,
        wallbench::inproc::WORKER_THREADS
    );
    for m in &report.metrics {
        eprintln!("  {:<30} {:>16.3} {}", m.name, m.value, m.unit);
    }
    if let (Some(path), Some(spans)) = (spans_path, &report.spans) {
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("wallbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "  spans: {} written to {path} ({} over the cap dropped)",
            spans.len(),
            spans.dropped()
        );
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
