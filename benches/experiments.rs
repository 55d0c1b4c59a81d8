//! Regenerate the `EXPERIMENTS.md` tables: run the table configuration of
//! every registry entry (or of the ids given after `--`), check each
//! acceptance predicate, and rewrite the `BENCH_*.json` reports of the
//! entries that keep one.
//!
//! ```text
//! cargo bench --bench experiments              # every experiment
//! cargo bench --bench experiments -- e13 e17   # just these
//! ```
//!
//! Exits non-zero if any selected experiment fails its predicate or cannot
//! write its report, after running all of them.

use std::process::ExitCode;

use apdm::experiments::{find, write_report, Env, Experiment, Scale, EXPERIMENTS, TABLE_SEED};

fn main() -> ExitCode {
    // `cargo bench` passes `--bench`; everything else is an experiment id.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let selected: Vec<&Experiment> = if ids.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        match ids.iter().map(|id| find(id).ok_or(id)).collect() {
            Ok(selected) => selected,
            Err(id) => {
                eprintln!("unknown experiment `{id}`");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut failed = Vec::new();
    for exp in selected {
        eprintln!("==> {}: {}", exp.id, exp.title());
        let written = exp
            .run(Scale::Table(TABLE_SEED), &Env::default(), true)
            .and_then(|outcome| {
                outcome.verdict?;
                match exp.bench_file {
                    Some(file) => {
                        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
                        write_report(&path, &outcome.report)?;
                        println!("report written to {file}");
                        Ok(())
                    }
                    None => Ok(()),
                }
            });
        println!();
        if let Err(e) = written {
            failed.push(format!("{} failed: {e}", exp.id));
        }
    }
    for line in &failed {
        eprintln!("{line}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
