//! The experiment CLI's exit status: `run <id>` fails when the experiment
//! fails or its `--out` file cannot be written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `run e12 --out <out>`: the canonical E12 cell, writing its sealed
/// ledger to `out`.
fn run_e12_to(out: &Path) -> Output {
    let out = out.to_str().expect("utf-8 path");
    Command::new(env!("CARGO_BIN_EXE_apdm-experiments"))
        .args(["run", "e12", "--seed", "42", "--threads", "1"])
        .args(["--out", out, "--quiet"])
        .output()
        .expect("spawn apdm-experiments")
}

/// A fresh scratch directory for this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apdm-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn run_with_an_unwritable_out_path_exits_non_zero() {
    let dir = scratch("unwritable");
    // A file under a directory that does not exist cannot be created.
    let run = run_e12_to(&dir.join("missing").join("e12.jsonl"));
    assert!(!run.status.success(), "exit status {:?}", run.status);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("cannot write"), "stderr: {stderr}");

    // Control: the same run with a writable path succeeds and writes it.
    let ok = dir.join("e12.jsonl");
    let run = run_e12_to(&ok);
    assert!(run.status.success(), "exit status {:?}", run.status);
    assert!(std::fs::metadata(&ok).expect("ledger written").len() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
