//! The experiment CLI's exit status: `run <id>` fails when the experiment
//! fails or its `--out` file cannot be written, and a malformed command
//! line, or a flag the chosen command or experiment never reads, is
//! rejected before anything runs.

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

/// Run the CLI with `args` inside `dir`.
fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apdm-experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn apdm-experiments")
}

/// Entries of `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn malformed_command_lines_are_rejected_without_running() {
    let dir = scratch("flags");
    for args in [
        &["record", "--sed", "7", "--quiet"][..],
        &["checkpoint", "--seed", "42", "--verbose"],
        &["checkpoint", "-x"],
        &["record", "extra", "--quiet"],
        &["verify", "a.jsonl", "b.jsonl"],
        &["list", "extra"],
        // Known flags the subcommand never reads.
        &[
            "calibrate",
            "--kill-tick",
            "3",
            "--out",
            "nowhere.json",
            "--json",
        ],
        &["verify", "a.jsonl", "--seed", "7"],
        &["resume", "base", "--kill-tick", "3"],
        &["checkpoint", "--json"],
        &["serve-net", "chaos", "--smoke", "--kind", "garbage"],
    ] {
        let run = run_in(&dir, args);
        assert!(
            !run.status.success(),
            "{args:?}: exit status {:?}",
            run.status
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: stderr {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}: ran anyway");
        assert_eq!(listing(&dir), Vec::<String>::new(), "{args:?} wrote files");
    }
    let stderr =
        String::from_utf8_lossy(&run_in(&dir, &["record", "--sed", "7"]).stderr).into_owned();
    assert!(stderr.contains("unknown flag `--sed`"), "stderr: {stderr}");
    let stderr = String::from_utf8_lossy(&run_in(&dir, &["calibrate", "--kill-tick", "3"]).stderr)
        .into_owned();
    assert!(
        stderr.contains("`calibrate` does not read `--kill-tick`"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_and_succeeds_without_running() {
    let dir = scratch("help");
    for args in [
        &["--help"][..],
        &["checkpoint", "--help"],
        &["run", "e16", "-h"],
    ] {
        let run = run_in(&dir, args);
        assert!(
            run.status.success(),
            "{args:?}: exit status {:?}",
            run.status
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            stdout.starts_with("usage: apdm-experiments"),
            "{args:?}: {stdout}"
        );
        assert!(
            stdout.contains("checkpoint [--seed N]"),
            "{args:?}: {stdout}"
        );
        assert_eq!(listing(&dir), Vec::<String>::new(), "{args:?} wrote files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_rejects_flags_the_experiment_never_reads() {
    let dir = scratch("unread");
    let out = dir.join("x.json");
    let out = out.to_str().expect("utf-8 path");
    for args in [
        &["run", "e1", "--out", out][..],
        &["run", "e13", "--no-cache"],
        &["run", "e15", "--sched", "static"],
        &["run", "e12", "--sched", "static", "--out", out],
        &["run", "all", "--out", out],
        &["run", "e1", "--smoke"],
    ] {
        let run = run_in(&dir, args);
        assert!(
            !run.status.success(),
            "{args:?}: exit status {:?}",
            run.status
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: stderr {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}: ran anyway");
        assert_eq!(listing(&dir), Vec::<String>::new(), "{args:?} wrote files");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `resume` on the committed fixture `e16-42-v<format>.seg0006.jsonl`, a
/// checkpoint of an older format whose chain verifies (so refusing it is
/// not the torn-header fallback), must fail, name the format, and write
/// nothing.
fn assert_resume_refuses_format(format: u32) {
    let fixture = format!(
        "{}/tests/fixtures/e16-42-v{format}.seg0006.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let dir = scratch(&format!("resume-v{format}"));
    std::fs::copy(&fixture, dir.join("old.seg0006.jsonl")).expect("copy the fixture");
    let run = run_in(&dir, &["resume", "old", "--seed", "42", "--quiet"]);
    assert!(!run.status.success(), "exit status {:?}", run.status);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains(&format!("serve checkpoint format {format}"))
            && stderr.contains("reads only format 5"),
        "stderr: {stderr}"
    );
    assert_eq!(
        listing(&dir),
        ["old.seg0006.jsonl"],
        "nothing resumed, nothing written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_format_1_checkpoint_by_name() {
    // Format 1 carried no `format` field.
    assert_resume_refuses_format(1);
}

#[test]
fn resume_refuses_a_format_2_checkpoint_by_name() {
    // Format 2 carried the memo caches as fingerprints.
    assert_resume_refuses_format(2);
}

#[test]
fn resume_refuses_a_format_3_checkpoint_by_name() {
    // Format 3 wrote every queued request whole, with its tenant.
    assert_resume_refuses_format(3);
}

#[test]
fn resume_refuses_a_format_4_checkpoint_by_name() {
    // Format 4 wrote each queued request as an object with decimal values.
    assert_resume_refuses_format(4);
}

#[test]
fn trace_analyze_refuses_a_deeply_nested_line_by_number() {
    let dir = scratch("deep-trace");
    let fixture = format!(
        "{}/tests/fixtures/trace-e14.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let first = std::fs::read_to_string(fixture).expect("read the fixture");
    let first = first.lines().next().expect("the fixture has a line");
    // Line 2 is a record whose field holds a million nested arrays: the
    // parser's nesting cap must refuse it, not overflow the stack.
    let depth = 1_000_000;
    let deep = format!(
        "{{\"kind\":\"event\",\"name\":\"x\",\"tick\":0,\"seq\":0,\"depth\":0,\
         \"level\":\"info\",\"fields\":{{\"a\":{}}}}}",
        "[".repeat(depth)
    );
    std::fs::write(dir.join("deep.jsonl"), format!("{first}\n{deep}\n")).expect("write the trace");
    let run = run_in(&dir, &["trace-analyze", "deep.jsonl"]);
    assert_eq!(run.status.code(), Some(1), "exit status {:?}", run.status);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("trace import failed at line 2") && stderr.contains("nesting deeper than"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
