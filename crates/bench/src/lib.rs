//! Shared helpers for the apdm benchmark harness.
//!
//! Every bench target regenerates one experiment from DESIGN.md §3: it first
//! prints the experiment's table (the rows recorded in EXPERIMENTS.md), then
//! runs Criterion timings on a representative configuration. Seeds are fixed
//! so tables are reproducible run to run.
//!
//! Progress banners route through an `apdm-telemetry` stderr subscriber;
//! set `APDM_QUIET=1` to silence them (the result tables on stdout are the
//! harness's output and stay).

use std::fs;
use std::rc::Rc;

use apdm_telemetry::{self as telemetry, event, Level, StderrSubscriber};
use serde::{Deserialize, Serialize, Value};

/// Is the harness running quiet (`APDM_QUIET` set to anything but `0`)?
pub fn quiet() -> bool {
    std::env::var_os("APDM_QUIET").is_some_and(|v| v != "0")
}

/// Announce an experiment, matching EXPERIMENTS.md headings. Routed through
/// the telemetry stderr subscriber so `APDM_QUIET=1` silences it; when a
/// dispatch is already installed (a traced bench run), the event joins that
/// trace instead.
pub fn banner(id: &str, title: &str) {
    if quiet() {
        return;
    }
    if telemetry::enabled() {
        event!(Level::Info, "bench.banner", id = id, title = title);
    } else {
        let guard = telemetry::install(Rc::new(StderrSubscriber::default()));
        event!(Level::Info, "bench.banner", id = id, title = title);
        drop(guard);
    }
}

/// The fixed seed every table regeneration uses.
pub const TABLE_SEED: u64 = 42;

/// Host provenance stamped into every `BENCH_*.json`: wall-clock numbers
/// (throughput, speedup, overhead) are only comparable between runs on the
/// same parallel budget, so the report must say what that budget was.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
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

/// Short `git rev-parse` of the source tree the harness was built from.
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
pub fn host_info() -> HostInfo {
    HostInfo {
        hardware_threads: apdm_par::hardware_threads(),
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

/// Write an experiment report as pretty JSON with the [`HostInfo`] header
/// spliced in as a leading `"host"` key. Every bench target routes its
/// `BENCH_*.json` through here; existing top-level keys are untouched, so
/// consumers reading them (`scripts/ci.sh`) keep working.
pub fn write_report<T: Serialize>(path: &str, report: &T) -> Result<(), String> {
    let mut value =
        serde_json::to_value(report).map_err(|e| format!("unserializable report: {e}"))?;
    let host = serde_json::to_value(&host_info()).map_err(|e| format!("host info: {e}"))?;
    if let Value::Map(entries) = &mut value {
        entries.insert(0, ("host".into(), host));
    }
    let body = serde_json::to_string_pretty(&value).map_err(|e| format!("render: {e}"))?;
    fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}
