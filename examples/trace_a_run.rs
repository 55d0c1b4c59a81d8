//! Trace a run: install a ring-buffer collector, execute the canonical
//! recorded scenario, and export the trace as JSONL plus a Chrome
//! `trace_event` document (loadable in `chrome://tracing` / Perfetto).
//!
//! This is the library-level equivalent of
//! `apdm-experiments trace --out trace.jsonl`.
//!
//! Run with: `cargo run --example trace_a_run`

use std::rc::Rc;

use apdm::sim::recorder::{run_recorded, RecordSpec};
use apdm::telemetry::{self, RecordKind, RingCollector};
use apdm::trace_files::{export_chrome, export_jsonl};

fn main() {
    // 1. Install one subscriber for the whole run: a bounded ring buffer
    //    (oldest records evicted first). Until this install, every span!/
    //    event! call site in the fleet, guards and ledger costs a single
    //    thread-local read and constructs nothing.
    let ring = Rc::new(RingCollector::new(1 << 16));
    let _guard = telemetry::install(ring.clone());

    // 2. Run the canonical recorded scenario, shortened. The fleet stamps
    //    the telemetry virtual clock with its tick, so every record carries
    //    a deterministic (tick, seq) timestamp.
    let spec = RecordSpec {
        ticks: 60,
        ..RecordSpec::default()
    };
    let recorded = run_recorded(&spec);
    println!(
        "run: {} ledger records, {} harms, {} proposals",
        recorded.ledger.len(),
        recorded.metrics.harm_count(),
        recorded.metrics.proposals,
    );

    // 3. The capture: per-tick phase spans (sense → propose → guard →
    //    execute → world-step → ledger-append) plus guard/ledger events.
    let records = ring.records();
    let tick_phases = records
        .iter()
        .filter(|r| r.kind == RecordKind::SpanStart && r.name.starts_with("phase."))
        .count();
    println!(
        "trace: {} records captured ({} phase spans, {} evicted)",
        records.len(),
        tick_phases,
        ring.dropped(),
    );

    // 4. Export both wire formats next to the current directory.
    let jsonl_path = "trace_a_run.jsonl";
    let chrome_path = "trace_a_run.chrome.json";
    std::fs::write(jsonl_path, export_jsonl(&records)).expect("write jsonl");
    std::fs::write(chrome_path, export_chrome(&records)).expect("write chrome trace");
    println!("wrote {jsonl_path} and {chrome_path} (load the latter in chrome://tracing)");

    // 5. The metrics registry accumulated alongside the trace: guard
    //    latency percentiles, allow/deny/substitute verdict counters,
    //    per-phase timings.
    let registry = telemetry::current_registry().expect("dispatch installed");
    print!("{}", registry.render_summary());
}
