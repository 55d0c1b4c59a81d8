//! E17 — the framed TCP path must be invisible in the ledger. The table
//! sweeps concurrent workload client counts {1, 2, 4}; every cell drives
//! the same seeded workload over a real loopback socket (thread-per-
//! connection server in front of the single-threaded decision service)
//! with the full chaos pack — garbage, bad-CRC, oversize, slow-loris,
//! mid-frame disconnect, and unauthorized-submitter connections — running
//! alongside. Asserted claims:
//!
//! (a) byte identity: every cell's decision stream (keyed by request id)
//!     and sealed segmented-ledger bytes are identical to the in-process
//!     golden run — the transport is invisible to the audit trail;
//! (b) total delivery: every offered request comes back decided across
//!     the connections that submitted it (`returned == offered`,
//!     `undelivered == 0`);
//! (c) fail-closed boundary: chaos never crashes the server, every
//!     rejection (attributable deny or connection drop) carries a record
//!     in the boundary audit ledger (`unaudited == 0`), every connection
//!     that sent `Hello` ends with exactly one departure or drop record
//!     (`unterminated == 0`), and that ledger's hash chain verifies;
//! (d) causal traceability: a traced probe shows one `TraceContext`
//!     chain spanning client → wire → service → wire → client.
//!
//! The sweep runs **twice** and the normalized reports must be identical.
//! The full report is written to `BENCH_e17_net.json` at the repository
//! root for EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use apdm_bench::{banner, TABLE_SEED};
use apdm_net::{run_e17, E17Config, E17Report};

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e17_net.json");

fn assert_acceptance(report: &E17Report) {
    assert!(!report.cells.is_empty(), "E17: empty sweep");
    for cell in &report.cells {
        let label = format!("clients={}", cell.clients);
        // (a) the transport is invisible in the audit trail.
        assert!(cell.ledger_identical, "{label}: sealed segments diverged");
        assert!(
            cell.decisions_identical,
            "{label}: decision stream diverged"
        );
        // (b) every offered request came back over its own connection.
        assert_eq!(cell.returned, cell.offered, "{label}: decisions lost");
        assert_eq!(cell.undelivered, 0, "{label}: undeliverable decisions");
        assert_eq!(
            cell.decided + cell.shed,
            cell.offered,
            "{label}: requests lost"
        );
        // (c) chaos was rejected fail-closed, and every rejection audited.
        assert!(cell.chaos, "{label}: chaos pack did not run");
        assert!(cell.rejects >= 1, "{label}: unauthorized probe not denied");
        // One drop per dropping chaos kind: garbage, bad CRC, oversize,
        // slow-loris and mid-frame disconnect.
        assert_eq!(cell.drops, 5, "{label}: garbage connections not dropped");
        assert_eq!(cell.unaudited, 0, "{label}: unaudited rejection");
        assert_eq!(
            cell.unterminated, 0,
            "{label}: a connection lacks exactly one terminal audit record"
        );
        assert!(cell.audit_verified, "{label}: boundary audit corrupt");
        // Rotation really engaged on the wire path too.
        assert!(cell.segments > 1, "{label}: budget never rotated");
    }
    // All cells seal the same ledger: the head digest is client-count
    // invariant.
    let heads: Vec<u64> = report.cells.iter().map(|c| c.final_head).collect();
    assert!(
        heads.windows(2).all(|w| w[0] == w[1]),
        "head digests diverged across client counts ({heads:?})"
    );
    // (d) the causal chain crossed the wire in both directions.
    assert!(report.trace_spans_wire, "trace chain broken across wire");
    assert!(report.holds(), "E17 acceptance predicate failed");
}

fn print_table() {
    banner(
        "E17",
        "networked serving: framed TCP path, ledger byte-identical under chaos",
    );
    let cfg = E17Config {
        seed: TABLE_SEED,
        ..E17Config::default()
    };
    let report = run_e17(&cfg).expect("E17 sweep runs");

    println!(
        "{:<8} {:>8} {:>8} {:>6} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6} {:>18}",
        "clients",
        "offered",
        "returned",
        "ledger",
        "decisions",
        "rejects",
        "drops",
        "audit",
        "unaudit",
        "segs",
        "head"
    );
    for c in &report.cells {
        println!(
            "{:<8} {:>8} {:>8} {:>6} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6} {:>18x}",
            c.clients,
            c.offered,
            c.returned,
            if c.ledger_identical { "=" } else { "DIFF" },
            if c.decisions_identical { "=" } else { "DIFF" },
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

    assert_acceptance(&report);

    // Determinism acceptance: a second identical sweep must reproduce the
    // report byte-for-byte once wall-clock fields are stripped.
    let rerun = run_e17(&cfg).expect("E17 rerun runs");
    let (a, b) = (report.normalized(), rerun.normalized());
    assert_eq!(a, b, "E17: two identical sweeps diverged");
    assert_eq!(
        serde_json::to_string(&a).expect("serializable report"),
        serde_json::to_string(&b).expect("serializable report"),
        "E17: normalized reports must serialize identically"
    );
    println!("\ndeterminism: second sweep identical modulo wall-clock");

    match apdm_bench::write_report(REPORT_PATH, &report) {
        Ok(()) => println!("report written to BENCH_e17_net.json"),
        Err(e) => println!("{e}"),
    }
    println!();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_net");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let cfg = E17Config {
        seed: TABLE_SEED,
        ..E17Config::smoke()
    };
    for clients in [1u32, 2] {
        group.bench_with_input(
            BenchmarkId::new("cell", format!("clients={clients}")),
            &clients,
            |b, &n| {
                b.iter(|| {
                    let cell = E17Config {
                        clients: vec![n],
                        ..cfg.clone()
                    };
                    run_e17(&cell).expect("cell runs")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
