//! Smoke-size runs of every workload: the correctness gate holds, every
//! named metric appears with its unit, and the deterministic counters
//! repeat from run to run.
//!
//! Run with `cargo test --release --manifest-path wallbench/Cargo.toml`.

use apdm_guards::GuardVerdict;
use serde::Value;
use wallbench::gen::generate;
use wallbench::inproc::Gate;
use wallbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run(&opts).unwrap_or_else(|e| panic!("{} failed the gate: {e}", workload.name()))
}

fn assert_metrics(report: &Report, names: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, names, "{}", report.workload.name());
    for m in &report.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let line: Value = serde_json::from_str(&report.to_json()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let metrics = line.get("metrics").expect("metrics object");
    for (name, unit) in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_string())));
    }
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_metric() {
    for workload in Workload::ALL {
        let plain = smoke(workload, 7, false);
        assert_metrics(&plain, &END_TO_END);
        assert!(plain.rounds >= 2);
        let traced = smoke(workload, 7, true);
        assert_metrics(&traced, &PER_LAYER);
        let spans = traced.spans.as_ref().expect("a traced run records spans");
        assert!(!spans.is_empty());
        for line in spans.to_jsonl().lines().take(100) {
            let span: Value = serde_json::from_str(line).expect("span line is JSON");
            assert!(span.get("trace").is_some() && span.get("parent").is_some());
        }
    }
}

#[test]
fn deterministic_counters_repeat_across_runs_and_tracing() {
    for workload in Workload::ALL {
        let a = smoke(workload, 11, false);
        let b = smoke(workload, 11, false);
        let traced = smoke(workload, 11, true);
        assert_eq!(a.counters, b.counters, "{}", workload.name());
        assert_eq!(a.counters, traced.counters, "{}", workload.name());
        let other = smoke(workload, 12, false);
        assert_ne!(
            a.counters.head, other.counters.head,
            "seeds give different streams"
        );
    }
}

#[test]
fn workloads_engage_the_layers_they_exist_for() {
    let value = |r: &Report, name: &str| r.metric(name).expect(name).value;

    let hot = smoke(Workload::HotFleet, 3, true);
    assert!(value(&hot, "guards.cache.hit_ratio") > 0.8);
    assert_eq!(value(&hot, "failed_ratio"), 0.0);
    assert!(value(&hot, "serve.rotations") > 0.0);

    let cold = smoke(Workload::ColdBurst, 3, true);
    assert_eq!(value(&cold, "guards.cache.hits"), 0.0);
    for shed in [
        "serve.shed.capacity",
        "serve.shed.quota",
        "serve.shed.deadline",
    ] {
        assert!(value(&cold, shed) > 0.0, "{shed} never engaged");
    }
    assert!(value(&cold, "failed_ratio") > 0.0);

    let tcp = smoke(Workload::TcpHot, 3, true);
    assert_eq!(value(&tcp, "failed_ratio"), 0.0);
    for net in ["net.drops", "net.rejects", "net.undelivered"] {
        assert_eq!(value(&tcp, net), 0.0, "{net}");
    }
}

#[test]
fn the_gate_rejects_wrong_outputs() {
    let stream = generate(&Workload::HotFleet.stream_spec(5, true));
    let gate = Gate::new(&stream);
    let golden = wallbench::inproc::drive(stream, 5, 0, &gate, true, &mut Default::default(), None)
        .expect("the service passes its own gate");
    let decisions = golden.decisions;

    // A decision delivered twice.
    let mut check = gate.round();
    check.decision(&decisions[0]).unwrap();
    assert!(check.decision(&decisions[0]).is_err());

    // A flipped verdict.
    let mut wrong = decisions[0].clone();
    wrong.verdict = match wrong.verdict {
        GuardVerdict::Allow => GuardVerdict::Deny {
            reason: "flipped".into(),
        },
        _ => GuardVerdict::Allow,
    };
    assert!(gate.round().decision(&wrong).is_err());

    // A shed that allows.
    let mut open = decisions[0].clone();
    open.shed = Some(apdm_serve::ShedReason::Capacity);
    open.verdict = GuardVerdict::Allow;
    assert!(gate.round().decision(&open).is_err());

    // A missing decision.
    let mut check = gate.round();
    for d in &decisions[1..] {
        check.decision(d).unwrap();
    }
    assert!(check.finish(&golden.ledger).is_err());
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match spec.get(key) {
        Some(Value::Seq(items)) => items.clone(),
        _ => panic!("{key} is not a list"),
    };
    let field = |v: &Value, k: &str| match v.get(k) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{k}: {other:?}"),
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let pairs = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    };
    let mut end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    // Added by run.py, which measures the whole process.
    end_to_end.push(("peak_rss_mb".into(), "MiB".into()));
    assert_eq!(pairs("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(pairs("per_layer"), per_layer);
}
