//! Property-based tests for the serving-layer invariants experiment E13
//! depends on: determinism of the whole decision pipeline across seeds and
//! thread counts, and the fail-closed guarantee under overload.

use proptest::prelude::*;

use apdm_serve::{
    resume_run, run_e14_mode, run_to_completion, standard_stacks, AdmissionConfig, BatchPolicy,
    Decision, E14Config, E16Config, PolicyDecisionService, ServeConfig, SimDisk, TraceMode,
    WorkloadGen, WorkloadOracle, WorkloadSpec,
};

/// Drive one service to completion over a generated workload; returns the
/// full decision stream (submit-sheds interleaved in submit order) plus the
/// sealed ledger's JSONL bytes.
fn run_service(spec: WorkloadSpec, cfg: ServeConfig) -> (Vec<Decision>, String) {
    let mut svc = PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, cfg.cache),
        WorkloadOracle,
        "prop",
    );
    let mut gen = WorkloadGen::new(spec);
    let mut decisions = Vec::new();
    let mut now = 0u64;
    loop {
        now += 1;
        assert!(now < 50_000, "drain did not terminate");
        for req in gen.tick_requests(now) {
            if let Some(d) = svc.submit(req, now) {
                decisions.push(d);
            }
        }
        decisions.extend(svc.tick(now));
        if now >= spec.arrival_ticks && svc.queue_depth() == 0 {
            break;
        }
    }
    let (ledger, _) = svc.finish_segmented(now);
    let ledger = ledger.into_single().expect("rotation off");
    ledger.verify().expect("sealed ledger verifies");
    (decisions, ledger.to_jsonl())
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..40, 4u64..24, 1u32..5).prop_map(
        |(seed, per_tick, arrival_ticks, tenants)| WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            tenants,
            ..WorkloadSpec::default()
        },
    )
}

/// A smaller spec for the thread-invariance property: it runs every case
/// at three thread counts plus a replay, and thread-pool spawns per batch
/// dominate its runtime.
fn arb_small_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..12, 4u64..12, 1u32..5).prop_map(
        |(seed, per_tick, arrival_ticks, tenants)| WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            tenants,
            ..WorkloadSpec::default()
        },
    )
}

proptest! {
    /// Determinism: the same seed, requests and configuration produce a
    /// byte-identical verdict stream and ledger at every thread count —
    /// worker scheduling must never leak into results.
    #[test]
    fn decision_stream_and_ledger_are_thread_invariant(
        spec in arb_small_spec(),
        batching in any::<bool>(),
        cache in any::<bool>(),
    ) {
        let cfg = |threads| ServeConfig {
            seed: spec.seed,
            threads,
            batch: if batching { BatchPolicy::default() } else { BatchPolicy::unbatched() },
            cache,
            ..ServeConfig::default()
        };
        let (d1, l1) = run_service(spec, cfg(1));
        let (d3, l3) = run_service(spec, cfg(3));
        let (d8, l8) = run_service(spec, cfg(8));
        prop_assert_eq!(&d1, &d3);
        prop_assert_eq!(&d1, &d8);
        prop_assert_eq!(&l1, &l3, "ledger bytes must be thread-invariant");
        prop_assert_eq!(&l1, &l8, "ledger bytes must be thread-invariant");
        // And re-running the same configuration reproduces the run exactly.
        let (d1b, l1b) = run_service(spec, cfg(1));
        prop_assert_eq!(&d1, &d1b);
        prop_assert_eq!(&l1, &l1b);
    }

    /// Fail-closed under overload: whatever the load and bounds, a shed
    /// decision never permits execution, and every offered request gets
    /// exactly one decision.
    #[test]
    fn overload_sheds_never_allow(
        spec in arb_spec(),
        capacity in 1usize..48,
        quota in 1usize..24,
        slack in (any::<bool>(), 0u64..12).prop_map(|(some, s)| some.then_some(s)),
    ) {
        let mut spec = spec;
        spec.deadline_slack = slack;
        let cfg = ServeConfig {
            seed: spec.seed,
            threads: 1,
            admission: AdmissionConfig {
                capacity,
                tenant_quota: quota,
                quantum: 4,
            },
            ..ServeConfig::default()
        };
        let (decisions, _) = run_service(spec, cfg);
        let offered = spec.arrival_ticks * spec.per_tick as u64;
        prop_assert_eq!(decisions.len() as u64, offered, "every request must resolve");
        let mut ids: Vec<u64> = decisions.iter().map(|d| d.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, offered, "exactly one decision per request");
        for d in &decisions {
            if d.shed.is_some() {
                prop_assert!(
                    !d.verdict.permits_execution(),
                    "shed request {} was allowed", d.request_id
                );
                prop_assert!(d.reason().starts_with("shed:"));
            }
        }
    }
}

/// A Zipf-skewed spec for the scheduling-invariance property: small like
/// [`arb_small_spec`] (it runs each case four times), plus a skew exponent
/// in {0.0, 0.7, 1.4} so both the uniform control and hot-device regimes
/// are exercised.
fn arb_skew_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1_000, 1usize..12, 4u64..10, 0u8..3).prop_map(|(seed, per_tick, arrival_ticks, skew)| {
        WorkloadSpec {
            seed,
            per_tick,
            arrival_ticks,
            zipf: f64::from(skew) * 0.7,
            ..WorkloadSpec::default()
        }
    })
}

proptest! {
    /// The skew-aware optimizations must be invisible in results: for any
    /// Zipf-skewed workload, every {1, 3, 8}-thread service — each under
    /// its own work-stealing schedule, cross-shard backpressure on —
    /// produces a byte-identical decision stream and ledger. Work stealing
    /// and deferral may only change *when* work runs, never what is
    /// decided.
    #[test]
    fn scheduling_mode_and_threads_never_change_decisions(spec in arb_skew_spec()) {
        let cfg = |threads| ServeConfig {
            seed: spec.seed,
            threads,
            backpressure: true,
            ..ServeConfig::default()
        };
        let (base_d, base_l) = run_service(spec, cfg(1));
        for threads in [3usize, 8] {
            let (d, l) = run_service(spec, cfg(threads));
            prop_assert_eq!(&base_d, &d, "decision stream diverged at {} threads", threads);
            prop_assert_eq!(&base_l, &l, "ledger bytes diverged at {} threads", threads);
        }
    }
}

/// A rotating-ledger crash case: a small Zipf-skewed cell (the property
/// replays it at three thread counts), a rotation budget
/// small enough to force several segments, a retention depth, and the
/// crash position as a percentage through the run's persisted ticks.
fn arb_crash_case() -> impl Strategy<Value = (E16Config, usize)> {
    (
        (0u64..1_000, 2usize..8, 5u64..10, 0u8..3),
        (8usize..20, 0usize..3, 0usize..100),
    )
        .prop_map(
            |((seed, per_tick, arrival_ticks, skew), (budget, keep_sealed, frac))| {
                (
                    E16Config {
                        seed,
                        per_tick,
                        arrival_ticks,
                        zipf: f64::from(skew) * 0.7,
                        budgets: vec![budget],
                        keep_sealed,
                        max_ticks: 2_000,
                        ..E16Config::default()
                    },
                    frac,
                )
            },
        )
}

proptest! {
    /// Crash tolerance is total: kill the service at any persisted tick,
    /// restore from whatever the simulated disk holds (a checkpoint-headed
    /// open segment, or nothing usable at all), and the resumed run — at
    /// worker thread counts {1, 3, 8}, with cross-shard backpressure
    /// on — reseals a byte-identical segmented
    /// ledger and regenerates exactly the golden decision suffix.
    #[test]
    fn checkpoint_restore_resume_is_bit_identical((cfg, frac) in arb_crash_case()) {
        let budget = cfg.budgets[0];
        let mut svc = PolicyDecisionService::new(
            cfg.serve_config(budget, 1),
            standard_stacks(cfg.shards, true),
            WorkloadOracle,
            &cfg.run_name(budget),
        );
        let mut gen = WorkloadGen::new(cfg.spec(budget));
        let mut disk = SimDisk::default();
        let mut snapshots = Vec::new();
        let (golden_decisions, final_tick) = run_to_completion(
            &mut svc, &mut gen, 1, cfg.arrival_ticks, cfg.max_ticks,
            |now, rec| {
                disk.persist(rec);
                snapshots.push((now, disk.clone()));
            },
        );
        let (golden, _) = svc.finish_segmented(final_tick);
        golden.verify().expect("golden ledger verifies");
        let golden_segments = golden.to_jsonl_segments();

        let (_, crash_disk) = &snapshots[frac * (snapshots.len() - 1) / 100];
        for threads in [1usize, 3, 8] {
            let (ledger, decisions, start, _) = resume_run(&cfg, budget, threads, crash_disk)
                .expect("a current-format checkpoint resumes");
            prop_assert!(ledger.verify().is_ok(), "resumed ledger corrupt at {} threads", threads);
            prop_assert_eq!(
                &golden_segments, &ledger.to_jsonl_segments(),
                "segment bytes diverged at {} threads", threads
            );
            let suffix: Vec<&Decision> = golden_decisions
                .iter()
                .filter(|d| d.decided_at >= start)
                .collect();
            let resumed: Vec<&Decision> = decisions.iter().collect();
            prop_assert_eq!(
                suffix, resumed,
                "decision suffix diverged at {} threads", threads
            );
        }
    }
}

proptest! {
    /// Trace propagation survives whatever the network throws at it: under
    /// arbitrary loss, duplication, reordering and a mid-run partition,
    /// every delivered message's span parent resolves in the recorded DAG
    /// (causality is never orphaned), every critical path telescopes (the
    /// assertion inside `run_e14_mode`), and the trace stream is
    /// bit-identical across worker thread counts 1/3/8.
    #[test]
    fn trace_propagation_survives_network_faults(
        seed in 0u64..1_000,
        loss in 0.0f64..0.5,
        dup in 0.0f64..0.4,
        reorder in 0.0f64..0.4,
        partition_at in 0u64..12,
    ) {
        let cfg = E14Config {
            seed,
            loss,
            dup,
            reorder,
            // 0..3 → no partition; otherwise a 6-tick partition mid-run.
            partition_at: if partition_at < 3 { 0 } else { partition_at },
            partition_ticks: 6,
            arrival_ticks: 10,
            per_tick: 2,
            max_ticks: 2_000,
            ..E14Config::default()
        };
        let (report, records) = run_e14_mode(&cfg, TraceMode::Full);
        prop_assert_eq!(
            report.unresolved_parents, 0,
            "a delivered message must always name its recorded cause"
        );
        prop_assert_eq!(report.traces, report.offered, "full mode records every trace");
        prop_assert_eq!(report.paths_checked, report.traces);
        prop_assert_eq!(report.completed + report.expired, report.offered);
        for threads in [3usize, 8] {
            let (_, other) = run_e14_mode(
                &E14Config { threads, ..cfg.clone() },
                TraceMode::Full,
            );
            prop_assert_eq!(
                &records, &other,
                "trace stream must be bit-identical at {} threads", threads
            );
        }
    }
}
