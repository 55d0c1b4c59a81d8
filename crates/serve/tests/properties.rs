//! Property-based tests for the serving-layer invariants experiment E13
//! depends on: determinism of the whole decision pipeline across seeds and
//! thread counts, and the fail-closed guarantee under overload.

use proptest::prelude::*;

use apdm_ledger::RotationPolicy;
use apdm_serve::{
    resume_run, run_e14_mode, run_to_completion, standard_stacks, AdmissionConfig, BatchPolicy,
    Decision, E14Config, E16Config, PolicyDecisionService, ServeConfig, SimDisk, TraceMode,
    WorkloadGen, WorkloadOracle, WorkloadSpec,
};

/// Drive one service to completion over a generated workload; returns the
/// full decision stream (submit-sheds interleaved in submit order) plus the
/// sealed ledger's JSONL bytes.
fn run_service(spec: WorkloadSpec, cfg: ServeConfig) -> (Vec<Decision>, String) {
    let (decisions, mut segments) = run_segmented(spec, cfg);
    assert_eq!(segments.len(), 1, "rotation off");
    (decisions, segments.remove(0).1)
}

/// [`run_service`] for any rotation policy: the decision stream plus every
/// retained segment's JSONL bytes, checkpoint frames included.
fn run_segmented(spec: WorkloadSpec, cfg: ServeConfig) -> (Vec<Decision>, Vec<(u64, String)>) {
    let mut svc = PolicyDecisionService::new(
        cfg,
        standard_stacks(cfg.shards, cfg.cache),
        WorkloadOracle,
        "prop",
    );
    let run = run_to_completion(&mut svc, &mut WorkloadGen::new(spec), 1, 50_000, |_, _| {});
    assert!(run.watchdog.is_none(), "drain did not terminate");
    let (ledger, _) = svc.finish_segmented(run.final_tick);
    ledger.verify().expect("sealed ledger verifies");
    (run.decisions, ledger.to_jsonl_segments())
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

    /// The memo cache is a speed device: under load that sheds, with or
    /// without batching and backpressure, a service with the cache off
    /// renders the decision stream and writes the segment bytes —
    /// rotation checkpoints included — of one with the cache on, at every
    /// thread count.
    #[test]
    fn cache_on_and_off_give_identical_decisions_and_segments(
        spec in arb_small_spec(),
        per_tick in 4usize..48,
        batching in any::<bool>(),
        backpressure in any::<bool>(),
        rotate_every in 4usize..16,
    ) {
        let spec = WorkloadSpec { per_tick, ..spec };
        let cfg = |threads, cache| ServeConfig {
            seed: spec.seed,
            threads,
            batch: if batching { BatchPolicy::default() } else { BatchPolicy::unbatched() },
            cache,
            backpressure,
            rotation: Some(RotationPolicy::by_records(rotate_every)),
            ..ServeConfig::default()
        };
        let (decisions, segments) = run_segmented(spec, cfg(1, true));
        prop_assert!(segments.len() > 1, "the run must rotate");
        for threads in [1usize, 3, 8] {
            for cache in [true, false] {
                if (threads, cache) == (1, true) {
                    continue;
                }
                let (d, s) = run_segmented(spec, cfg(threads, cache));
                prop_assert_eq!(&decisions, &d, "decisions: {} threads, cache {}", threads, cache);
                prop_assert_eq!(&segments, &s, "segments: {} threads, cache {}", threads, cache);
            }
        }
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
/// One case in three offers 29–44 requests per tick, past the ~28 the
/// work meter sustains: its checkpoints carry deep queues (rows with
/// alternatives over several actions) and its runs shed on quota, so
/// kill and resume cross a backlog.
fn arb_crash_case() -> impl Strategy<Value = (E16Config, usize)> {
    (
        (0u64..1_000, 2usize..8, 5u64..10, 0u8..3),
        (8usize..20, 0usize..3, 0usize..100, 0usize..48),
    )
        .prop_map(
            |((seed, light, arrival_ticks, skew), (budget, keep_sealed, frac, heavy))| {
                (
                    E16Config {
                        seed,
                        per_tick: if heavy >= 32 { heavy - 3 } else { light },
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
        let mut disk = SimDisk::default();
        let mut snapshots = Vec::new();
        let (golden_run, golden, _) = cfg.run_uninterrupted(budget, 1, true, |now, rec| {
            disk.persist(rec);
            snapshots.push((now, disk.clone()));
        });
        golden.verify().expect("golden ledger verifies");
        let golden_segments = golden.to_jsonl_segments();

        let (_, crash_disk) = &snapshots[frac * (snapshots.len() - 1) / 100];
        for threads in [1usize, 3, 8] {
            let (ledger, decisions, start, _) = resume_run(&cfg, budget, threads, true, crash_disk)
                .expect("a current-format checkpoint resumes");
            prop_assert!(ledger.verify().is_ok(), "resumed ledger corrupt at {} threads", threads);
            prop_assert_eq!(
                &golden_segments, &ledger.to_jsonl_segments(),
                "segment bytes diverged at {} threads", threads
            );
            let suffix: Vec<&Decision> = golden_run
                .decisions
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
