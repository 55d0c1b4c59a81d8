//! Shape checks for the experiment registry: every entry with a smoke
//! configuration runs it and must meet its acceptance predicate, and the
//! registry, `EXPERIMENTS.md` and `apdm-experiments list` name the same
//! experiments. (`cargo bench --bench experiments` runs the full tables.)

use std::collections::BTreeSet;
use std::process::Command;

use apdm::experiments::{find, Env, Scale, EXPERIMENTS};

/// Run `id`'s smoke configuration and fail with its broken claim.
fn meets_acceptance(id: &str) {
    let exp = find(id).unwrap_or_else(|| panic!("no registry entry `{id}`"));
    let outcome = exp
        .run(Scale::Smoke, &Env::default(), false)
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    if let Err(claim) = outcome.verdict {
        panic!("{id}: {claim}");
    }
}

/// One `#[test]` per entry with a smoke configuration, so the harness runs
/// them in parallel and names every failing id; [`SHAPE_TESTED`] lists the
/// ids for the completeness check below.
macro_rules! shape_tests {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                meets_acceptance($id);
            }
        )*
        const SHAPE_TESTED: &[&str] = &[$($id),*];
    };
}

shape_tests! {
    e1_preaction_checks => "e1",
    e2_statespace_checks => "e2",
    e3_deactivation => "e3",
    e4_formation_checks => "e4",
    e5_governance => "e5",
    e6_utility_gradients => "e6",
    e7_pathways => "e7",
    e8_contagion_throttles => "e8",
    a1_guard_stack_ablation => "a1",
    a3_tamper_proofness_is_load_bearing => "a3",
    e13_serving_under_load => "e13",
    e15_skew_scheduling => "e15",
    e16_crash_tolerance => "e16",
    e17_networked_serving => "e17",
}

#[test]
fn every_smoke_configuration_has_a_shape_test() {
    let smoke: BTreeSet<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.has_smoke())
        .map(|e| e.id)
        .collect();
    let tested: BTreeSet<&str> = SHAPE_TESTED.iter().copied().collect();
    assert_eq!(smoke, tested, "entries with a smoke config vs shape tests");
}

#[test]
fn registry_ids_are_unique() {
    let mut seen = BTreeSet::new();
    for e in EXPERIMENTS {
        assert!(seen.insert(e.id), "duplicate registry id `{}`", e.id);
    }
}

#[test]
fn every_experiments_md_heading_has_exactly_one_entry() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    // `## E2-D — ...` names the entry `e2d`; headings without an id
    // (`## Reproduction verdict`) are prose.
    let headings: Vec<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once(" — ").map(|(id, _)| id))
        .map(|id| id.to_lowercase().replace('-', ""))
        .collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    for heading in &headings {
        let n = ids.iter().filter(|&&id| id == heading).count();
        assert_eq!(n, 1, "EXPERIMENTS.md heading `{heading}` has {n} entries");
    }
    for id in &ids {
        assert!(
            headings.iter().any(|h| h == id),
            "registry entry `{id}` has no EXPERIMENTS.md heading"
        );
    }
}

#[test]
fn list_prints_every_entry() {
    let out = Command::new(env!("CARGO_BIN_EXE_apdm-experiments"))
        .arg("list")
        .output()
        .expect("spawn apdm-experiments");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    let ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
    assert_eq!(listed, ids);
}
