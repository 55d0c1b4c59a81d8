//! `apdm` — policy-based autonomic device management with Skynet-prevention
//! safety mechanisms.
//!
//! This facade crate re-exports the whole workspace, a reproduction of *How
//! to Prevent Skynet From Forming (A Perspective from Policy-based Autonomic
//! Device Management)* (Calo, Verma, Bertino, Ingham, Cirincione — ICDCS
//! 2018). See the repository's `README.md` for the architecture overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! experiment results.
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`statespace`] | `apdm-statespace` | V, VII — states, good/bad regions, ontologies, risk, utility |
//! | [`policy`] | `apdm-policy` | IV–VI — ECA rules, obligations, break-glass, audits |
//! | [`device`] | `apdm-device` | II, V — the Figure-2 abstract device |
//! | [`simnet`] | `apdm-simnet` | III — network, discovery, organizations |
//! | [`comms`] | `apdm-comms` | IV, VI — safety coordination over degraded networks |
//! | [`genpolicy`] | `apdm-genpolicy` | IV — interaction graphs, grammars, templates |
//! | [`learning`] | `apdm-learning` | III–IV — learners and adversarial pathways |
//! | [`guards`] | `apdm-guards` | VI.A–D — the prevention mechanisms |
//! | [`governance`] | `apdm-governance` | VI.E — AI overseeing AI |
//! | [`ledger`] | `apdm-ledger` | VI.B audits — tamper-evident flight recorder and replay |
//! | [`telemetry`] | `apdm-telemetry` | — deterministic spans/events, metrics, trace exporters |
//! | [`par`] | `apdm-par` | — deterministic scoped-thread shard pools and fan-out |
//! | [`serve`] | `apdm-serve` | VI at fleet scale — sharded micro-batching decision service, fail-closed shedding |
//! | [`net`] | `apdm-net` | VI at the I/O boundary — framed TCP transport, fail-closed codec, E17 harness |
//! | [`sim`] | `apdm-sim` | I–II — the coalition world and experiments |
//! | [`core`] | `apdm-core` | everything — `SafetyKernel`, `AutonomicManager` |
//! | [`experiments`] | — | every experiment of `EXPERIMENTS.md`: configs, runs, tables, acceptance |
//!
//! # Quickstart
//!
//! ```
//! use apdm::core::prelude::*;
//! use apdm::guards::NoHarmOracle;
//!
//! let schema = StateSchema::builder().var("speed", 0.0, 10.0).build();
//! let kernel = SafetyKernel::new(SafetyConfig::paper_recommended(
//!     Region::rect(&[(0.0, 7.0)]),
//! ));
//! let device = Device::builder(1u64, DeviceKind::new("mule"), OrgId::new("us"))
//!     .schema(schema)
//!     .rule(EcaRule::new(
//!         "accelerate",
//!         Event::pattern("tick"),
//!         Condition::True,
//!         Action::adjust("throttle", StateDelta::single(0.into(), 9.0)),
//!     ))
//!     .build();
//! let mut manager = AutonomicManager::new(device, &kernel);
//! let outcome = manager.handle(&Event::named("tick"), NoHarmOracle, 1);
//! assert!(outcome.guard_intervened, "the state check caught the bad transition");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use apdm_comms as comms;
pub use apdm_core as core;
pub use apdm_device as device;
pub use apdm_genpolicy as genpolicy;
pub use apdm_governance as governance;
pub use apdm_guards as guards;
pub use apdm_learning as learning;
pub use apdm_ledger as ledger;
pub use apdm_net as net;
pub use apdm_par as par;
pub use apdm_policy as policy;
pub use apdm_serve as serve;
pub use apdm_sim as sim;
pub use apdm_simnet as simnet;
pub use apdm_statespace as statespace;
pub use apdm_telemetry as telemetry;
