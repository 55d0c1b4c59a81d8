//! Skynet-prevention guards: the mechanisms of Section VI of *How to Prevent
//! Skynet From Forming* (Calo et al., ICDCS 2018).
//!
//! Every guard wraps the seam between a device's **proposed** action and its
//! **execution** (see `apdm_device::Device::propose` / `apply`); malevolent
//! logic cannot opt out of a guard except through the explicit [`tamper`]
//! model, which makes the paper's "assumes that it can be performed in a
//! manner that is tamper-proof" premise measurable (experiment A3).
//!
//! | Paper §  | Mechanism | Type |
//! |----------|-----------|------|
//! | VI.A | Pre-action checks (direct + indirect harm, obligations) | [`PreActionCheck`] |
//! | VI.B | State-space checks (refuse bad states, less-bad selection, break-glass) | [`StateSpaceGuard`] |
//! | VI.C | Deactivating machines in bad states (self + quorum kill) | [`DeactivationController`] |
//! | VI.D | Checks on collection formation (admission + collaborative assessment) | [`FormationGuard`], [`CollaborativeAssessment`] |
//!
//! The guards compose into a [`GuardStack`] evaluated in the order above;
//! experiment A1 ablates all 2⁴ subsets.
//!
//! Participates in experiments **E1**–**E4**, **A1**, **A3** (DESIGN.md §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod deactivate;
mod exposure;
mod formation;
mod preaction;
mod stack;
mod statecheck;
mod verdict;

pub mod tamper;

pub use cache::VerdictCache;
pub use deactivate::{DeactivationController, DeactivationOrder, KillBallot, QuorumKillSwitch};
pub use exposure::ExposureGuard;
pub use formation::{
    AdmissionDecision, AdmissionRequest, AggregateSpec, CollaborativeAssessment, FormationGuard,
};
pub use preaction::{HarmOracle, NoHarmOracle, PreActionCheck};
pub use stack::{GuardContext, GuardStack};
pub use statecheck::StateSpaceGuard;
pub use tamper::{TamperStatus, Tamperable};
pub use verdict::GuardVerdict;
