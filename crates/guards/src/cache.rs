//! Guard-verdict memoization: context-fingerprint → verdict.
//!
//! MAVERICK's lesson (PAPERS.md) is that runtime policy enforcement only
//! survives in production if it is cheap enough to sit on *every* action.
//! A device that proposes the same action from the same state against the
//! same observable world gets — deterministically — the same verdict, so
//! the stack can return a memoized verdict instead of re-running its
//! sub-guards.
//!
//! Correctness rests on three rules, enforced by [`GuardStack`]:
//!
//! 1. **Everything a verdict depends on is in the fingerprint**: the
//!    device state vector, the proposed action (name, delta, params,
//!    physical flag), every alternative, each sub-guard's tamper status,
//!    and — when a pre-action check consults a harm oracle — a
//!    caller-supplied `world_token` summarizing what the oracle can see.
//! 2. **Impure stacks never cache**: an exposure guard consumes budget on
//!    every allowed check and a break-glass controller burns grants, so
//!    stacks carrying either bypass the cache entirely.
//! 3. **Mutation invalidates**: any mutable access to a sub-guard (tamper
//!    injection, budget resets, policy swaps) clears the cache.
//!
//! A cache hit is a lookup and nothing else: it replays nothing, because a
//! cacheable check leaves nothing behind but its verdict. Whatever records
//! the verdict (a ledger `Verdict` record, a manager's audit log) records a
//! hit exactly as it records a miss, so audit trails are identical with the
//! cache on or off. Per-stage telemetry counters and sampled latency
//! histograms are *not* bumped on hits (nothing ran); instead hits and
//! misses are counted exactly, both locally and through the
//! `guard.cache.hit` / `guard.cache.miss` registry counters.
//!
//! The cache is a speed device only. What a check decides, audits and
//! costs a serving layer is the same with the cache on, off, cold or warm,
//! so nothing about it needs to survive a restart: a restarted process
//! starts with an empty cache and counts its own hits and misses.
//!
//! [`GuardStack`]: crate::GuardStack

use std::collections::BTreeMap;

use apdm_policy::Action;
use apdm_telemetry as telemetry;

use crate::{GuardContext, GuardVerdict, TamperStatus};

/// Entry cap: reaching it flushes the whole map (epoch eviction). Keeps a
/// pathological workload (every tick a fresh state) from growing without
/// bound while costing nothing on the workloads the cache exists for.
const MAX_ENTRIES: usize = 8192;

/// FNV-1a, 64-bit. The same spirit as the ledger's digest: stable, fast,
/// dependency-free. Not cryptographic — a collision can at worst replay a
/// verdict computed for a colliding context, which the determinism proptest
/// would surface as a ledger divergence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn action(&mut self, action: &Action) {
        self.str(action.name());
        self.u64(u64::from(action.is_physical()));
        let changes = action.delta().changes();
        self.u64(changes.len() as u64);
        for &(id, dv) in changes {
            self.u64(id.0 as u64);
            self.f64(dv);
        }
        self.u64(action.params().len() as u64);
        for (k, v) in action.params() {
            self.str(k);
            self.str(v);
        }
    }
    fn tamper(&mut self, status: TamperStatus) {
        match status {
            TamperStatus::Proof => self.u64(0),
            TamperStatus::Vulnerable { p_compromise } => {
                self.u64(1);
                self.f64(p_compromise);
            }
            TamperStatus::Compromised => self.u64(2),
        }
    }
}

/// Fingerprint of one check: every input the verdict is a pure function of.
///
/// `with_world` says whether a pre-action check (and hence a harm oracle)
/// participates; without one the world is invisible to the stack and the
/// token must not perturb the key.
pub(crate) fn fingerprint(
    ctx: &GuardContext<'_>,
    proposed: &Action,
    preaction_tamper: Option<TamperStatus>,
    statecheck_tamper: Option<TamperStatus>,
) -> u64 {
    let mut h = Fnv::new();
    if let Some(t) = preaction_tamper {
        h.u64(1);
        h.tamper(t);
        h.u64(ctx.world_token);
    } else {
        h.u64(0);
    }
    if let Some(t) = statecheck_tamper {
        h.u64(1);
        h.tamper(t);
    } else {
        h.u64(0);
    }
    for &v in ctx.state.values() {
        h.f64(v);
    }
    h.action(proposed);
    h.u64(ctx.alternatives.len() as u64);
    for alt in ctx.alternatives {
        h.action(alt);
    }
    h.0
}

/// The memo store plus its exact hit/miss accounting.
#[derive(Debug)]
pub struct VerdictCache {
    map: BTreeMap<u64, GuardVerdict>,
    hits: u64,
    misses: u64,
    hit_counter: telemetry::CachedCounter,
    miss_counter: telemetry::CachedCounter,
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache {
            map: BTreeMap::new(),
            hits: 0,
            misses: 0,
            hit_counter: telemetry::CachedCounter::new("guard.cache.hit"),
            miss_counter: telemetry::CachedCounter::new("guard.cache.miss"),
        }
    }
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a fingerprint, counting the outcome. Returns the memoized
    /// verdict, or `None` on a miss, when the caller must evaluate and
    /// [`store`](Self::store).
    pub(crate) fn lookup(&mut self, fp: u64) -> Option<GuardVerdict> {
        match self.map.get(&fp) {
            Some(verdict) => {
                self.hits += 1;
                if telemetry::enabled() {
                    self.hit_counter.inc();
                }
                Some(verdict.clone())
            }
            None => {
                self.misses += 1;
                if telemetry::enabled() {
                    self.miss_counter.inc();
                }
                None
            }
        }
    }

    /// Store a freshly computed verdict, first flushing the map if it is at
    /// the entry cap.
    pub(crate) fn store(&mut self, fp: u64, verdict: GuardVerdict) {
        if self.map.len() >= MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(fp, verdict);
    }

    /// Drop every entry (state/policy mutation invalidation). Counters
    /// survive — they describe the run, not the current epoch.
    pub fn invalidate(&mut self) {
        self.map.clear();
    }

    /// Exact `(hits, misses)` over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized fingerprints.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the memo store empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apdm_statespace::{StateDelta, StateSchema, VarId};

    fn ctx_with<'a>(
        state: &'a apdm_statespace::State,
        alternatives: &'a [&'a Action],
        world_token: u64,
    ) -> GuardContext<'a> {
        GuardContext {
            tick: 3,
            subject: "d",
            state,
            alternatives,
            world_token,
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        let s1 = schema.state(&[1.0]).unwrap();
        let s2 = schema.state(&[2.0]).unwrap();
        let a = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let b = Action::adjust("west", StateDelta::single(VarId(0), -1.0));

        let base = fingerprint(&ctx_with(&s1, &[], 0), &a, None, None);
        // Different state.
        assert_ne!(base, fingerprint(&ctx_with(&s2, &[], 0), &a, None, None));
        // Different action.
        assert_ne!(base, fingerprint(&ctx_with(&s1, &[], 0), &b, None, None));
        // Different alternatives.
        assert_ne!(base, fingerprint(&ctx_with(&s1, &[&b], 0), &a, None, None));
        // Tamper status flips the key.
        assert_ne!(
            fingerprint(&ctx_with(&s1, &[], 0), &a, Some(TamperStatus::Proof), None),
            fingerprint(
                &ctx_with(&s1, &[], 0),
                &a,
                Some(TamperStatus::Compromised),
                None
            )
        );
        // World token only matters when a pre-action check is present.
        assert_eq!(
            fingerprint(&ctx_with(&s1, &[], 7), &a, None, None),
            fingerprint(&ctx_with(&s1, &[], 9), &a, None, None)
        );
        assert_ne!(
            fingerprint(&ctx_with(&s1, &[], 7), &a, Some(TamperStatus::Proof), None),
            fingerprint(&ctx_with(&s1, &[], 9), &a, Some(TamperStatus::Proof), None)
        );
        // The tick is deliberately *not* part of the key.
        let mut later = ctx_with(&s1, &[], 0);
        later.tick = 99;
        assert_eq!(base, fingerprint(&later, &a, None, None));
    }

    #[test]
    fn lookup_and_store_count_exactly() {
        let mut cache = VerdictCache::new();
        assert!(cache.lookup(1).is_none());
        cache.store(1, GuardVerdict::Allow);
        assert_eq!(cache.lookup(1), Some(GuardVerdict::Allow));
        assert_eq!(cache.stats(), (1, 1));
        cache.invalidate();
        assert!(cache.is_empty());
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn store_flushes_at_capacity_instead_of_growing() {
        let mut cache = VerdictCache::new();
        for fp in 0..(MAX_ENTRIES as u64) {
            cache.store(fp, GuardVerdict::Allow);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        cache.store(u64::MAX, GuardVerdict::Allow);
        assert_eq!(cache.len(), 1, "epoch flush on overflow");
    }
}
