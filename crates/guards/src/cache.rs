//! Guard-verdict memoization: check key → verdict.
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
//! 1. **Everything a verdict depends on is in the key**: the device state
//!    vector and its schema (each variable's name and bounds: a delta is
//!    applied clamped to the bounds, and an oracle may read a variable by
//!    name), the proposed action (name, delta, params, physical flag),
//!    every alternative, each sub-guard's tamper status, and — when a
//!    pre-action check consults a harm oracle — a caller-supplied
//!    `world_token` summarizing what the oracle can see.
//! 2. **Impure stacks never cache**: an exposure guard consumes budget on
//!    every allowed check and a break-glass controller burns grants, so
//!    stacks carrying either bypass the cache entirely.
//! 3. **Mutation invalidates**: any mutable access to a sub-guard (tamper
//!    injection, budget resets, policy swaps) clears the cache.
//!
//! The key is those inputs written out as `u64` words, each
//! variable-length part preceded by its length, so two checks have equal
//! words exactly when their inputs are equal. The schema enters the key as
//! its index in a table of the schemas the cache has seen (compared
//! variable by variable, bounds bit for bit), so a key costs no more words
//! for a schema of many variables than for one. Hits are exact: the map is
//! keyed by a hash of the words, but a hit also compares the words
//! themselves, so a hash collision — accidental, or crafted by a peer that
//! picks two requests' states — costs a miss and never replays another
//! context's verdict. The hash is seeded per cache from a fresh
//! `RandomState`, so a peer cannot work out offline which keys crowd one
//! bucket of the map.
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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use apdm_policy::Action;
use apdm_statespace::StateSchema;
use apdm_telemetry as telemetry;

use crate::{GuardContext, GuardVerdict, TamperStatus};

/// Entry cap: reaching it flushes the whole map (epoch eviction). Keeps a
/// pathological workload (every tick a fresh state) from growing without
/// bound while costing nothing on the workloads the cache exists for.
const MAX_ENTRIES: usize = 8192;

/// Key-word cap of the arena, flushed like the entry cap: 2 MiB of keys,
/// 32 words for each of [`MAX_ENTRIES`] keys, where a serving check over a
/// one-variable state takes 8 to 16. A key longer than the whole cap is
/// never stored.
const MAX_ARENA_WORDS: usize = 1 << 18;

/// Schema-table cap, flushed like the entry cap: a schema index takes six
/// bits of a key's header word. Requests over TCP each carry their own
/// schema, so the table must stop growing somewhere.
const MAX_SCHEMAS: usize = 64;

/// Appends one check's key words: every input its verdict is a pure
/// function of, each variable-length part preceded by its length, so equal
/// words mean equal inputs. Small fields share a word where their ranges
/// cannot overlap, which keeps the arena small.
struct KeyWriter<'a>(&'a mut Vec<u64>);

impl KeyWriter<'_> {
    fn u64(&mut self, v: u64) {
        self.0.push(v);
    }
    fn f64(&mut self, v: f64) {
        self.0.push(v.to_bits());
    }
    /// The bytes eight to a word (little-endian, the last word
    /// zero-padded); the caller writes the length first.
    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.u64(u64::from_le_bytes(word));
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn action(&mut self, action: &Action) {
        // A length fits in 63 bits, which leaves the low bit for the
        // physical flag.
        let name = action.name();
        self.u64((name.len() as u64) << 1 | u64::from(action.is_physical()));
        self.bytes(name.as_bytes());
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
}

/// A sub-guard's tamper status as a two-bit code (0 when the guard is
/// absent), plus the compromise probability a vulnerable one carries.
fn tamper_code(status: Option<TamperStatus>) -> (u64, Option<f64>) {
    match status {
        None => (0, None),
        Some(TamperStatus::Proof) => (1, None),
        Some(TamperStatus::Vulnerable { p_compromise }) => (2, Some(p_compromise)),
        Some(TamperStatus::Compromised) => (3, None),
    }
}

/// Write the key words of one check into `key` (cleared first).
///
/// `schema` is the index of the state's schema in the cache's table,
/// below [`MAX_SCHEMAS`]. `preaction_tamper` is `Some` when a pre-action
/// check (and hence a harm oracle) participates; without one the world is
/// invisible to the stack and the token must not perturb the key.
fn write_key(
    key: &mut Vec<u64>,
    schema: u64,
    ctx: &GuardContext<'_>,
    proposed: &Action,
    preaction_tamper: Option<TamperStatus>,
    statecheck_tamper: Option<TamperStatus>,
) {
    key.clear();
    let mut w = KeyWriter(key);
    let (pre, pre_p) = tamper_code(preaction_tamper);
    let (sc, sc_p) = tamper_code(statecheck_tamper);
    let values = ctx.state.values();
    // One word: the state's length (below 2^54: no address space holds
    // 2^57 bytes of state) above the schema's index and both tamper codes.
    w.u64((values.len() as u64) << 10 | schema << 4 | pre << 2 | sc);
    for p in [pre_p, sc_p].into_iter().flatten() {
        w.f64(p);
    }
    if preaction_tamper.is_some() {
        w.u64(ctx.world_token);
    }
    for &v in values {
        w.f64(v);
    }
    w.action(proposed);
    w.u64(ctx.alternatives.len() as u64);
    for alt in ctx.alternatives {
        w.action(alt);
    }
}

/// Are two schemas the same, variable by variable, bounds bit for bit?
fn same_schema(a: &StateSchema, b: &StateSchema) -> bool {
    a.len() == b.len()
        && a.vars().iter().zip(b.vars()).all(|(x, y)| {
            x.name() == y.name()
                && x.lo().to_bits() == y.lo().to_bits()
                && x.hi().to_bits() == y.hi().to_bits()
        })
}

/// Hash of a key, one word at a time from `seed`: each word is mixed in
/// with a 64×64 → 128-bit multiply whose halves are folded together. Not
/// collision-resistant: it only spreads keys over the map, and a hit still
/// compares every word.
fn hash_words(seed: u64, words: &[u64]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |a: u64, b: u64| {
        let p = u128::from(a) * u128::from(b);
        (p as u64) ^ ((p >> 64) as u64)
    };
    let h = words.iter().fold(seed, |h, &w| fold(h ^ w, MUL));
    fold(h, MUL ^ words.len() as u64)
}

/// A [`Hasher`] for keys that already are a hash: it passes the `u64`
/// through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One memoized verdict and where its key words sit in the arena (both
/// below [`MAX_ARENA_WORDS`]).
#[derive(Debug)]
struct Entry {
    start: u32,
    len: u32,
    verdict: GuardVerdict,
}

impl Entry {
    fn words<'a>(&self, arena: &'a [u64]) -> &'a [u64] {
        &arena[self.start as usize..][..self.len as usize]
    }
}

/// The memo store plus its exact hit/miss accounting.
///
/// A check's key is a list of words (its inputs, each variable-length part
/// after its length), written into a buffer the cache reuses. The map is
/// keyed by the words' hash; each entry points at its own key words in an
/// arena, and a hit requires those words to equal the check's. A hash collision, accidental or crafted, therefore
/// costs a miss and never replays another context's verdict: a store under
/// a hash already taken by other words replaces that entry.
#[derive(Debug)]
pub struct VerdictCache {
    /// Key words of the latest [`lookup`](Self::lookup).
    key: Vec<u64>,
    /// `hash_words(seed, &key)`.
    key_hash: u64,
    /// The hash's starting state, drawn once per cache.
    seed: u64,
    map: HashMap<u64, Entry, BuildHasherDefault<Prehashed>>,
    /// Every stored key's words, back to back; cleared with the map.
    arena: Vec<u64>,
    /// The schemas the keys name by index; cleared with the map.
    schemas: Vec<StateSchema>,
    hits: u64,
    misses: u64,
    hit_counter: telemetry::CachedCounter,
    miss_counter: telemetry::CachedCounter,
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache {
            key: Vec::new(),
            key_hash: 0,
            seed: RandomState::new().hash_one(0x243f_6a88_85a3_08d3u64),
            map: HashMap::default(),
            arena: Vec::new(),
            schemas: Vec::new(),
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

    /// Look up one check, counting the outcome. Returns the memoized
    /// verdict, or `None` on a miss, when the caller must evaluate and
    /// [`store`](Self::store) before the next lookup.
    pub(crate) fn lookup(
        &mut self,
        ctx: &GuardContext<'_>,
        proposed: &Action,
        preaction_tamper: Option<TamperStatus>,
        statecheck_tamper: Option<TamperStatus>,
    ) -> Option<GuardVerdict> {
        let schema = self.schema_index(ctx.state.schema());
        write_key(
            &mut self.key,
            schema,
            ctx,
            proposed,
            preaction_tamper,
            statecheck_tamper,
        );
        self.key_hash = hash_words(self.seed, &self.key);
        self.probe()
    }

    /// The index of `schema` in the table, adding it if it is new (first
    /// flushing the cache if the table is full).
    fn schema_index(&mut self, schema: &StateSchema) -> u64 {
        let known = self.schemas.iter().position(|s| same_schema(s, schema));
        let index = known.unwrap_or_else(|| {
            if self.schemas.len() == MAX_SCHEMAS {
                self.invalidate();
            }
            self.schemas.push(schema.clone());
            self.schemas.len() - 1
        });
        index as u64
    }

    /// Look up the words in `key` under `key_hash`, counting the outcome.
    fn probe(&mut self) -> Option<GuardVerdict> {
        let found = self
            .map
            .get(&self.key_hash)
            .filter(|e| e.words(&self.arena) == self.key.as_slice());
        match found {
            Some(entry) => {
                self.hits += 1;
                if telemetry::enabled() {
                    self.hit_counter.inc();
                }
                Some(entry.verdict.clone())
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

    /// Store a freshly computed verdict under the key of the latest
    /// lookup, first flushing the map if it is at a cap.
    pub(crate) fn store(&mut self, verdict: GuardVerdict) {
        if self.key.len() > MAX_ARENA_WORDS {
            return;
        }
        if self.map.len() >= MAX_ENTRIES || self.arena.len() + self.key.len() > MAX_ARENA_WORDS {
            self.invalidate();
        }
        let entry = Entry {
            start: self.arena.len() as u32,
            len: self.key.len() as u32,
            verdict,
        };
        self.arena.extend_from_slice(&self.key);
        self.map.insert(self.key_hash, entry);
    }

    /// Drop every entry (state/policy mutation invalidation). Counters
    /// survive — they describe the run, not the current epoch.
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.arena.clear();
        self.schemas.clear();
    }

    /// Exact `(hits, misses)` over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized verdicts.
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
    use apdm_statespace::{State, StateDelta, StateSchema, VarId};

    fn ctx_with<'a>(
        state: &'a State,
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

    fn key(
        ctx: &GuardContext<'_>,
        proposed: &Action,
        preaction_tamper: Option<TamperStatus>,
        statecheck_tamper: Option<TamperStatus>,
    ) -> Vec<u64> {
        let mut words = Vec::new();
        write_key(
            &mut words,
            0,
            ctx,
            proposed,
            preaction_tamper,
            statecheck_tamper,
        );
        words
    }

    /// Look `words` up as if they hashed to `hash`.
    fn probe_as(cache: &mut VerdictCache, words: &[u64], hash: u64) -> Option<GuardVerdict> {
        cache.key = words.to_vec();
        cache.key_hash = hash;
        cache.probe()
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        let s1 = schema.state(&[1.0]).unwrap();
        let s2 = schema.state(&[2.0]).unwrap();
        let a = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let b = Action::adjust("west", StateDelta::single(VarId(0), -1.0));

        let base = key(&ctx_with(&s1, &[], 0), &a, None, None);
        // Different state.
        assert_ne!(base, key(&ctx_with(&s2, &[], 0), &a, None, None));
        // Different action.
        assert_ne!(base, key(&ctx_with(&s1, &[], 0), &b, None, None));
        // Different alternatives.
        assert_ne!(base, key(&ctx_with(&s1, &[&b], 0), &a, None, None));
        // Tamper status flips the key.
        assert_ne!(
            key(&ctx_with(&s1, &[], 0), &a, Some(TamperStatus::Proof), None),
            key(
                &ctx_with(&s1, &[], 0),
                &a,
                Some(TamperStatus::Compromised),
                None
            )
        );
        // World token only matters when a pre-action check is present.
        assert_eq!(
            key(&ctx_with(&s1, &[], 7), &a, None, None),
            key(&ctx_with(&s1, &[], 9), &a, None, None)
        );
        assert_ne!(
            key(&ctx_with(&s1, &[], 7), &a, Some(TamperStatus::Proof), None),
            key(&ctx_with(&s1, &[], 9), &a, Some(TamperStatus::Proof), None)
        );
        // The same value under other bounds, or another variable name, is
        // under another schema: a cache gives each its own index.
        let mut cache = VerdictCache::new();
        let mut keys = Vec::new();
        for other in [
            schema.clone(),
            StateSchema::builder().var("x", 0.0, 5.0).build(),
            StateSchema::builder().var("x", -0.0, 10.0).build(),
            StateSchema::builder().var("y", 0.0, 10.0).build(),
            StateSchema::builder().var("x", 0.0, 10.0).build(),
        ] {
            let s = other.state(&[1.0]).unwrap();
            cache.lookup(&ctx_with(&s, &[], 0), &a, None, None);
            keys.push(cache.key.clone());
        }
        assert_eq!(keys[0], base);
        assert_eq!(keys[4], base, "an equal schema shares the index");
        for (i, k) in keys[..4].iter().enumerate() {
            assert!(!keys[..i].contains(k), "schema {i} shares a key");
        }
        // The tick is deliberately *not* part of the key.
        let mut later = ctx_with(&s1, &[], 0);
        later.tick = 99;
        assert_eq!(base, key(&later, &a, None, None));
    }

    #[test]
    fn key_words_tell_apart_every_component_of_a_two_variable_state() {
        let schema = StateSchema::builder()
            .var("x", 0.0, 10.0)
            .var("y", 0.0, 10.0)
            .build();
        let one = StateSchema::builder().var("x", 0.0, 10.0).build();
        let a = Action::adjust("east", StateDelta::single(VarId(0), 1.0).and(VarId(1), 2.0));
        let at = |values: &[f64]| {
            let state = schema.state(values).unwrap();
            key(&ctx_with(&state, &[], 0), &a, None, None)
        };
        let base = at(&[1.0, 2.0]);
        assert_eq!(base, at(&[1.0, 2.0]));
        assert_ne!(base, at(&[1.0, 3.0]), "second component");
        assert_ne!(base, at(&[3.0, 2.0]), "first component");
        assert_ne!(base, at(&[2.0, 1.0]), "component order");
        // A state's length is part of its key: a shorter state followed by
        // a longer action cannot spell the same words.
        let short = one.state(&[1.0]).unwrap();
        assert_ne!(base, key(&ctx_with(&short, &[], 0), &a, None, None));
        // A delta on the second variable is part of the key too.
        let b = Action::adjust("east", StateDelta::single(VarId(0), 1.0).and(VarId(1), 3.0));
        let state = schema.state(&[1.0, 2.0]).unwrap();
        assert_ne!(base, key(&ctx_with(&state, &[], 0), &b, None, None));
    }

    #[test]
    fn the_hash_is_seeded_per_cache() {
        let (a, b) = (VerdictCache::new(), VerdictCache::new());
        assert_ne!(a.seed, b.seed);
        let words = [1, 2, 3];
        assert_ne!(hash_words(a.seed, &words), hash_words(b.seed, &words));
        assert_eq!(hash_words(a.seed, &words), hash_words(a.seed, &words));
    }

    #[test]
    fn names_are_written_eight_bytes_to_a_word_after_their_length() {
        let state = StateSchema::builder()
            .var("x", 0.0, 10.0)
            .build()
            .state(&[1.0])
            .unwrap();
        let name_words = |action: Action| {
            let words = key(&ctx_with(&state, &[], 0), &action, None, None);
            // The header word and the state's one value come first; the
            // delta and params lengths and the alternatives count last.
            words[2..words.len() - 3].to_vec()
        };
        let named = |name: &str| name_words(Action::adjust(name, StateDelta::empty()));
        // The length sits above the physical flag.
        assert_eq!(named(""), vec![0]);
        assert_eq!(
            named("ab"),
            vec![2 << 1, u64::from_le_bytes(*b"ab\0\0\0\0\0\0")]
        );
        assert_eq!(
            name_words(Action::adjust("ab", StateDelta::empty()).physical()),
            vec![2 << 1 | 1, u64::from_le_bytes(*b"ab\0\0\0\0\0\0")]
        );
        assert_eq!(
            named("patrol-north"),
            vec![
                12 << 1,
                u64::from_le_bytes(*b"patrol-n"),
                u64::from_le_bytes(*b"orth\0\0\0\0")
            ]
        );
        // Trailing NUL bytes are told apart by the length.
        assert_ne!(named("ab"), named("ab\0"));
        // The header word holds the state's length above the schema's
        // index and both tamper codes.
        let header = |schema, pre, sc| {
            let mut words = Vec::new();
            let ctx = ctx_with(&state, &[], 7);
            write_key(&mut words, schema, &ctx, &Action::noop(), pre, sc);
            words[0]
        };
        assert_eq!(header(0, None, None), 1 << 10);
        assert_eq!(
            header(
                63,
                Some(TamperStatus::Proof),
                Some(TamperStatus::Compromised)
            ),
            1 << 10 | 63 << 4 | 1 << 2 | 3
        );
    }

    #[test]
    fn lookup_and_store_count_exactly() {
        let mut cache = VerdictCache::new();
        assert!(probe_as(&mut cache, &[1, 2], 1).is_none());
        cache.store(GuardVerdict::Allow);
        assert_eq!(probe_as(&mut cache, &[1, 2], 1), Some(GuardVerdict::Allow));
        assert_eq!(cache.stats(), (1, 1));
        cache.invalidate();
        assert!(cache.is_empty());
        assert!(probe_as(&mut cache, &[1, 2], 1).is_none());
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn a_hash_collision_is_a_miss_and_the_verdict_comes_from_evaluation() {
        let schema = StateSchema::builder().var("x", 0.0, 10.0).build();
        let safe = schema.state(&[1.0]).unwrap();
        let edge = schema.state(&[9.5]).unwrap();
        let east = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let stored = key(&ctx_with(&safe, &[], 0), &east, None, None);
        let other = key(&ctx_with(&edge, &[], 0), &east, None, None);
        assert_ne!(stored, other);

        let mut cache = VerdictCache::new();
        assert!(probe_as(&mut cache, &stored, 7).is_none());
        cache.store(GuardVerdict::Allow);
        // Different words forced onto the same hash: a miss, never the
        // stored Allow.
        assert_eq!(probe_as(&mut cache, &other, 7), None);
        assert_eq!(cache.stats(), (0, 2));
        // The caller evaluates and stores; the newer context takes the
        // slot, and each context keeps getting its own verdict.
        let evaluated = GuardVerdict::Deny {
            reason: "leaves the good region".into(),
        };
        cache.store(evaluated.clone());
        assert_eq!(probe_as(&mut cache, &other, 7), Some(evaluated));
        assert_eq!(probe_as(&mut cache, &stored, 7), None);
        assert_eq!(cache.len(), 1);
        // Through a real lookup both contexts are memoized side by side.
        let mut cache = VerdictCache::new();
        for (state, verdict) in [
            (&safe, GuardVerdict::Allow),
            (
                &edge,
                GuardVerdict::Deny {
                    reason: "edge".into(),
                },
            ),
        ] {
            assert!(cache
                .lookup(&ctx_with(state, &[], 0), &east, None, None)
                .is_none());
            cache.store(verdict.clone());
            assert_eq!(
                cache.lookup(&ctx_with(state, &[], 0), &east, None, None),
                Some(verdict)
            );
        }
    }

    #[test]
    fn store_flushes_at_capacity_instead_of_growing() {
        let mut cache = VerdictCache::new();
        for fp in 0..(MAX_ENTRIES as u64) {
            probe_as(&mut cache, &[fp], fp);
            cache.store(GuardVerdict::Allow);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        assert_eq!(cache.arena.len(), MAX_ENTRIES);
        probe_as(&mut cache, &[u64::MAX], u64::MAX);
        cache.store(GuardVerdict::Allow);
        assert_eq!(cache.len(), 1, "epoch flush on overflow");
        assert_eq!(cache.arena.len(), 1, "the arena is cleared with the map");
    }

    #[test]
    fn a_new_schema_past_the_table_cap_flushes_the_cache() {
        let east = Action::adjust("east", StateDelta::single(VarId(0), 1.0));
        let mut cache = VerdictCache::new();
        let mut check = |hi: f64| {
            let state = StateSchema::builder()
                .var("x", 0.0, hi)
                .build()
                .state(&[1.0])
                .unwrap();
            let hit = cache.lookup(&ctx_with(&state, &[], 0), &east, None, None);
            if hit.is_none() {
                cache.store(GuardVerdict::Allow);
            }
            (hit.is_some(), cache.len(), cache.schemas.len())
        };
        for i in 0..MAX_SCHEMAS {
            assert_eq!(check(2.0 + i as f64), (false, i + 1, i + 1));
        }
        assert_eq!(check(2.0), (true, MAX_SCHEMAS, MAX_SCHEMAS));
        // One schema more: the table and the map start over.
        assert_eq!(check(1000.0), (false, 1, 1));
        assert_eq!(check(2.0), (false, 2, 2));
    }

    #[test]
    fn the_key_arena_flushes_at_its_word_cap() {
        let mut cache = VerdictCache::new();
        let long = vec![5; MAX_ARENA_WORDS / 2];
        for hash in 0..2 {
            probe_as(&mut cache, &long, hash);
            cache.store(GuardVerdict::Allow);
        }
        assert_eq!((cache.len(), cache.arena.len()), (2, MAX_ARENA_WORDS));
        probe_as(&mut cache, &[1], 9);
        cache.store(GuardVerdict::Allow);
        assert_eq!((cache.len(), cache.arena.len()), (1, 1));
        // A key longer than the whole arena is judged but never stored.
        let huge = vec![5; MAX_ARENA_WORDS + 1];
        probe_as(&mut cache, &huge, 3);
        cache.store(GuardVerdict::Allow);
        assert_eq!(probe_as(&mut cache, &huge, 3), None);
        assert_eq!((cache.len(), cache.arena.len()), (1, 1));
    }
}
