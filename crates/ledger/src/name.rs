//! Interned event names: allocation-free fan-out of repeated strings.
//!
//! A recorded run emits the same handful of action names (`strike`,
//! `dig-hole`, `post-warning`, …) tens of thousands of times. Storing them
//! as `String` meant one heap allocation per recorded event — a measurable
//! per-tick cost in `Fleet::step`. [`Name`] wraps the text in an `Arc<str>`
//! so recording an event clones a pointer, and [`NamePool`] interns each
//! distinct spelling once so equal names share one allocation.
//!
//! Equality, ordering, and hashing are by **content**, never by pointer, so
//! two ledgers built by different engines (sequential vs parallel) compare
//! equal event-for-event regardless of which pool produced the names. JSON
//! round-trips as a plain string, keeping the JSONL schema unchanged.

use serde::{Deserialize, Error, Serialize, Value};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A cheaply clonable, content-compared event name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Name(Arc<str>);

impl Name {
    /// The text of the name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

// JSON form is a bare string — the interning is invisible on disk.
impl Serialize for Name {
    fn to_value(&self) -> Value {
        Value::Str(self.0.to_string())
    }

    fn write_json(&self, out: &mut String) {
        serde::json::write_str(out, &self.0);
    }
}

impl Deserialize for Name {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(Name::from(s.as_str())),
            other => Err(Error::custom(format!(
                "expected string for Name, got {other:?}"
            ))),
        }
    }
}

/// Most names one [`NamePool`] holds. Some pools intern names that arrive
/// from untrusted peers (a serving layer's action names), so every pool
/// stops growing here; past the cap a spelling the pool does not hold is
/// allocated on every [`intern`](NamePool::intern), exactly as an unpooled
/// name would be. Names compare by content, so the cap never changes a
/// record.
pub const NAME_POOL_CAP: usize = 1024;

/// Interning pool: each distinct spelling is allocated once, up to
/// [`NAME_POOL_CAP`] spellings.
///
/// Pools are plain local state (one per fleet, one per device for the
/// decide-phase workers) — there is no global registry, so interning never
/// contends across threads and never leaks between runs.
#[derive(Debug, Clone, Default)]
pub struct NamePool {
    names: BTreeSet<Name>,
}

impl NamePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interned name for `s`, allocating only on first sight (or, once
    /// the pool holds [`NAME_POOL_CAP`] names, on every sight of a spelling
    /// it does not hold).
    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(existing) = self.names.get(s) {
            return existing.clone();
        }
        let name = Name::from(s);
        if self.names.len() < NAME_POOL_CAP {
            self.names.insert(name.clone());
        }
        name
    }

    /// Number of distinct names held.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Has the pool interned anything yet?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_allocation_per_spelling() {
        let mut pool = NamePool::new();
        let a = pool.intern("strike");
        let b = pool.intern("strike");
        let c = pool.intern("dig-hole");
        assert!(Arc::ptr_eq(&a.0, &b.0), "same spelling must share storage");
        assert!(!Arc::ptr_eq(&a.0, &c.0));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn a_pool_stops_growing_at_its_cap() {
        let mut pool = NamePool::new();
        let first = pool.intern("name-0");
        for i in 1..NAME_POOL_CAP + 10 {
            pool.intern(&format!("name-{i}"));
        }
        assert_eq!(pool.len(), NAME_POOL_CAP);
        let late = pool.intern("late");
        let again = pool.intern("late");
        assert_eq!(pool.len(), NAME_POOL_CAP);
        assert_eq!((late.as_str(), again.as_str()), ("late", "late"));
        assert!(!Arc::ptr_eq(&late.0, &again.0), "past the cap, no sharing");
        assert!(Arc::ptr_eq(&first.0, &pool.intern("name-0").0));
    }

    #[test]
    fn equality_is_by_content_across_pools() {
        let mut p1 = NamePool::new();
        let mut p2 = NamePool::new();
        assert_eq!(p1.intern("strike"), p2.intern("strike"));
        assert_eq!(p1.intern("strike"), "strike");
        assert_ne!(p1.intern("strike"), p2.intern("retreat"));
    }

    #[test]
    fn json_form_is_a_plain_string() {
        let name = Name::from("post-warning");
        let json = serde_json::to_string(&name).unwrap();
        assert_eq!(json, "\"post-warning\"");
        let back: Name = serde_json::from_str(&json).unwrap();
        assert_eq!(back, name);
    }
}
