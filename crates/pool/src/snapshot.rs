//! Immutable, indexed snapshots of a [`PoemStore`].
//!
//! The store itself is shared behind an `RwLock`, so every lookup pays
//! a lock acquisition plus a linear scan of the two relations. On the
//! narration hot path that cost repeats per plan node, and under
//! concurrent narration (the millions-of-users target) the lock becomes
//! a contention point. A [`PoemSnapshot`] is taken with a *single* read
//! acquisition, assembles every object once, and indexes them by
//! `(source, normalized name)` — after that, lookups are lock-free
//! `O(1)` and the snapshot can be shared freely across threads.
//!
//! Writers are never blocked by outstanding snapshots (copy-on-write
//! semantics at the granularity of the whole catalog: a snapshot keeps
//! the state it saw; later store mutations are invisible to it).
//!
//! [`PoemLookup`] abstracts over "something operators can be resolved
//! from" so callers such as diff rendering can run against either a
//! live store or a snapshot.

use crate::object::{normalize_op_name, PoemObject};
use crate::store::PoemStore;
use std::collections::HashMap;

/// Anything a POEM object can be looked up from: the live, locked
/// [`PoemStore`] or an immutable [`PoemSnapshot`].
pub trait PoemLookup {
    /// Fetch one operator by source and (vendor) name. `name` is
    /// normalized before the lookup.
    fn find(&self, source: &str, name: &str) -> Option<PoemObject>;
}

impl PoemLookup for PoemStore {
    fn find(&self, source: &str, name: &str) -> Option<PoemObject> {
        PoemStore::find(self, source, name)
    }
}

impl<L: PoemLookup + ?Sized> PoemLookup for std::sync::Arc<L> {
    fn find(&self, source: &str, name: &str) -> Option<PoemObject> {
        (**self).find(source, name)
    }
}

/// An immutable, fully-assembled, indexed view of a [`PoemStore`] at
/// one instant. Cheap to share (`Clone` clones the index by value only
/// when asked; prefer passing `&PoemSnapshot`).
///
/// The snapshot is a *lookup* view: it keeps exactly one object per
/// `(source, name)` — the first matching row, the same one
/// [`PoemStore::find`]'s linear scan resolves to. If a store holds
/// duplicate-named operators (POOL's `CREATE` does not forbid it),
/// [`PoemSnapshot::len`] / [`PoemSnapshot::operators_of`] report the
/// deduplicated view, unlike their store counterparts which report
/// raw rows; `find` agrees between the two everywhere.
#[derive(Debug, Clone)]
pub struct PoemSnapshot {
    /// source → normalized name → (assembled object, default
    /// description template). Nested so lookups probe with borrowed
    /// `&str` keys (no per-find key allocation beyond the normalization
    /// the store pays too). Templates are precomputed so narration
    /// over a snapshot is pure lookup.
    by_source: HashMap<String, HashMap<String, (PoemObject, String)>>,
    /// Sorted, deduplicated source names present at snapshot time.
    sources: Vec<String>,
}

impl PoemSnapshot {
    pub(crate) fn from_objects(objects: Vec<PoemObject>) -> Self {
        let mut sources: Vec<String> = objects.iter().map(|o| o.source.clone()).collect();
        sources.sort();
        sources.dedup();
        let mut by_source: HashMap<String, HashMap<String, (PoemObject, String)>> = HashMap::new();
        for o in objects {
            let label = o.template(None);
            // `or_insert`-style: keep the *first* object per name, the
            // same row `PoemStore::find`'s linear scan would return.
            by_source
                .entry(o.source.clone())
                .or_default()
                .entry(o.name.clone())
                .or_insert((o, label));
        }
        PoemSnapshot { by_source, sources }
    }

    /// Borrow one operator and its default description template
    /// (`COMPOSE <op> FROM <source>` with no `USING` pick), as
    /// precomputed at snapshot time. `name` is normalized before the
    /// lookup, as in [`PoemLookup::find`].
    pub fn entry(&self, source: &str, name: &str) -> Option<(&PoemObject, &str)> {
        self.by_source
            .get(source)
            .and_then(|m| m.get(&normalize_op_name(name)))
            .map(|(o, label)| (o, label.as_str()))
    }

    /// All operators of a source, in arbitrary order.
    pub fn operators_of(&self, source: &str) -> Vec<PoemObject> {
        self.by_source
            .get(source)
            .map(|m| m.values().map(|(o, _)| o.clone()).collect())
            .unwrap_or_default()
    }

    /// All sources present in the snapshot (sorted).
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// Number of operator objects captured.
    pub fn len(&self) -> usize {
        self.by_source.values().map(HashMap::len).sum()
    }

    /// True when the snapshot holds no operators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PoemLookup for PoemSnapshot {
    fn find(&self, source: &str, name: &str) -> Option<PoemObject> {
        self.entry(source, name).map(|(o, _)| o.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defaults::default_pg_store;
    use crate::object::OperatorArity;

    #[test]
    fn snapshot_captures_all_operators() {
        let store = default_pg_store();
        let snap = store.snapshot();
        assert_eq!(snap.len(), store.len());
        assert_eq!(snap.sources(), &["pg".to_string()]);
        assert!(!snap.is_empty());
    }

    #[test]
    fn snapshot_lookup_matches_store_lookup() {
        let store = default_pg_store();
        let snap = store.snapshot();
        for name in ["Hash Join", "Seq Scan", "Sort", "Unique"] {
            assert_eq!(snap.find("pg", name), store.find("pg", name), "{name}");
        }
        assert!(snap.find("pg", "Quantum Scan").is_none());
        assert!(snap.find("db2", "Hash Join").is_none());
    }

    #[test]
    fn entry_borrows_the_object_and_its_template() {
        let store = default_pg_store();
        let snap = store.snapshot();
        for name in ["Hash Join", "Seq Scan", "Sort", "Unique"] {
            let (object, label) = snap.entry("pg", name).unwrap();
            assert_eq!(Some(object.clone()), store.find("pg", name), "{name}");
            assert_eq!(label, object.template(None), "{name}");
        }
        assert!(snap.entry("pg", "Quantum Scan").is_none());
        assert!(snap.entry("mssql", "Table Scan").is_none());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let store = default_pg_store();
        let snap = store.snapshot();
        store.create(
            "pg",
            "quantumscan",
            None,
            OperatorArity::Unary,
            None,
            &["perform quantum scan"],
            false,
            None,
        );
        store.delete("pg", "hashjoin");
        // The snapshot still sees the state at capture time.
        assert!(snap.find("pg", "quantumscan").is_none());
        assert!(snap.find("pg", "Hash Join").is_some());
        // The live store sees the new state.
        assert!(store.find("pg", "quantumscan").is_some());
        assert!(store.find("pg", "Hash Join").is_none());
    }

    #[test]
    fn snapshot_cache_hits_until_a_write_invalidates() {
        let store = default_pg_store();
        let a = store.snapshot();
        let b = store.snapshot();
        // Unchanged catalog: the same assembled snapshot is shared.
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        // Any POOL mutation starts a new catalog generation.
        let before = a.find("pg", "hashjoin").unwrap().descs.len();
        store.add_desc("pg", "hashjoin", "another wording");
        let c = store.snapshot();
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(c.find("pg", "hashjoin").unwrap().descs.len(), before + 1);
        // And the new generation is cached again.
        assert!(std::sync::Arc::ptr_eq(&c, &store.snapshot()));
    }

    #[test]
    fn operators_of_filters_by_source() {
        let store = crate::defaults::default_mssql_store();
        let snap = store.snapshot();
        let pg_ops = snap.operators_of("pg");
        let ms_ops = snap.operators_of("mssql");
        assert!(!pg_ops.is_empty());
        assert!(!ms_ops.is_empty());
        assert_eq!(pg_ops.len() + ms_ops.len(), snap.len());
    }
}
