//! A tiny in-memory catalog of named temporal relations.
//!
//! Each relation is held inside a [`TemporalStore`], so DML statements
//! (INSERT / DELETE / UPDATE) incrementally maintain any aggregate caches
//! and bump the store's write epoch, while queries can serve MVCC
//! snapshots of cached series instead of re-scanning. A table created
//! `PERSIST TO` an existing file stays on the file's pages until a
//! statement needs its rows in memory.

use std::collections::BTreeMap;
use tempagg_core::{Result, TempAggError, TemporalRelation};
use tempagg_store::TemporalStore;

/// Named relations available to queries, each wrapped in its mutable
/// [`TemporalStore`].
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    stores: BTreeMap<String, TemporalStore>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register (or replace) a relation under a name, wrapping it in a
    /// fresh store. Lookup is case-insensitive, as SQL identifiers are.
    pub fn register(&mut self, name: impl Into<String>, relation: TemporalRelation) {
        self.register_store(name, TemporalStore::new(relation));
    }

    /// Register (or replace) an existing store under a name, keeping any
    /// caches it has already built.
    pub fn register_store(&mut self, name: impl Into<String>, store: TemporalStore) {
        self.stores.insert(name.into().to_ascii_lowercase(), store);
    }

    /// Look up a relation, in memory: a table opened from a paged file
    /// reads its pages here on the first call ([`TemporalStore::resident`]).
    /// Only an executed join needs that; every other statement, and a name
    /// check, asks [`store`](Catalog::store) instead.
    pub fn get(&self, name: &str) -> Result<&TemporalRelation> {
        self.store(name)?.resident()
    }

    /// Look up a relation's store.
    pub fn store(&self, name: &str) -> Result<&TemporalStore> {
        self.stores
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| TempAggError::UnknownRelation { name: name.into() })
    }

    /// Look up a relation's store mutably (for INSERT / DELETE / UPDATE).
    pub fn store_mut(&mut self, name: &str) -> Result<&mut TemporalStore> {
        self.stores
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| TempAggError::UnknownRelation { name: name.into() })
    }

    /// Remove a relation, returning its store if present.
    pub fn deregister(&mut self, name: &str) -> Option<TemporalStore> {
        self.stores.remove(&name.to_ascii_lowercase())
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }

    pub fn len(&self) -> usize {
        self.stores.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_workload::employed::employed_relation;

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Employed", employed_relation());
        assert!(c.get("employed").is_ok());
        assert!(c.get("EMPLOYED").is_ok());
        assert!(matches!(
            c.get("missing"),
            Err(TempAggError::UnknownRelation { .. })
        ));
        assert_eq!(c.names(), vec!["employed"]);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn deregister() {
        let mut c = Catalog::new();
        c.register("r", employed_relation());
        assert!(c.deregister("R").is_some());
        assert!(c.deregister("r").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn stores_are_reachable_and_mutable() {
        let mut c = Catalog::new();
        c.register("r", employed_relation());
        let before = c.store("r").unwrap().len();
        let deleted = c.store_mut("r").unwrap().delete_where(|_| true).unwrap();
        assert_eq!(deleted, before);
        assert!(c.get("r").unwrap().is_empty());
    }
}
