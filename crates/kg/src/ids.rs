//! Interned identifiers for entities and relationship types.
//!
//! Knowledge graphs name entities and relations with strings ("Amy",
//! `/people/person/profession`). All internal processing uses dense `u32`
//! ids so they double as indices into flat vectors (embedding matrices,
//! attribute columns, adjacency offsets).

use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of an entity (vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Dense identifier of a relationship type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub u32);

impl EntityId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RelationId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for RelationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A string interner assigning dense `u32` ids in insertion order.
///
/// Used for both entity names and relation names. A clone shares both
/// tables; interning a *new* name into a clone copies them, a lookup or
/// a known name does not.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Arc<Vec<String>>,
    index: Arc<HashMap<String, u32>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "2^32 interned names would exhaust memory long before the id space"
        )]
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX interned names");
        Arc::make_mut(&mut self.names).push(name.to_owned());
        Arc::make_mut(&mut self.index).insert(name.to_owned(), id);
        id
    }

    /// Looks up the id of `name` without interning it.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Returns the name for `id`, if assigned.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Amy");
        let b = i.intern("Bob");
        assert_ne!(a, b);
        assert_eq!(i.intern("Amy"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut i = Interner::new();
        let id = i.intern("restaurant_2");
        assert_eq!(i.get("restaurant_2"), Some(id));
        assert_eq!(i.name(id), Some("restaurant_2"));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.name(999), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        for n in 0..100 {
            assert_eq!(i.intern(&format!("n{n}")), n);
        }
        let collected: Vec<u32> = i.iter().map(|(id, _)| id).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn display_formats() {
        assert_eq!(EntityId(4).to_string(), "e4");
        assert_eq!(RelationId(2).to_string(), "r2");
        assert_eq!(EntityId(4).index(), 4);
        assert_eq!(RelationId(2).index(), 2);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
