//! Per-entity numeric attributes for aggregate queries.
//!
//! The paper's aggregate queries (§V-B, §VI) read numeric attributes of
//! entities: the average *age* of users, the average *year* of liked
//! movies, the average *quality* of products, the maximum *popularity* of
//! an entity. This module stores such attributes as named columns over the
//! dense entity-id space, with explicit missing-value handling (not every
//! entity has every attribute — a user has an `age`, a movie has a `year`).

use std::collections::HashMap;

use crate::error::{KgError, Result};
use crate::ids::EntityId;

/// A named column of optional `f64` values indexed by entity id.
#[derive(Debug, Clone, Default)]
struct Column {
    values: Vec<Option<f64>>,
    /// Bit `i % 64` of word `i / 64` is set iff `values[i]` is `Some`;
    /// `values.len().div_ceil(64)` words. [`Column::set`], the only
    /// mutator, keeps it.
    present: Vec<u64>,
}

impl Column {
    fn set(&mut self, e: EntityId, v: f64) {
        let i = e.index();
        if self.values.len() <= i {
            self.values.resize(i + 1, None);
            self.present.resize(self.values.len().div_ceil(64), 0);
        }
        self.values[i] = Some(v);
        self.present[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, e: EntityId) -> Option<f64> {
        self.values.get(e.index()).copied().flatten()
    }
}

/// Columnar store of named per-entity attributes.
#[derive(Debug, Clone, Default)]
pub struct AttributeStore {
    columns: HashMap<String, Column>,
}

impl AttributeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `attr` of entity `e` to `value`, creating the column if needed.
    pub fn set(&mut self, attr: &str, e: EntityId, value: f64) {
        self.columns
            .entry(attr.to_owned())
            .or_default()
            .set(e, value);
    }

    /// Reads `attr` of entity `e`; `None` if the entity lacks the attribute.
    ///
    /// Returns an error if the attribute column itself does not exist —
    /// querying a typo'd attribute name should fail loudly, not aggregate
    /// over nothing.
    pub fn get(&self, attr: &str, e: EntityId) -> Result<Option<f64>> {
        self.columns
            .get(attr)
            .map(|c| c.get(e))
            .ok_or_else(|| KgError::UnknownAttribute(attr.to_owned()))
    }

    /// The whole column `attr`, indexed by entity id, or `None` if no
    /// such column exists. It may be shorter than the entity count:
    /// entities past its end lack the attribute. A query that reads the
    /// attribute of many entities resolves the name once here.
    pub fn column(&self, attr: &str) -> Option<&[Option<f64>]> {
        self.columns.get(attr).map(|c| c.values.as_slice())
    }

    /// Which entities hold `attr`, one bit per entity id: bit `i % 64` of
    /// word `i / 64` is set iff [`AttributeStore::column`]`[i]` is
    /// `Some`. `None` if no such column exists; entities past its end
    /// lack the attribute. A query that asks "who holds it" of many
    /// entities tests a bit instead of reading a value.
    pub fn presence(&self, attr: &str) -> Option<&[u64]> {
        self.columns.get(attr).map(|c| c.present.as_slice())
    }

    /// Whether a column named `attr` exists.
    pub fn has_attribute(&self, attr: &str) -> bool {
        self.columns.contains_key(attr)
    }

    /// Names of all attribute columns (unordered).
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// Number of entities with a value in column `attr` (0 if no column).
    pub fn count_present(&self, attr: &str) -> usize {
        self.columns
            .get(attr)
            .map(|c| c.present.iter().map(|w| w.count_ones() as usize).sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut a = AttributeStore::new();
        a.set("age", EntityId(3), 41.0);
        assert_eq!(a.get("age", EntityId(3)).unwrap(), Some(41.0));
        assert_eq!(a.get("age", EntityId(0)).unwrap(), None);
        assert_eq!(a.get("age", EntityId(99)).unwrap(), None);
    }

    #[test]
    fn missing_column_is_an_error() {
        let a = AttributeStore::new();
        assert!(matches!(
            a.get("age", EntityId(0)),
            Err(KgError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut a = AttributeStore::new();
        a.set("year", EntityId(1), 1997.0);
        a.set("year", EntityId(1), 2001.0);
        assert_eq!(a.get("year", EntityId(1)).unwrap(), Some(2001.0));
    }

    #[test]
    fn column_introspection() {
        let mut a = AttributeStore::new();
        a.set("quality", EntityId(0), 4.5);
        a.set("quality", EntityId(7), 3.0);
        assert!(a.has_attribute("quality"));
        assert!(!a.has_attribute("age"));
        assert_eq!(a.count_present("quality"), 2);
        assert_eq!(a.count_present("age"), 0);
        assert_eq!(a.column("quality").map(<[_]>::len), Some(8));
        assert_eq!(a.column("quality").unwrap()[7], Some(3.0));
        assert!(a.column("age").is_none());
        let names: Vec<_> = a.attribute_names().collect();
        assert_eq!(names, vec!["quality"]);
    }

    /// The bitmap [`AttributeStore::presence`] reads, rebuilt from the
    /// values.
    fn presence_of(values: &[Option<f64>]) -> Vec<u64> {
        let mut words = vec![0u64; values.len().div_ceil(64)];
        for (i, v) in values.iter().enumerate() {
            if v.is_some() {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        words
    }

    fn assert_presence_matches(a: &AttributeStore, attr: &str) {
        let values = a.column(attr).unwrap();
        assert_eq!(a.presence(attr).unwrap(), presence_of(values), "{attr}");
        assert_eq!(
            a.count_present(attr),
            values.iter().filter(|v| v.is_some()).count()
        );
    }

    /// The presence bitmap is `values[i].is_some()` after every kind of
    /// `set`: the first write, growth past the end (across word
    /// boundaries and within one), overwrite, and a write to a clone,
    /// which leaves the original's bitmap as it was.
    #[test]
    fn presence_bitmap_tracks_the_values() {
        let mut a = AttributeStore::new();
        assert!(a.presence("x").is_none());
        for (i, id) in [0u32, 5, 63, 64, 62, 200, 127, 128, 65]
            .into_iter()
            .enumerate()
        {
            a.set("x", EntityId(id), i as f64);
            assert_presence_matches(&a, "x");
        }
        assert_eq!(a.presence("x").unwrap().len(), 201usize.div_ceil(64));
        a.set("x", EntityId(63), -1.0);
        a.set("x", EntityId(0), f64::MAX);
        assert_presence_matches(&a, "x");

        let before = a.presence("x").unwrap().to_vec();
        let mut b = a.clone();
        b.set("x", EntityId(1), 2.0);
        b.set("x", EntityId(1000), 3.0);
        b.set("y", EntityId(7), 4.0);
        assert_presence_matches(&b, "x");
        assert_presence_matches(&b, "y");
        assert_eq!(a.presence("x").unwrap(), &before[..]);
        assert_presence_matches(&a, "x");
        assert!(a.presence("y").is_none());
    }
}
