//! Interned identifiers for entities and relationship types.
//!
//! Knowledge graphs name entities and relations with strings ("Amy",
//! `/people/person/profession`). All internal processing uses dense `u32`
//! ids so they double as indices into flat vectors (embedding matrices,
//! attribute columns, adjacency offsets).

use std::sync::Arc;

use crate::codec::fnv1a64;

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
/// Used for both entity names and relation names. Each name is stored
/// once: its bytes sit back to back with every other name's in one text
/// arena, id `i` owns the arena bytes between the end offsets of ids
/// `i - 1` and `i`, and an open-addressed table of ids, probed linearly
/// from the name's FNV-1a hash ([`fnv1a64`]) and never more than half
/// full, answers [`Interner::get`]. At 10⁵ names of ~12 bytes that is
/// ~1.2 MB of text, 0.4 MB of offsets and a 1 MB table. FNV-1a is
/// keyless, so names crafted to collide would slow their own interning;
/// names come from the operator's input files and generators, never
/// from the wire.
///
/// A clone shares the three buffers; interning a *new* name into a
/// clone copies them (three flat copies), a lookup or a known name does
/// not.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    table: Arc<Table>,
}

/// The slot value of a free table slot: no id ever equals it
/// ([`next_id`] refuses it).
const EMPTY: u32 = u32::MAX;

/// Slots in the first table an insert allocates.
const MIN_SLOTS: usize = 8;

#[derive(Debug, Default, Clone)]
struct Table {
    /// Every name's UTF-8 bytes, in id order.
    text: String,
    /// `ends[id]`: where name `id` ends in `text` (it starts where
    /// name `id - 1` ends, or at 0).
    ends: Vec<u32>,
    /// Ids by name hash, [`EMPTY`] where free; a power of two long, or
    /// empty before the first insert.
    slots: Vec<u32>,
}

impl Table {
    fn name(&self, id: u32) -> Option<&str> {
        let i = id as usize;
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        self.text.get(start as usize..end as usize)
    }

    /// The slot `name`'s probe sequence starts at in a table of `slots`
    /// slots (a power of two).
    fn home(name: &str, slots: usize) -> usize {
        // Truncating the hash keeps its low bits, all the mask reads.
        fnv1a64(name.as_bytes()) as usize & (slots - 1)
    }

    /// `name`'s id, or `Err` with the free slot it would be stored in.
    /// The table must hold a free slot.
    fn find(&self, name: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = Self::home(name, self.slots.len());
        loop {
            match self.slots[at] {
                EMPTY => return Err(at),
                id if self.name(id) == Some(name) => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Doubles the slot table and re-inserts every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut slots = vec![EMPTY; len];
        for (id, name) in self.iter() {
            let mut at = Self::home(name, len);
            while slots[at] != EMPTY {
                at = (at + 1) & (len - 1);
            }
            slots[at] = id;
        }
        self.slots = slots;
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let mut start = 0;
        self.ends.iter().zip(0..).map(move |(&end, id)| {
            let name = self
                .text
                .get(start as usize..end as usize)
                .unwrap_or_default();
            start = end;
            (id, name)
        })
    }
}

/// The id the `len`-th name gets: refused once it would reach the
/// table's [`EMPTY`] marker.
fn next_id(len: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "2^32 interned names would exhaust memory long before the id space"
    )]
    u32::try_from(len)
        .ok()
        .filter(|&id| id != EMPTY)
        .expect("more than u32::MAX interned names")
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = next_id(self.len());
        let table = Arc::make_mut(&mut self.table);
        #[expect(
            clippy::expect_used,
            reason = "4 GiB of names would exhaust memory long before the offsets"
        )]
        let end = u32::try_from(table.text.len() + name.len())
            .expect("more than u32::MAX bytes of interned names");
        table.text.push_str(name);
        table.ends.push(end);
        if 2 * table.ends.len() > table.slots.len() {
            table.grow();
        } else if let Err(at) = table.find(name) {
            table.slots[at] = id;
        }
        id
    }

    /// Looks up the id of `name` without interning it.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.table.slots.is_empty() {
            return None;
        }
        self.table.find(name).ok()
    }

    /// Returns the name for `id`, if assigned.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.table.name(id)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.table.ends.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.table.ends.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.table.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::HashMap;

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
        assert_eq!(i.get(""), None);
        assert_eq!(i.name(0), None);
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX interned names")]
    fn the_empty_slot_marker_is_never_an_id() {
        assert_eq!(next_id(usize::try_from(EMPTY).unwrap() - 1), EMPTY - 1);
        next_id(usize::try_from(EMPTY).unwrap());
    }

    /// Names whose FNV-1a hashes agree in their low 12 bits: each starts
    /// its probe at the same slot in every table of up to 4 096 slots.
    fn colliding_names() -> &'static [String] {
        static NAMES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        NAMES.get_or_init(|| {
            let home = |n: &String| fnv1a64(n.as_bytes()) & 0xfff;
            let target = home(&"c0".to_owned());
            let names: Vec<String> = (0..200_000)
                .map(|n| format!("c{n}"))
                .filter(|n| home(n) == target)
                .take(12)
                .collect();
            assert!(names.len() >= 8, "enough low-bit collisions");
            names
        })
    }

    /// The names a script picks from: the empty name, multi-byte UTF-8,
    /// prefixes of one another, low-bit hash collisions, and plenty of
    /// plain names so the table grows several times.
    fn pool() -> Vec<String> {
        let mut pool: Vec<String> = ["", "é", "日本", "日本語", "🦀", "a", "ab", "a\u{0}b", "Amy"]
            .map(str::to_owned)
            .into();
        pool.extend_from_slice(colliding_names());
        pool.extend((0..120).map(|n| format!("e{n}")));
        pool
    }

    /// Every view of `interner` agrees with the model of what it holds.
    fn agrees(
        interner: &Interner,
        model: &HashMap<String, u32>,
        pool: &[String],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(interner.len(), model.len());
        prop_assert_eq!(interner.is_empty(), model.is_empty());
        for name in pool {
            prop_assert_eq!(interner.get(name), model.get(name).copied());
        }
        let mut by_id: Vec<(u32, &str)> = model.iter().map(|(n, &id)| (id, n.as_str())).collect();
        by_id.sort_unstable();
        prop_assert!(interner.iter().eq(by_id.iter().copied()));
        for &(id, name) in &by_id {
            prop_assert_eq!(interner.name(id), Some(name));
        }
        prop_assert_eq!(interner.name(next_id(model.len())), None);
        Ok(())
    }

    proptest! {
        /// The interner against a `HashMap` model under random intern
        /// streams with repeats, and clones taken along the way that
        /// then intern names of their own: ids are dense in first-intern
        /// order, and no clone's interning moves another's ids, names or
        /// lookups.
        #[test]
        fn interner_matches_a_hash_map_model(
            script in prop::collection::vec((0u8..8, any::<u16>()), 1..400),
        ) {
            let pool = pool();
            let mut live = Interner::new();
            let mut model: HashMap<String, u32> = HashMap::new();
            let mut held: Vec<(Interner, HashMap<String, u32>)> = Vec::new();
            for &(op, pick) in &script {
                let name = &pool[usize::from(pick) % pool.len()];
                match op {
                    // Intern into a held clone; the live interner and
                    // every other clone must not notice.
                    0 if !held.is_empty() => {
                        let at = usize::from(pick) % held.len();
                        let (clone, then) = &mut held[at];
                        let next = u32::try_from(then.len()).unwrap();
                        let id = *then.entry(name.clone()).or_insert(next);
                        prop_assert_eq!(clone.intern(name), id);
                    }
                    1 => held.push((live.clone(), model.clone())),
                    _ => {
                        let next = u32::try_from(model.len()).unwrap();
                        let id = *model.entry(name.clone()).or_insert(next);
                        prop_assert_eq!(live.intern(name), id);
                    }
                }
                agrees(&live, &model, &pool)?;
            }
            for (clone, then) in &held {
                agrees(clone, then, &pool)?;
            }
        }
    }
}
