//! Fast, deterministic tables for simulator-internal state.
//!
//! The DES hot loop looks up per-event state by id: chunks, flows and their
//! continuations. Most of those ids are handed out sequentially and retired
//! roughly in that order, so [`SeqTable`] keeps them in a sliding window
//! indexed by `id - base`: no hashing, no rehash, and iteration in ascending
//! id order. Keys that are not sequential (structs, sparse ids) use the Fx
//! map below.
//!
//! `std`'s default SipHash is keyed and DoS-resistant — properties
//! simulator-internal keys don't need — and measurably slower. This module
//! provides the well-known Fx multiply-xor hash (the rustc hasher): a few
//! cycles per word, deterministic across runs and platforms for our
//! fixed-width keys.
//!
//! Only use the map for *internal* state keyed by trusted values (ids,
//! small structs). Nothing here may affect simulation results beyond timing:
//! every result-bearing iteration in the simulator walks an explicitly
//! ordered `Vec` (or a [`SeqTable`], in id order), never a hash map, so the
//! hasher choice cannot leak into figures.

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};

/// A map from sequentially allocated `u64` ids to values: a sliding window
/// over the ids from the oldest live entry to the newest.
///
/// Inserts must come in increasing id order (gaps are allowed). Lookups and
/// removals index the window directly; removing the oldest entry slides the
/// window past every removed id behind it. Memory is proportional to the id
/// span between the oldest live entry and the newest, so this suits ids
/// that are retired roughly in allocation order — chunks in a pipeline, flows in
/// a flow simulator — not ones that may live forever while others churn.
///
/// # Example
///
/// ```
/// use trainbox_sim::hash::SeqTable;
///
/// let mut t = SeqTable::new();
/// t.insert(10, "a");
/// t.insert(11, "b");
/// t.insert(13, "c");
/// assert_eq!(t.remove(10), Some("a"));
/// assert_eq!(t.get(13), Some(&"c"));
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![(11, &"b"), (13, &"c")]);
/// ```
#[derive(Debug, Clone)]
pub struct SeqTable<V> {
    /// Id of `slots[0]`.
    base: u64,
    /// Entries for ids `base..base + slots.len()`; `None` for removed ids
    /// (never at the front) and skipped ones.
    slots: VecDeque<Option<V>>,
    len: usize,
}

impl<V> Default for SeqTable<V> {
    fn default() -> Self {
        SeqTable {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<V> SeqTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value` under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not above every id inserted since the table was
    /// last empty.
    pub fn insert(&mut self, id: u64, value: V) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(
            id >= end,
            "SeqTable ids must be inserted in increasing order: {id} < {end}"
        );
        for _ in end..id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.len += 1;
    }

    fn slot(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The value under `id`, if live.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots[self.slot(id)?].as_ref()
    }

    /// The value under `id`, mutably, if live.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let i = self.slot(id)?;
        self.slots[i].as_mut()
    }

    /// Remove and return the value under `id`, if live.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.slot(id)?;
        let value = self.slots[i].take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, v)| Some((id, v.as_ref()?)))
    }
}

impl<V> Index<u64> for SeqTable<V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `id` is not live.
    fn index(&self, id: u64) -> &V {
        self.get(id)
            .unwrap_or_else(|| panic!("no entry for id {id}"))
    }
}

impl<V> IndexMut<u64> for SeqTable<V> {
    /// # Panics
    ///
    /// Panics if `id` is not live.
    fn index_mut(&mut self, id: u64) -> &mut V {
        self.get_mut(id)
            .unwrap_or_else(|| panic!("no entry for id {id}"))
    }
}

/// `rustc-hash`-style multiply-xor hasher. Not DoS-resistant; internal use
/// with trusted keys only.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// 64-bit Fx multiplier (floor(2^64 / golden ratio), forced odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let h = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn maps_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&u64::MAX), Some(&"max"));
    }

    #[test]
    fn seq_table_slides_past_removed_ids() {
        let mut t = SeqTable::new();
        for id in 0..5u64 {
            t.insert(id, id * 10);
        }
        assert_eq!(t.remove(2), Some(20));
        assert_eq!(t.remove(2), None, "double remove");
        assert_eq!(t.slots.len(), 5, "a hole in the middle keeps the window");
        assert_eq!(t.remove(0), Some(0));
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(
            (t.base, t.slots.len()),
            (3, 2),
            "the window slid past 0..=2"
        );
        assert_eq!(t.get(1), None);
        assert_eq!(t[4], 40);
        t[4] += 1;
        assert_eq!(t.get(4), Some(&41));
        assert_eq!(t.get(99), None);
        assert_eq!(t.len(), 2);
        t.remove(3);
        t.remove(4);
        assert!(t.is_empty());
        assert!(t.slots.is_empty());
        // An empty table restarts its window at the next id.
        t.insert(1_000_000, 7);
        assert_eq!(t.slots.len(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(1_000_000, &7)]);
    }

    #[test]
    fn seq_table_skips_gaps_and_iterates_in_id_order() {
        let mut t = SeqTable::new();
        t.insert(3, 'a');
        t.insert(6, 'b');
        t.insert(7, 'c');
        assert_eq!(t.get(4), None);
        assert_eq!(t.remove(5), None);
        t.remove(6);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, &'a'), (7, &'c')]);
        assert_eq!(t.len(), 2);
    }

    proptest::proptest! {
        /// A `SeqTable` answers every lookup, removal and iteration like an
        /// ordered map fed the same increasing-id inserts.
        #[test]
        fn seq_table_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..3, 0u64..8), 1..200),
        ) {
            let mut t = SeqTable::new();
            let mut model = std::collections::BTreeMap::new();
            let mut next = 0u64;
            for (op, v) in ops {
                match op {
                    0 => {
                        next += v % 3;
                        t.insert(next, next);
                        model.insert(next, next);
                        next += 1;
                    }
                    1 => {
                        let id = next.saturating_sub(v);
                        proptest::prop_assert_eq!(t.remove(id), model.remove(&id));
                    }
                    _ => {
                        let id = next.saturating_sub(v);
                        proptest::prop_assert_eq!(t.get(id), model.get(&id));
                    }
                }
                proptest::prop_assert_eq!(t.len(), model.len());
                proptest::prop_assert!(
                    t.iter().eq(model.iter().map(|(&k, v)| (k, v))),
                    "iteration order diverged"
                );
                proptest::prop_assert!(!matches!(t.slots.front(), Some(None)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn seq_table_rejects_out_of_order_inserts() {
        let mut t = SeqTable::new();
        t.insert(5, ());
        t.insert(5, ());
    }

    #[test]
    fn unaligned_byte_tails_hash_consistently() {
        let h = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(h(b"hello world"), h(b"hello world"));
        assert_ne!(h(b"hello world"), h(b"hello worlD"));
        assert_ne!(h(b"ab"), h(b"ba"));
    }
}
