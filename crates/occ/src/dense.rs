//! Dense index-keyed tables: the set, map and use-list shapes the mid-end
//! keys by entity number instead of by ordered search trees.
//!
//! Every mid-end entity has a small dense number — a register's
//! [`VReg`]`.0` (below the function's `next_vreg`), a block's
//! [`BlockId`]`.0` (below `blocks.len()`), a memory cell's position in
//! the sorted cell universe of [`crate::mem::cell_universe`] — so a
//! table keyed by one is a flat array indexed by that number. Iterating
//! one in index order visits keys in exactly the ascending order an
//! ordered map would, which is what keeps every φ order, rewrite order and
//! tie-break of the passes unchanged. The [`crate::analysis`] module doc
//! states the sizing precondition.
//!
//! ```
//! use occ::dense::{DenseMap, DenseSet};
//! use occ::mir::VReg;
//!
//! let mut live: DenseSet<VReg> = DenseSet::with_capacity(8);
//! live.insert(VReg(5));
//! live.insert(VReg(2));
//! assert_eq!(live.iter().collect::<Vec<_>>(), [VReg(2), VReg(5)]);
//!
//! let mut leader: DenseMap<VReg, VReg> = DenseMap::with_capacity(8);
//! leader.insert(VReg(7), VReg(1));
//! assert_eq!(leader.get(VReg(7)), Some(&VReg(1)));
//! assert_eq!(leader.get(VReg(3)), None);
//! ```

use std::fmt;
use std::marker::PhantomData;

use crate::mir::{BlockId, VReg};

/// An entity with a dense number: the key type of [`DenseSet`],
/// [`DenseMap`] and [`UseLists`].
pub trait Idx: Copy {
    /// The entity's number.
    fn index(self) -> usize;
    /// The entity numbered `i`.
    fn from_index(i: usize) -> Self;
}

impl Idx for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> usize {
        i
    }
}

impl Idx for VReg {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> VReg {
        VReg(i as u32)
    }
}

impl Idx for BlockId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> BlockId {
        BlockId(i as u32)
    }
}

/// A set of dense entities as `u64`-word bits. Reads past the sized range
/// report absence; an insertion past it grows the set. Equality ignores
/// the sized range, so two sets with the same members are equal.
#[derive(Clone)]
pub struct DenseSet<I> {
    words: Vec<u64>,
    _key: PhantomData<I>,
}

impl<I> Default for DenseSet<I> {
    fn default() -> DenseSet<I> {
        DenseSet {
            words: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<I: Idx> DenseSet<I> {
    /// An empty set sized for entities `0..n`.
    pub fn with_capacity(n: usize) -> DenseSet<I> {
        DenseSet {
            words: vec![0; n.div_ceil(64)],
            _key: PhantomData,
        }
    }

    /// The set of every entity `0..n`.
    pub fn full(n: usize) -> DenseSet<I> {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        DenseSet {
            words,
            _key: PhantomData,
        }
    }

    /// Inserts `i`; `true` if it was absent.
    pub fn insert(&mut self, i: I) -> bool {
        let i = i.index();
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes `i`; `true` if it was present.
    pub fn remove(&mut self, i: I) -> bool {
        let i = i.index();
        match self.words.get_mut(i / 64) {
            Some(w) => {
                let bit = 1u64 << (i % 64);
                let present = *w & bit != 0;
                *w &= !bit;
                present
            }
            None => false,
        }
    }

    /// `true` if `i` is a member.
    pub fn contains(&self, i: I) -> bool {
        let i = i.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Removes every member, keeping the sized range.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Keeps the members also in `other`.
    pub fn intersect_with(&mut self, other: &DenseSet<I>) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &DenseSet<I>) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Removes every member of `other`.
    pub fn subtract(&mut self, other: &DenseSet<I>) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(I::from_index(wi * 64 + b))
            })
        })
    }
}

impl<I: Idx> FromIterator<I> for DenseSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> DenseSet<I> {
        let mut set = DenseSet::with_capacity(0);
        for i in iter {
            set.insert(i);
        }
        set
    }
}

impl<I> PartialEq for DenseSet<I> {
    fn eq(&self, other: &DenseSet<I>) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| self.words.get(i).unwrap_or(&0) == other.words.get(i).unwrap_or(&0))
    }
}

impl<I> Eq for DenseSet<I> {}

impl<I: Idx + fmt::Debug> fmt::Debug for DenseSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A map from dense entities to values: one optional slot per entity.
/// Reads past the sized range find nothing; an insertion past it grows
/// the map.
#[derive(Clone)]
pub struct DenseMap<I, T> {
    slots: Vec<Option<T>>,
    len: usize,
    _key: PhantomData<I>,
}

impl<I: Idx, T> DenseMap<I, T> {
    /// An empty map sized for keys `0..n`.
    pub fn with_capacity(n: usize) -> DenseMap<I, T> {
        DenseMap {
            slots: std::iter::repeat_with(|| None).take(n).collect(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// The value at `k`.
    pub fn get(&self, k: I) -> Option<&T> {
        self.slots.get(k.index()).and_then(Option::as_ref)
    }

    /// `true` if `k` has a value.
    pub fn contains_key(&self, k: I) -> bool {
        self.get(k).is_some()
    }

    /// Sets the value at `k`, returning the previous one.
    pub fn insert(&mut self, k: I, v: T) -> Option<T> {
        let i = k.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no key has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (I::from_index(i), v)))
    }
}

impl<I: Idx + fmt::Debug, T: fmt::Debug> fmt::Debug for DenseMap<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Per-entity item lists in one flat array (compressed sparse rows):
/// the use lists and definition-site lists the passes scan, built with
/// two allocations instead of one list per entity. Each entity's items
/// keep the order they were emitted in.
#[derive(Debug)]
pub struct UseLists<I, T> {
    start: Vec<u32>,
    items: Vec<T>,
    _key: PhantomData<I>,
}

impl<I: Idx, T: Copy> UseLists<I, T> {
    /// Builds the lists for keys `0..n` from `emit`, which must report
    /// the same `(key, item)` sequence each of the two times it is called
    /// (a counting pass, then a filling pass). A key at or past `n`
    /// widens the table.
    pub fn build(n: usize, emit: impl Fn(&mut dyn FnMut(I, T))) -> UseLists<I, T> {
        let mut start = vec![0u32; n + 1];
        emit(&mut |k, _| {
            let i = k.index();
            if i + 1 >= start.len() {
                start.resize(i + 2, 0);
            }
            start[i + 1] += 1;
        });
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let total = start[start.len() - 1] as usize;
        let mut cursor: Vec<u32> = start[..start.len() - 1].to_vec();
        let mut items: Vec<T> = Vec::new();
        emit(&mut |k, t| {
            if items.is_empty() {
                // Every slot is overwritten below; the first item is
                // just a filler of the right type.
                items = vec![t; total];
            }
            let c = &mut cursor[k.index()];
            items[*c as usize] = t;
            *c += 1;
        });
        UseLists {
            start,
            items,
            _key: PhantomData,
        }
    }

    /// Number of keys the table spans (`n`, or more if a key past it
    /// was emitted).
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// `true` if the table spans no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items of `k`, in emission order (empty past the table).
    pub fn get(&self, k: I) -> &[T] {
        let i = k.index();
        match (self.start.get(i), self.start.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.items[a as usize..b as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn dense_set_iterates_ascending_like_an_ordered_set() {
        let keys = [130usize, 3, 64, 63, 0, 3, 200];
        let dense: DenseSet<usize> = keys.iter().copied().collect();
        let ordered: BTreeSet<usize> = keys.iter().copied().collect();
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            ordered.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(dense.len(), ordered.len());
        assert!(dense.contains(64) && !dense.contains(65) && !dense.contains(10_000));
    }

    #[test]
    fn dense_set_algebra_and_sized_equality() {
        let mut a: DenseSet<usize> = DenseSet::full(70);
        assert_eq!(a.len(), 70);
        assert!(!a.contains(70));
        let b: DenseSet<usize> = [1usize, 69, 5].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), [1, 5, 69]);
        let mut c = DenseSet::with_capacity(500);
        c.union_with(&a);
        assert_eq!(c, a, "equality ignores the sized range");
        c.subtract(&[5usize].into_iter().collect());
        assert_eq!(c.iter().collect::<Vec<_>>(), [1, 69]);
        assert!(c.remove(1) && !c.remove(1));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn dense_map_counts_and_grows() {
        let mut m: DenseMap<VReg, i32> = DenseMap::with_capacity(2);
        assert_eq!(m.insert(VReg(9), 1), None);
        assert_eq!(m.insert(VReg(9), 2), Some(1));
        m.insert(VReg(0), 3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), [(VReg(0), &3), (VReg(9), &2)]);
        assert!(!m.contains_key(VReg(100)));
    }

    #[test]
    fn use_lists_keep_emission_order_per_key() {
        let pairs = [(2usize, 'a'), (0, 'b'), (2, 'c'), (7, 'd')];
        let lists: UseLists<usize, char> = UseLists::build(3, |emit| {
            for &(k, t) in &pairs {
                emit(k, t);
            }
        });
        assert_eq!(lists.get(2), ['a', 'c']);
        assert_eq!(lists.get(0), ['b']);
        assert_eq!(lists.get(1), [] as [char; 0]);
        assert_eq!(lists.get(7), ['d'], "a key past n widens the table");
        assert_eq!(lists.get(99), [] as [char; 0]);
    }
}
