//! Sets of dense ids (instructions, SCCs) as bitsets, one bit per id.

use cgpa_analysis::SccId;
use cgpa_ir::InstId;
use std::marker::PhantomData;

/// An id that indexes a table: `0..n` for a table of `n` entries.
pub(crate) trait DenseId: Copy {
    /// The table index.
    fn index(self) -> usize;
    /// The id at table index `i`.
    fn from_index(i: usize) -> Self;
}

impl DenseId for InstId {
    fn index(self) -> usize {
        InstId::index(self)
    }

    fn from_index(i: usize) -> Self {
        InstId(i as u32)
    }
}

impl DenseId for SccId {
    fn index(self) -> usize {
        SccId::index(self)
    }

    fn from_index(i: usize) -> Self {
        SccId(i as u32)
    }
}

/// A set of ids below a fixed bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IdSet<I> {
    words: Vec<u64>,
    id: PhantomData<I>,
}

impl<I: DenseId> IdSet<I> {
    /// The empty set of ids below `n`.
    pub(crate) fn new(n: usize) -> Self {
        IdSet { words: vec![0; n.div_ceil(64)], id: PhantomData }
    }

    /// The set's words: bit `i % 64` of word `i / 64` holds id `i`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn contains(&self, id: I) -> bool {
        let i = id.index();
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Add `id`; true if it was not in the set.
    pub(crate) fn insert(&mut self, id: I) -> bool {
        let i = id.index();
        let (word, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    pub(crate) fn remove(&mut self, id: I) {
        let i = id.index();
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add every member of `other`, the words of a set with the same bound.
    pub(crate) fn union_with(&mut self, other: &[u64]) {
        self.words.iter_mut().zip(other).for_each(|(a, b)| *a |= b);
    }

    /// The smallest id in this set and in `other`, the words of a set with
    /// the same bound.
    pub(crate) fn first_common(&self, other: &[u64]) -> Option<I> {
        self.words.iter().zip(other).enumerate().find_map(|(w, (a, b))| {
            let both = a & b;
            (both != 0).then(|| I::from_index(w * 64 + both.trailing_zeros() as usize))
        })
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = I> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    I::from_index(w * 64 + bit)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_out_ascending_across_words() {
        let mut s = IdSet::<SccId>::new(130);
        for i in [129, 0, 64, 63, 5] {
            assert!(s.insert(SccId(i)));
        }
        assert!(!s.insert(SccId(64)));
        assert_eq!(s.iter().map(|x| x.0).collect::<Vec<_>>(), [0, 5, 63, 64, 129]);
        s.remove(SccId(0));
        assert!(!s.contains(SccId(0)) && s.contains(SccId(129)));
        let mut t = IdSet::<SccId>::new(130);
        t.insert(SccId(129));
        t.insert(SccId(63));
        assert_eq!(s.first_common(t.words()), Some(SccId(63)));
        t.union_with(s.words());
        assert_eq!(t.iter().count(), 4);
        t.clear();
        assert!(t.is_empty() && t.first_common(s.words()).is_none());
    }
}
