//! Packed `u64` bitset words: one bit per device, 64 devices per word.
//!
//! The fault layer keeps its down-set ([`crate::FaultModel::down`]) in
//! this form, so membership tests stay cache-resident at n = 10^6.

/// A fixed-capacity set over `0..n`, packed 64 bits per `u64` word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for members `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Whether `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Removes every member. `O(capacity / 64)` word writes.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// The number of members, by word-parallel popcount.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every member of `other` from this set, word-parallel
    /// (`self &= !other`), in `O(capacity / 64)` word ops.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different capacities.
    pub fn and_not(&mut self, other: &BitSet) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "cannot mask bitsets of different capacities"
        );
        for (w, m) in self.words.iter_mut().zip(&other.words) {
            *w &= !m;
        }
    }

    /// The backing words, 64 bits each, lowest indices in word 0.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert_eq!(s.count_ones(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn clear_empties_all_words() {
        let mut s = BitSet::new(200);
        for i in (0..200).step_by(7) {
            s.insert(i);
        }
        s.clear();
        assert_eq!(s.count_ones(), 0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn and_not_masks_word_parallel() {
        let mut s = BitSet::new(130);
        let mut mask = BitSet::new(130);
        for i in [0, 63, 64, 100, 129] {
            s.insert(i);
        }
        mask.insert(63);
        mask.insert(100);
        mask.insert(7); // not in s: masking a non-member is a no-op
        s.and_not(&mask);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(63) && !s.contains(100));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn and_not_rejects_mismatched_capacities() {
        BitSet::new(64).and_not(&BitSet::new(128));
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_panics() {
        let mut s = BitSet::new(64);
        s.insert(64);
    }
}
