//! Bit-Map update marks (paper §3.3, Fig. 5).
//!
//! One bit per cache line of a CPE's force copy records whether that line
//! was ever updated. With 8 particle-packages (32 particles) per line, one
//! byte of marks covers 256 particles and one `u64` word covers 2048 — the
//! whole bookkeeping for a large copy fits in a handful of LDM words, and
//! all operations are single bit-ops (Alg. 3 line 11/16, Alg. 4 line 4).

/// A compact bit vector indexed by cache-line number.
///
/// The words are allocated at the first [`BitMap::set`]: until then every
/// bit reads clear, so a CPE that never updates a line pays nothing for
/// its marks on the host either.
#[derive(Debug, Clone)]
pub struct BitMap {
    /// Empty until the first `set`, then `len.div_ceil(64)` words.
    words: Vec<u64>,
    len: usize,
}

impl BitMap {
    /// A bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: Vec::new(),
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are addressable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words
            .get(i >> 6)
            .is_some_and(|w| (w >> (i & 63)) & 1 == 1)
    }

    /// Set bit `i` to 1. Returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        if self.words.is_empty() {
            self.words = vec![0; self.len.div_ceil(64)];
        }
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let prev = *w & mask != 0;
        *w |= mask;
        prev
    }

    /// Set bit `i` on behalf of the write cache with trace id `owner`,
    /// emitting a mark event on the clear -> set transition so the
    /// `swcheck` coherence pass can compare marks against the reduction.
    /// Returns the previous value, like [`Self::set`].
    #[inline]
    pub fn set_owned(&mut self, i: usize, owner: u64) -> bool {
        let prev = self.set(i);
        if !prev {
            swprof::metrics::counter_add("bitmap.marks_set", 1);
            crate::trace::emit_mark_set(owner, i);
        }
        prev
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        if let Some(w) = self.words.get_mut(i >> 6) {
            *w &= !(1u64 << (i & 63));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut w = w;
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                })
            })
            .take_while(move |&i| i < self.len)
    }

    /// LDM bytes consumed by this bitmap: a function of `len` alone,
    /// whatever the host has allocated.
    pub fn ldm_bytes(&self) -> usize {
        self.len.div_ceil(64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitMap::new(130);
        assert!(!b.get(0));
        assert!(!b.set(0));
        assert!(b.set(0));
        assert!(b.get(0));
        b.set(129);
        assert!(b.get(129));
        b.clear(0);
        assert!(!b.get(0));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = BitMap::new(200);
        for i in [3, 64, 65, 199] {
            b.set(i);
        }
        let ones: Vec<_> = b.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 199]);
    }

    #[test]
    fn one_byte_covers_256_particles() {
        // Paper Fig. 5: 8 bits x 8 packages/line x 4 particles/package = 256.
        let particles_per_line = 8 * 4;
        let b = BitMap::new(8);
        assert_eq!(b.len() * particles_per_line, 256);
    }

    #[test]
    fn never_set_reads_like_set_then_cleared() {
        let untouched = BitMap::new(130);
        let mut cleared = BitMap::new(130);
        for i in [0, 64, 129] {
            cleared.set(i);
            cleared.clear(i);
        }
        for b in [&untouched, &cleared] {
            assert!((0..130).all(|i| !b.get(i)));
            assert_eq!(b.count_ones(), 0);
            assert_eq!(b.iter_ones().next(), None);
            assert_eq!(b.ldm_bytes(), 3 * 8);
        }
    }

    #[test]
    fn ldm_footprint_is_tiny() {
        // Marks for a 3M-particle copy (3M/32 lines) fit in ~12 KB.
        let lines = 3_000_000 / 32;
        let b = BitMap::new(lines);
        assert!(b.ldm_bytes() < 12 * 1024);
    }
}
