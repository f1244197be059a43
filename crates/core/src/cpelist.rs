//! The pair list in the form the CPE kernels consume: CSR cluster
//! neighbors plus a 16-bit interaction mask per cluster pair.
//!
//! Masks fold three conditions the scalar reference checks per particle
//! pair — filler slots, intramolecular exclusions, and self-pair
//! deduplication — into one bit test (bit `ai*4 + bj`), which is also how
//! the real GROMACS nbnxn kernels handle exclusions.
//!
//! The list is topology only: it holds for as long as the clustering,
//! the exclusions and the list kind do. Everything that follows the
//! positions lives in the [`PackedSystem`](crate::package::PackedSystem),
//! and a kernel derives each entry's periodic shift from the packed
//! cluster centers when it starts the entry's row
//! ([`PackedSystem::row_shifts`](crate::package::PackedSystem::row_shifts)),
//! so the inner kernel stays branch-free: `d = pos_a - (pos_b + shift)`.

use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;

/// Bytes of list data a CPE streams per neighbor entry in the cost
/// model (index + mask + shift, the paper's list layout). This is the
/// modelled DMA stream, not host storage: the host list holds index and
/// mask, and the kernels derive the shift from the packed centers.
pub const LIST_ENTRY_BYTES: usize = 4 + 2 + 12;

/// A kernel-ready cluster pair list.
#[derive(Debug, Clone)]
pub struct CpePairList {
    /// CSR offsets per outer cluster.
    pub offsets: Vec<u32>,
    /// Inner cluster per entry.
    pub neighbors: Vec<u32>,
    /// Interaction mask per entry: bit `ai*4+bj` set = compute the pair.
    pub masks: Vec<u16>,
    /// Half or full convention (inherited from the source list).
    pub kind: ListKind,
    /// Build radius.
    pub rlist: f32,
}

impl CpePairList {
    /// Lower a geometric [`PairList`] into kernel form, computing masks
    /// from `sys`'s exclusions. The CSR and the masks are a function of
    /// the clustering, the exclusions and the list kind only, so the
    /// lowered list holds for as long as the list does.
    pub fn build(sys: &System, list: &PairList) -> Self {
        Self {
            offsets: list.offsets.clone(),
            neighbors: list.neighbors.clone(),
            masks: list.interaction_masks(sys),
            kind: list.kind,
            rlist: list.rlist,
        }
    }

    /// Number of outer clusters.
    pub fn n_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Entry index range of outer cluster `ci`.
    #[inline]
    pub fn entries_of(&self, ci: usize) -> std::ops::Range<usize> {
        self.offsets[ci] as usize..self.offsets[ci + 1] as usize
    }

    /// Total entries.
    pub fn n_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Bytes of list data streamed for cluster `ci` in the cost model
    /// ([`LIST_ENTRY_BYTES`] an entry).
    pub fn stream_bytes(&self, ci: usize) -> usize {
        self.entries_of(ci).len() * LIST_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::cluster::FILLER;
    use mdsim::water::water_box;

    fn setup() -> (System, PairList, CpePairList) {
        let sys = water_box(600, 300.0, 51);
        let list = PairList::build(&sys, 0.6, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        (sys, list, cpe)
    }

    #[test]
    fn mask_bits_match_reference_conditions() {
        let (sys, list, cpe) = setup();
        let mut entry = 0;
        for ci in 0..list.n_clusters() {
            let mi = list.clustering.members(ci);
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let mj = list.clustering.members(cj);
                let mask = cpe.masks[entry];
                for (ai, &a) in mi.iter().enumerate() {
                    for (bj, &b) in mj.iter().enumerate() {
                        let bit = mask >> (ai * 4 + bj) & 1 == 1;
                        let expect = a != FILLER
                            && b != FILLER
                            && a != b
                            && !(ci == cj && bj <= ai)
                            && !sys.is_excluded(a as usize, b as usize);
                        assert_eq!(bit, expect, "entry {entry} ai={ai} bj={bj}");
                    }
                }
                entry += 1;
            }
        }
    }

    #[test]
    fn each_interacting_pair_counted_once_in_half_list() {
        let (_, _, cpe) = setup();
        // Popcount over all masks = number of particle pairs the kernel
        // will evaluate; each unordered pair exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut entry = 0;
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let mask = cpe.masks[entry];
                for bitpos in 0..16 {
                    if mask >> bitpos & 1 == 1 {
                        let (ai, bj) = (bitpos / 4, bitpos % 4);
                        let a = ci * 4 + ai;
                        let b = cj * 4 + bj;
                        let key = (a.min(b), a.max(b));
                        assert!(seen.insert(key), "pair {key:?} duplicated");
                    }
                }
                entry += 1;
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn stream_bytes_counts_entries() {
        let (_, _, cpe) = setup();
        let total: usize = (0..cpe.n_clusters()).map(|c| cpe.stream_bytes(c)).sum();
        assert_eq!(total, cpe.n_entries() * LIST_ENTRY_BYTES);
    }
}
