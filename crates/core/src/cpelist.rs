//! The pair list in the form the CPE kernels consume: CSR cluster
//! neighbors plus a 16-bit interaction mask and a periodic shift vector
//! per cluster pair.
//!
//! Masks fold three conditions the scalar reference checks per particle
//! pair — filler slots, intramolecular exclusions, and self-pair
//! deduplication — into one bit test (bit `ai*4 + bj`), which is also how
//! the real GROMACS nbnxn kernels handle exclusions. Shift vectors bake
//! the minimum-image convention into the list so the inner kernel is
//! branch-free: `d = pos_a - (pos_b + shift)`.

use mdsim::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use mdsim::pairlist::{ListKind, PairList};
use mdsim::system::System;

/// Bytes of list data streamed per neighbor entry (index + mask + shift).
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
    /// Periodic shift (added to inner-cluster positions) per entry.
    pub shifts: Vec<[f32; 3]>,
    /// Half or full convention (inherited from the source list).
    pub kind: ListKind,
    /// Build radius.
    pub rlist: f32,
}

impl CpePairList {
    /// Lower a geometric [`PairList`] into kernel form, computing masks
    /// from `sys`'s exclusions and shifts from cluster centers.
    ///
    /// The lowering has two halves with different lifetimes. The CSR and
    /// the masks are a function of the clustering, the exclusions and the
    /// list kind only, so they hold for as long as the list does; the
    /// shifts follow the positions and go stale every step
    /// ([`CpePairList::update_shifts`] brings them up to date in place).
    pub fn build(sys: &System, list: &PairList) -> Self {
        let mut lowered = Self {
            offsets: list.offsets.clone(),
            neighbors: list.neighbors.clone(),
            masks: interaction_masks(sys, list),
            shifts: vec![[0.0; 3]; list.n_pairs()],
            kind: list.kind,
            rlist: list.rlist,
        };
        lowered.update_shifts(sys, &list.clustering);
        lowered
    }

    /// Recompute every entry's shift from `sys`'s current positions:
    /// translate the inner cluster's center to its minimum image
    /// relative to the outer cluster's center. `clustering` must be the
    /// one the list was built over.
    pub fn update_shifts(&mut self, sys: &System, clustering: &Clustering) {
        let centers: Vec<mdsim::Vec3> = (0..self.n_clusters())
            .map(|c| clustering.center(&sys.pbc, &sys.pos, c))
            .collect();
        for ci in 0..self.n_clusters() {
            for e in self.entries_of(ci) {
                let cj = self.neighbors[e] as usize;
                let d = sys.pbc.min_image(centers[ci], centers[cj]);
                let imaged = centers[ci] - d; // cj center seen from ci
                let s = imaged - centers[cj];
                self.shifts[e] = [s.x, s.y, s.z];
            }
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

    /// Bytes of list data streamed for cluster `ci` (index+mask+shift).
    pub fn stream_bytes(&self, ci: usize) -> usize {
        self.entries_of(ci).len() * LIST_ENTRY_BYTES
    }
}

/// One interaction mask per list entry, in entry order: bit `ai*4 + bj`
/// is set unless either slot is a filler, the two are one particle, the
/// pair is excluded, or a half list already counts it as `(bj, ai)`.
fn interaction_masks(sys: &System, list: &PairList) -> Vec<u16> {
    let mut masks = Vec::with_capacity(list.n_pairs());
    for ci in 0..list.n_clusters() {
        let mi = list.clustering.members(ci);
        for &cj in list.neighbors_of(ci) {
            let cj = cj as usize;
            let mj = list.clustering.members(cj);
            let same = cj == ci;
            let mut mask = 0u16;
            for (ai, &a) in mi.iter().enumerate() {
                if a == FILLER {
                    continue;
                }
                for (bj, &b) in mj.iter().enumerate() {
                    if b == FILLER || a == b {
                        continue;
                    }
                    if list.kind == ListKind::Half && same && bj <= ai {
                        continue;
                    }
                    if sys.is_excluded(a as usize, b as usize) {
                        continue;
                    }
                    mask |= 1 << (ai * CLUSTER_SIZE + bj);
                }
            }
            masks.push(mask);
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::water::water_box;

    fn setup() -> (System, PairList, CpePairList) {
        // rlist + 2 x cluster radius must stay under half the box edge
        // for the per-cluster shifts to be exact minimum images.
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
    fn shifts_realize_minimum_image() {
        use crate::package::{PackageLayout, PackedSystem};
        let (sys, list, cpe) = setup();
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let mut entry = 0;
        let mut checked = 0u32;
        for ci in 0..list.n_clusters() {
            for &cj in list.neighbors_of(ci) {
                let cj = cj as usize;
                let s = cpe.shifts[entry];
                let mask = cpe.masks[entry];
                for ai in 0..4 {
                    for bj in 0..4 {
                        if mask >> (ai * 4 + bj) & 1 == 0 {
                            continue;
                        }
                        let (xa, ya, za, ..) = psys.read_particle(psys.package(ci), ai);
                        let (xb, yb, zb, ..) = psys.read_particle(psys.package(cj), bj);
                        let d_kernel =
                            mdsim::vec3(xa - (xb + s[0]), ya - (yb + s[1]), za - (zb + s[2]))
                                .norm();
                        let a = list.clustering.members(ci)[ai] as usize;
                        let b = list.clustering.members(cj)[bj] as usize;
                        let d_ref = sys.pbc.min_image(sys.pos[a], sys.pos[b]).norm();
                        // Exact minimum image within the list radius.
                        if d_ref < 0.6 {
                            assert!(
                                (d_kernel - d_ref).abs() < 1e-4,
                                "entry {entry} ({ai},{bj}): {d_kernel} vs {d_ref}"
                            );
                            checked += 1;
                        }
                    }
                }
                entry += 1;
            }
        }
        assert!(checked > 1000, "only {checked} pairs checked");
    }

    #[test]
    fn stream_bytes_counts_entries() {
        let (_, _, cpe) = setup();
        let total: usize = (0..cpe.n_clusters()).map(|c| cpe.stream_bytes(c)).sum();
        assert_eq!(total, cpe.n_entries() * LIST_ENTRY_BYTES);
    }
}
