//! Cluster pair lists (Verlet lists with an `rlist` buffer).
//!
//! The pair list holds cluster pairs whose members may be within
//! `r_cut`; it is built with radius `rlist > r_cut` and regenerated every
//! `nstlist` steps (paper §2.1, Table 3: `nstlist = 10`, `rlist = 1.0`).
//! Layout is CSR — per outer cluster a contiguous run of inner clusters —
//! which is also the structure the CPE pair-list generation of §3.5
//! produces ("for every particle, it keeps the start and the end index of
//! its neighbors").
//!
//! Two variants, matching the paper's two algorithms:
//! - **half** (Algorithm 1): each unordered cluster pair appears once;
//!   the kernel updates both particles (Newton's third law), which is
//!   what creates the write-conflict problem the paper solves;
//! - **full** (Algorithm 2, the RCA baseline): each pair appears in both
//!   directions; the kernel only updates the outer particle, doubling
//!   compute but avoiding conflicts.

use crate::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use crate::pairsearch::PairSearch;
use crate::pbc::PbcBox;
use crate::system::System;
use crate::vec3::Vec3;

/// Which pair-list convention to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Each unordered pair once (`cj >= ci`).
    Half,
    /// Each pair in both directions.
    Full,
}

/// A CSR cluster pair list over a [`Clustering`].
#[derive(Debug, Clone)]
pub struct PairList {
    /// The clustering this list indexes into.
    pub clustering: Clustering,
    /// CSR row offsets: neighbors of cluster `ci` are
    /// `neighbors[offsets[ci]..offsets[ci+1]]`.
    pub offsets: Vec<u32>,
    /// Flattened inner-cluster indices.
    pub neighbors: Vec<u32>,
    /// List radius used at build time.
    pub rlist: f32,
    /// Convention.
    pub kind: ListKind,
}

impl PairList {
    /// Build a cluster pair list with radius `rlist` over `sys`.
    pub fn build(sys: &System, rlist: f32, kind: ListKind) -> Self {
        let clustering = Clustering::build(&sys.pbc, &sys.pos, rlist.max(0.3));
        Self::build_with_clustering(&sys.pbc, &sys.pos, clustering, rlist, kind)
    }

    /// Build over an existing clustering (used when the caller controls
    /// particle ordering): the clusters [`PairSearch`] finds in range of
    /// each outer cluster, in ascending order.
    pub fn build_with_clustering(
        pbc: &PbcBox,
        pos: &[Vec3],
        clustering: Clustering,
        rlist: f32,
        kind: ListKind,
    ) -> Self {
        let search = PairSearch::new(pbc, pos, &clustering, rlist, kind);
        let nc = clustering.n_clusters;
        let mut offsets = Vec::with_capacity(nc + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        let mut candidates = Vec::new();
        for ci in 0..nc {
            search.scan(ci, &mut candidates);
            let row = neighbors.len();
            neighbors.extend(
                candidates
                    .iter()
                    .filter(|c| c.in_range())
                    .map(|c| c.cluster() as u32),
            );
            neighbors[row..].sort_unstable();
            offsets.push(neighbors.len() as u32);
        }
        Self {
            clustering,
            offsets,
            neighbors,
            rlist,
            kind,
        }
    }

    /// Number of outer clusters.
    pub fn n_clusters(&self) -> usize {
        self.clustering.n_clusters
    }

    /// Inner clusters of outer cluster `ci`.
    #[inline]
    pub fn neighbors_of(&self, ci: usize) -> &[u32] {
        let lo = self.offsets[ci] as usize;
        let hi = self.offsets[ci + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// One interaction mask per list entry, in entry order
    /// ([`PairList::pair_mask`]).
    ///
    /// Almost no cluster pair shares a molecule, and a mask without
    /// exclusions is an outer product of the two clusters' occupied
    /// slots; only self pairs and pairs that do hold exclusion partners
    /// take the per-member test.
    pub fn interaction_masks(&self, sys: &System) -> Vec<u16> {
        let clustering = &self.clustering;
        // Bit `k` set: slot `k` of the cluster holds a particle.
        let occupied: Vec<u16> = (0..self.n_clusters())
            .map(|c| {
                let slots = clustering.members(c).iter().enumerate();
                slots.map(|(k, &p)| ((p != FILLER) as u16) << k).sum()
            })
            .collect();
        let mut masks = Vec::with_capacity(self.n_pairs());
        // Clusters holding an exclusion partner of a member of `ci`.
        let mut partners: Vec<u32> = Vec::new();
        for ci in 0..self.n_clusters() {
            partners.clear();
            for &a in clustering.members(ci).iter().filter(|&&a| a != FILLER) {
                let excluded = sys.exclusions[a as usize].iter();
                partners.extend(excluded.map(|&b| clustering.cluster_of[b as usize]));
            }
            // Bit `4 * ai` set for every occupied outer slot `ai`.
            let rows = (0..CLUSTER_SIZE)
                .map(|ai| (occupied[ci] >> ai & 1) << (ai * CLUSTER_SIZE))
                .sum::<u16>();
            for &cj in self.neighbors_of(ci) {
                masks.push(if cj as usize == ci || partners.contains(&cj) {
                    self.pair_mask(sys, ci, cj as usize)
                } else {
                    rows * occupied[cj as usize]
                });
            }
        }
        masks
    }

    /// The interaction mask of cluster pair `(ci, cj)`: bit `ai*4 + bj`
    /// is set unless either slot is a filler, the two are one particle,
    /// the pair is excluded, or a half list already counts it as
    /// `(bj, ai)`.
    pub fn pair_mask(&self, sys: &System, ci: usize, cj: usize) -> u16 {
        let same = cj == ci;
        let mut mask = 0u16;
        for (ai, &a) in self.clustering.members(ci).iter().enumerate() {
            if a == FILLER {
                continue;
            }
            for (bj, &b) in self.clustering.members(cj).iter().enumerate() {
                if b == FILLER || a == b {
                    continue;
                }
                if self.kind == ListKind::Half && same && bj <= ai {
                    continue;
                }
                if sys.is_excluded(a as usize, b as usize) {
                    continue;
                }
                mask |= 1 << (ai * CLUSTER_SIZE + bj);
            }
        }
        mask
    }

    /// Total number of cluster pairs stored.
    pub fn n_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// All particle-level pairs `(i, j)` with `i < j` implied by this
    /// list, *before* any distance or exclusion filtering. Used by tests
    /// to verify completeness against brute force.
    fn implied_particle_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for ci in 0..self.n_clusters() {
            for &cj in self.neighbors_of(ci) {
                let mi = self.clustering.members(ci);
                let mj = self.clustering.members(cj as usize);
                for &a in mi {
                    if a == FILLER {
                        continue;
                    }
                    for &b in mj {
                        if b == FILLER || a == b {
                            continue;
                        }
                        out.push((a.min(b), a.max(b)));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Check whether every particle pair within `r_cut` is covered by the
    /// list. Returns the first missing pair if any.
    pub fn verify_coverage(&self, sys: &System, r_cut: f32) -> Option<(usize, usize)> {
        let covered = self.implied_particle_pairs();
        let n = sys.n();
        for i in 0..n {
            for j in (i + 1)..n {
                if sys.pbc.dist2(sys.pos[i], sys.pos[j]) <= r_cut * r_cut
                    && covered.binary_search(&(i as u32, j as u32)).is_err()
                {
                    return Some((i, j));
                }
            }
        }
        None
    }

    /// Approximate memory footprint of the list in bytes.
    pub fn bytes(&self) -> usize {
        self.neighbors.len() * 4 + self.offsets.len() * 4 + self.clustering.slots.len() * 4
    }
}

/// Exact cluster-pair inclusion test: true iff any member pair of the
/// two clusters is within `rlist` (minimum image). The scalar statement
/// of what [`PairSearch`] computes on lanes, kept as the oracle its
/// tests compare against.
pub fn clusters_in_range(
    pbc: &PbcBox,
    pos: &[Vec3],
    clustering: &Clustering,
    ci: usize,
    cj: usize,
    rlist: f32,
) -> bool {
    let r2 = rlist * rlist;
    for &a in clustering.members(ci) {
        if a == FILLER {
            continue;
        }
        let pa = pos[a as usize];
        for &b in clustering.members(cj) {
            if b == FILLER {
                continue;
            }
            if pbc.dist2(pa, pos[b as usize]) <= r2 {
                return true;
            }
        }
    }
    false
}

/// Check that `CLUSTER_SIZE` matches the paper's particle-package width.
pub const _ASSERT_CLUSTER4: () = assert!(CLUSTER_SIZE == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::water_box;

    #[test]
    fn half_list_covers_all_pairs_within_cutoff() {
        let sys = water_box(60, 300.0, 11);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        assert_eq!(list.verify_coverage(&sys, 1.0), None);
    }

    #[test]
    fn full_list_covers_and_doubles() {
        let sys = water_box(40, 300.0, 5);
        let half = PairList::build(&sys, 0.9, ListKind::Half);
        let full = PairList::build(&sys, 0.9, ListKind::Full);
        assert_eq!(full.verify_coverage(&sys, 0.9), None);
        // Full stores each off-diagonal pair twice and each self pair once:
        // |full| = 2|half| - n_self, so strictly between |half| and 2|half|.
        assert!(full.n_pairs() > half.n_pairs());
        assert!(full.n_pairs() <= 2 * half.n_pairs());
        let n_self = half.n_clusters();
        assert_eq!(full.n_pairs(), 2 * half.n_pairs() - n_self);
    }

    #[test]
    fn half_list_has_no_reverse_duplicates() {
        let sys = water_box(30, 300.0, 8);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        for ci in 0..list.n_clusters() {
            for &cj in list.neighbors_of(ci) {
                assert!(cj as usize >= ci, "half list contains reverse pair");
            }
        }
    }

    #[test]
    fn self_pair_present() {
        let sys = water_box(30, 300.0, 8);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        for ci in 0..list.n_clusters() {
            assert!(
                list.neighbors_of(ci).contains(&(ci as u32)),
                "cluster {ci} missing self pair"
            );
        }
    }

    #[test]
    fn larger_rlist_means_more_pairs() {
        // Box must be large relative to both radii for the comparison to
        // be meaningful (300 molecules -> ~2.1 nm edge).
        let sys = water_box(300, 300.0, 3);
        let small = PairList::build(&sys, 0.7, ListKind::Half);
        let large = PairList::build(&sys, 1.0, ListKind::Half);
        assert!(large.n_pairs() > small.n_pairs());
    }

    #[test]
    fn neighbor_count_scales_with_density_not_system_size() {
        // Mean neighbors per cluster should be roughly constant across
        // system sizes at fixed density (locality of the Verlet list);
        // systems must be well above the cutoff for this to hold.
        let a = PairList::build(&water_box(400, 300.0, 1), 0.9, ListKind::Half);
        let b = PairList::build(&water_box(1600, 300.0, 1), 0.9, ListKind::Half);
        let mean = |l: &PairList| l.n_pairs() as f64 / l.n_clusters() as f64;
        let (ma, mb) = (mean(&a), mean(&b));
        assert!((ma - mb).abs() / mb < 0.5, "ma={ma:.1} mb={mb:.1}");
    }
}
