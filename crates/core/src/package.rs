//! Particle packages (paper §3.1 Fig. 2 and §3.4 Fig. 6).
//!
//! GROMACS stores position, type, and charge in separate arrays; a CPE
//! fetching one particle therefore issues several tiny (4-8 B) accesses
//! at < 1 GB/s (Table 2). The particle package aggregates all data of the
//! four particles of one cluster into a single contiguous structure of
//! 20 f32 words (80 B), fetched by one DMA at ~16 GB/s, and a cache line
//! of eight packages (640 B) runs near peak bandwidth.
//!
//! Two in-package layouts:
//! - [`PackageLayout::Interleaved`] (Fig. 2): per particle
//!   `x y z t c | x y z t c | ...` — natural for scalar kernels;
//! - [`PackageLayout::Transposed`] (Fig. 6): per component
//!   `x1 x2 x3 x4 | y1.. | z1.. | t1.. | c1..` — the same 4 floats load
//!   directly into one `floatv4` register, which is what makes the
//!   vectorized kernel's pre-treatment free.

use std::collections::BTreeMap;

use mdsim::cluster::{Clustering, CLUSTER_SIZE, FILLER};
use mdsim::pbc::PbcBox;
use mdsim::system::System;

use crate::kernels::native_simd::Lanes8;

/// f32 words per particle in a package (x, y, z, type, charge).
pub const WORDS_PER_PARTICLE: usize = 5;

/// f32 words per package (4 particles).
pub const PKG_WORDS: usize = CLUSTER_SIZE * WORDS_PER_PARTICLE;

/// Bytes per package.
pub const PKG_BYTES: usize = PKG_WORDS * 4;

/// f32 words per *force* package (x, y, z per particle, interleaved).
pub const FORCE_WORDS: usize = CLUSTER_SIZE * 3;

/// Bytes per force package.
pub const FORCE_BYTES: usize = FORCE_WORDS * 4;

/// In-package data layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackageLayout {
    /// Fig. 2: particle-major (`x y z t c` per particle).
    Interleaved,
    /// Fig. 6: component-major (`x1 x2 x3 x4 y1 ...`).
    Transposed,
}

/// A system repacked into particle packages, plus the kernel tables.
///
/// `pos` is the flat "main memory" array the simulated CPEs DMA from;
/// slot order follows the clustering (slot = cluster * 4 + lane).
///
/// The packed system is the geometry of one step: the packages, the box
/// and the cluster centers the packages are cut around. The pair list
/// ([`CpePairList`](crate::cpelist::CpePairList)) is topology only, so
/// each entry's periodic shift is derived from these centers when a
/// kernel starts the entry's row ([`PackedSystem::row_shifts`]).
#[derive(Debug, Clone)]
pub struct PackedSystem {
    /// Number of real particles.
    pub n_particles: usize,
    /// The clustering defining slot order.
    pub clustering: Clustering,
    /// Package layout in `pos`.
    pub layout: PackageLayout,
    /// Packaged particle data, `n_packages * PKG_WORDS` f32 words.
    pub pos: Vec<f32>,
    /// The periodic box of the packed positions.
    pub pbc: PbcBox,
    /// Cluster centers the packages are unwrapped around
    /// ([`Clustering::center`]), `[x, y, z]` per package: a kernel
    /// gathers all three of a neighbor at once.
    pub centers: Vec<[f32; 3]>,
    /// Number of atom types.
    pub n_types: usize,
    /// Flat `n_types^2` C6 table.
    pub c6: Vec<f32>,
    /// Flat `n_types^2` C12 table.
    pub c12: Vec<f32>,
    /// LJ rows, `n_types` per distinct package type signature (the
    /// four type words); see [`PackedSystem::lj_rows`].
    pub lj_rows: Vec<LjRow>,
    /// Type signature index of each package.
    pub pkg_sig: Vec<u32>,
}

/// One outer type against the four slots of a package: the `(c6, c12)`
/// lanes the native inner loop loads as half of its j-vector, and
/// whether any lane is nonzero (a NaN parameter counts as nonzero).
#[derive(Debug, Clone, Copy)]
pub struct LjRow {
    pub c6: [f32; CLUSTER_SIZE],
    pub c12: [f32; CLUSTER_SIZE],
    pub on: bool,
}

impl LjRow {
    /// Outer type `t` against slot types `tj`, each pair through `lj`.
    pub fn new(
        t: usize,
        tj: [usize; CLUSTER_SIZE],
        lj: impl Fn(usize, usize) -> (f32, f32),
    ) -> Self {
        let p = tj.map(|tb| lj(t, tb));
        let on = p.iter().any(|&(c6, c12)| !(c6 == 0.0 && c12 == 0.0));
        let (c6, c12) = (p.map(|p| p.0), p.map(|p| p.1));
        Self { c6, c12, on }
    }
}

/// `(x, y, z, type, charge)` of `lane` in a transposed package.
#[inline(always)]
pub fn read_transposed(pkg: &[f32], lane: usize) -> (f32, f32, f32, usize, f32) {
    (
        pkg[lane],
        pkg[CLUSTER_SIZE + lane],
        pkg[2 * CLUSTER_SIZE + lane],
        pkg[3 * CLUSTER_SIZE + lane] as usize,
        pkg[4 * CLUSTER_SIZE + lane],
    )
}

impl PackedSystem {
    /// Package `sys` according to `clustering`. Positions are stored
    /// *unwrapped to the cluster center's periodic image*: every member
    /// sits within the cluster radius of the center, so one shift vector
    /// per cluster pair (derived from the two centers) realizes the
    /// minimum-image convention even for clusters straddling the box
    /// boundary. Filler slots get the cluster
    /// center (finite distances) with type 0 and charge 0; their mask
    /// bits are off in the pair list, so they never contribute. The LJ
    /// rows of every package type signature are built here.
    pub fn build(sys: &System, clustering: Clustering, layout: PackageLayout) -> Self {
        let mut packed = Self {
            n_particles: sys.n(),
            pos: vec![0.0f32; clustering.n_clusters * PKG_WORDS],
            pbc: sys.pbc,
            centers: vec![[0.0; 3]; clustering.n_clusters],
            clustering,
            layout,
            n_types: sys.topology.n_types(),
            c6: sys.topology.c6_table().to_vec(),
            c12: sys.topology.c12_table().to_vec(),
            lj_rows: Vec::new(),
            pkg_sig: Vec::new(),
        };
        packed.repack(sys);
        // A slot's type never changes, so the rows are built once, from
        // the packages' own type words (fillers read as type 0).
        let (mut sigs, mut rows) = (BTreeMap::new(), Vec::new());
        for c in 0..packed.n_packages() {
            let tj = std::array::from_fn(|lane| packed.read_particle(packed.package(c), lane).3);
            let next = sigs.len() as u32;
            let sig = *sigs.entry(tj).or_insert_with(|| {
                let lj = |a, b| packed.lj(a, b);
                rows.extend((0..packed.n_types).map(|t| LjRow::new(t, tj, lj)));
                next
            });
            packed.pkg_sig.push(sig);
        }
        packed.lj_rows = rows;
        packed
    }

    /// Rewrite `pos`, the box and the centers in place from `sys`'s
    /// current positions, as [`PackedSystem::build`] fills them. The
    /// clustering, the layout and the LJ tables live as long as the pair
    /// list; only the geometry goes stale between rebuilds.
    pub fn repack(&mut self, sys: &System) {
        self.pbc = sys.pbc;
        for c in 0..self.clustering.n_clusters {
            let members = self.clustering.members(c);
            let center = self.clustering.center(&sys.pbc, &sys.pos, c);
            self.centers[c] = [center.x, center.y, center.z];
            for (lane, &m) in members.iter().enumerate() {
                let (p, t, q) = if m == FILLER {
                    (center, 0usize, 0.0f32)
                } else {
                    let i = m as usize;
                    // Member at its image nearest the center.
                    let unwrapped = center + sys.pbc.min_image(sys.pos[i], center);
                    (unwrapped, sys.type_id[i], sys.charge[i])
                };
                let vals = [p.x, p.y, p.z, t as f32, q];
                for (comp, &v) in vals.iter().enumerate() {
                    let idx = match self.layout {
                        PackageLayout::Interleaved => {
                            c * PKG_WORDS + lane * WORDS_PER_PARTICLE + comp
                        }
                        PackageLayout::Transposed => c * PKG_WORDS + comp * CLUSTER_SIZE + lane,
                    };
                    self.pos[idx] = v;
                }
            }
        }
    }

    /// Number of packages.
    pub fn n_packages(&self) -> usize {
        self.clustering.n_clusters
    }

    /// The 20 words of package `c`.
    #[inline]
    pub fn package(&self, c: usize) -> &[f32] {
        &self.pos[c * PKG_WORDS..(c + 1) * PKG_WORDS]
    }

    /// Read `(x, y, z, type, charge)` of `lane` from a package slice in
    /// this system's layout.
    #[inline]
    pub fn read_particle(&self, pkg: &[f32], lane: usize) -> (f32, f32, f32, usize, f32) {
        match self.layout {
            PackageLayout::Interleaved => {
                let b = lane * WORDS_PER_PARTICLE;
                (
                    pkg[b],
                    pkg[b + 1],
                    pkg[b + 2],
                    pkg[b + 3] as usize,
                    pkg[b + 4],
                )
            }
            PackageLayout::Transposed => read_transposed(pkg, lane),
        }
    }

    /// LJ `(C6, C12)` for a type pair.
    #[inline]
    pub fn lj(&self, ta: usize, tb: usize) -> (f32, f32) {
        (
            self.c6[ta * self.n_types + tb],
            self.c12[ta * self.n_types + tb],
        )
    }

    /// The LJ rows of package `c`'s type signature, by outer type.
    #[inline]
    pub fn lj_rows(&self, c: usize) -> &[LjRow] {
        let base = self.pkg_sig[c] as usize * self.n_types;
        &self.lj_rows[base..base + self.n_types]
    }

    /// The periodic shift of each inner cluster in `neighbors` as seen
    /// from outer cluster `ci`, one column per axis: the inner center's
    /// minimum image about the outer one, minus the inner center —
    /// `d = min_image(own − other)`, `shift = (own − d) − other` — eight
    /// neighbors per operation on lanes `L`, each column written eight
    /// words at a time (so it must hold `neighbors.len()` rounded up to
    /// eight; the words past the neighbors are the shifts of zero
    /// centers). Adding the shift to the inner package's positions puts
    /// its members in the outer cluster's image. The bits are the same
    /// on every lane type.
    #[inline(always)]
    pub fn row_shifts<L: Lanes8>(
        &self,
        isa: L::Isa,
        ci: usize,
        neighbors: &[u32],
        out: [&mut [f32]; 3],
    ) {
        const LANES: usize = 8;
        let own = self.centers[ci].map(|c| L::splat(isa, c));
        let [ox, oy, oz] = out;
        let columns = ox.chunks_exact_mut(LANES).zip(oy.chunks_exact_mut(LANES));
        let columns = columns.zip(oz.chunks_exact_mut(LANES));
        for (ids, ((sx, sy), sz)) in neighbors.chunks(LANES).zip(columns) {
            let other = gather8::<L>(isa, &self.centers, ids);
            let d = self.pbc.min_image8(
                isa,
                [own[0] - other[0], own[1] - other[1], own[2] - other[2]],
            );
            sx.copy_from_slice(&((own[0] - d[0]) - other[0]).to_array());
            sy.copy_from_slice(&((own[1] - d[1]) - other[1]).to_array());
            sz.copy_from_slice(&((own[2] - d[2]) - other[2]).to_array());
        }
    }

    /// Map forces stored in slot order (interleaved xyz per slot) back to
    /// original particle order.
    pub fn forces_to_particle_order(&self, slot_forces: &[f32]) -> Vec<mdsim::Vec3> {
        let mut out = vec![mdsim::Vec3::ZERO; self.n_particles];
        for (slot, &m) in self.clustering.slots.iter().enumerate() {
            if m == FILLER {
                continue;
            }
            out[m as usize] = mdsim::vec3(
                slot_forces[3 * slot],
                slot_forces[3 * slot + 1],
                slot_forces[3 * slot + 2],
            );
        }
        out
    }
}

/// The x, y and z lanes of `centers[id]` for up to eight ids; zero in
/// the lanes past them.
#[inline(always)]
fn gather8<L: Lanes8>(isa: L::Isa, centers: &[[f32; 3]], ids: &[u32]) -> [L; 3] {
    let mut lanes = [[0.0f32; 8]; 3];
    for (lane, &id) in ids.iter().enumerate() {
        let c = centers[id as usize];
        for axis in 0..3 {
            lanes[axis][lane] = c[axis];
        }
    }
    lanes.map(|v| L::from_array(isa, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpelist::CpePairList;
    use crate::kernels::common::RowShifts;
    use crate::kernels::native_simd::{f32x8, for_each_lanes8};
    use mdsim::math::{fnv1a, FNV1A_OFFSET};
    use mdsim::pairlist::{ListKind, PairList};
    use mdsim::water::water_box;
    use mdsim::Vec3;

    fn packed(layout: PackageLayout) -> (mdsim::System, PackedSystem) {
        let sys = water_box(30, 300.0, 41);
        let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
        let p = PackedSystem::build(&sys, clustering, layout);
        (sys, p)
    }

    #[test]
    fn package_size_matches_paper_scale() {
        // Paper: "the data block size for one access increases from 4 B
        // to 108 B"; our 5-word particles give 80 B packages — same
        // order, one DMA per cluster.
        assert_eq!(PKG_BYTES, 80);
        assert_eq!(FORCE_BYTES, 48);
    }

    fn assert_roundtrip(layout: PackageLayout) {
        let (sys, p) = packed(layout);
        for c in 0..p.n_packages() {
            for (lane, &m) in p.clustering.members(c).iter().enumerate() {
                if m == FILLER {
                    continue;
                }
                let i = m as usize;
                let (x, y, z, t, q) = p.read_particle(p.package(c), lane);
                // Positions are stored unwrapped to the cluster center:
                // equal to the original modulo box periods.
                let stored = mdsim::vec3(x, y, z);
                let d = sys.pbc.min_image(stored, sys.pos[i]).norm();
                assert!(d < 1e-5, "cluster {c} lane {lane}: image error {d}");
                assert_eq!(t, sys.type_id[i]);
                assert_eq!(q, sys.charge[i]);
            }
        }
    }

    #[test]
    fn roundtrip_interleaved() {
        assert_roundtrip(PackageLayout::Interleaved);
    }

    #[test]
    fn roundtrip_transposed() {
        assert_roundtrip(PackageLayout::Transposed);
    }

    #[test]
    fn members_are_compact_around_center() {
        let (sys, p) = packed(PackageLayout::Interleaved);
        for c in 0..p.n_packages() {
            let ctr = p.clustering.center(&sys.pbc, &sys.pos, c);
            for lane in 0..4 {
                let (x, y, z, ..) = p.read_particle(p.package(c), lane);
                let d = (mdsim::vec3(x, y, z) - ctr).norm();
                // Stored positions are *plain* (non-periodic) offsets
                // from the center, bounded by the cluster radius.
                assert!(d < 1.0, "cluster {c}: member {d} nm from center");
            }
        }
    }

    #[test]
    fn transposed_components_are_contiguous() {
        let (_, p) = packed(PackageLayout::Transposed);
        let pkg = p.package(0);
        // First four words are the four x coordinates.
        let xs: Vec<f32> = (0..4).map(|lane| p.read_particle(pkg, lane).0).collect();
        assert_eq!(&pkg[0..4], xs.as_slice());
    }

    #[test]
    fn filler_slots_have_zero_charge() {
        let sys = water_box(3, 300.0, 1); // 9 particles -> 3 pkg, 3 fillers
        let clustering = Clustering::identity(sys.n());
        let p = PackedSystem::build(&sys, clustering, PackageLayout::Interleaved);
        let last = p.package(p.n_packages() - 1);
        for lane in 0..4 {
            let m = p.clustering.members(p.n_packages() - 1)[lane];
            if m == FILLER {
                let (.., q) = p.read_particle(last, lane);
                assert_eq!(q, 0.0);
            }
        }
    }

    /// "Some lane nonzero" as the native kernel decided it while it
    /// gathered its parameters per call: lane compares over all eight.
    fn gathered_lj_on(c6: [f32; 8], c12: [f32; 8]) -> bool {
        use crate::kernels::native_simd::{f32x8, Lanes8};
        let lanes = |v| <f32x8 as Lanes8>::from_array((), v);
        let zero = lanes([0.0; 8]);
        (lanes(c6).cmp_eq(zero) & lanes(c12).cmp_eq(zero)).movemask() != 0xFF
    }

    #[test]
    fn every_row_holds_the_lookups_of_its_package_lanes() {
        let saline = mdsim::water::saline_box(300, 12, 300.0, 6);
        for sys in [water_box(30, 300.0, 41), saline] {
            let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
            let p = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
            assert_eq!(p.lj_rows.len() % p.n_types, 0);
            let mut fillers = 0;
            for c in 0..p.n_packages() {
                let rows = p.lj_rows(c);
                assert_eq!(rows.len(), p.n_types);
                for (lane, &m) in p.clustering.members(c).iter().enumerate() {
                    let tj = p.read_particle(p.package(c), lane).3;
                    if m == FILLER {
                        assert_eq!(tj, 0, "a filler reads as type 0");
                        fillers += 1;
                    }
                    for (t, row) in rows.iter().enumerate() {
                        let (c6, c12) = p.lj(t, tj);
                        assert_eq!(
                            row.c6[lane].to_bits(),
                            c6.to_bits(),
                            "c6 ({c}, {t}, {lane})"
                        );
                        assert_eq!(
                            row.c12[lane].to_bits(),
                            c12.to_bits(),
                            "c12 ({c}, {t}, {lane})"
                        );
                    }
                }
            }
            assert!(fillers > 0, "the boxes pad some clusters");
            assert!(p.lj_rows.iter().any(|r| !r.on), "hydrogen rows skip LJ");
        }
    }

    #[test]
    fn lj_on_matches_the_gathered_predicate() {
        // Type 1 has no LJ at all, type 2's C6 against type 0 is NaN and
        // type 3 carries -0.0, which compares equal to zero.
        let lj = |a: usize, b: usize| match (a.min(b), a.max(b)) {
            (1, _) | (_, 1) => (0.0, 0.0),
            (0, 2) => (f32::NAN, 0.0),
            (_, 3) => (-0.0, -0.0),
            _ => (2.6e-3, 2.6e-6),
        };
        let sigs: Vec<[usize; 4]> = (0..256)
            .map(|s| std::array::from_fn(|k| (s >> (2 * k)) & 3))
            .collect();
        for t in 0..4 {
            let rows: Vec<LjRow> = sigs.iter().map(|&tj| LjRow::new(t, tj, lj)).collect();
            for (a, ra) in sigs.iter().zip(&rows) {
                for (b, rb) in sigs.iter().zip(&rows) {
                    let (c6, c12): (Vec<f32>, Vec<f32>) =
                        a.iter().chain(b).map(|&tj| lj(t, tj)).unzip();
                    let want = gathered_lj_on(c6.try_into().unwrap(), c12.try_into().unwrap());
                    assert_eq!(ra.on | rb.on, want, "t {t}: {a:?} {b:?}");
                }
            }
        }
        assert!(LjRow::new(0, [2, 1, 1, 1], lj).on, "a NaN lane counts");
        assert!(!LjRow::new(1, [0, 1, 2, 3], lj).on, "an all-zero type");
        assert!(!LjRow::new(3, [3, 3, 1, 3], lj).on, "-0.0 is zero");
    }

    #[test]
    fn the_row_table_does_not_grow_with_the_particle_count() {
        let count = |n_mol| {
            let sys = water_box(n_mol, 300.0, 7);
            let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
            let p = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
            assert_eq!(p.pkg_sig.len(), p.n_packages());
            p.lj_rows.len() / p.n_types
        };
        let (small, large) = (count(1334), count(16_000));
        assert_eq!(small, large, "4 002 vs 48 000 particles");
        assert!(small <= 16, "two types fill at most 2^4 signatures");
    }

    /// A lattice box pushed 0.1 nm along the diagonal without wrapping,
    /// so clusters straddle the boundary from the first list on.
    fn straddling_box() -> mdsim::System {
        let mut sys = water_box(300, 300.0, 107);
        for p in &mut sys.pos {
            *p += mdsim::vec3(0.1, 0.1, 0.1);
        }
        sys
    }

    /// Every entry's shift bits, row by row, derived on lanes `L`,
    /// appended to `out` under the lanes' name.
    fn derive_every_row<L: Lanes8>(
        isa: L::Isa,
        out: &mut Vec<(&'static str, Vec<[u32; 3]>)>,
        psys: &PackedSystem,
        list: &CpePairList,
    ) {
        let mut row = RowShifts::default();
        let mut bits = Vec::with_capacity(list.n_entries());
        for ci in 0..list.n_clusters() {
            row.derive::<L>(isa, psys, list, ci);
            bits.extend(list.entries_of(ci).map(|e| row.of(e).map(f32::to_bits)));
        }
        out.push((L::NAME, bits));
    }

    /// [`derive_every_row`] on every lane type the host has.
    fn derived_on_every_lane_type(
        psys: &PackedSystem,
        list: &CpePairList,
    ) -> Vec<(&'static str, Vec<[u32; 3]>)> {
        let mut out = Vec::new();
        for_each_lanes8!(derive_every_row, &mut out, psys, list);
        out
    }

    /// The shift of inner center `cj` seen from outer center `ci`, one
    /// entry at a time: the expression the list stored per entry before
    /// the kernels derived it on lanes.
    fn shift_of(pbc: &PbcBox, ci: Vec3, cj: Vec3) -> [f32; 3] {
        let d = pbc.min_image(ci, cj);
        let imaged = ci - d; // cj center seen from ci
        let s = imaged - cj;
        [s.x, s.y, s.z]
    }

    /// Every entry's [`shift_of`], from the clustering's centers.
    fn scalar_shifts(
        sys: &mdsim::System,
        clustering: &Clustering,
        list: &CpePairList,
    ) -> Vec<[u32; 3]> {
        let centers: Vec<Vec3> = (0..list.n_clusters())
            .map(|c| clustering.center(&sys.pbc, &sys.pos, c))
            .collect();
        let mut shifts = Vec::with_capacity(list.n_entries());
        for ci in 0..list.n_clusters() {
            for e in list.entries_of(ci) {
                let cj = list.neighbors[e] as usize;
                shifts.push(shift_of(&sys.pbc, centers[ci], centers[cj]).map(f32::to_bits));
            }
        }
        shifts
    }

    #[test]
    fn derived_shifts_reproduce_the_shifts_the_list_stored() {
        // FNV-1a of every entry's shift bits in list order, and the
        // entry count, from `CpePairList::shifts` at the commit before
        // the list stopped storing them (rlist 0.6).
        let pinned = [
            ("plain", ListKind::Half, 0xa151cfcd31c4ac33, 16286),
            ("plain", ListKind::Full, 0x29d582f6b42db5da, 32007),
            ("straddling", ListKind::Half, 0xcd43c063180264f8, 8100),
            ("straddling", ListKind::Full, 0xea25f7209781c073, 15900),
        ];
        let plain = water_box(600, 300.0, 51);
        let straddling = straddling_box();
        for (name, kind, digest, n_entries) in pinned {
            let sys = if name == "plain" { &plain } else { &straddling };
            let list = PairList::build(sys, 0.6, kind);
            let cpe = CpePairList::build(sys, &list);
            let psys = PackedSystem::build(sys, list.clustering, PackageLayout::Transposed);
            for (lanes, bits) in derived_on_every_lane_type(&psys, &cpe) {
                let words = bits.iter().flatten();
                let got = words.fold(FNV1A_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()));
                assert_eq!(
                    (got, bits.len()),
                    (digest, n_entries),
                    "{name} {kind:?} on {lanes}"
                );
            }
        }
    }

    #[test]
    fn derived_shifts_realize_minimum_image() {
        // rlist + 2 x cluster radius must stay under half the box edge
        // for the per-cluster shifts to be exact minimum images.
        let sys = water_box(600, 300.0, 51);
        let list = PairList::build(&sys, 0.6, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Interleaved);
        let mut row = RowShifts::default();
        let mut checked = 0u32;
        for ci in 0..cpe.n_clusters() {
            row.derive::<f32x8>((), &psys, &cpe, ci);
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let s = row.of(e);
                for ai in 0..4 {
                    for bj in 0..4 {
                        if cpe.masks[e] >> (ai * 4 + bj) & 1 == 0 {
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
                                "entry {e} ({ai},{bj}): {d_kernel} vs {d_ref}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} pairs checked");
    }

    #[test]
    fn centers_are_the_clustering_centers_after_build_and_repack() {
        let mut sys = straddling_box();
        let clustering = Clustering::build(&sys.pbc, &sys.pos, 1.0);
        let mut p = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
        let edge = sys.pbc.lengths().x;
        for step in 0..3 {
            let at = if step == 0 { "build" } else { "repack" };
            for c in 0..p.n_packages() {
                let want = p.clustering.center(&sys.pbc, &sys.pos, c);
                let got = p.centers[c].map(f32::to_bits);
                assert_eq!(
                    got,
                    [want.x, want.y, want.z].map(f32::to_bits),
                    "{at} {step}, cluster {c}"
                );
            }
            assert_eq!(p.pbc, sys.pbc);
            for (x, v) in sys.pos.iter_mut().zip(&sys.vel) {
                *x += *v * 0.05;
            }
            sys.pos[3 * step].y -= edge;
            p.repack(&sys);
        }
    }

    #[test]
    fn derived_shifts_equal_the_scalar_expression_through_ten_steps_of_drift() {
        // A box three list radii wide, where most cluster pairs sit
        // across a face from each other, left to drift unwrapped.
        let mut sys = water_box(200, 300.0, 52);
        let list = PairList::build(&sys, 0.5, ListKind::Full);
        let cpe = CpePairList::build(&sys, &list);
        let mut psys =
            PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let edge = sys.pbc.lengths().x;
        for step in 0..10 {
            for (p, v) in sys.pos.iter_mut().zip(&sys.vel) {
                *p += *v * 0.05;
            }
            // Whole molecules carried boxes away: centers the lane form
            // of the minimum image hands back to the scalar one.
            for atom in 3 * step..3 * step + 3 {
                sys.pos[atom].x += 2.0 * edge;
                sys.pos[atom + 30].z -= 3.0 * edge;
            }
            psys.repack(&sys);
            let fresh =
                PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
            let want = scalar_shifts(&sys, &list.clustering, &cpe);
            for p in [&psys, &fresh] {
                for (lanes, got) in derived_on_every_lane_type(p, &cpe) {
                    assert_eq!(got, want, "step {step} on {lanes}");
                }
            }
        }
        let outside = sys.pos.iter().filter(|p| p.x < 0.0 || p.x >= edge).count();
        assert!(outside > 20, "only {outside} particles left the box");
    }

    #[test]
    fn a_shift_at_half_the_box_keeps_the_sign_of_the_scalar_rounding() {
        // Two clusters of coincident members exactly half an edge apart:
        // `d / L` is ±0.5, which `round` takes away from zero.
        let mut sys = water_box(3, 300.0, 53);
        sys.pbc = PbcBox::cubic(2.0);
        for (i, p) in sys.pos.iter_mut().enumerate() {
            *p = mdsim::vec3(if i < 4 { 0.25 } else { 1.25 }, 0.5, 0.5);
        }
        let clustering = Clustering::identity(8);
        let psys = PackedSystem::build(&sys, clustering.clone(), PackageLayout::Transposed);
        let cpe = CpePairList {
            offsets: vec![0, 2, 4],
            neighbors: vec![0, 1, 0, 1],
            masks: vec![0; 4],
            kind: ListKind::Full,
            rlist: 0.9,
        };
        let want = scalar_shifts(&sys, &clustering, &cpe);
        for (lanes, got) in derived_on_every_lane_type(&psys, &cpe) {
            assert_eq!(got, want, "{lanes}");
        }
        assert_eq!(want[1], [-2.0f32, 0.0, 0.0].map(f32::to_bits));
        assert_eq!(want[2], [2.0f32, 0.0, 0.0].map(f32::to_bits));
    }

    #[test]
    fn force_order_roundtrip() {
        let (_, p) = packed(PackageLayout::Interleaved);
        let n_slots = p.n_packages() * CLUSTER_SIZE;
        let mut slot_forces = vec![0.0f32; 3 * n_slots];
        for (slot, &m) in p.clustering.slots.iter().enumerate() {
            if m != FILLER {
                slot_forces[3 * slot] = m as f32;
            }
        }
        let out = p.forces_to_particle_order(&slot_forces);
        for (i, f) in out.iter().enumerate() {
            assert_eq!(f.x, i as f32);
        }
    }
}
