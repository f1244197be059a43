//! Shared machinery of the force-kernel variants: the cluster-pair
//! interaction in scalar and `floatv4` form (pure bodies, shared by the
//! metered and the native kernels), the instruction charge the metered
//! kernels book after each body, and the common result type.
//!
//! Both forms call [`mdsim::nonbonded::pair_interaction`] per pair, so
//! every variant is comparable bit-for-bit against the `mdsim` reference
//! kernels. The native wide8 body (`native_simd`) calls its lane form,
//! [`mdsim::nonbonded::pair_interaction8`], whose short-range Ewald is
//! f32 and so agrees only within the differential bounds.

use mdsim::cluster::CLUSTER_SIZE;
use mdsim::nonbonded::{pair_interaction, NbEnergies, NbParams};
use mdsim::Vec3;
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::simd::{meter, FloatV4, TRANSPOSE3_SHUFFLES};

use crate::cpelist::CpePairList;
use crate::kernels::native_simd::{on_lanes, LaneImpl, Lanes8};
use crate::package::{read_transposed, PackedSystem, FORCE_WORDS};

/// Result of one force-kernel invocation.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Forces in original particle order.
    pub forces: Vec<Vec3>,
    /// Accumulated energies.
    pub energies: NbEnergies,
    /// Total simulated cost of the kernel (all phases).
    pub total: PerfCounters,
    /// Per-phase simulated cost ("init", "calc", "reduce").
    pub phases: Breakdown,
    /// Read-cache miss ratio (0 when the variant has no read cache).
    pub read_miss_ratio: f64,
    /// Write-cache miss ratio (0 when the variant has no write cache).
    pub write_miss_ratio: f64,
}

impl KernelResult {
    /// Simulated milliseconds of the whole kernel.
    pub fn ms(&self) -> f64 {
        self.total.ms()
    }
}

/// Which arithmetic path a variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    /// One particle pair at a time.
    Scalar,
    /// `floatv4` over the four outer-cluster lanes (§3.4).
    Simd,
}

/// One inner-cluster (j-side) list entry: its package, the
/// minimum-image shift, and the interaction mask (`bit ai*4+bj`).
#[derive(Clone, Copy)]
pub struct EntryJ<'a> {
    /// Package words of the inner cluster.
    pub pkg: &'a [f32],
    /// Minimum-image shift applied to the j particles.
    pub shift: [f32; 3],
    /// Interaction mask, bit `ai * CLUSTER_SIZE + bj`.
    pub mask: u16,
}

impl<'a> EntryJ<'a> {
    /// List entry `e` of the row `shifts` holds, against the inner
    /// package `pkg`.
    #[inline(always)]
    pub fn of(list: &CpePairList, shifts: &RowShifts, e: usize, pkg: &'a [f32]) -> Self {
        Self {
            pkg,
            shift: shifts.of(e),
            mask: list.masks[e],
        }
    }
}

/// The periodic shifts of one outer cluster's list row, derived from
/// the packed cluster centers when a kernel starts the row
/// ([`PackedSystem::row_shifts`]), one column per axis. Each lane keeps
/// one and refills it per outer cluster, so the host holds one row of
/// shifts a lane, not one per list entry.
#[derive(Debug, Clone, Default)]
pub struct RowShifts {
    /// List index of the row's first entry.
    first: usize,
    columns: [Vec<f32>; 3],
}

impl RowShifts {
    /// Derive the shifts of `list`'s row `ci` on lanes `L`.
    #[inline(always)]
    pub fn derive<L: Lanes8>(
        &mut self,
        isa: L::Isa,
        psys: &PackedSystem,
        list: &CpePairList,
        ci: usize,
    ) {
        let row = list.entries_of(ci);
        self.first = row.start;
        // Whole lane groups: `row_shifts` stores eight words at a time.
        // The columns only grow, to the longest row seen: filling them
        // again for every row would be a memset as long as the list.
        let words = row.len().next_multiple_of(8);
        if self.columns[0].len() < words {
            for column in &mut self.columns {
                column.resize(words, 0.0);
            }
        }
        let [x, y, z] = self.columns.each_mut().map(|column| &mut column[..words]);
        psys.row_shifts::<L>(isa, ci, &list.neighbors[row], [x, y, z]);
    }

    /// [`RowShifts::derive`] on the lane implementation `lanes`.
    pub fn derive_on(
        &mut self,
        lanes: LaneImpl,
        psys: &PackedSystem,
        list: &CpePairList,
        ci: usize,
    ) {
        on_lanes!(lanes, derive_row, derive_row_avx2, self, psys, list, ci)
    }

    /// The shift of list entry `e`, which must lie in the derived row.
    #[inline(always)]
    pub fn of(&self, e: usize) -> [f32; 3] {
        let k = e - self.first;
        self.columns.each_ref().map(|column| column[k])
    }
}

#[inline(always)]
fn derive_row<L: Lanes8>(
    isa: L::Isa,
    row: &mut RowShifts,
    psys: &PackedSystem,
    list: &CpePairList,
    ci: usize,
) {
    row.derive::<L>(isa, psys, list, ci)
}

/// [`derive_row`] compiled with AVX2 enabled.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx2")]
fn derive_row_avx2(
    isa: crate::kernels::native_simd::Avx2,
    row: &mut RowShifts,
    psys: &PackedSystem,
    list: &CpePairList,
    ci: usize,
) {
    derive_row::<crate::kernels::native_simd::f32x8_avx2>(isa, row, psys, list, ci)
}

/// Compute all interactions of one cluster pair, one particle pair at a
/// time, in either package layout.
///
/// `fi`/`fj` are 12-word force-package accumulators (interleaved xyz per
/// lane) for the outer/inner cluster. Returns `(e_lj, e_coul, n_pairs)`.
pub fn cluster_pair_scalar(
    psys: &PackedSystem,
    pkg_i: &[f32],
    e: EntryJ<'_>,
    params: &NbParams,
    fi: &mut [f32; FORCE_WORDS],
    fj: &mut [f32; FORCE_WORDS],
) -> (f64, f64, u32) {
    let rc2 = params.r_cut * params.r_cut;
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n = 0u32;
    for ai in 0..CLUSTER_SIZE {
        let (xa, ya, za, ta, qa) = psys.read_particle(pkg_i, ai);
        for bj in 0..CLUSTER_SIZE {
            if e.mask >> (ai * CLUSTER_SIZE + bj) & 1 == 0 {
                continue;
            }
            let (xb, yb, zb, tb, qb) = psys.read_particle(e.pkg, bj);
            let dx = xa - (xb + e.shift[0]);
            let dy = ya - (yb + e.shift[1]);
            let dz = za - (zb + e.shift[2]);
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            let (c6, c12) = psys.lj(ta, tb);
            let (f_over_r, elj, ecoul) = pair_interaction(r2, c6, c12, qa * qb, params);
            let (fx, fy, fz) = (dx * f_over_r, dy * f_over_r, dz * f_over_r);
            fi[3 * ai] += fx;
            fi[3 * ai + 1] += fy;
            fi[3 * ai + 2] += fz;
            fj[3 * bj] -= fx;
            fj[3 * bj + 1] -= fy;
            fj[3 * bj + 2] -= fz;
            e_lj += elj as f64;
            e_coul += ecoul as f64;
            n += 1;
        }
    }
    (e_lj, e_coul, n)
}

/// Compute all interactions of one cluster pair with `floatv4` lanes over
/// the outer cluster (§3.4, Fig. 6/7): vector geometry, per-lane scalar
/// [`pair_interaction`], so it is exactly the vector *schedule* of
/// [`cluster_pair_scalar`]'s math. Both packages must be transposed (the
/// Fig. 6 precondition: the component vectors load directly). `lj` maps
/// a type pair to `(c6, c12)`.
///
/// The Vec/Mark rungs of the metered ladder and the native kernels' self
/// and odd-tail entries all run this one body.
pub fn cluster_pair_simd(
    pkg_i: &[f32],
    e: EntryJ<'_>,
    params: &NbParams,
    lj: &impl Fn(usize, usize) -> (f32, f32),
    fi: &mut [f32; FORCE_WORDS],
    fj: &mut [f32; FORCE_WORDS],
) -> (f64, f64, u32) {
    let rc2 = params.r_cut * params.r_cut;
    let xi = FloatV4::load(&pkg_i[0..CLUSTER_SIZE]);
    let yi = FloatV4::load(&pkg_i[CLUSTER_SIZE..2 * CLUSTER_SIZE]);
    let zi = FloatV4::load(&pkg_i[2 * CLUSTER_SIZE..3 * CLUSTER_SIZE]);
    let mut fx_acc = FloatV4::ZERO;
    let mut fy_acc = FloatV4::ZERO;
    let mut fz_acc = FloatV4::ZERO;
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n = 0u32;

    for bj in 0..CLUSTER_SIZE {
        let col = [
            (e.mask >> bj) & 1,
            (e.mask >> (CLUSTER_SIZE + bj)) & 1,
            (e.mask >> (2 * CLUSTER_SIZE + bj)) & 1,
            (e.mask >> (3 * CLUSTER_SIZE + bj)) & 1,
        ];
        if col == [0, 0, 0, 0] {
            continue;
        }
        let (xb, yb, zb, tb, qb) = read_transposed(e.pkg, bj);
        let dx = xi - FloatV4::splat(xb + e.shift[0]);
        let dy = yi - FloatV4::splat(yb + e.shift[1]);
        let dz = zi - FloatV4::splat(zb + e.shift[2]);
        // Same association as the scalar kernel ((dx2+dy2)+dz2) so the
        // cutoff decision is bit-identical across paths.
        let r2 = dx * dx + dy * dy + dz * dz;

        let mut f_over_r = [0.0f32; 4];
        for lane in 0..CLUSTER_SIZE {
            if col[lane] == 0 {
                continue;
            }
            let r2l = r2.0[lane];
            if r2l >= rc2 || r2l == 0.0 {
                continue;
            }
            let (_, _, _, ta, qa) = read_transposed(pkg_i, lane);
            let (c6, c12) = lj(ta, tb);
            let (f, elj, ecoul) = pair_interaction(r2l, c6, c12, qa * qb, params);
            f_over_r[lane] = f;
            e_lj += elj as f64;
            e_coul += ecoul as f64;
            n += 1;
        }
        let fv = FloatV4(f_over_r);
        fx_acc = dx.mul_add(fv, fx_acc);
        fy_acc = dy.mul_add(fv, fy_acc);
        fz_acc = dz.mul_add(fv, fz_acc);
        fj[3 * bj] -= (dx * fv).hsum();
        fj[3 * bj + 1] -= (dy * fv).hsum();
        fj[3 * bj + 2] -= (dz * fv).hsum();
    }
    for lane in 0..CLUSTER_SIZE {
        fi[3 * lane] += fx_acc.0[lane];
        fi[3 * lane + 1] += fy_acc.0[lane];
        fi[3 * lane + 2] += fz_acc.0[lane];
    }
    (e_lj, e_coul, n)
}

/// One cluster pair under the cycle meter: the `arith` body, then its
/// instruction charge. The charge is a function of the entry's mask and
/// its in-cutoff pair count alone, so the bodies stay pure.
#[allow(clippy::too_many_arguments)]
pub fn cluster_pair_metered(
    arith: Arith,
    psys: &PackedSystem,
    pkg_i: &[f32],
    e: EntryJ<'_>,
    params: &NbParams,
    fi: &mut [f32; FORCE_WORDS],
    fj: &mut [f32; FORCE_WORDS],
    perf: &mut PerfCounters,
) -> (f64, f64, u32) {
    match arith {
        Arith::Scalar => {
            let out = cluster_pair_scalar(psys, pkg_i, e, params, fi, fj);
            let (tested, n) = (e.mask.count_ones() as u64, out.2 as u64);
            // Per tested pair: 6 add/sub + 3 mul + 2 add for r2. Per pair
            // in cutoff: LJ ~12 flops, Ewald erfc Coulomb ~14, force
            // scatter 9, and one long divide/sqrt.
            meter::scalar_flops(perf, 11 * tested + 36 * n);
            meter::scalar_divsqrt(perf, n);
            out
        }
        Arith::Simd => {
            let out = cluster_pair_simd(pkg_i, e, params, &|ta, tb| psys.lj(ta, tb), fi, fj);
            let m = e.mask;
            let cols = ((m | m >> 4 | m >> 8 | m >> 12) & 0xF).count_ones() as u64;
            // Pre-treatment: 3 vector loads of the x/y/z components.
            // Per non-empty mask column: splats + subs + r2 (3 + 3 + 5),
            // cmp+select (2), LJ polynomial (~7), Ewald erfc via table
            // (~6), force assembly (3 mul + 3 fma), reaction horizontal
            // sums (3 x ~2); one long rsqrt; the LJ parameter gathers of
            // 4 lanes are scalar work on SW26010. Post-treatment (Fig. 7):
            // six shuffles to the interleaved layout, three vector adds.
            meter::shuffle_ops(perf, TRANSPOSE3_SHUFFLES);
            meter::simd_ops(perf, 3 + 38 * cols + 3);
            meter::simd_divsqrt(perf, cols);
            meter::scalar_flops(perf, 8 * cols);
            out
        }
    }
}

/// Add force package `f` into slot `pkg` of a slot-ordered force array.
#[inline]
pub fn add_package(slot_forces: &mut [f32], pkg: usize, f: &[f32; FORCE_WORDS]) {
    let base = pkg * FORCE_WORDS;
    for (d, v) in slot_forces[base..base + FORCE_WORDS].iter_mut().zip(f) {
        *d += v;
    }
}

/// Miss ratio of a software cache (0 when it was never consulted).
pub fn miss_ratio(misses: u64, hits: u64) -> f64 {
    if misses + hits == 0 {
        0.0
    } else {
        misses as f64 / (misses + hits) as f64
    }
}

/// Merge a per-CPE energy pair into an [`NbEnergies`].
pub fn add_energy(en: &mut NbEnergies, e_lj: f64, e_coul: f64, n: u64) {
    en.lj += e_lj;
    en.coulomb += e_coul;
    en.pairs_within_cutoff += n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpelist::CpePairList;
    use crate::package::{PackageLayout, PackedSystem};
    use mdsim::pairlist::{ListKind, PairList};
    use mdsim::water::water_box;

    #[test]
    fn scalar_and_simd_cluster_pair_agree() {
        let sys = water_box(40, 300.0, 61);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams::paper_default();
        let mut perf_s = PerfCounters::new();
        let mut perf_v = PerfCounters::new();
        let mut checked = 0;
        let mut shifts = RowShifts::default();
        for ci in 0..cpe.n_clusters() {
            shifts.derive_on(LaneImpl::detect(), &psys, &cpe, ci);
            for e in cpe.entries_of(ci) {
                let entry = EntryJ::of(&cpe, &shifts, e, psys.package(cpe.neighbors[e] as usize));
                let mut fi_s = [0.0f32; FORCE_WORDS];
                let mut fj_s = [0.0f32; FORCE_WORDS];
                let mut fi_v = [0.0f32; FORCE_WORDS];
                let mut fj_v = [0.0f32; FORCE_WORDS];
                let run = |arith, fi: &mut _, fj: &mut _, perf: &mut _| {
                    cluster_pair_metered(
                        arith,
                        &psys,
                        psys.package(ci),
                        entry,
                        &params,
                        fi,
                        fj,
                        perf,
                    )
                };
                let (el_s, ec_s, n_s) = run(Arith::Scalar, &mut fi_s, &mut fj_s, &mut perf_s);
                let (el_v, ec_v, n_v) = run(Arith::Simd, &mut fi_v, &mut fj_v, &mut perf_v);
                assert_eq!(n_s, n_v, "entry {e}");
                assert!((el_s - el_v).abs() < 1e-6);
                assert!((ec_s - ec_v).abs() < 1e-6);
                for k in 0..FORCE_WORDS {
                    assert!(
                        (fi_s[k] - fi_v[k]).abs() < 2e-2_f32.max(fi_s[k].abs() * 1e-4),
                        "fi[{k}] {} vs {}",
                        fi_s[k],
                        fi_v[k]
                    );
                    assert!((fj_s[k] - fj_v[k]).abs() < 2e-2_f32.max(fj_s[k].abs() * 1e-4));
                }
                checked += n_s;
            }
        }
        assert!(checked > 1000, "too few interactions checked: {checked}");
        // SIMD path issues far fewer instructions overall.
        assert!(
            perf_v.cycles < perf_s.cycles,
            "{} vs {}",
            perf_v.cycles,
            perf_s.cycles
        );
    }

    #[test]
    fn the_charge_is_a_function_of_mask_and_pair_count() {
        let sys = water_box(10, 300.0, 3);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams::paper_default();
        let e = cpe.entries_of(0).start;
        let mut shifts = RowShifts::default();
        shifts.derive_on(LaneImpl::detect(), &psys, &cpe, 0);
        // Rows 0 and 2 against columns 0 and 3: four tested pairs in two
        // non-empty columns.
        let entry = EntryJ {
            mask: 0b0000_1001_0000_1001,
            ..EntryJ::of(&cpe, &shifts, e, psys.package(cpe.neighbors[e] as usize))
        };
        let charge = |arith| {
            let mut perf = PerfCounters::new();
            let mut fi = [0.0f32; FORCE_WORDS];
            let mut fj = [0.0f32; FORCE_WORDS];
            let pkg_i = psys.package(0);
            let (_, _, n) = cluster_pair_metered(
                arith, &psys, pkg_i, entry, &params, &mut fi, &mut fj, &mut perf,
            );
            (n as u64, perf)
        };
        let (n, s) = charge(Arith::Scalar);
        assert_eq!(s.scalar_flops, 11 * 4 + 36 * n + n);
        assert_eq!(s.cycles, 11 * 4 + 36 * n + meter::DIV_SQRT_CYCLES * n);
        let (_, v) = charge(Arith::Simd);
        assert_eq!(v.shuffle_ops, TRANSPOSE3_SHUFFLES);
        assert_eq!(v.simd_ops, 6 + 38 * 2 + 2);
        assert_eq!(v.scalar_flops, 8 * 2);
        assert_eq!(
            v.cycles,
            TRANSPOSE3_SHUFFLES + 6 + 38 * 2 + meter::DIV_SQRT_CYCLES * 2 + 8 * 2
        );
    }
}
