//! Shared machinery of the force-kernel variants: the cluster-pair
//! interaction in scalar and `floatv4` form, instruction metering, and
//! the common result type.
//!
//! Both forms share [`mdsim::nonbonded::pair_interaction`] as the single
//! definition of the physics, so every variant is comparable bit-for-bit
//! against the `mdsim` reference kernels.

use mdsim::cluster::CLUSTER_SIZE;
use mdsim::nonbonded::{pair_interaction, NbEnergies, NbParams};
use mdsim::Vec3;
use sw26010::perf::{Breakdown, PerfCounters};
use sw26010::simd::{meter, transpose3_to_interleaved, FloatV4, TRANSPOSE3_SHUFFLES};

use crate::package::{PackedSystem, FORCE_WORDS};

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

/// Compute all interactions of one cluster pair (scalar path).
///
/// `fi`/`fj` are 12-word force-package accumulators (interleaved xyz per
/// lane) for the outer/inner cluster. Returns `(e_lj, e_coul, n_pairs)`.
/// Instruction costs are metered into `perf`.
#[allow(clippy::too_many_arguments)]
pub fn cluster_pair_scalar(
    psys: &PackedSystem,
    pkg_i: &[f32],
    pkg_j: &[f32],
    shift: [f32; 3],
    mask: u16,
    params: &NbParams,
    fi: &mut [f32; FORCE_WORDS],
    fj: &mut [f32; FORCE_WORDS],
    perf: &mut PerfCounters,
) -> (f64, f64, u32) {
    let rc2 = params.r_cut * params.r_cut;
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n = 0u32;
    let mut flops = 0u64;
    let mut divsqrt = 0u64;
    for ai in 0..CLUSTER_SIZE {
        let (xa, ya, za, ta, qa) = psys.read_particle(pkg_i, ai);
        for bj in 0..CLUSTER_SIZE {
            if mask >> (ai * CLUSTER_SIZE + bj) & 1 == 0 {
                continue;
            }
            let (xb, yb, zb, tb, qb) = psys.read_particle(pkg_j, bj);
            let dx = xa - (xb + shift[0]);
            let dy = ya - (yb + shift[1]);
            let dz = za - (zb + shift[2]);
            let r2 = dx * dx + dy * dy + dz * dz;
            flops += 11; // 6 add/sub + 3 mul + 2 add for r2
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            let (c6, c12) = psys.lj(ta, tb);
            let (f_over_r, elj, ecoul) = pair_interaction(r2, c6, c12, qa * qb, params);
            // LJ: ~12 flops; Ewald erfc Coulomb: ~14; force scatter: 9.
            flops += 36;
            divsqrt += 1;
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
    meter::scalar_flops(perf, flops);
    meter::scalar_divsqrt(perf, divsqrt);
    (e_lj, e_coul, n)
}

/// Compute all interactions of one cluster pair with `floatv4` lanes over
/// the outer cluster (§3.4, Fig. 6/7).
///
/// Functionally identical to [`cluster_pair_scalar`] (same
/// `pair_interaction` per lane); what changes is the instruction mix
/// metered: ~4x fewer arithmetic issues, plus pre-treatment splats, LJ
/// parameter gathers, and the six-shuffle post-treatment.
#[allow(clippy::too_many_arguments)]
pub fn cluster_pair_simd(
    psys: &PackedSystem,
    pkg_i: &[f32],
    pkg_j: &[f32],
    shift: [f32; 3],
    mask: u16,
    params: &NbParams,
    fi: &mut [f32; FORCE_WORDS],
    fj: &mut [f32; FORCE_WORDS],
    perf: &mut PerfCounters,
) -> (f64, f64, u32) {
    let rc2 = params.r_cut * params.r_cut;
    // Pre-treatment: with the transposed layout the component vectors of
    // the outer cluster load directly (3 vector loads, ~free); with the
    // interleaved layout this costs a transpose. We require the
    // transposed layout for SIMD kernels.
    let xi = FloatV4([
        psys.read_particle(pkg_i, 0).0,
        psys.read_particle(pkg_i, 1).0,
        psys.read_particle(pkg_i, 2).0,
        psys.read_particle(pkg_i, 3).0,
    ]);
    let yi = FloatV4([
        psys.read_particle(pkg_i, 0).1,
        psys.read_particle(pkg_i, 1).1,
        psys.read_particle(pkg_i, 2).1,
        psys.read_particle(pkg_i, 3).1,
    ]);
    let zi = FloatV4([
        psys.read_particle(pkg_i, 0).2,
        psys.read_particle(pkg_i, 1).2,
        psys.read_particle(pkg_i, 2).2,
        psys.read_particle(pkg_i, 3).2,
    ]);
    meter::simd_ops(perf, 3); // vector loads of x/y/z components

    let mut fx_acc = FloatV4::ZERO;
    let mut fy_acc = FloatV4::ZERO;
    let mut fz_acc = FloatV4::ZERO;
    let mut e_lj = 0.0f64;
    let mut e_coul = 0.0f64;
    let mut n = 0u32;
    let mut simd_ops = 0u64;
    let mut simd_divsqrt = 0u64;
    let mut scalar_flops = 0u64;

    for bj in 0..CLUSTER_SIZE {
        let lane_mask = [
            (mask >> bj) & 1,
            (mask >> (CLUSTER_SIZE + bj)) & 1,
            (mask >> (2 * CLUSTER_SIZE + bj)) & 1,
            (mask >> (3 * CLUSTER_SIZE + bj)) & 1,
        ];
        if lane_mask == [0, 0, 0, 0] {
            continue;
        }
        let (xb, yb, zb, tb, qb) = psys.read_particle(pkg_j, bj);
        // Splat the inner particle into vectors: 3 ops.
        let dx = xi - FloatV4::splat(xb + shift[0]);
        let dy = yi - FloatV4::splat(yb + shift[1]);
        let dz = zi - FloatV4::splat(zb + shift[2]);
        // Same association as the scalar kernel ((dx2+dy2)+dz2) so the
        // cutoff decision is bit-identical across paths.
        let r2 = dx * dx + dy * dy + dz * dz;
        simd_ops += 3 + 3 + 5; // splats + subs + 3 mul 2 add

        // Per-lane cutoff + mask + interaction. The physics per lane is
        // delegated to the shared scalar definition so the SIMD kernel is
        // exactly the vector *schedule* of the same math. LJ parameter
        // gathers (per-lane type lookups) are scalar work on SW26010.
        let mut f_over_r = [0.0f32; 4];
        for lane in 0..CLUSTER_SIZE {
            if lane_mask[lane] == 0 {
                continue;
            }
            let r2l = r2.0[lane];
            if r2l >= rc2 || r2l == 0.0 {
                continue;
            }
            let (_, _, _, ta, qa) = psys.read_particle(pkg_i, lane);
            let (c6, c12) = psys.lj(ta, tb);
            let (f, elj, ecoul) = pair_interaction(r2l, c6, c12, qa * qb, params);
            f_over_r[lane] = f;
            e_lj += elj as f64;
            e_coul += ecoul as f64;
            n += 1;
        }
        // Vector instruction mix for the interaction: cmp+select (2),
        // rsqrt (1 long), LJ polynomial (~7), Ewald erfc via table (~6),
        // force assembly (3 muls + 3 fma accumulate).
        simd_ops += 2 + 7 + 6 + 6;
        simd_divsqrt += 1;
        scalar_flops += 8; // LJ parameter gathers for 4 lanes

        let fv = FloatV4(f_over_r);
        fx_acc = dx.mul_add(fv, fx_acc);
        fy_acc = dy.mul_add(fv, fy_acc);
        fz_acc = dz.mul_add(fv, fz_acc);
        // Inner particle reaction: horizontal sums (3 x ~2 ops).
        fj[3 * bj] -= (dx * fv).hsum();
        fj[3 * bj + 1] -= (dy * fv).hsum();
        fj[3 * bj + 2] -= (dz * fv).hsum();
        simd_ops += 6;
    }

    // Post-treatment (Fig. 7): six shuffles turn the three component
    // accumulators into the interleaved layout of the force package, then
    // three vector adds apply them.
    let t = transpose3_to_interleaved(fx_acc, fy_acc, fz_acc);
    for (k, v) in t.iter().enumerate() {
        for lane in 0..4 {
            fi[4 * k + lane] += v.0[lane];
        }
    }
    meter::shuffle_ops(perf, TRANSPOSE3_SHUFFLES);
    meter::simd_ops(perf, simd_ops + 3);
    meter::simd_divsqrt(perf, simd_divsqrt);
    meter::scalar_flops(perf, scalar_flops);
    (e_lj, e_coul, n)
}

/// Merge a per-CPE energy pair into an [`NbEnergies`].
pub fn add_energy(en: &mut NbEnergies, e_lj: f64, e_coul: f64, n: u32, half_weight: bool) {
    let w = if half_weight { 0.5 } else { 1.0 };
    en.lj += w * e_lj;
    en.coulomb += w * e_coul;
    en.pairs_within_cutoff += n as u64;
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
        let mut entry = 0;
        let mut checked = 0;
        for ci in 0..cpe.n_clusters() {
            for e in cpe.entries_of(ci) {
                let cj = cpe.neighbors[e] as usize;
                let mut fi_s = [0.0f32; FORCE_WORDS];
                let mut fj_s = [0.0f32; FORCE_WORDS];
                let mut fi_v = [0.0f32; FORCE_WORDS];
                let mut fj_v = [0.0f32; FORCE_WORDS];
                let (el_s, ec_s, n_s) = cluster_pair_scalar(
                    &psys,
                    psys.package(ci),
                    psys.package(cj),
                    cpe.shifts[entry],
                    cpe.masks[entry],
                    &params,
                    &mut fi_s,
                    &mut fj_s,
                    &mut perf_s,
                );
                let (el_v, ec_v, n_v) = cluster_pair_simd(
                    &psys,
                    psys.package(ci),
                    psys.package(cj),
                    cpe.shifts[entry],
                    cpe.masks[entry],
                    &params,
                    &mut fi_v,
                    &mut fj_v,
                    &mut perf_v,
                );
                assert_eq!(n_s, n_v, "entry {entry}");
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
                entry += 1;
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
    fn simd_metering_counts_shuffles() {
        let sys = water_box(10, 300.0, 3);
        let list = PairList::build(&sys, 1.0, ListKind::Half);
        let cpe = CpePairList::build(&sys, &list);
        let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
        let params = NbParams::paper_default();
        let mut perf = PerfCounters::new();
        let mut fi = [0.0f32; FORCE_WORDS];
        let mut fj = [0.0f32; FORCE_WORDS];
        cluster_pair_simd(
            &psys,
            psys.package(0),
            psys.package(0),
            [0.0; 3],
            cpe.masks[cpe.entries_of(0).start],
            &params,
            &mut fi,
            &mut fj,
            &mut perf,
        );
        assert_eq!(perf.shuffle_ops, TRANSPOSE3_SHUFFLES);
    }
}
