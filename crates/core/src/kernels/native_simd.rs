//! The native backend's vectorized cluster-pair inner loop: real
//! 8-lane `f32` arithmetic instead of the metered [`FloatV4`](sw26010::FloatV4)
//! emulation.
//!
//! The loop is written once, generic over [`Lanes8`], and instantiated
//! per instruction set — portable array lanes or one AVX2 register (see
//! the `wide` crate docs). Every function down to the lane operations
//! is `#[inline(always)]`, so each instantiation is one straight-line
//! body that keeps its vectors in registers; `kernels::native` picks
//! the instantiation ([`LaneImpl::detect`]).
//! Every lane operation is the same IEEE 754 operation on every
//! implementation, so the results do not depend on the choice.
//!
//! Layout follows the AVX2 LJ-kernel structure of Watanabe & Nakagawa
//! (arXiv:1806.05713) mapped onto the paper's 4-particle packages: the
//! **i-broadcast × j-vector** scheme. Two inner-cluster entries are
//! processed per iteration, their 2 × 4 particles forming one 8-lane
//! j-vector; each of the four outer-cluster particles is broadcast
//! against it. An odd trailing entry falls back to
//! [`cluster_pair_simd`](super::common::cluster_pair_simd), the FloatV4
//! body the metered SIMD rungs run (per-lane scalar `pair_interaction`)
//! — so tail entries are bit-identical to the metered path.
//!
//! The LJ parameters are loaded, not gathered: `PackedSystem::build`
//! keeps one [`LjRow`] per package type signature and outer type, so an
//! outer row's 8-lane `c6`/`c12` vectors are four 16-byte loads. A row
//! holds the values per-lane `lj(ti, tj)` lookups return, so no bit
//! depends on it.
//!
//! All transcendental math (`exp`, `erfc` for the short-range Ewald
//! term) is vectorized in f32. The cutoff decision is computed with the
//! same operation association as the scalar kernel, so *which* pairs
//! interact is bit-identical across every backend; interaction values
//! agree within the documented differential bounds (see
//! `tests/backend_differential.rs`).

use mdsim::cluster::CLUSTER_SIZE;
use mdsim::nonbonded::{Coulomb, NbParams};
use mdsim::topology::KE;

pub(crate) use wide::on_lanes;
pub use wide::{f32x8, for_each_lanes8, LaneImpl, Lanes8};
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub use wide::{f32x8_avx2, Avx2};

use crate::kernels::common::EntryJ;
use crate::package::{LjRow, FORCE_WORDS, PKG_WORDS};

/// Per-nibble lane masks: entry `m` holds, for each of 4 lanes, the
/// all-ones bit pattern when bit `b` of `m` is set. Turning two mask
/// rows into a lane mask is then two 16-byte loads
/// ([`Lanes8::from_halves`]).
const NIBBLE_MASK: [[f32; 4]; 16] = {
    let mut t = [[0.0f32; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let mut b = 0;
        while b < 4 {
            if (m >> b) & 1 == 1 {
                t[m][b] = f32::from_bits(!0);
            }
            b += 1;
        }
        m += 1;
    }
    t
};

/// View a transposed package slice as its fixed-size array, eliding the
/// per-word bounds checks in the inner loop.
#[inline(always)]
fn pkg_words(pkg: &[f32]) -> &[f32; PKG_WORDS] {
    pkg[..PKG_WORDS].try_into().expect("transposed package")
}

/// Words `4·row .. 4·row + 4` of a transposed package: one field
/// (x, y, z, type, charge) of its four particles.
#[inline(always)]
fn pkg_row(pkg: &[f32; PKG_WORDS], row: usize) -> &[f32; CLUSTER_SIZE] {
    pkg[row * CLUSTER_SIZE..(row + 1) * CLUSTER_SIZE]
        .try_into()
        .expect("package row")
}

/// Vectorized `exp(x)` for `x <= 0` (the Ewald `exp(-(βr)²)` range);
/// `x` is clamped to `[-87, 0]` first, which also maps a NaN lane to
/// `-87` ([`Lanes8::max`] returns its right operand on NaN).
///
/// Standard range reduction `x = n·ln2 + r`, degree-6 polynomial on
/// `r ∈ [-ln2/2, ln2/2]`, scale by `2^n` through exponent bits.
/// Relative error ≤ ~2e-7 over the kernel's domain.
///
/// Rounding uses the `1.5·2²³` magic-constant trick: adding it forces
/// the integer part of `x·log₂e` into the low mantissa bits, so both
/// the rounded float `n` and its integer value fall out of plain
/// adds/subtracts — no `roundps` (SSE4.1) and no libm call.
#[inline(always)]
pub fn exp8<L: Lanes8>(isa: L::Isa, x: L) -> L {
    const LN2_HI: f32 = 0.693_359_4; // ln2 split: hi has few mantissa bits
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let c = |v: f32| L::splat(isa, v);
    let x = x.max(c(-87.0)).min(c(0.0));
    // n ∈ [-126, 0] for in-domain x, so MAGIC + n keeps exponent 23
    // and the mantissa ulp is exactly 1: the bit pattern differs
    // from MAGIC's by the two's-complement integer n.
    let nf = x * c(std::f32::consts::LOG2_E) + c(MAGIC);
    let n = nf - c(MAGIC);
    // 2^n: (n + 127) << 23, with n = bits(nf) - bits(MAGIC).
    let bias = f32::from_bits(127u32.wrapping_sub(MAGIC.to_bits()));
    let two_n = nf.add_bits(c(bias)).shl_bits::<23>();
    let r = x - n * c(LN2_HI);
    let r = r - n * c(LN2_LO);
    // exp(r) ≈ 1 + r + r²/2! + … + r⁶/6! (Horner).
    let p = c(1.0)
        + r * (c(1.0)
            + r * (c(0.5)
                + r * (c(1.0 / 6.0)
                    + r * (c(1.0 / 24.0) + r * (c(1.0 / 120.0) + r * c(1.0 / 720.0))))));
    p * two_n
}

/// The A&S rational variable's `P` constant, shared with callers that
/// precompute `t = 1/(1 + Px)` themselves (see [`pair_interaction8`]).
const ERFC_P: f32 = 0.327_591_1;

/// The polynomial part of Abramowitz & Stegun 7.1.26 (the same
/// polynomial as the scalar `mdsim::math::erfc_f32` reference,
/// evaluated in f32) with the rational variable `t = 1/(1 + Px)` and
/// `exp(-x²)` supplied by the caller.
#[inline(always)]
fn erfc8_poly_t<L: Lanes8>(isa: L::Isa, t: L, exp_neg_x2: L) -> L {
    const A1: f32 = 0.254_829_6;
    const A2: f32 = -0.284_496_72;
    const A3: f32 = 1.421_413_8;
    const A4: f32 = -1.453_152_1;
    const A5: f32 = 1.061_405_4;
    let c = |v: f32| L::splat(isa, v);
    let poly = ((((c(A5) * t + c(A4)) * t + c(A3)) * t + c(A2)) * t + c(A1)) * t;
    poly * exp_neg_x2
}

/// Eight pair interactions at once: the vector form of
/// [`mdsim::nonbonded::pair_interaction`]. Returns `(f_over_r, e_lj,
/// e_coul)` per lane. Lanes with garbage inputs (`r2 = 0` filler)
/// produce garbage outputs — callers mask them away afterwards.
///
/// `lj_active` is a caller hint that some `c6`/`c12` lane is nonzero;
/// [`cluster_pair_wide8`] passes the `on` flags of its two [`LjRow`]s,
/// computed when the packages were built. Passing `false` skips the
/// Lennard-Jones chain (the result is the exact zero those parameters
/// would produce anyway) — on water workloads two thirds of the outer
/// rows are hydrogens with no LJ site, so the skip is worth real time.
#[inline(always)]
pub fn pair_interaction8<L: Lanes8>(
    isa: L::Isa,
    r2: L,
    c6: L,
    c12: L,
    qq: L,
    lj_active: bool,
    params: &NbParams,
) -> (L, L, L) {
    let c = |v: f32| L::splat(isa, v);
    let one = c(1.0);
    let ke = c(KE as f32);
    if let Coulomb::EwaldShort { beta } = params.coulomb {
        // The hot path. Divider-unit pressure dominates this branch, so
        // one division serves both `1/r` and the erfc rational variable:
        // with `b = 1 + P·βr` and `inv = 1/(r·b)`, `rinv = b·inv` and
        // `t = r·inv`. `rinv² = rinv·rinv` then lands within ~2 ulp of
        // `1/r²` — far inside the kernel's differential bounds.
        // `exp(-(βr)²)` evaluated as `exp(-β²·r²)` so the transcendental
        // starts straight from r² — in parallel with the square root
        // instead of serialized behind it.
        let ex = exp8(isa, -(c(beta * beta) * r2));
        let r = r2.sqrt();
        let b = one + c(ERFC_P * beta) * r;
        let inv = one / (r * b);
        let rinv = b * inv;
        let t = r * inv;
        let rinv2 = rinv * rinv;
        let erfc_br = erfc8_poly_t(isa, t, ex);
        let kqq = ke * qq;
        let e_coul = kqq * erfc_br * rinv;
        let tbsp = 2.0 * beta / std::f32::consts::PI.sqrt();
        let mut fsum = e_coul + kqq * (c(tbsp) * ex);
        let mut e_lj = c(0.0);
        if lj_active {
            let rinv6 = rinv2 * rinv2 * rinv2;
            let a = c12 * rinv6 * rinv6;
            let bb = c6 * rinv6;
            e_lj = a - bb;
            fsum = fsum + c(12.0) * a - c(6.0) * bb;
        }
        return (fsum * rinv2, e_lj, e_coul);
    }
    let rinv2 = one / r2;
    let rinv6 = rinv2 * rinv2 * rinv2;
    let e_lj = c12 * rinv6 * rinv6 - c6 * rinv6;
    let mut f_over_r = (c(12.0) * c12 * rinv6 * rinv6 - c(6.0) * c6 * rinv6) * rinv2;
    let mut e_coul = c(0.0);
    match params.coulomb {
        Coulomb::None | Coulomb::EwaldShort { .. } => {}
        Coulomb::Cutoff => {
            let rinv = rinv2.sqrt();
            e_coul = ke * qq * rinv;
            f_over_r = f_over_r + ke * qq * rinv * rinv2;
        }
        Coulomb::ReactionField { eps_rf } => {
            let rc = params.r_cut;
            let k_rf = (eps_rf - 1.0) / (2.0 * eps_rf + 1.0) / (rc * rc * rc);
            let c_rf = 1.0 / rc + k_rf * rc * rc;
            let rinv = rinv2.sqrt();
            e_coul = ke * qq * (rinv + c(k_rf) * r2 - c(c_rf));
            f_over_r = f_over_r + ke * qq * (rinv * rinv2 - c(2.0 * k_rf));
        }
    }
    (f_over_r, e_lj, e_coul)
}

/// Outer-cluster force accumulators in lane-slot (vector) form: one
/// 8-lane vector per outer particle and axis, summed across every wide8
/// call of a cluster and horizontally reduced **once** at the end
/// ([`WideFi::fold_into`]). Folding per entry pair would cost 12
/// shuffle-tree reductions per call — a measurable slice of the inner
/// loop on a list with ~50 entries per cluster.
#[derive(Clone, Copy)]
pub struct WideFi<L> {
    pub x: [L; CLUSTER_SIZE],
    pub y: [L; CLUSTER_SIZE],
    pub z: [L; CLUSTER_SIZE],
}

impl<L: Lanes8> WideFi<L> {
    /// All slots zero.
    #[inline(always)]
    pub fn zero(isa: L::Isa) -> Self {
        let zero = [L::splat(isa, 0.0); CLUSTER_SIZE];
        Self {
            x: zero,
            y: zero,
            z: zero,
        }
    }

    /// Reduce every lane slot into the scalar force words (the pairwise
    /// tree of `reduce_add`, so the result is deterministic).
    #[inline(always)]
    pub fn fold_into(&self, fi: &mut [f32; FORCE_WORDS]) {
        for ai in 0..CLUSTER_SIZE {
            fi[3 * ai] += self.x[ai].reduce_add();
            fi[3 * ai + 1] += self.y[ai].reduce_add();
            fi[3 * ai + 2] += self.z[ai].reduce_add();
        }
    }
}

/// Interactions of one outer cluster against **two** inner-cluster
/// entries, 8 j-lanes wide. `lj` holds each entry's LJ rows, indexed by
/// outer type ([`PackedSystem::lj_rows`](crate::package::PackedSystem::lj_rows)).
/// Accumulates the outer forces into the `fi` lane slots (fold them
/// with [`WideFi::fold_into`] after the last entry pair) and the
/// reactions into `fj0`/`fj1` — which may point straight into a
/// caller-side accumulation buffer; returns `(e_lj, e_coul, n_pairs)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn cluster_pair_wide8<L: Lanes8>(
    isa: L::Isa,
    pkg_i: &[f32],
    e0: EntryJ<'_>,
    e1: EntryJ<'_>,
    lj: [&[LjRow]; 2],
    params: &NbParams,
    fi: &mut WideFi<L>,
    fj0: &mut [f32; FORCE_WORDS],
    fj1: &mut [f32; FORCE_WORDS],
) -> (f64, f64, u32) {
    let rc2 = params.r_cut * params.r_cut;
    let pi = pkg_words(pkg_i);
    let p0 = pkg_words(e0.pkg);
    let p1 = pkg_words(e1.pkg);
    // The 8-lane j-vector: lanes 0..4 from e0, 4..8 from e1, shifted
    // into the outer cluster's minimum image — two 16-byte loads plus
    // one add per axis.
    let shifted = |axis: usize| {
        L::from_halves(isa, pkg_row(p0, axis), pkg_row(p1, axis))
            + L::from_halves(isa, &[e0.shift[axis]; 4], &[e1.shift[axis]; 4])
    };
    let xj8 = shifted(0);
    let yj8 = shifted(1);
    let zj8 = shifted(2);
    let qj8 = L::from_halves(isa, pkg_row(p0, 4), pkg_row(p1, 4));

    let zero = L::splat(isa, 0.0);
    let mut rjx = zero; // j-side reactions, accumulated per lane
    let mut rjy = zero;
    let mut rjz = zero;
    let mut elj8 = zero; // energies, folded to f64 once at the end
    let mut ecoul8 = zero;
    let mut n = 0u32;
    let rc2v = L::splat(isa, rc2);

    for ai in 0..CLUSTER_SIZE {
        let row0 = ((e0.mask >> (ai * CLUSTER_SIZE)) & 0xF) as usize;
        let row1 = ((e1.mask >> (ai * CLUSTER_SIZE)) & 0xF) as usize;
        if row0 | row1 == 0 {
            continue;
        }
        let dx = L::splat(isa, pi[ai]) - xj8;
        let dy = L::splat(isa, pi[CLUSTER_SIZE + ai]) - yj8;
        let dz = L::splat(isa, pi[2 * CLUSTER_SIZE + ai]) - zj8;
        // Same association as the scalar kernel ((dx²+dy²)+dz²): the
        // cutoff decision is bit-identical across backends.
        let r2 = dx * dx + dy * dy + dz * dz;

        // Lane activity, all in vector form with the scalar kernel's
        // exact conditions: mask-row bit AND r2 < rc² AND r2 != 0.
        // `r2 > 0` ≡ the scalar kernel's `r2 != 0` (a sum of squares is
        // never negative).
        let rowm = L::from_halves(isa, &NIBBLE_MASK[row0], &NIBBLE_MASK[row1]);
        let m = rowm & zero.cmp_lt(r2) & r2.cmp_lt(rc2v);
        let cnt = m.movemask().count_ones();
        if cnt == 0 {
            continue;
        }
        n += cnt;

        // The rows were built with the packages: two 16-byte loads per
        // parameter, the lanes `lj(ti, tj)` would give.
        let ti = pi[3 * CLUSTER_SIZE + ai] as usize;
        let (r0, r1) = (&lj[0][ti], &lj[1][ti]);
        let c6v = L::from_halves(isa, &r0.c6, &r1.c6);
        let c12v = L::from_halves(isa, &r0.c12, &r1.c12);
        let qq8 = L::splat(isa, pi[4 * CLUSTER_SIZE + ai]) * qj8;
        let (f, elj, ecoul) = pair_interaction8(isa, r2, c6v, c12v, qq8, r0.on | r1.on, params);
        // Mask *after* the computation: filler lanes (r2 = 0) produced
        // infinities/NaNs, and `& m` replaces them bitwise with zero.
        let f = f & m;
        elj8 = elj8 + (elj & m);
        ecoul8 = ecoul8 + (ecoul & m);

        let fx = dx * f;
        let fy = dy * f;
        let fz = dz * f;
        fi.x[ai] = fi.x[ai] + fx;
        fi.y[ai] = fi.y[ai] + fy;
        fi.z[ai] = fi.z[ai] + fz;
        rjx = rjx + fx;
        rjy = rjy + fy;
        rjz = rjz + fz;
    }

    let mut e_lj_acc = 0.0f64;
    let mut e_coul_acc = 0.0f64;
    let ea = elj8.to_array();
    let ec = ecoul8.to_array();
    for k in 0..8 {
        e_lj_acc += ea[k] as f64;
        e_coul_acc += ec[k] as f64;
    }

    let rx = rjx.to_array();
    let ry = rjy.to_array();
    let rz = rjz.to_array();
    for k in 0..CLUSTER_SIZE {
        fj0[3 * k] -= rx[k];
        fj0[3 * k + 1] -= ry[k];
        fj0[3 * k + 2] -= rz[k];
        fj1[3 * k] -= rx[4 + k];
        fj1[3 * k + 1] -= ry[4 + k];
        fj1[3 * k + 2] -= rz[4 + k];
    }
    (e_lj_acc, e_coul_acc, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::nonbonded::pair_interaction;

    fn exp8_matches_f64_reference<L: Lanes8>(isa: L::Isa) {
        let mut x = -9.8f32;
        while x <= 0.0 {
            let got = exp8(isa, L::splat(isa, x)).to_array()[0];
            let want = (x as f64).exp();
            let rel = ((got as f64 - want) / want).abs();
            assert!(rel < 1e-6, "exp({x}) = {got}, want {want}, rel {rel}");
            x += 0.037;
        }
    }

    fn exp8_clamps_its_domain<L: Lanes8>(isa: L::Isa) {
        let x = [
            f32::NAN,
            f32::NEG_INFINITY,
            -1e30,
            -87.0,
            0.0,
            1.0,
            1e30,
            f32::INFINITY,
        ];
        let got = exp8(isa, L::from_array(isa, x)).to_array();
        let floor = exp8(isa, L::splat(isa, -87.0)).to_array()[0];
        assert!(floor > 0.0 && floor < 1e-37);
        for (k, got) in got.iter().enumerate() {
            let want = if k < 4 { floor } else { 1.0 };
            assert_eq!(got.to_bits(), want.to_bits(), "lane {k}");
        }
    }

    fn erfc8_matches_scalar_reference<L: Lanes8>(isa: L::Isa) {
        let mut x = 0.0f32;
        while x <= 4.0 {
            // erfc as `pair_interaction8` composes it.
            let (one, xs) = (L::splat(isa, 1.0), L::splat(isa, x));
            let t = one / (one + L::splat(isa, ERFC_P) * xs);
            let got = erfc8_poly_t(isa, t, exp8(isa, -(xs * xs))).to_array()[0];
            let want = mdsim::math::erfc(x as f64);
            // A&S 7.1.26 carries |ε| ≤ 1.5e-7 absolute; f32 evaluation
            // adds a few ulps.
            assert!(
                (got as f64 - want).abs() < 2e-6,
                "erfc({x}) = {got}, want {want}"
            );
            x += 0.029;
        }
    }

    fn pair_interaction8_lane_matches_scalar_within_bounds<L: Lanes8>(isa: L::Isa) {
        let params = NbParams::paper_default();
        for i in 1..60 {
            let r2 = 0.02 + 0.016 * i as f32;
            let (c6, c12, qq) = (2.6e-3, 2.6e-6, -0.2);
            let (f8, e8, c8) = pair_interaction8(
                isa,
                L::splat(isa, r2),
                L::splat(isa, c6),
                L::splat(isa, c12),
                L::splat(isa, qq),
                true,
                &params,
            );
            let (f, e, c) = pair_interaction(r2, c6, c12, qq, &params);
            let rel = |a: f32, b: f32| ((a - b) / b.abs().max(1e-20)).abs();
            // Both f and e_lj pass through zero on this r2 sweep (the
            // LJ sign change sits at r2 = (c12/c6)^(1/3) = 0.1, the
            // total force at the LJ/Coulomb crossover), where they are
            // small residues of much larger cancelling components. The
            // honest f32 bound is relative to those component
            // magnitudes, not to the residue.
            let rinv6 = 1.0 / (r2 * r2 * r2);
            let (a12, b6) = (c12 * rinv6 * rinv6, c6 * rinv6);
            let f_scale = f.abs().max((c.abs() + 12.0 * a12 + 6.0 * b6) / r2);
            let e_scale = e.abs().max(a12).max(b6);
            assert!(
                (f8.to_array()[0] - f).abs() < 1e-4 * f_scale,
                "f at r2={r2}"
            );
            assert!(
                (e8.to_array()[0] - e).abs() < 1e-4 * e_scale,
                "e_lj at r2={r2}"
            );
            assert!(rel(c8.to_array()[0], c) < 1e-4, "e_coul at r2={r2}");
        }
    }

    #[test]
    fn transcendentals_and_pair_math_hold_on_every_lane_implementation() {
        for_each_lanes8!(exp8_matches_f64_reference);
        for_each_lanes8!(exp8_clamps_its_domain);
        for_each_lanes8!(erfc8_matches_scalar_reference);
        for_each_lanes8!(pair_interaction8_lane_matches_scalar_within_bounds);
    }
}
