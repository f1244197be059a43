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
//! The pair interaction itself is `mdsim`'s [`pair_interaction8`], the
//! lane body the reference walk calls too: its LJ, cut-off and
//! reaction-field arms are the scalar expressions lane by lane, and
//! this kernel names Ewald's [`EwaldForm::Fast`] form, whose
//! transcendentals (`exp`, `erfc`) are vectorized in f32
//! ([`mdsim::math::exp8`], [`mdsim::math::erfc8_poly_t`]). The cutoff
//! decision is computed with the same operation association as the
//! scalar kernel, so *which* pairs interact is bit-identical across
//! every backend; short-range Ewald values agree within the documented
//! differential bounds (see `tests/backend_differential.rs`).

use mdsim::cluster::CLUSTER_SIZE;
use mdsim::nonbonded::{pair_interaction8, EwaldForm, NbParams};

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
        let ewald = EwaldForm::Fast {
            lj_active: r0.on | r1.on,
        };
        let (f, elj, ecoul) = pair_interaction8(isa, r2, c6v, c12v, qq8, params, ewald);
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
