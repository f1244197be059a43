//! Property-based tests for the native backend's 8-wide SIMD inner loop
//! (`swgmx::kernels::native_simd`) against a straight scalar reference
//! built from `mdsim::nonbonded::pair_interaction`, and for the lane
//! types underneath it against per-lane scalar expressions.
//!
//! Every property runs on **every lane implementation the host offers**
//! (the portable arrays, and the AVX2 register when detected) and
//! requires the implementations to agree with each other bit for bit.
//!
//! Random packages (positions, charges, types, interaction masks) are
//! thrown at `cluster_pair_wide8`; the properties pin down:
//!
//! - the cutoff decision is **exactly** the scalar one (same pair set),
//! - forces and energies agree within the f32 bound of a reordered
//!   8-term reduction,
//! - a tail entry (`common::cluster_pair_simd`, the one FloatV4 body the
//!   metered Vec/Mark rungs run too) matches the same reference,
//! - masked-out / all-beyond-cutoff inputs produce exactly zero,
//! - hostile geometries (contacts, coincident fillers, pairs an ulp
//!   from the cutoff, box-sized shifts) stay finite and inactive lanes
//!   contribute exactly nothing,
//! - every lane operation equals its scalar expression on arbitrary
//!   bit patterns.

use proptest::prelude::*;
use sw_gromacs::mdsim::cluster::CLUSTER_SIZE;
use sw_gromacs::mdsim::nonbonded::{pair_interaction, NbParams};
use sw_gromacs::swgmx::kernels::common::{cluster_pair_simd, EntryJ};
use sw_gromacs::swgmx::kernels::native_simd::{
    cluster_pair_wide8, for_each_lanes8, Lanes8, WideFi,
};
use sw_gromacs::swgmx::package::LjRow;

const PKG_WORDS: usize = 5 * CLUSTER_SIZE;
const FORCE_WORDS: usize = 3 * CLUSTER_SIZE;

/// Build a transposed package (`x1..x4 y1..y4 z1..z4 t1..t4 q1..q4`)
/// from 12 raw words: per particle (x, y, z), plus per-particle charge
/// derived from the seed. Types alternate 0/1.
fn mk_pkg(raw: &[f32], qscale: f32) -> [f32; PKG_WORDS] {
    let mut pkg = [0.0f32; PKG_WORDS];
    for p in 0..CLUSTER_SIZE {
        pkg[p] = raw[3 * p];
        pkg[CLUSTER_SIZE + p] = raw[3 * p + 1];
        pkg[2 * CLUSTER_SIZE + p] = raw[3 * p + 2];
        pkg[3 * CLUSTER_SIZE + p] = (p % 2) as f32;
        pkg[4 * CLUSTER_SIZE + p] = qscale * (p as f32 - 1.5);
    }
    pkg
}

fn lj_table(ta: usize, tb: usize) -> (f32, f32) {
    // Arbitrary but nonzero and type-dependent, in the water ballpark.
    let s = (1 + ta + tb) as f32;
    (2.6e-3 * s, 2.6e-6 * s)
}

/// Three types with mixed σ/ε: an SPC-oxygen-like site, a soft wide
/// one, and a hydrogen-like site with no LJ at all (so rows of type 2
/// take the kernel's LJ-skip path).
fn lj_mixed(ta: usize, tb: usize) -> (f32, f32) {
    const C6: [f32; 3] = [2.6e-3, 9.0e-3, 0.0];
    const C12: [f32; 3] = [2.6e-6, 4.0e-5, 0.0];
    ((C6[ta] * C6[tb]).sqrt(), (C12[ta] * C12[tb]).sqrt())
}

/// The squared distance of outer particle `ai` and inner particle `bj`
/// with the kernels' operation association.
fn r2_of(pkg_i: &[f32], e: &EntryJ<'_>, ai: usize, bj: usize) -> (f32, f32, f32, f32) {
    let dx = pkg_i[ai] - (e.pkg[bj] + e.shift[0]);
    let dy = pkg_i[CLUSTER_SIZE + ai] - (e.pkg[CLUSTER_SIZE + bj] + e.shift[1]);
    let dz = pkg_i[2 * CLUSTER_SIZE + ai] - (e.pkg[2 * CLUSTER_SIZE + bj] + e.shift[2]);
    (dx, dy, dz, (dx * dx + dy * dy) + dz * dz)
}

/// What a cluster-pair kernel produces: outer forces, one reaction
/// package per entry, energies, pair count.
#[derive(Debug, Clone, PartialEq)]
struct Out {
    fi: [f32; FORCE_WORDS],
    fjs: Vec<[f32; FORCE_WORDS]>,
    e_lj: f64,
    e_coul: f64,
    n: u32,
}

impl Out {
    fn words(&self) -> impl Iterator<Item = f32> + '_ {
        self.fi.iter().chain(self.fjs.iter().flatten()).copied()
    }

    /// Every word as its bit pattern (so `-0.0 != 0.0` and NaNs compare).
    fn bits(&self) -> Vec<u64> {
        self.words()
            .map(|w| w.to_bits() as u64)
            .chain([self.e_lj.to_bits(), self.e_coul.to_bits(), self.n as u64])
            .collect()
    }

    fn is_finite(&self) -> bool {
        self.words().all(f32::is_finite) && self.e_lj.is_finite() && self.e_coul.is_finite()
    }
}

/// Scalar reference for one outer package against a set of entries:
/// plain loops over every (ai, bj) mask bit, scalar `pair_interaction`.
///
/// Also returns the magnitude of the terms summed — the largest
/// per-word sum of `|d·f|` and the sum of `|e_lj| + |e_coul|` (each at
/// least 1). Where large terms cancel (a contact pair of like charges
/// next to one of unlike charges) the honest f32 bound is relative to
/// those, not to the residue.
fn scalar_reference(
    pkg_i: &[f32],
    entries: &[EntryJ<'_>],
    params: &NbParams,
    lj: &impl Fn(usize, usize) -> (f32, f32),
) -> (Out, (f32, f64)) {
    let rc2 = params.r_cut * params.r_cut;
    let mut f_terms = vec![0.0f32; FORCE_WORDS * (1 + entries.len())];
    let mut e_terms = 1.0f64;
    let mut out = Out {
        fi: [0.0f32; FORCE_WORDS],
        fjs: vec![[0.0f32; FORCE_WORDS]; entries.len()],
        e_lj: 0.0,
        e_coul: 0.0,
        n: 0,
    };
    for (ei, e) in entries.iter().enumerate() {
        for ai in 0..CLUSTER_SIZE {
            for bj in 0..CLUSTER_SIZE {
                if (e.mask >> (ai * CLUSTER_SIZE + bj)) & 1 == 0 {
                    continue;
                }
                let (dx, dy, dz, r2) = r2_of(pkg_i, e, ai, bj);
                if r2 >= rc2 || r2 == 0.0 {
                    continue;
                }
                let ta = pkg_i[3 * CLUSTER_SIZE + ai] as usize;
                let tb = e.pkg[3 * CLUSTER_SIZE + bj] as usize;
                let qq = pkg_i[4 * CLUSTER_SIZE + ai] * e.pkg[4 * CLUSTER_SIZE + bj];
                let (c6, c12) = lj(ta, tb);
                let (f, elj, ecoul) = pair_interaction(r2, c6, c12, qq, params);
                for (axis, d) in [dx, dy, dz].into_iter().enumerate() {
                    out.fi[3 * ai + axis] += d * f;
                    out.fjs[ei][3 * bj + axis] -= d * f;
                    f_terms[3 * ai + axis] += (d * f).abs();
                    f_terms[FORCE_WORDS * (1 + ei) + 3 * bj + axis] += (d * f).abs();
                }
                out.e_lj += elj as f64;
                out.e_coul += ecoul as f64;
                e_terms += (elj.abs() + ecoul.abs()) as f64;
                out.n += 1;
            }
        }
    }
    (out, (f_terms.into_iter().fold(1.0f32, f32::max), e_terms))
}

/// Every type the packages here carry is below this.
const N_TYPES: usize = 3;

/// The per-call gather `cluster_pair_wide8` ran before its LJ rows were
/// built with the packages: outer type `ti` against the eight j-types,
/// one lookup per lane, and whether any lane is nonzero (NaN counting
/// as nonzero).
fn gather_lj<L: Lanes8>(
    isa: L::Isa,
    ti: usize,
    tj: &[usize; 8],
    lj: &impl Fn(usize, usize) -> (f32, f32),
) -> (bool, L, L) {
    let mut c6 = [0.0f32; 8];
    let mut c12 = [0.0f32; 8];
    for k in 0..8 {
        (c6[k], c12[k]) = lj(ti, tj[k]);
    }
    let c6 = L::from_array(isa, c6);
    let c12 = L::from_array(isa, c12);
    let zero = L::splat(isa, 0.0);
    let both_zero = c6.cmp_eq(zero) & c12.cmp_eq(zero);
    (both_zero.movemask() != 0xFF, c6, c12)
}

/// The four type words of a transposed package.
fn types_of(pkg: &[f32]) -> [usize; CLUSTER_SIZE] {
    std::array::from_fn(|k| pkg[3 * CLUSTER_SIZE + k] as usize)
}

/// `cluster_pair_wide8` on lane implementation `L`, appended to `outs`,
/// with each entry's LJ rows built from its type words as
/// `PackedSystem::build` builds them. The rows must load, for every
/// outer type, exactly the lanes the old per-lane gather produced.
fn wide8<L: Lanes8>(
    isa: L::Isa,
    outs: &mut Vec<Out>,
    pkg_i: &[f32],
    e0: EntryJ<'_>,
    e1: EntryJ<'_>,
    params: &NbParams,
    lj: &impl Fn(usize, usize) -> (f32, f32),
) {
    let rows = |pkg: &[f32]| -> Vec<LjRow> {
        let tj = types_of(pkg);
        (0..N_TYPES).map(|t| LjRow::new(t, tj, lj)).collect()
    };
    let (rows0, rows1) = (rows(e0.pkg), rows(e1.pkg));
    let (t0, t1) = (types_of(e0.pkg), types_of(e1.pkg));
    let tj: [usize; 8] = std::array::from_fn(|k| if k < 4 { t0[k] } else { t1[k - 4] });
    let bits = |v: L| v.to_array().map(f32::to_bits);
    for ti in types_of(pkg_i) {
        let (on, c6, c12) = gather_lj::<L>(isa, ti, &tj, lj);
        let (r0, r1) = (&rows0[ti], &rows1[ti]);
        assert_eq!(r0.on | r1.on, on, "lj_on of outer type {ti}");
        assert_eq!(
            bits(L::from_halves(isa, &r0.c6, &r1.c6)),
            bits(c6),
            "c6 of {ti}"
        );
        assert_eq!(
            bits(L::from_halves(isa, &r0.c12, &r1.c12)),
            bits(c12),
            "c12 of {ti}"
        );
    }

    let mut wfi = WideFi::<L>::zero(isa);
    let mut fj0 = [0.0f32; FORCE_WORDS];
    let mut fj1 = [0.0f32; FORCE_WORDS];
    let lj_rows = [rows0.as_slice(), rows1.as_slice()];
    let (e_lj, e_coul, n) = cluster_pair_wide8(
        isa, pkg_i, e0, e1, lj_rows, params, &mut wfi, &mut fj0, &mut fj1,
    );
    let mut fi = [0.0f32; FORCE_WORDS];
    wfi.fold_into(&mut fi);
    outs.push(Out {
        fi,
        fjs: vec![fj0, fj1],
        e_lj,
        e_coul,
        n,
    });
}

/// `cluster_pair_wide8` on every lane implementation the host offers;
/// they must agree bit for bit, so one result comes back.
fn wide8_on_every_lanes(
    pkg_i: &[f32],
    e0: EntryJ<'_>,
    e1: EntryJ<'_>,
    params: &NbParams,
    lj: &impl Fn(usize, usize) -> (f32, f32),
) -> Result<Out, String> {
    let mut outs = Vec::new();
    for_each_lanes8!(wide8, &mut outs, pkg_i, e0, e1, params, lj);
    for (k, other) in outs.iter().enumerate().skip(1) {
        if other.bits() != outs[0].bits() {
            return Err(format!(
                "lane implementation #{k} differs from portable: {other:?} vs {:?}",
                outs[0]
            ));
        }
    }
    Ok(outs.swap_remove(0))
}

/// The kernels' bound against the scalar reference: force words within
/// 1e-4 of `f_scale`, energies within `e_tol` of `e_scale`.
fn assert_within_bounds(
    got: &Out,
    want: &Out,
    f_scale: f32,
    e_tol: f64,
    e_scale: f64,
) -> Result<(), String> {
    for (k, (g, w)) in got.words().zip(want.words()).enumerate() {
        if (g - w).abs() > 1e-4 * f_scale + 1e-6 {
            return Err(format!("force word {k}: {g} vs {w} (scale {f_scale})"));
        }
    }
    for (name, g, w) in [
        ("e_lj", got.e_lj, want.e_lj),
        ("e_coul", got.e_coul, want.e_coul),
    ] {
        if (g - w).abs() >= e_tol * e_scale {
            return Err(format!("{name} {g} vs {w} (scale {e_scale})"));
        }
    }
    Ok(())
}

/// The scales the water-like properties use: the largest force word and
/// the larger energy of the reference.
fn result_scales(want: &Out) -> (f32, f64) {
    (
        want.words().fold(1.0f32, |m, v| m.max(v.abs())),
        want.e_lj.abs().max(want.e_coul.abs()).max(1.0),
    )
}

/// Bit patterns that careless lane code gets wrong.
const SPECIAL_BITS: [u32; 12] = [
    0x0000_0000, // 0.0
    0x8000_0000, // -0.0
    0x7f80_0000, // inf
    0xff80_0000, // -inf
    0x7fc0_0000, // quiet NaN
    0xffc0_1234, // negative NaN with a payload
    0x7fa0_0001, // signalling NaN
    0x0000_0001, // smallest denormal
    0x807f_ffff, // largest negative denormal
    0x0080_0000, // MIN_POSITIVE
    0x7f7f_ffff, // MAX
    0xffff_ffff, // an all-ones mask
];

/// Eight arbitrary bit patterns, specials over-represented.
fn lane_bits() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            any::<u32>(),
            (0usize..SPECIAL_BITS.len()).prop_map(|i| SPECIAL_BITS[i]),
        ],
        8,
    )
}

fn lanes_from_bits(bits: &[u32]) -> [f32; 8] {
    std::array::from_fn(|k| f32::from_bits(bits[k]))
}

/// Every `Lanes8` operation of `L` against the per-lane scalar
/// expression. Arithmetic results that are NaN may differ in sign and
/// payload (unspecified for scalar `f32` too); everything else is
/// compared bit for bit.
fn lane_ops_match_scalar<L: Lanes8>(isa: L::Isa, a: [f32; 8], b: [f32; 8], c: [f32; 8]) {
    let (la, lb, lc) = (
        L::from_array(isa, a),
        L::from_array(isa, b),
        L::from_array(isa, c),
    );
    let check = |op: &str, got: L, want: &dyn Fn(usize) -> f32, arithmetic: bool| {
        let got = got.to_array();
        for k in 0..8 {
            let want = want(k);
            let nan_pair = arithmetic && got[k].is_nan() && want.is_nan();
            assert!(
                nan_pair || got[k].to_bits() == want.to_bits(),
                "{} `{op}` lane {k}: {:#010x}, scalar {:#010x} (a {:#010x} b {:#010x} c {:#010x})",
                L::NAME,
                got[k].to_bits(),
                want.to_bits(),
                a[k].to_bits(),
                b[k].to_bits(),
                c[k].to_bits(),
            );
        }
    };
    let mask = |t: bool| f32::from_bits(if t { !0 } else { 0 });
    let bitop =
        |x: f32, y: f32, f: fn(u32, u32) -> u32| f32::from_bits(f(x.to_bits(), y.to_bits()));

    check("to_array", la, &|k| a[k], false);
    check("splat", L::splat(isa, a[0]), &|_| a[0], false);
    check(
        "from_halves",
        L::from_halves(isa, a[..4].try_into().unwrap(), b[4..].try_into().unwrap()),
        &|k| if k < 4 { a[k] } else { b[k] },
        false,
    );
    check("+", la + lb, &|k| a[k] + b[k], true);
    check("-", la - lb, &|k| a[k] - b[k], true);
    check("*", la * lb, &|k| a[k] * b[k], true);
    check("/", la / lb, &|k| a[k] / b[k], true);
    check("mul_add", la.mul_add(lb, lc), &|k| a[k] * b[k] + c[k], true);
    check("sqrt", la.sqrt(), &|k| a[k].sqrt(), true);
    check("neg", -la, &|k| -a[k], false);
    check(
        "min",
        la.min(lb),
        &|k| if a[k] < b[k] { a[k] } else { b[k] },
        false,
    );
    check(
        "max",
        la.max(lb),
        &|k| if a[k] > b[k] { a[k] } else { b[k] },
        false,
    );
    check("cmp_lt", la.cmp_lt(lb), &|k| mask(a[k] < b[k]), false);
    check("cmp_eq", la.cmp_eq(lb), &|k| mask(a[k] == b[k]), false);
    check(
        "blend",
        lc.blend(la, lb),
        &|k| {
            let m = c[k].to_bits();
            f32::from_bits((a[k].to_bits() & m) | (b[k].to_bits() & !m))
        },
        false,
    );
    check("&", la & lb, &|k| bitop(a[k], b[k], |x, y| x & y), false);
    check("|", la | lb, &|k| bitop(a[k], b[k], |x, y| x | y), false);
    check(
        "add_bits",
        la.add_bits(lb),
        &|k| bitop(a[k], b[k], u32::wrapping_add),
        false,
    );
    check(
        "shl_bits",
        la.shl_bits::<23>(),
        &|k| f32::from_bits(a[k].to_bits() << 23),
        false,
    );

    let want_mask = (0..8).fold(0u32, |m, k| m | ((a[k].to_bits() >> 31) << k));
    assert_eq!(la.movemask(), want_mask, "{} movemask", L::NAME);

    // Pinned to the pairwise-halving tree: i with i+4, then i with i+2,
    // then 0 with 1 (`shims/wide` also pins each level with
    // cancellation cases such as [1e8, 1, -1e8, 1, 0, 0, 0, 0] → 2).
    let want_sum = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
    let got_sum = la.reduce_add();
    assert!(
        got_sum.to_bits() == want_sum.to_bits() || (got_sum.is_nan() && want_sum.is_nan()),
        "{} reduce_add: {got_sum} vs {want_sum} over {a:?}",
        L::NAME
    );
}

proptest! {
    /// Every lane operation, on every implementation, equals the scalar
    /// expression on arbitrary bit patterns (NaNs, ±0, ±inf, denormals).
    #[test]
    fn lane_ops_match_scalar_on_arbitrary_bit_patterns(
        a in lane_bits(),
        b in lane_bits(),
        c in lane_bits(),
    ) {
        for_each_lanes8!(lane_ops_match_scalar, lanes_from_bits(&a), lanes_from_bits(&b), lanes_from_bits(&c));
    }

    /// The 8-wide kernel selects exactly the scalar pair set and agrees
    /// on forces/energies within the resummation bound, with types drawn
    /// from all three of `lj_mixed`'s (so rows without LJ mix with rows
    /// that have it, on either side).
    #[test]
    fn wide8_matches_scalar_reference(
        ri in prop::collection::vec(0.05f32..1.1, 12),
        r0 in prop::collection::vec(0.05f32..1.1, 12),
        r1 in prop::collection::vec(0.05f32..1.1, 12),
        types in prop::collection::vec(0usize..N_TYPES, 12),
        mask0 in 0u16..=u16::MAX,
        mask1 in 0u16..=u16::MAX,
        shift in -1.0f32..1.0,
    ) {
        let params = NbParams { r_cut: 0.9, ..NbParams::paper_default() };
        let mut pkgs = [mk_pkg(&ri, 0.4), mk_pkg(&r0, -0.3), mk_pkg(&r1, 0.5)];
        for (k, &t) in types.iter().enumerate() {
            pkgs[k / CLUSTER_SIZE][3 * CLUSTER_SIZE + k % CLUSTER_SIZE] = t as f32;
        }
        let [pkg_i, p0, p1] = pkgs;
        let e0 = EntryJ { pkg: &p0, shift: [shift, 0.0, -shift], mask: mask0 };
        let e1 = EntryJ { pkg: &p1, shift: [0.0, shift, 0.0], mask: mask1 };

        let (want, _) = scalar_reference(&pkg_i, &[e0, e1], &params, &lj_mixed);
        let got = wide8_on_every_lanes(&pkg_i, e0, e1, &params, &lj_mixed)?;

        // Cutoff decisions are bit-identical: exactly the same pairs.
        prop_assert_eq!(got.n, want.n);
        let (f_scale, e_scale) = result_scales(&want);
        assert_within_bounds(&got, &want, f_scale, 1e-4, e_scale)?;
    }

    /// The 4-wide tail fallback agrees with the same scalar reference
    /// (it *is* the metered FloatV4 body, so the bound is tight).
    #[test]
    fn wide4_tail_matches_scalar_reference(
        ri in prop::collection::vec(0.05f32..1.1, 12),
        r0 in prop::collection::vec(0.05f32..1.1, 12),
        mask in 0u16..=u16::MAX,
        shift in -1.0f32..1.0,
    ) {
        let params = NbParams { r_cut: 0.9, ..NbParams::paper_default() };
        let pkg_i = mk_pkg(&ri, 0.4);
        let p0 = mk_pkg(&r0, -0.3);
        let e = EntryJ { pkg: &p0, shift: [shift, -shift, 0.0], mask };

        let (want, _) = scalar_reference(&pkg_i, &[e], &params, &lj_table);

        let mut fi = [0.0f32; FORCE_WORDS];
        let mut fj = [0.0f32; FORCE_WORDS];
        let (e_lj, e_coul, n) = cluster_pair_simd(&pkg_i, e, &params, &lj_table, &mut fi, &mut fj);
        let got = Out { fi, fjs: vec![fj], e_lj, e_coul, n };

        prop_assert_eq!(got.n, want.n);
        let (f_scale, e_scale) = result_scales(&want);
        assert_within_bounds(&got, &want, f_scale, 1e-5, e_scale)?;
    }

    /// Everything masked out or beyond the cutoff: the wide kernels
    /// must return exactly zero (the mask really kills filler lanes).
    #[test]
    fn excluded_lanes_contribute_exactly_zero(
        ri in prop::collection::vec(0.05f32..0.4, 12),
        far in 50.0f32..90.0,
        mask in 0u16..=u16::MAX,
    ) {
        let params = NbParams { r_cut: 0.9, ..NbParams::paper_default() };
        let pkg_i = mk_pkg(&ri, 0.4);
        // Entry 0: fully masked out. Entry 1: all pairs far outside rc.
        let p0 = mk_pkg(&ri, -0.3);
        let mut raw_far = ri.clone();
        for v in raw_far.iter_mut() {
            *v += far;
        }
        let p1 = mk_pkg(&raw_far, 0.5);
        let e0 = EntryJ { pkg: &p0, shift: [0.0; 3], mask: 0 };
        let e1 = EntryJ { pkg: &p1, shift: [0.0; 3], mask };

        let got = wide8_on_every_lanes(&pkg_i, e0, e1, &params, &lj_table)?;
        prop_assert_eq!(got.n, 0);
        prop_assert_eq!(got.e_lj, 0.0);
        prop_assert_eq!(got.e_coul, 0.0);
        for v in got.words() {
            prop_assert_eq!(v, 0.0);
        }

        let mut fi4 = [0.0f32; FORCE_WORDS];
        let mut fj4 = [0.0f32; FORCE_WORDS];
        let (elj4, ecoul4, n4) =
            cluster_pair_simd(&pkg_i, e1, &params, &lj_table, &mut fi4, &mut fj4);
        prop_assert_eq!(n4, 0);
        prop_assert_eq!(elj4, 0.0);
        prop_assert_eq!(ecoul4, 0.0);
        for v in fi4.iter().chain(fj4.iter()) {
            prop_assert_eq!(*v, 0.0);
        }
    }

    /// Geometries no equilibrated water box contains. Each inner
    /// particle is aimed at an outer one: a contact down to 0.05 nm, a
    /// mid-range pair, or exactly on top of it (`r² = 0`, what a filler
    /// slot looks like); the inner package is stored up to a box edge
    /// away and brought back by the entry's shift; types mix three
    /// σ/ε classes (one without LJ) and charges are arbitrary; the
    /// cutoff is put within an ulp or two of one pair's `r²`, on either
    /// side. Active lanes must be finite and within the kernel's bounds
    /// of the scalar `pair_interaction`, the pair set must be exactly
    /// the scalar one, and clearing the mask bits of every inactive
    /// lane must not change a single output bit — no NaN or infinity
    /// from a dead lane crosses the mask.
    #[test]
    fn hostile_geometries_stay_finite_and_masked(
        ri in prop::collection::vec(0.0f32..3.0, 12),
        aim in prop::collection::vec((0usize..4, 0usize..6, 0.05f32..0.9, -1.0f32..1.0, -1.0f32..1.0), 8),
        types in prop::collection::vec(0usize..N_TYPES, 12),
        charges in prop::collection::vec(-1.0f32..1.0, 12),
        shifts in prop::collection::vec(-3.0f32..3.0, 6),
        masks in (0u16..=u16::MAX, 0u16..=u16::MAX),
        edge in (0usize..8, -2i32..3),
    ) {
        let mut pkg_i = mk_pkg(&ri, 0.0);
        for p in 0..CLUSTER_SIZE {
            pkg_i[3 * CLUSTER_SIZE + p] = types[p] as f32;
            pkg_i[4 * CLUSTER_SIZE + p] = charges[p];
        }
        // An entry has one shift for its four particles, and a particle
        // lands exactly on its target only under a zero shift: entries
        // with a coincident lane get none, the others a box-sized one.
        let coincident = |lane: usize| aim[lane].1 == 5;
        let shift_of = |e: usize| -> [f32; 3] {
            if (4 * e..4 * e + 4).any(coincident) {
                [0.0; 3]
            } else {
                [shifts[3 * e], shifts[3 * e + 1], shifts[3 * e + 2]]
            }
        };
        let entry_shifts = [shift_of(0), shift_of(1)];
        let mut pj = [[0.0f32; PKG_WORDS]; 2];
        for (lane, &(target, mode, dist, u, v)) in aim.iter().enumerate() {
            let (e, bj) = (lane / 4, lane % 4);
            let dist = match mode {
                0 | 1 => 0.05 + 0.1 * dist, // contact
                5 => 0.0,                   // on top of the target: r² = 0
                _ => dist,                  // anywhere up to the cutoff region
            };
            // Any direction will do; its length only scales `dist`.
            let dir = [u, v, 1.0 - u.abs()];
            for axis in 0..3 {
                // Stored a shift away; the kernel adds the shift back.
                pj[e][axis * CLUSTER_SIZE + bj] =
                    ri[3 * target + axis] + dist * dir[axis] - entry_shifts[e][axis];
            }
            pj[e][3 * CLUSTER_SIZE + bj] = types[4 + lane] as f32;
            pj[e][4 * CLUSTER_SIZE + bj] = charges[4 + lane];
        }
        let e0 = EntryJ { pkg: &pj[0], shift: entry_shifts[0], mask: masks.0 };
        let e1 = EntryJ { pkg: &pj[1], shift: entry_shifts[1], mask: masks.1 };

        // The cutoff within an ulp or two of one aimed pair's distance.
        let (lane, nudge) = edge;
        let (_, _, _, r2_edge) =
            r2_of(&pkg_i, if lane < 4 { &e0 } else { &e1 }, aim[lane].0, lane % 4);
        let mut r_cut = r2_edge.sqrt().clamp(0.05, 1.2);
        for _ in 0..nudge.abs() {
            r_cut = if nudge < 0 { r_cut.next_down() } else { r_cut.next_up() };
        }
        let params = NbParams { r_cut, ..NbParams::paper_default() };

        let (want, (f_scale, e_scale)) = scalar_reference(&pkg_i, &[e0, e1], &params, &lj_mixed);
        let got = wide8_on_every_lanes(&pkg_i, e0, e1, &params, &lj_mixed)?;
        prop_assert_eq!(got.n, want.n, "pair set differs at r_cut {}", r_cut);
        prop_assert!(got.is_finite(), "non-finite output: {:?}", got);
        assert_within_bounds(&got, &want, f_scale, 1e-4, e_scale)?;

        // The same call with every inactive lane's mask bit cleared.
        let rc2 = r_cut * r_cut;
        let active_mask = |e: &EntryJ<'_>| {
            (0..16).fold(0u16, |mask, bit| {
                let (_, _, _, r2) = r2_of(&pkg_i, e, bit / CLUSTER_SIZE, bit % CLUSTER_SIZE);
                let active = (e.mask >> bit) & 1 == 1 && r2 < rc2 && r2 != 0.0;
                mask | (active as u16) << bit
            })
        };
        let a0 = EntryJ { mask: active_mask(&e0), ..e0 };
        let a1 = EntryJ { mask: active_mask(&e1), ..e1 };
        let twin = wide8_on_every_lanes(&pkg_i, a0, a1, &params, &lj_mixed)?;
        prop_assert_eq!(got.bits(), twin.bits(), "an inactive lane leaked: {:?} vs {:?}", got, twin);
        // A particle with no active partner feels exactly no force.
        for p in 0..CLUSTER_SIZE {
            if ((a0.mask | a1.mask) >> (p * CLUSTER_SIZE)) & 0xF == 0 {
                prop_assert_eq!(&got.fi[3 * p..3 * p + 3], &[0.0f32; 3][..]);
            }
        }
    }
}
