//! Reference (host-side) non-bonded kernels and the pair interaction.
//!
//! These implement the paper's Eq. 1/2 Lennard-Jones interaction plus a
//! Coulomb term, once per pair ([`pair_interaction`]) and on eight lanes
//! ([`pair_interaction8`], which the native kernels of `swgmx` call
//! too). The reference walks the cluster pair list as Algorithm 1 (half
//! list, both particles updated): every optimized kernel in `swgmx`,
//! the full-list RCA included, is validated against
//! [`compute_forces_half`] or [`compute_forces_brute`]. The half-list
//! walk computes on eight lanes and accumulates in the scalar walk's
//! order, so its bits are those of the scalar expressions.

use std::ops::Range;

use wide::Lanes8;

use crate::cluster::{CLUSTER_SIZE, FILLER};
use crate::host::{self, Host};
use crate::math::{erfc8_poly_t, erfc_f32, exp8, ERFC_P};
use crate::pairlist::{ListKind, PairList};
use crate::pairsearch::{norm2, pair8, LANES};
use crate::pbc::{le8, PbcBox};
use crate::system::System;
use crate::topology::KE;
use crate::vec3::{vec3, Vec3};

/// Coulomb treatment for the short-range kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coulomb {
    /// No electrostatics (pure LJ fluid).
    None,
    /// Plain cutoff Coulomb.
    Cutoff,
    /// Reaction field with dielectric `eps_rf` beyond the cutoff.
    ReactionField {
        /// Relative dielectric constant of the continuum.
        eps_rf: f32,
    },
    /// Short-range part of Ewald/PME with splitting parameter `beta`
    /// (nm^-1); the long-range part is handled by the PME module.
    EwaldShort {
        /// Ewald splitting parameter.
        beta: f32,
    },
}

/// Kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbParams {
    /// Interaction cutoff `R_cut-off`, nm.
    pub r_cut: f32,
    /// Coulomb treatment.
    pub coulomb: Coulomb,
}

impl NbParams {
    /// The paper's benchmark setting: 1.0 nm cutoff, PME electrostatics
    /// (short-range Ewald with beta chosen for ~1e-5 tolerance at rc).
    pub fn paper_default() -> Self {
        Self {
            r_cut: 1.0,
            coulomb: Coulomb::EwaldShort { beta: 3.12 },
        }
    }
}

/// Energies accumulated by a kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NbEnergies {
    /// Lennard-Jones energy, kJ/mol.
    pub lj: f64,
    /// Coulomb (short-range) energy, kJ/mol.
    pub coulomb: f64,
    /// Pair virial `sum_ij f_ij . r_ij` (kJ/mol); positive for net
    /// repulsion. Feeds the pressure via `P = (2 KE + W) / (3 V)`.
    pub virial: f64,
    /// Number of particle pairs inside the cutoff that were evaluated.
    pub pairs_within_cutoff: u64,
}

impl NbEnergies {
    /// Total of both terms.
    pub fn total(&self) -> f64 {
        self.lj + self.coulomb
    }
}

/// Reaction field's constants `(k_rf, c_rf)` at dielectric `eps_rf` and
/// cutoff `rc`: `V = ke qq (1/r + k_rf r² - c_rf)`, zero at `rc`.
#[inline(always)]
fn reaction_field(eps_rf: f32, rc: f32) -> (f32, f32) {
    let k_rf = (eps_rf - 1.0) / (2.0 * eps_rf + 1.0) / (rc * rc * rc);
    (k_rf, 1.0 / rc + k_rf * rc * rc)
}

/// Pairwise force magnitude over r (`F/r`) and energy for one pair.
///
/// Returns `(f_over_r, e_lj, e_coul)`. Exposed so optimized kernels and
/// the reference share one definition of the interaction.
#[inline]
pub fn pair_interaction(r2: f32, c6: f32, c12: f32, qq: f32, params: &NbParams) -> (f32, f32, f32) {
    let rinv2 = 1.0 / r2;
    let rinv6 = rinv2 * rinv2 * rinv2;
    // LJ: V = C12/r^12 - C6/r^6; F/r = (12 C12/r^12 - 6 C6/r^6)/r^2.
    let e_lj = c12 * rinv6 * rinv6 - c6 * rinv6;
    let mut f_over_r = (12.0 * c12 * rinv6 * rinv6 - 6.0 * c6 * rinv6) * rinv2;
    let mut e_coul = 0.0f32;
    if qq != 0.0 {
        let ke = KE as f32;
        let rinv = rinv2.sqrt();
        match params.coulomb {
            Coulomb::None => {}
            Coulomb::Cutoff => {
                e_coul = ke * qq * rinv;
                f_over_r += ke * qq * rinv * rinv2;
            }
            Coulomb::ReactionField { eps_rf } => {
                let (k_rf, c_rf) = reaction_field(eps_rf, params.r_cut);
                e_coul = ke * qq * (rinv + k_rf * r2 - c_rf);
                f_over_r += ke * qq * (rinv * rinv2 - 2.0 * k_rf);
            }
            Coulomb::EwaldShort { beta } => {
                let r = r2.sqrt();
                let br = beta * r;
                let erfc_br = erfc_f32(br);
                e_coul = ke * qq * erfc_br * rinv;
                // dV/dr of erfc(beta r)/r:
                // F/r = ke qq [erfc(br)/r + 2 beta/sqrt(pi) exp(-br^2)] / r^2.
                let two_beta_over_sqrt_pi = 2.0 * beta / std::f32::consts::PI.sqrt();
                f_over_r +=
                    ke * qq * (erfc_br * rinv + two_beta_over_sqrt_pi * (-br * br).exp()) * rinv2;
            }
        }
    }
    (f_over_r, e_lj, e_coul)
}

/// How [`pair_interaction8`] evaluates short-range Ewald: each caller
/// names its form where it calls.
#[derive(Debug, Clone, Copy)]
pub enum EwaldForm {
    /// The reference's: [`pair_interaction`] on each lane of `active`
    /// (libm `exp`, the f64 `erfc`), zero on the others.
    Exact { active: u32 },
    /// The native kernels': f32 [`exp8`] and the A&S polynomial, within
    /// the bounds of `tests/backend_differential.rs`. `lj_active: false`
    /// promises every `c6`/`c12` lane is zero and skips the LJ chain.
    Fast { lj_active: bool },
}

/// Eight pair interactions at once: the vector form of
/// [`pair_interaction`]. Returns `(f_over_r, e_lj, e_coul)` per lane.
///
/// Without Ewald each lane is the scalar expressions' bits: the same
/// operations in the same order, and `qq == 0` blends the Coulomb term
/// away where the scalar form skips it (adding the zero term would turn
/// `-0.0` into `+0.0` and `0 × inf`, a subnormal `r2`, into NaN).
/// Lanes with garbage inputs (`r2 = 0` filler) produce garbage outputs
/// — callers mask them away afterwards.
#[inline(always)]
pub fn pair_interaction8<L: Lanes8>(
    isa: L::Isa,
    r2: L,
    c6: L,
    c12: L,
    qq: L,
    params: &NbParams,
    ewald: EwaldForm,
) -> (L, L, L) {
    let c = |v: f32| L::splat(isa, v);
    let (zero, one, ke) = (c(0.0), c(1.0), c(KE as f32));
    match (params.coulomb, ewald) {
        (Coulomb::EwaldShort { .. }, EwaldForm::Exact { active }) => {
            let (r2, c6, c12, qq) = (r2.to_array(), c6.to_array(), c12.to_array(), qq.to_array());
            let mut each = [[0.0f32; LANES]; 3];
            let mut lanes = active;
            while lanes != 0 {
                let k = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let (f, e_lj, e_coul) = pair_interaction(r2[k], c6[k], c12[k], qq[k], params);
                [each[0][k], each[1][k], each[2][k]] = [f, e_lj, e_coul];
            }
            let [f, e_lj, e_coul] = each.map(|v| L::from_array(isa, v));
            return (f, e_lj, e_coul);
        }
        (Coulomb::EwaldShort { beta }, EwaldForm::Fast { lj_active }) => {
            // Divider-unit pressure dominates this form, so one division
            // serves both `1/r` and the erfc rational variable: with
            // `b = 1 + P·βr` and `inv = 1/(r·b)`, `rinv = b·inv` and
            // `t = r·inv`. `rinv² = rinv·rinv` then lands within ~2 ulp
            // of `1/r²` — far inside the kernel's differential bounds.
            // `exp(-(βr)²)` evaluated as `exp(-β²·r²)` so the
            // transcendental starts straight from r² — in parallel with
            // the square root instead of serialized behind it.
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
        _ => {}
    }
    let rinv2 = one / r2;
    let rinv6 = rinv2 * rinv2 * rinv2;
    let e_lj = c12 * rinv6 * rinv6 - c6 * rinv6;
    let f_lj = (c(12.0) * c12 * rinv6 * rinv6 - c(6.0) * c6 * rinv6) * rinv2;
    let kqq = ke * qq;
    let rinv = rinv2.sqrt();
    let (f_coul, e_coul) = match params.coulomb {
        Coulomb::Cutoff => {
            let e = kqq * rinv;
            (e * rinv2, e)
        }
        Coulomb::ReactionField { eps_rf } => {
            let (k_rf, c_rf) = reaction_field(eps_rf, params.r_cut);
            let e = kqq * (rinv + c(k_rf) * r2 - c(c_rf));
            (kqq * (rinv * rinv2 - c(2.0 * k_rf)), e)
        }
        _ => return (f_lj, e_lj, zero),
    };
    let no_q = qq.cmp_eq(zero);
    (
        no_q.blend(f_lj, f_lj + f_coul),
        e_lj,
        no_q.blend(zero, e_coul),
    )
}

/// Algorithm 1: walk a **half** list, updating both particles of each
/// pair. Forces are accumulated into `sys.force`; energies returned.
///
/// The member-pair arithmetic runs on eight lanes
/// ([`wide::LaneImpl::detect`] picks them): each cluster pair is two
/// rows of two outer members broadcast against the four inner ones, the
/// layout of the pair search's exact test. Minimum image, `r²` and the cutoff mask are the
/// scalar expressions lane by lane
/// ([`PbcBox::min_image8`](crate::pbc::PbcBox::min_image8) is the
/// scalar image on every lane), and the interaction is
/// [`pair_interaction8`] in Ewald's [`EwaldForm::Exact`] form: the
/// scalar bits on every interacting lane. This lane stage runs on every
/// thread the host has, a few chunks of the list ahead of the calling
/// thread, which accumulates the results in the order of the scalar
/// walk — per outer member, its pairs in inner-slot order into the
/// outer sum and the inner particle, then the sum into the outer
/// particle, and the energy and virial chains in pair order — so every
/// force, energy and virial bit is the scalar walk's on every lane
/// implementation and at every thread count.
pub fn compute_forces_half(sys: &mut System, list: &PairList, params: &NbParams) -> NbEnergies {
    let masks = list.interaction_masks(sys);
    compute_forces_half_masked(sys, list, &masks, params)
}

/// [`compute_forces_half`] with the list's
/// [`PairList::interaction_masks`] computed by the caller: the masks
/// change only with the list, so a run that keeps a list for several
/// steps computes them once per list.
pub fn compute_forces_half_masked(
    sys: &mut System,
    list: &PairList,
    masks: &[u16],
    params: &NbParams,
) -> NbEnergies {
    forces_half(Host::detect(), sys, list, masks, params)
}

/// [`compute_forces_half`] on `host`'s lanes and threads, with the
/// list's [`PairList::interaction_masks`] computed by the caller.
pub(crate) fn forces_half(
    host: Host,
    sys: &mut System,
    list: &PairList,
    masks: &[u16],
    params: &NbParams,
) -> NbEnergies {
    walk(host, sys, list, masks, params, |stage, clusters, out| {
        wide::on_lanes!(host.lanes, stage_lanes, stage_avx2, stage, clusters, out)
    })
}

/// The per-call structure-of-arrays copy of the clusters the lanes load.
struct Pack {
    /// Per cluster, the members' x, y, z and charge rows; NaN
    /// coordinates and zero charge in filler slots.
    rows: Vec<[[f32; CLUSTER_SIZE]; 4]>,
    /// Per cluster, the members' type ids (0 in filler slots).
    types: Vec<[usize; CLUSTER_SIZE]>,
    /// At `c * n_types + t`, the `c6` and `c12` rows of an outer member
    /// of type `t` against cluster `c`'s members: the table entries the
    /// scalar walk looks up, so no bit depends on them.
    lj: Vec<[[f32; CLUSTER_SIZE]; 2]>,
}

impl Pack {
    fn new(sys: &System, list: &PairList) -> Self {
        let nc = list.n_clusters();
        let top = &sys.topology;
        let n_types = top.n_types();
        let mut pack = Self {
            rows: Vec::with_capacity(nc),
            types: Vec::with_capacity(nc),
            lj: Vec::with_capacity(nc * n_types),
        };
        for c in 0..nc {
            let (mut row, mut ty) = ([[f32::NAN; CLUSTER_SIZE]; 4], [0; CLUSTER_SIZE]);
            for (k, &p) in list.clustering.members(c).iter().enumerate() {
                if p == FILLER {
                    row[3][k] = 0.0;
                    continue;
                }
                let p = p as usize;
                [row[0][k], row[1][k], row[2][k]] = [sys.pos[p].x, sys.pos[p].y, sys.pos[p].z];
                row[3][k] = sys.charge[p];
                ty[k] = sys.type_id[p];
            }
            for t in 0..n_types {
                let lj = |table: &[f32]| ty.map(|tj| table[t * n_types + tj]);
                pack.lj.push([lj(top.c6_table()), lj(top.c12_table())]);
            }
            pack.rows.push(row);
            pack.types.push(ty);
        }
        pack
    }
}

/// What the lane stage reads.
struct Stage<'a> {
    pack: Pack,
    n_types: usize,
    list: &'a PairList,
    /// Bit `4 * ai + bj` of an entry's mask: the scalar walk gets to the
    /// cutoff test of pair (ai, bj).
    masks: &'a [u16],
    pbc: &'a PbcBox,
    params: &'a NbParams,
}

/// What the lane stage of a chunk leaves for its accumulation: per list
/// entry, its interacting lanes (bit `4 * ai + bj`); per row with any,
/// in entry and row order, its lanes' force components, `e_lj`,
/// `e_coul` and virial terms.
#[derive(Default)]
struct ChunkLanes {
    active: Vec<u32>,
    values: Vec<[[f32; LANES]; 6]>,
}

/// Cluster pairs a chunk of the walk holds at least: the unit its lane
/// stage runs ahead of the accumulation in.
const CHUNK: usize = 512;

/// Chunks a lane-stage thread must have to pay for starting it.
const WALK_GRAIN: usize = 4;

/// The half-list walk: chunks of whole outer clusters, each one's lane
/// stage (`lanes`) on one of the threads `host` allows, accumulated on
/// the calling thread in chunk order. At most two chunks per thread
/// are buffered, never the whole list.
fn walk(
    host: Host,
    sys: &mut System,
    list: &PairList,
    masks: &[u16],
    params: &NbParams,
    lanes: impl Fn(&Stage, Range<usize>, &mut ChunkLanes) + Sync,
) -> NbEnergies {
    assert_eq!(list.kind, ListKind::Half);
    assert_eq!(masks.len(), list.n_pairs());
    let pack = Pack::new(sys, list);
    let (pbc, force) = (&sys.pbc, &mut sys.force);
    let stage = Stage {
        pack,
        n_types: sys.topology.n_types(),
        list,
        masks,
        pbc,
        params,
    };
    // Chunk `k` is the outer clusters `bounds[k]..bounds[k + 1]`.
    let mut bounds = vec![0];
    for ci in 0..list.n_clusters() {
        let from = list.offsets[bounds[bounds.len() - 1]];
        if (list.offsets[ci + 1] - from) as usize >= CHUNK || ci + 1 == list.n_clusters() {
            bounds.push(ci + 1);
        }
    }
    let n_chunks = bounds.len() - 1;
    let mut en = NbEnergies::default();
    let threads = host.threads_for(n_chunks, WALK_GRAIN);
    let chunk = |k: usize, out: &mut ChunkLanes| lanes(&stage, bounds[k]..bounds[k + 1], out);
    host::ahead(threads, n_chunks, chunk, |k, out: &ChunkLanes| {
        let first = list.offsets[bounds[k]] as usize;
        let mut values = out.values.as_slice();
        for ci in bounds[k]..bounds[k + 1] {
            let mi = list.clustering.members(ci).try_into().expect("4 slots");
            let entries = list.offsets[ci] as usize..list.offsets[ci + 1] as usize;
            let active = &out.active[entries.start - first..entries.end - first];
            let pairs = list.neighbors[entries].iter().zip(active);
            accumulate(
                force,
                &mut en,
                mi,
                pairs.map(|(&cj, &active)| {
                    let mj = list.clustering.members(cj as usize);
                    let rows = (active & 0xff != 0) as usize + (active >> LANES != 0) as usize;
                    let these;
                    (these, values) = values.split_at(rows);
                    (mj.try_into().expect("4 slots"), active, these)
                }),
            );
        }
    });
    en
}

/// The lane stage of outer clusters `clusters` on the lane
/// implementation `L`, into `out`; every implementation writes the same
/// bits.
#[inline(always)]
fn stage_lanes<L: Lanes8>(
    isa: L::Isa,
    stage: &Stage,
    clusters: Range<usize>,
    out: &mut ChunkLanes,
) {
    let Stage {
        pack,
        n_types,
        list,
        masks,
        pbc,
        params,
    } = stage;
    out.active.clear();
    out.values.clear();
    for ci in clusters {
        let (mrow, ti) = (&pack.rows[ci], &pack.types[ci]);
        // Outer members (0, 1) and (2, 3), each broadcast over four lanes.
        let outer = [
            [
                pair8::<L>(isa, &mrow[0], 0),
                pair8::<L>(isa, &mrow[1], 0),
                pair8::<L>(isa, &mrow[2], 0),
                pair8::<L>(isa, &mrow[3], 0),
            ],
            [
                pair8::<L>(isa, &mrow[0], 2),
                pair8::<L>(isa, &mrow[1], 2),
                pair8::<L>(isa, &mrow[2], 2),
                pair8::<L>(isa, &mrow[3], 2),
            ],
        ];
        for e in list.offsets[ci] as usize..list.offsets[ci + 1] as usize {
            let (cj, mask) = (list.neighbors[e] as usize, masks[e]);
            let nrow = &pack.rows[cj];
            let inner = [
                L::from_halves(isa, &nrow[0], &nrow[0]),
                L::from_halves(isa, &nrow[1], &nrow[1]),
                L::from_halves(isa, &nrow[2], &nrow[2]),
                L::from_halves(isa, &nrow[3], &nrow[3]),
            ];
            let mut active = 0;
            for (row, o) in outer.iter().enumerate() {
                let pairs = (mask >> (LANES * row)) as u32 & 0xff;
                if pairs != 0 {
                    let lj = [
                        &pack.lj[cj * n_types + ti[2 * row]],
                        &pack.lj[cj * n_types + ti[2 * row + 1]],
                    ];
                    let c6 = L::from_halves(isa, &lj[0][0], &lj[1][0]);
                    let c12 = L::from_halves(isa, &lj[0][1], &lj[1][1]);
                    let values = &mut out.values;
                    let lanes =
                        row_lanes::<L>(isa, pbc, params, o, &inner, [c6, c12], pairs, values);
                    active |= lanes << (LANES * row);
                }
            }
            out.active.push(active);
        }
    }
}

/// Accumulate the cluster pairs of outer members `mi` — each its inner
/// members, interacting lanes and the values of its rows that have any
/// — in the scalar walk's order. Its `force[a] += fa` after each outer member's pairs
/// waits for the cluster pair's last: no later pair of it touches
/// `force[a]`.
fn accumulate<'a>(
    force: &mut [Vec3],
    en: &mut NbEnergies,
    mi: &[u32; CLUSTER_SIZE],
    pairs: impl Iterator<Item = (&'a [u32; CLUSTER_SIZE], u32, &'a [[[f32; LANES]; 6]])>,
) {
    let (mut lj, mut coulomb, mut virial) = (en.lj, en.coulomb, en.virial);
    for (mj, active, rows) in pairs {
        let mut fa = [Vec3::ZERO; CLUSTER_SIZE];
        // Row 1's values follow row 0's when row 0 has any.
        let second = (active & 0xff != 0) as usize;
        let mut lanes = active;
        while lanes != 0 {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let (v, l) = (&rows[k / LANES * second], k % LANES);
            let f = vec3(v[0][l], v[1][l], v[2][l]);
            fa[k / CLUSTER_SIZE] += f;
            force[mj[k % CLUSTER_SIZE] as usize] -= f;
            lj += v[3][l] as f64;
            coulomb += v[4][l] as f64;
            virial += v[5][l] as f64;
        }
        en.pairs_within_cutoff += active.count_ones() as u64;
        for (&a, fa) in mi.iter().zip(fa) {
            if a != FILLER {
                force[a as usize] += fa;
            }
        }
    }
    (en.lj, en.coulomb, en.virial) = (lj, coulomb, virial);
}

/// One row of a cluster pair: outer members `2 * row` and `2 * row + 1`
/// (`outer`) against the four inner ones (`inner`), over the lanes
/// `pairs` admits. Returns the lanes that interact, and appends their
/// force components, `e_lj`, `e_coul` and virial term — the values of
/// the scalar walk's expressions — to `values`, in lane order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_lanes<L: Lanes8>(
    isa: L::Isa,
    pbc: &PbcBox,
    params: &NbParams,
    outer: &[L; 4],
    inner: &[L; 4],
    [c6, c12]: [L; 2],
    pairs: u32,
    values: &mut Vec<[[f32; LANES]; 6]>,
) -> u32 {
    let zero = L::splat(isa, 0.0);
    let d = [
        outer[0] - inner[0],
        outer[1] - inner[1],
        outer[2] - inner[2],
    ];
    let d = pbc.min_image8(isa, d);
    let r2 = norm2(d);
    // The scalar walk skips `r2 >= rc2 || r2 == 0`: a NaN `r2` interacts.
    let skip = le8(L::splat(isa, params.r_cut * params.r_cut), r2) | r2.cmp_eq(zero);
    let active = pairs & !skip.movemask();
    if active == 0 {
        return 0;
    }
    let qq = outer[3] * inner[3];
    let ewald = EwaldForm::Exact { active };
    let (f_over_r, e_lj, e_coul) = pair_interaction8(isa, r2, c6, c12, qq, params, ewald);
    let vals = [
        (d[0] * f_over_r).to_array(),
        (d[1] * f_over_r).to_array(),
        (d[2] * f_over_r).to_array(),
        e_lj.to_array(),
        e_coul.to_array(),
        (f_over_r * r2).to_array(),
    ];
    values.push(vals);
    active
}

/// [`stage_lanes`] compiled with AVX2 enabled, so the whole
/// `#[inline(always)]` chain becomes `ymm` code.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx2")]
fn stage_avx2(isa: wide::Avx2, stage: &Stage, clusters: Range<usize>, out: &mut ChunkLanes) {
    stage_lanes::<wide::f32x8_avx2>(isa, stage, clusters, out)
}

/// [`compute_forces_half`] with its lane stage on the lane
/// implementation `L`.
#[cfg(test)]
fn half_lanes<L: Lanes8>(
    isa: L::Isa,
    sys: &mut System,
    list: &PairList,
    params: &NbParams,
) -> NbEnergies {
    let masks = list.interaction_masks(sys);
    walk(
        Host::detect(),
        sys,
        list,
        &masks,
        params,
        |stage, clusters, out| stage_lanes::<L>(isa, stage, clusters, out),
    )
}

/// Brute-force O(N^2) reference over all particle pairs; ground truth for
/// small systems.
pub fn compute_forces_brute(sys: &mut System, params: &NbParams) -> NbEnergies {
    let rc2 = params.r_cut * params.r_cut;
    let mut en = NbEnergies::default();
    let n = sys.n();
    let n_types = sys.topology.n_types();
    let c6t = sys.topology.c6_table().to_vec();
    let c12t = sys.topology.c12_table().to_vec();
    for i in 0..n {
        for j in (i + 1)..n {
            if sys.is_excluded(i, j) {
                continue;
            }
            let d = sys.pbc.min_image(sys.pos[i], sys.pos[j]);
            let r2 = d.norm2();
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            let (c6, c12) = (
                c6t[sys.type_id[i] * n_types + sys.type_id[j]],
                c12t[sys.type_id[i] * n_types + sys.type_id[j]],
            );
            let qq = sys.charge[i] * sys.charge[j];
            let (f_over_r, e_lj, e_coul) = pair_interaction(r2, c6, c12, qq, params);
            let f = d * f_over_r;
            sys.force[i] += f;
            sys.force[j] -= f;
            en.lj += e_lj as f64;
            en.coulomb += e_coul as f64;
            en.virial += (f_over_r * r2) as f64;
            en.pairs_within_cutoff += 1;
        }
    }
    en
}

/// Maximum component-wise force difference between two force arrays;
/// testing helper shared by the kernel-equivalence suites.
pub fn max_force_diff(a: &[Vec3], b: &[Vec3]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{fnv1a, FNV1A_OFFSET};
    use crate::water::{saline_box, water_box};
    use wide::for_each_lanes8;

    fn params_rf() -> NbParams {
        NbParams {
            r_cut: 1.0,
            coulomb: Coulomb::ReactionField { eps_rf: 78.0 },
        }
    }

    #[test]
    fn half_list_matches_brute_force() {
        let mut a = water_box(50, 300.0, 21);
        let mut b = a.clone();
        let params = params_rf();
        let list = PairList::build(&a, 1.0, ListKind::Half);
        let ea = compute_forces_half(&mut a, &list, &params);
        let eb = compute_forces_brute(&mut b, &params);
        assert_eq!(ea.pairs_within_cutoff, eb.pairs_within_cutoff);
        assert!((ea.total() - eb.total()).abs() < 1e-6 * eb.total().abs().max(1.0));
        let fmax = b.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&a.force, &b.force) / fmax < 1e-4);
    }

    /// FNV-1a over every force bit, then over the energies' bits and
    /// the pair count.
    fn half_list_bits(sys: &System, en: &NbEnergies) -> [u64; 2] {
        let word = |h, bits: u64| fnv1a(h, &bits.to_le_bytes());
        let forces = sys.force.iter().flat_map(|f| [f.x, f.y, f.z]);
        let energies = [en.lj, en.coulomb, en.virial].map(f64::to_bits);
        [
            forces.fold(FNV1A_OFFSET, |h, c| word(h, c.to_bits() as u64)),
            word(
                energies.into_iter().fold(FNV1A_OFFSET, word),
                en.pairs_within_cutoff,
            ),
        ]
    }

    /// The pinned inputs with their cutoffs: water, four-type saline,
    /// and water with every third molecule two periods out along x (its
    /// pairs with the rest are lanes `min_image8` redoes with the scalar
    /// form).
    fn pin_systems() -> [(&'static str, System, f32); 3] {
        let mut shifted = water_box(80, 300.0, 9);
        let period = 2.0 * shifted.pbc.lengths().x;
        for m in (0..80).step_by(3) {
            for p in &mut shifted.pos[3 * m..3 * m + 3] {
                p.x += period;
            }
        }
        [
            ("water", water_box(200, 300.0, 11), 0.8),
            ("saline", saline_box(150, 10, 300.0, 7), 0.8),
            ("shifted", shifted, 0.6),
        ]
    }

    /// Every Coulomb treatment.
    fn pin_coulombs() -> [Coulomb; 4] {
        [
            Coulomb::None,
            Coulomb::Cutoff,
            Coulomb::ReactionField { eps_rf: 78.0 },
            Coulomb::EwaldShort { beta: 3.12 },
        ]
    }

    /// `half_list_bits` of every `pin_systems` x `pin_coulombs` case,
    /// recorded from the scalar walk the lanes replaced.
    const HALF_LIST_PINS: [[[u64; 2]; 4]; 3] = [
        [
            [0x4cbf222e77ebf641, 0xaac2942718355c56],
            [0xf1c521af773078d9, 0x656f5067d3328eea],
            [0xc56d592a15161e82, 0x33f7bcfcb122e00d],
            [0x7d44b7804a731c6d, 0xdb20818fde064a4d],
        ],
        [
            [0x181a5f6baf9a1b92, 0xe2381a5aabe8050c],
            [0x80443e8fdb1f67a1, 0xd93098cad4910f54],
            [0x57ea597cdf38cdd7, 0xb7841947ea722827],
            [0x23278f53dd843f1b, 0xc39e4be21861ad52],
        ],
        [
            [0x3ca744e61cc30b46, 0x081228b3dc867eff],
            [0x4e8d3065d2baf122, 0x778203281c488b6f],
            [0x58278d70ee14e1ce, 0xb50f06d1095fd432],
            [0x28734f1aaf8e65a3, 0x22c5184f6d099e18],
        ],
    ];

    fn half_list_keeps_its_bits<L: Lanes8>(isa: L::Isa) {
        for ((name, sys, r_cut), pins) in pin_systems().into_iter().zip(HALF_LIST_PINS) {
            let list = PairList::build(&sys, r_cut * 1.1, ListKind::Half);
            let slots = &list.clustering.slots;
            assert!(slots.contains(&FILLER), "{name}: no filler slot");
            for (coulomb, pin) in pin_coulombs().into_iter().zip(pins) {
                let params = NbParams { r_cut, coulomb };
                let mut lanes = sys.clone();
                let en = half_lanes::<L>(isa, &mut lanes, &list, &params);
                let what = format!("{} {name} {coulomb:?}", L::NAME);
                assert_eq!(half_list_bits(&lanes, &en), pin, "{what}");
                let mut detected = sys.clone();
                let en = compute_forces_half(&mut detected, &list, &params);
                assert_eq!(
                    half_list_bits(&detected, &en),
                    pin,
                    "detected lanes, {what}"
                );
            }
        }
    }

    #[test]
    fn half_list_forces_and_energies_keep_their_bits_on_every_lane_implementation() {
        for_each_lanes8!(half_list_keeps_its_bits);
    }

    #[test]
    fn the_walk_keeps_its_bits_at_every_thread_count() {
        // `half_list_bits` recorded from the one-thread walk the threaded
        // one replaced: the 1334-water box of the md benchmarks and the
        // steepest descent's list (`rlist = 1.1 r_cut`, 270 chunks).
        let pins = [
            (
                Coulomb::ReactionField { eps_rf: 78.0 },
                [0x5a1e42b82f94a3da, 0x72863b62c21e701a],
            ),
            (
                Coulomb::EwaldShort { beta: 3.12 },
                [0xf462d90c3bb17aa4, 0xca063618a31633b6],
            ),
        ];
        let sys = water_box(1334, 300.0, 1);
        let list = PairList::build(&sys, 0.99, ListKind::Half);
        for host in Host::every() {
            let masks = list.interaction_masks(&sys);
            for (coulomb, pin) in pins {
                let params = NbParams {
                    r_cut: 0.9,
                    coulomb,
                };
                let mut walked = sys.clone();
                let en = forces_half(host, &mut walked, &list, &masks, &params);
                assert_eq!(half_list_bits(&walked, &en), pin, "{host:?} {coulomb:?}");
            }
        }
    }

    #[test]
    fn the_shifted_pin_has_pairs_whole_periods_apart() {
        // Lanes `min_image8` redoes with the scalar form: |dx| >= 1.5 box edges.
        let [_, _, (_, sys, r_cut)] = pin_systems();
        let list = PairList::build(&sys, r_cut * 1.1, ListKind::Half);
        let lx = sys.pbc.lengths().x;
        let far = (0..list.n_clusters()).any(|ci| {
            list.neighbors_of(ci).iter().any(|&cj| {
                let mj = list.clustering.members(cj as usize);
                list.clustering.members(ci).iter().any(|&a| {
                    mj.iter().any(|&b| {
                        a != FILLER
                            && b != FILLER
                            && (sys.pos[a as usize].x - sys.pos[b as usize].x).abs() >= 1.5 * lx
                    })
                })
            })
        });
        assert!(far);
    }

    #[test]
    fn newtons_third_law_zero_net_force() {
        let mut s = water_box(30, 300.0, 4);
        let list = PairList::build(&s, 1.0, ListKind::Half);
        compute_forces_half(&mut s, &list, &params_rf());
        let net: Vec3 = s.force.iter().fold(Vec3::ZERO, |acc, f| acc + *f);
        // RF has no discontinuity correction; net force is conserved by
        // construction of pairwise forces.
        assert!(net.norm() < 1e-1, "net force {net:?}");
    }

    #[test]
    fn lj_minimum_at_sigma_times_2_pow_sixth() {
        // For a single LJ pair the force flips sign at r = 2^(1/6) sigma.
        let c6 = 4.0f32;
        let c12 = 4.0f32; // sigma = 1, eps = 1 in these units
        let r_min = 2.0f32.powf(1.0 / 6.0);
        let params = NbParams {
            r_cut: 3.0,
            coulomb: Coulomb::None,
        };
        let (f_below, ..) = pair_interaction((r_min * 0.99).powi(2), c6, c12, 0.0, &params);
        let (f_above, ..) = pair_interaction((r_min * 1.01).powi(2), c6, c12, 0.0, &params);
        assert!(f_below > 0.0, "repulsive below minimum");
        assert!(f_above < 0.0, "attractive above minimum");
        let (f_at, e_at, _) = pair_interaction(r_min * r_min, c6, c12, 0.0, &params);
        assert!(f_at.abs() < 1e-4);
        assert!((e_at - (-1.0)).abs() < 1e-5, "well depth");
    }

    #[test]
    fn ewald_short_decays_faster_than_cutoff() {
        let params_cut = NbParams {
            r_cut: 2.0,
            coulomb: Coulomb::Cutoff,
        };
        let params_ew = NbParams {
            r_cut: 2.0,
            coulomb: Coulomb::EwaldShort { beta: 3.0 },
        };
        let (_, _, e_cut) = pair_interaction(1.0, 0.0, 0.0, 1.0, &params_cut);
        let (_, _, e_ew) = pair_interaction(1.0, 0.0, 0.0, 1.0, &params_ew);
        assert!(e_ew.abs() < 0.05 * e_cut.abs());
    }

    #[test]
    fn exclusions_suppress_intramolecular_pairs() {
        let mut s = water_box(5, 300.0, 2);
        let params = params_rf();
        let brute = compute_forces_brute(&mut s, &params);
        // 5 molecules, 15 atoms: all O-H/H-H pairs inside a molecule are
        // excluded, so pair count only covers intermolecular pairs.
        let n_excluded_possible = 5 * 3;
        let all_pairs = 15 * 14 / 2;
        assert!(brute.pairs_within_cutoff <= (all_pairs - n_excluded_possible) as u64);
    }

    #[test]
    fn forces_are_gradient_of_energy() {
        // Central-difference check on one particle of a small system.
        let params = params_rf();
        let mut s = water_box(10, 300.0, 77);
        let list = PairList::build(&s, 1.0, ListKind::Half);
        s.clear_forces();
        compute_forces_half(&mut s, &list, &params);
        let f_analytic = s.force[0];
        let h = 2e-4f32;
        let energy_at = |dx: f32| {
            let mut t = s.clone();
            t.pos[0].x += dx;
            t.clear_forces();
            // Rebuild list to be safe (displacement is tiny).
            let l = PairList::build(&t, 1.0, ListKind::Half);
            compute_forces_half(&mut t, &l, &params).total()
        };
        let de = (energy_at(h) - energy_at(-h)) / (2.0 * h as f64);
        let f_numeric = -de as f32;
        let denom = f_analytic.x.abs().max(1.0);
        assert!(
            (f_analytic.x - f_numeric).abs() / denom < 0.08,
            "analytic {} vs numeric {}",
            f_analytic.x,
            f_numeric
        );
    }

    /// Every lane of `pair_interaction8` is the scalar `pair_interaction`'s
    /// bits without Ewald, and on the lanes it computes in Ewald's exact
    /// form: charges `±0` beside nonzero ones, hydrogen rows (`c6 = c12
    /// = 0`) and `r2` one ulp below `rc²` included.
    fn pair_interaction8_is_the_scalar_form_bit_for_bit<L: Lanes8>(isa: L::Isa) {
        let r_cut = 1.0f32;
        let below_rc2 = f32::from_bits((r_cut * r_cut).to_bits() - 1);
        let r2 = [0.05, 0.1, 0.27, 0.5, 0.73, 0.9, 0.99, below_rc2];
        let qq = [0.0, -0.0, -0.3362, 0.1681, 0.6724, -0.0, 1e-30, 0.0];
        let active = 0b1011_0111;
        let coulombs = [
            Coulomb::None,
            Coulomb::Cutoff,
            Coulomb::ReactionField { eps_rf: 78.0 },
            Coulomb::EwaldShort { beta: 3.12 },
        ];
        for coulomb in coulombs {
            let params = NbParams { r_cut, coulomb };
            for (c6, c12) in [(2.6e-3, 2.6e-6), (0.0, 0.0)] {
                for turn in 0..LANES {
                    let qq: [f32; LANES] = std::array::from_fn(|k| qq[(k + turn) % LANES]);
                    let (f8, e8, c8) = pair_interaction8(
                        isa,
                        L::from_array(isa, r2),
                        L::splat(isa, c6),
                        L::splat(isa, c12),
                        L::from_array(isa, qq),
                        &params,
                        EwaldForm::Exact { active },
                    );
                    let got = [f8, e8, c8].map(|v| v.to_array().map(f32::to_bits));
                    for k in 0..LANES {
                        let (f, e_lj, e_coul) = pair_interaction(r2[k], c6, c12, qq[k], &params);
                        let ewald_idle =
                            matches!(coulomb, Coulomb::EwaldShort { .. }) && active & (1 << k) == 0;
                        let want = if ewald_idle {
                            [0.0; 3]
                        } else {
                            [f, e_lj, e_coul]
                        };
                        let what =
                            format!("{} {coulomb:?} c6 {c6} qq {} r2 {}", L::NAME, qq[k], r2[k]);
                        assert_eq!(
                            [got[0][k], got[1][k], got[2][k]],
                            want.map(f32::to_bits),
                            "{what}"
                        );
                    }
                }
            }
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
                &params,
                EwaldForm::Fast { lj_active: true },
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
    fn pair_interaction8_holds_on_every_lane_implementation() {
        for_each_lanes8!(pair_interaction8_is_the_scalar_form_bit_for_bit);
        for_each_lanes8!(pair_interaction8_lane_matches_scalar_within_bounds);
    }
}
