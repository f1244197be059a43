//! Reference (scalar, host-side) non-bonded kernels.
//!
//! These implement the paper's Eq. 1/2 Lennard-Jones interaction plus a
//! Coulomb term, walked over the cluster pair list exactly as Algorithm 1
//! (half list, both particles updated) or Algorithm 2 (full list, outer
//! particle only — the RCA baseline). Every optimized kernel in `swgmx`
//! is validated against these functions.

use crate::cluster::FILLER;
use crate::math::erfc_f32;
use crate::pairlist::{ListKind, PairList};
use crate::system::System;
use crate::topology::KE;
use crate::vec3::Vec3;

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
                let rc = params.r_cut;
                let k_rf = (eps_rf - 1.0) / (2.0 * eps_rf + 1.0) / (rc * rc * rc);
                let c_rf = 1.0 / rc + k_rf * rc * rc;
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

/// Algorithm 1: walk a **half** list, updating both particles of each
/// pair. Forces are accumulated into `sys.force`; energies returned.
pub fn compute_forces_half(sys: &mut System, list: &PairList, params: &NbParams) -> NbEnergies {
    assert_eq!(list.kind, ListKind::Half);
    let rc2 = params.r_cut * params.r_cut;
    let mut en = NbEnergies::default();
    let n_types = sys.topology.n_types();
    let c6t = sys.topology.c6_table().to_vec();
    let c12t = sys.topology.c12_table().to_vec();
    for ci in 0..list.n_clusters() {
        for &cj in list.neighbors_of(ci) {
            let cj = cj as usize;
            let same = cj == ci;
            let mi: [u32; 4] = list.clustering.members(ci).try_into().unwrap();
            let mj: [u32; 4] = list.clustering.members(cj).try_into().unwrap();
            for (ai, &a) in mi.iter().enumerate() {
                if a == FILLER {
                    continue;
                }
                let a = a as usize;
                let pa = sys.pos[a];
                let mut fa = Vec3::ZERO;
                for (bj, &b) in mj.iter().enumerate() {
                    if b == FILLER {
                        continue;
                    }
                    // In the self pair, take each unordered pair once.
                    if same && bj <= ai {
                        continue;
                    }
                    let b = b as usize;
                    if sys.is_excluded(a, b) {
                        continue;
                    }
                    let d = sys.pbc.min_image(pa, sys.pos[b]);
                    let r2 = d.norm2();
                    if r2 >= rc2 || r2 == 0.0 {
                        continue;
                    }
                    let (c6, c12) = (
                        c6t[sys.type_id[a] * n_types + sys.type_id[b]],
                        c12t[sys.type_id[a] * n_types + sys.type_id[b]],
                    );
                    let qq = sys.charge[a] * sys.charge[b];
                    let (f_over_r, e_lj, e_coul) = pair_interaction(r2, c6, c12, qq, params);
                    let f = d * f_over_r;
                    fa += f;
                    sys.force[b] -= f;
                    en.lj += e_lj as f64;
                    en.coulomb += e_coul as f64;
                    en.virial += (f_over_r * r2) as f64;
                    en.pairs_within_cutoff += 1;
                }
                sys.force[a] += fa;
            }
        }
    }
    en
}

/// Algorithm 2 (RCA): walk a **full** list, updating only the outer
/// particle. Every interaction is computed twice; energies are halved so
/// totals match the half-list kernel.
pub fn compute_forces_full(sys: &mut System, list: &PairList, params: &NbParams) -> NbEnergies {
    assert_eq!(list.kind, ListKind::Full);
    let rc2 = params.r_cut * params.r_cut;
    let mut en = NbEnergies::default();
    let n_types = sys.topology.n_types();
    let c6t = sys.topology.c6_table().to_vec();
    let c12t = sys.topology.c12_table().to_vec();
    for ci in 0..list.n_clusters() {
        for &cj in list.neighbors_of(ci) {
            let cj = cj as usize;
            let mi: [u32; 4] = list.clustering.members(ci).try_into().unwrap();
            let mj: [u32; 4] = list.clustering.members(cj).try_into().unwrap();
            for &a in &mi {
                if a == FILLER {
                    continue;
                }
                let a = a as usize;
                let pa = sys.pos[a];
                let mut fa = Vec3::ZERO;
                for &b in &mj {
                    if b == FILLER || b as usize == a {
                        continue;
                    }
                    let b = b as usize;
                    if sys.is_excluded(a, b) {
                        continue;
                    }
                    let d = sys.pbc.min_image(pa, sys.pos[b]);
                    let r2 = d.norm2();
                    if r2 >= rc2 || r2 == 0.0 {
                        continue;
                    }
                    let (c6, c12) = (
                        c6t[sys.type_id[a] * n_types + sys.type_id[b]],
                        c12t[sys.type_id[a] * n_types + sys.type_id[b]],
                    );
                    let qq = sys.charge[a] * sys.charge[b];
                    let (f_over_r, e_lj, e_coul) = pair_interaction(r2, c6, c12, qq, params);
                    fa += d * f_over_r;
                    en.lj += 0.5 * e_lj as f64;
                    en.coulomb += 0.5 * e_coul as f64;
                    en.virial += 0.5 * (f_over_r * r2) as f64;
                    en.pairs_within_cutoff += 1;
                }
                sys.force[a] += fa;
            }
        }
    }
    en
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
    use crate::water::water_box;

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

    #[test]
    fn full_list_matches_half_list() {
        let mut a = water_box(40, 300.0, 33);
        let mut b = a.clone();
        let params = params_rf();
        let half = PairList::build(&a, 1.0, ListKind::Half);
        let full = PairList::build(&b, 1.0, ListKind::Full);
        let ea = compute_forces_half(&mut a, &half, &params);
        let eb = compute_forces_full(&mut b, &full, &params);
        // RCA computes each interaction twice.
        assert_eq!(eb.pairs_within_cutoff, 2 * ea.pairs_within_cutoff);
        assert!((ea.total() - eb.total()).abs() < 1e-6 * ea.total().abs().max(1.0));
        let fmax = a.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        assert!(max_force_diff(&a.force, &b.force) / fmax < 1e-4);
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
}
