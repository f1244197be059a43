//! Direct Ewald summation — the lattice-sum reference (paper §2.1 cites
//! Ewald \[12\] as the accuracy baseline PME approximates).
//!
//! Exact (to the k-space cutoff) but O(N * kmax^3); used to validate the
//! PME implementation and for small-system accuracy experiments.

use crate::math::{erf, erfc};
use crate::system::System;
use crate::topology::KE;
use crate::vec3::Vec3;

/// Ewald parameters.
#[derive(Debug, Clone, Copy)]
pub struct EwaldParams {
    /// Splitting parameter beta, nm^-1.
    pub beta: f64,
    /// Real-space cutoff, nm.
    pub r_cut: f32,
    /// Reciprocal-space cutoff: include |n| <= kmax per axis.
    pub kmax: i32,
}

/// Energy components of a full Ewald evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EwaldEnergies {
    /// Real-space (erfc-screened) sum.
    pub real: f64,
    /// Reciprocal-space sum.
    pub recip: f64,
    /// Self-interaction correction (negative).
    pub self_term: f64,
    /// Excluded intramolecular pair correction.
    pub excluded: f64,
}

impl EwaldEnergies {
    /// Total electrostatic energy.
    pub fn total(&self) -> f64 {
        self.real + self.recip + self.self_term + self.excluded
    }
}

/// Compute the full Ewald electrostatic energy and accumulate forces into
/// `sys.force`. LJ is *not* included; combine with the nonbonded kernel
/// configured for `Coulomb::None` if both are wanted from one pass.
pub fn ewald_full(sys: &mut System, params: &EwaldParams) -> EwaldEnergies {
    let mut en = EwaldEnergies {
        real: real_space(sys, params),
        recip: recip_space(sys, params),
        self_term: self_energy(sys, params),
        excluded: 0.0,
    };
    en.excluded = excluded_correction(sys, params);
    en
}

/// Real-space sum over non-excluded pairs within the cutoff.
fn real_space(sys: &mut System, params: &EwaldParams) -> f64 {
    let rc2 = params.r_cut * params.r_cut;
    let beta = params.beta;
    let mut e = 0.0f64;
    let n = sys.n();
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
            let r = (r2 as f64).sqrt();
            let qq = (sys.charge[i] * sys.charge[j]) as f64;
            let br = beta * r;
            let erfc_br = erfc(br);
            e += KE * qq * erfc_br / r;
            let f_over_r = KE
                * qq
                * (erfc_br / r + 2.0 * beta / std::f64::consts::PI.sqrt() * (-br * br).exp())
                / r2 as f64;
            let f = d * f_over_r as f32;
            sys.force[i] += f;
            sys.force[j] -= f;
        }
    }
    e
}

/// Reciprocal-space sum over k vectors with `|n_axis| <= kmax`.
pub fn recip_space(sys: &mut System, params: &EwaldParams) -> f64 {
    let l = sys.pbc.lengths();
    let volume = sys.pbc.volume();
    let beta = params.beta;
    let kmax = params.kmax;
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut energy = 0.0f64;

    let n = sys.n();
    for nx in -kmax..=kmax {
        for ny in -kmax..=kmax {
            for nz in -kmax..=kmax {
                if nx == 0 && ny == 0 && nz == 0 {
                    continue;
                }
                let k = [
                    two_pi * nx as f64 / l.x as f64,
                    two_pi * ny as f64 / l.y as f64,
                    two_pi * nz as f64 / l.z as f64,
                ];
                let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
                let a = (-k2 / (4.0 * beta * beta)).exp() / k2;
                if a < 1e-12 {
                    continue;
                }
                // Structure factor S(k) = sum q_i e^{i k.r}.
                let mut s_re = 0.0f64;
                let mut s_im = 0.0f64;
                let mut phases = Vec::with_capacity(n);
                for i in 0..n {
                    let phase = k[0] * sys.pos[i].x as f64
                        + k[1] * sys.pos[i].y as f64
                        + k[2] * sys.pos[i].z as f64;
                    let (sin_p, cos_p) = phase.sin_cos();
                    let q = sys.charge[i] as f64;
                    s_re += q * cos_p;
                    s_im += q * sin_p;
                    phases.push((sin_p, cos_p));
                }
                let s2 = s_re * s_re + s_im * s_im;
                let prefac = 2.0 * std::f64::consts::PI * KE / volume;
                energy += prefac * a * s2;
                // Forces: F_i = (4 pi KE / V) q_i A(k) k Im[conj(S) e^{ik.r_i}].
                let fpref = 2.0 * prefac * a;
                #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
                for i in 0..n {
                    let (sin_p, cos_p) = phases[i];
                    let q = sys.charge[i] as f64;
                    // Im[conj(S) e^{i phase}] = s_re sin - s_im cos.
                    let im = s_re * sin_p - s_im * cos_p;
                    let scale = fpref * q * im;
                    sys.force[i] += Vec3 {
                        x: (scale * k[0]) as f32,
                        y: (scale * k[1]) as f32,
                        z: (scale * k[2]) as f32,
                    };
                }
            }
        }
    }
    energy
}

/// Self-energy correction `-KE beta/sqrt(pi) sum q_i^2`.
pub fn self_energy(sys: &System, params: &EwaldParams) -> f64 {
    let q2: f64 = sys.charge.iter().map(|&q| (q as f64) * (q as f64)).sum();
    -KE * params.beta / std::f64::consts::PI.sqrt() * q2
}

/// Correction removing the erf-screened interaction of excluded pairs
/// that the reciprocal sum wrongly includes.
pub fn excluded_correction(sys: &mut System, params: &EwaldParams) -> f64 {
    let beta = params.beta;
    let mut e = 0.0f64;
    let n = sys.n();
    for i in 0..n {
        for &j32 in &sys.exclusions[i].clone() {
            let j = j32 as usize;
            if j <= i {
                continue;
            }
            let d = sys.pbc.min_image(sys.pos[i], sys.pos[j]);
            let r2 = d.norm2() as f64;
            if r2 == 0.0 {
                continue;
            }
            let r = r2.sqrt();
            let qq = (sys.charge[i] * sys.charge[j]) as f64;
            let br = beta * r;
            let erf_br = erf(br);
            e -= KE * qq * erf_br / r;
            // F_i of -erf term: remove the erf-part force.
            let f_over_r = -KE
                * qq
                * (erf_br / r - 2.0 * beta / std::f64::consts::PI.sqrt() * (-br * br).exp())
                / r2;
            let f = d * f_over_r as f32;
            sys.force[i] += f;
            sys.force[j] -= f;
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbc::PbcBox;
    use crate::system::System;
    use crate::topology::{AtomType, MoleculeKind, Topology};
    use crate::vec3::vec3;

    /// Build a 2x2x2-cell NaCl rock-salt lattice with unit charges.
    fn nacl(cells: usize, spacing: f32) -> System {
        let na = AtomType {
            name: "Na",
            mass: 22.99,
            charge: 1.0,
            sigma: 0.0,
            epsilon: 0.0,
        };
        let cl = AtomType {
            name: "Cl",
            mass: 35.45,
            charge: -1.0,
            sigma: 0.0,
            epsilon: 0.0,
        };
        let n_sites = (2 * cells).pow(3);
        let kind_na = MoleculeKind {
            name: "Na+".into(),
            atom_types: vec![0],
            bonds: vec![],
            angles: vec![],
            dihedrals: vec![],
            exclusions: vec![],
        };
        let kind_cl = MoleculeKind {
            name: "Cl-".into(),
            atom_types: vec![1],
            bonds: vec![],
            angles: vec![],
            dihedrals: vec![],
            exclusions: vec![],
        };
        // Interleave ions in checkerboard order along the lattice walk:
        // blocks don't matter for positions, so count them and assign
        // types by parity below via a custom ordering.
        let mut pos_na = Vec::new();
        let mut pos_cl = Vec::new();
        let edge = 2 * cells;
        for ix in 0..edge {
            for iy in 0..edge {
                for iz in 0..edge {
                    let p = vec3(
                        ix as f32 * spacing + 0.25 * spacing,
                        iy as f32 * spacing + 0.25 * spacing,
                        iz as f32 * spacing + 0.25 * spacing,
                    );
                    if (ix + iy + iz) % 2 == 0 {
                        pos_na.push(p);
                    } else {
                        pos_cl.push(p);
                    }
                }
            }
        }
        assert_eq!(pos_na.len() + pos_cl.len(), n_sites);
        let top = Topology::new(
            vec![na, cl],
            vec![kind_na, kind_cl],
            vec![(0, pos_na.len()), (1, pos_cl.len())],
        );
        let mut pos = pos_na;
        pos.extend(pos_cl);
        let l = edge as f32 * spacing;
        System::from_topology(top, PbcBox::cubic(l), pos)
    }

    #[test]
    fn madelung_constant_of_rock_salt() {
        let spacing = 0.3f32; // nearest-neighbor distance, nm
        let mut sys = nacl(2, spacing);
        let params = EwaldParams {
            beta: 12.0,
            r_cut: sys.pbc.max_cutoff() * 0.99,
            kmax: 10,
        };
        let en = ewald_full(&mut sys, &params);
        let n_ions = sys.n() as f64;
        // Lattice energy per ion *pair* is -M KE q^2 / a with Madelung
        // M = 1.747565; per ion it is half that.
        let e_per_ion = en.total() / n_ions;
        let madelung = -2.0 * e_per_ion * spacing as f64 / KE;
        assert!(
            (madelung - 1.747_565).abs() < 0.01,
            "Madelung constant {madelung}"
        );
    }

    #[test]
    fn energy_independent_of_beta() {
        let mut a = nacl(1, 0.33);
        let mut b = a.clone();
        let pa = EwaldParams {
            beta: 9.0,
            r_cut: a.pbc.max_cutoff() * 0.99,
            kmax: 10,
        };
        let pb = EwaldParams {
            beta: 13.0,
            r_cut: a.pbc.max_cutoff() * 0.99,
            kmax: 14,
        };
        let ea = ewald_full(&mut a, &pa).total();
        let eb = ewald_full(&mut b, &pb).total();
        assert!((ea - eb).abs() / ea.abs() < 1e-3, "{ea} vs {eb}");
    }

    #[test]
    fn forces_vanish_on_perfect_lattice() {
        let mut sys = nacl(1, 0.3);
        let params = EwaldParams {
            beta: 12.0,
            r_cut: sys.pbc.max_cutoff() * 0.99,
            kmax: 8,
        };
        ewald_full(&mut sys, &params);
        let fmax = sys.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        // By symmetry every ion sits at a force-free point.
        assert!(fmax < 5.0, "max lattice force {fmax}");
    }

    #[test]
    fn force_matches_numerical_gradient() {
        let mut sys = nacl(1, 0.31);
        // Displace one ion off its site so it feels a force.
        sys.pos[0].x += 0.04;
        let params = EwaldParams {
            beta: 10.0,
            r_cut: sys.pbc.max_cutoff() * 0.99,
            kmax: 8,
        };
        let mut s0 = sys.clone();
        ewald_full(&mut s0, &params);
        let f_analytic = s0.force[0].x as f64;
        let h = 1e-3f32;
        let e_at = |dx: f32| {
            let mut t = sys.clone();
            t.pos[0].x += dx;
            ewald_full(&mut t, &params).total()
        };
        let f_numeric = -(e_at(h) - e_at(-h)) / (2.0 * h as f64);
        assert!(
            (f_analytic - f_numeric).abs() / f_numeric.abs().max(1.0) < 0.02,
            "analytic {f_analytic} numeric {f_numeric}"
        );
    }

    #[test]
    fn water_exclusion_correction_is_negative_of_erf_part() {
        use crate::water::water_box;
        let mut sys = water_box(5, 300.0, 3);
        let params = EwaldParams {
            beta: 3.0,
            r_cut: 0.9,
            kmax: 6,
        };
        let e = excluded_correction(&mut sys, &params);
        // O-H pairs have negative qq -> -erf correction is positive.
        assert!(e > 0.0);
    }
}
