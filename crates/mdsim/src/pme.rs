//! Smooth Particle-Mesh Ewald (Essmann et al. \[10\]) on the hand-written
//! FFT — the long-range electrostatics solver the paper's benchmark uses
//! (`coulombtype = PME`, Table 3).
//!
//! Pipeline per evaluation:
//! 1. spread charges to a `K^3` grid with cardinal B-splines (order 4),
//! 2. forward 3-D FFT,
//! 3. multiply by the influence function
//!    `C(m) ∝ exp(-k²/4β²)/k² · |b1 b2 b3|²`,
//! 4. inverse FFT → real-space potential grid,
//! 5. energy = ½ Σ Q·φ, forces from B-spline derivatives.
//!
//! Combine with the real-space `Coulomb::EwaldShort` kernel, the self
//! term, and the excluded-pair correction (both borrowed from the direct
//! Ewald module) for total electrostatics. Validated against direct
//! Ewald in the tests.

use crate::ewald::{excluded_correction, self_energy, EwaldParams};
use crate::fft::{Complex, Grid3};
use crate::system::System;
use crate::topology::KE;
use crate::vec3::Vec3;

/// B-spline interpolation order (GROMACS default: 4).
pub const SPLINE_ORDER: usize = 4;

/// PME configuration.
#[derive(Debug, Clone, Copy)]
pub struct PmeParams {
    /// Ewald splitting parameter beta, nm^-1 (must match the real-space
    /// kernel's `Coulomb::EwaldShort { beta }`).
    pub beta: f64,
    /// Grid points per axis (power of two).
    pub grid: [usize; 3],
}

/// Reusable PME workspace (grid allocation + spline moduli).
#[derive(Debug, Clone)]
pub struct Pme {
    params: PmeParams,
    /// `|b(m)|^2` per axis.
    bsp_mod: [Vec<f64>; 3],
}

impl Pme {
    /// Build a PME solver for the given parameters.
    pub fn new(params: PmeParams) -> Self {
        let bsp_mod = [
            bspline_moduli(params.grid[0]),
            bspline_moduli(params.grid[1]),
            bspline_moduli(params.grid[2]),
        ];
        Self { params, bsp_mod }
    }

    /// Configured parameters.
    pub fn params(&self) -> &PmeParams {
        &self.params
    }

    /// Reciprocal-space energy; forces accumulate into `sys.force`.
    fn recip_energy(&self, sys: &mut System) -> f64 {
        let dims = self.params.grid;
        let l = sys.pbc.lengths();
        let volume = sys.pbc.volume();
        let n_total = (dims[0] * dims[1] * dims[2]) as f64;

        // 1. Spread charges.
        let mut grid = Grid3::new(dims);
        let splines: Vec<AtomSplines> = (0..sys.n())
            .map(|i| AtomSplines::new(sys.pos[i], l, dims))
            .collect();
        for (i, sp) in splines.iter().enumerate() {
            let q = sys.charge[i] as f64;
            if q == 0.0 {
                continue;
            }
            sp.for_points(dims, |gx, gy, gz, w, _dwx, _dwy, _dwz| {
                let id = grid.idx(gx, gy, gz);
                grid.data[id].re += q * w;
            });
        }

        // 2-3. FFT and influence function.
        grid.fft3();
        let two_pi = 2.0 * std::f64::consts::PI;
        let beta = self.params.beta;
        let mut energy = 0.0f64;
        for mx in 0..dims[0] {
            let kx = freq(mx, dims[0]) * two_pi / l.x as f64;
            for my in 0..dims[1] {
                let ky = freq(my, dims[1]) * two_pi / l.y as f64;
                for mz in 0..dims[2] {
                    let id = grid.idx(mx, my, mz);
                    if mx == 0 && my == 0 && mz == 0 {
                        grid.data[id] = Complex::ZERO;
                        continue;
                    }
                    let kz = freq(mz, dims[2]) * two_pi / l.z as f64;
                    let k2 = kx * kx + ky * ky + kz * kz;
                    let b2 = self.bsp_mod[0][mx] * self.bsp_mod[1][my] * self.bsp_mod[2][mz];
                    if b2 < 1e-10 {
                        grid.data[id] = Complex::ZERO;
                        continue;
                    }
                    let a = (-k2 / (4.0 * beta * beta)).exp() / k2;
                    // Q^hat includes the spline smearing; S(k) ~ b(m) Q^hat
                    // with |b(m)|^2 = b2, so |S|^2 = b2 |Q^hat|^2.
                    let q2 = grid.data[id].norm2();
                    let prefac = 2.0 * std::f64::consts::PI * KE / volume;
                    energy += prefac * a * q2 * b2;
                    // Potential grid: phi^hat = C(m) Q^hat with
                    // C = N * (4 pi KE / V) A |b|^2 (N compensates the
                    // normalized inverse FFT).
                    let c = n_total * 2.0 * prefac * a * b2;
                    grid.data[id] = grid.data[id].scale(c);
                }
            }
        }

        // 4. Back to real space.
        grid.ifft3();

        // 5. Gather forces.
        for (i, sp) in splines.iter().enumerate() {
            let q = sys.charge[i] as f64;
            if q == 0.0 {
                continue;
            }
            let mut f = [0.0f64; 3];
            sp.for_points(dims, |gx, gy, gz, _w, dwx, dwy, dwz| {
                let phi = grid.data[grid.idx(gx, gy, gz)].re;
                f[0] -= q * dwx * phi;
                f[1] -= q * dwy * phi;
                f[2] -= q * dwz * phi;
            });
            sys.force[i] += Vec3 {
                x: f[0] as f32,
                y: f[1] as f32,
                z: f[2] as f32,
            };
        }
        energy
    }

    /// Full long-range contribution: reciprocal energy + self term +
    /// excluded-pair correction (forces included).
    pub fn long_range(&self, sys: &mut System) -> f64 {
        let recip = self.recip_energy(sys);
        let ew = EwaldParams {
            beta: self.params.beta,
            r_cut: 0.0, // unused by these two terms
            kmax: 0,
        };
        let self_e = self_energy(sys, &ew);
        let excl = excluded_correction(sys, &ew);
        recip + self_e + excl
    }
}

/// Signed frequency index of FFT bin `m` out of `n`.
#[inline]
fn freq(m: usize, n: usize) -> f64 {
    if m <= n / 2 {
        m as f64
    } else {
        m as f64 - n as f64
    }
}

/// Cardinal B-spline `M_p(u)` of order `p` (support `[0, p]`), evaluated
/// recursively.
fn bspline(p: usize, u: f64) -> f64 {
    if u < 0.0 || u >= p as f64 {
        return 0.0;
    }
    if p == 1 {
        return 1.0; // box on [0,1)
    }
    let pm1 = (p - 1) as f64;
    (u / pm1) * bspline(p - 1, u) + ((p as f64 - u) / pm1) * bspline(p - 1, u - 1.0)
}

/// Derivative `M_p'(u) = M_{p-1}(u) - M_{p-1}(u-1)`.
fn bspline_deriv(p: usize, u: f64) -> f64 {
    bspline(p - 1, u) - bspline(p - 1, u - 1.0)
}

/// `|b(m)|^2` factors of the SPME influence function for one axis.
fn bspline_moduli(n: usize) -> Vec<f64> {
    let p = SPLINE_ORDER;
    (0..n)
        .map(|m| {
            let mut re = 0.0;
            let mut im = 0.0;
            for k in 0..(p - 1) {
                let w = 2.0 * std::f64::consts::PI * m as f64 * k as f64 / n as f64;
                let mk = bspline(p, (k + 1) as f64);
                re += mk * w.cos();
                im += mk * w.sin();
            }
            let denom = re * re + im * im;
            if denom < 1e-10 {
                0.0
            } else {
                1.0 / denom
            }
        })
        .collect()
}

/// Per-atom spline weights and derivatives for the 4^3 affected points.
struct AtomSplines {
    base: [isize; 3],
    w: [[f64; SPLINE_ORDER]; 3],
    dw: [[f64; SPLINE_ORDER]; 3],
    /// Grid spacing reciprocal (points per nm), for derivative scaling.
    scale: [f64; 3],
}

impl AtomSplines {
    fn new(pos: Vec3, lengths: Vec3, dims: [usize; 3]) -> Self {
        let p = SPLINE_ORDER;
        let mut base = [0isize; 3];
        let mut w = [[0.0; SPLINE_ORDER]; 3];
        let mut dw = [[0.0; SPLINE_ORDER]; 3];
        let mut scale = [0.0; 3];
        let pos_arr = pos.to_array();
        let len_arr = lengths.to_array();
        for axis in 0..3 {
            let k = dims[axis] as f64;
            // Fractional coordinate in grid units, wrapped to [0, K).
            let mut u = pos_arr[axis] as f64 / len_arr[axis] as f64 * k;
            u -= (u / k).floor() * k;
            let u0 = u.floor() as isize;
            base[axis] = u0 - (p as isize - 1);
            scale[axis] = k / len_arr[axis] as f64;
            for j in 0..p {
                // Grid point g = base + j; spline argument u - g in (0, p).
                let arg = u - (base[axis] + j as isize) as f64;
                w[axis][j] = bspline(p, arg);
                // d/dx = -dM/du * (K/L): moving the atom +x shifts arg +.
                dw[axis][j] = bspline_deriv(p, arg) * scale[axis];
            }
        }
        Self { base, w, dw, scale }
    }

    /// Visit the `p^3` grid points with `(gx, gy, gz, w, dw_x, dw_y, dw_z)`.
    fn for_points(
        &self,
        dims: [usize; 3],
        mut f: impl FnMut(usize, usize, usize, f64, f64, f64, f64),
    ) {
        let wrap = |v: isize, n: usize| -> usize { v.rem_euclid(n as isize) as usize };
        for jx in 0..SPLINE_ORDER {
            let gx = wrap(self.base[0] + jx as isize, dims[0]);
            for jy in 0..SPLINE_ORDER {
                let gy = wrap(self.base[1] + jy as isize, dims[1]);
                for jz in 0..SPLINE_ORDER {
                    let gz = wrap(self.base[2] + jz as isize, dims[2]);
                    let w = self.w[0][jx] * self.w[1][jy] * self.w[2][jz];
                    let dwx = self.dw[0][jx] * self.w[1][jy] * self.w[2][jz];
                    let dwy = self.w[0][jx] * self.dw[1][jy] * self.w[2][jz];
                    let dwz = self.w[0][jx] * self.w[1][jy] * self.dw[2][jz];
                    f(gx, gy, gz, w, dwx, dwy, dwz);
                }
            }
        }
        let _ = self.scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::{ewald_full, EwaldParams};
    use crate::water::water_box;

    #[test]
    fn bspline_partition_of_unity() {
        // Sum of M_p over integer-shifted arguments is 1 for any u.
        for frac in [0.0, 0.25, 0.5, 0.73] {
            let mut sum = 0.0;
            for j in 0..SPLINE_ORDER {
                sum += bspline(SPLINE_ORDER, frac + j as f64);
            }
            assert!((sum - 1.0).abs() < 1e-12, "u={frac}: {sum}");
        }
    }

    #[test]
    fn bspline_symmetry_and_peak() {
        // M_4 is symmetric about u = 2.
        for d in [0.3, 0.7, 1.4] {
            assert!((bspline(4, 2.0 - d) - bspline(4, 2.0 + d)).abs() < 1e-12);
        }
        assert!(bspline(4, 2.0) > bspline(4, 1.0));
    }

    #[test]
    fn bspline_deriv_matches_numeric() {
        for u in [0.5, 1.2, 2.7, 3.4] {
            let h = 1e-6;
            let numeric = (bspline(4, u + h) - bspline(4, u - h)) / (2.0 * h);
            let analytic = bspline_deriv(4, u);
            assert!((numeric - analytic).abs() < 1e-6, "u={u}");
        }
    }

    #[test]
    fn spread_conserves_charge() {
        let sys = water_box(20, 300.0, 13);
        let params = PmeParams {
            beta: 3.0,
            grid: [16, 16, 16],
        };
        let mut grid = Grid3::new(params.grid);
        let l = sys.pbc.lengths();
        let mut total_q = 0.0f64;
        for i in 0..sys.n() {
            let sp = AtomSplines::new(sys.pos[i], l, params.grid);
            let q = sys.charge[i] as f64;
            total_q += q;
            sp.for_points(params.grid, |gx, gy, gz, w, _, _, _| {
                let id = grid.idx(gx, gy, gz);
                grid.data[id].re += q * w;
            });
        }
        let grid_q: f64 = grid.data.iter().map(|c| c.re).sum();
        assert!(
            (grid_q - total_q).abs() < 1e-9,
            "grid {grid_q} vs {total_q}"
        );
    }

    #[test]
    fn pme_matches_direct_ewald_energy_and_forces() {
        let sys0 = water_box(15, 300.0, 17);
        let beta = 3.2;
        // Direct Ewald.
        let mut a = sys0.clone();
        let ew = EwaldParams {
            beta,
            r_cut: a.pbc.max_cutoff() * 0.99,
            kmax: 14,
        };
        let e_direct = ewald_full(&mut a, &ew);
        // PME: recip + self + excluded; real-space must use the same
        // cutoff as the direct version for the totals to agree.
        let mut b = sys0.clone();
        let pme = Pme::new(PmeParams {
            beta,
            grid: [32, 32, 32],
        });
        let e_recip_pme = pme.recip_energy(&mut b);
        assert!(
            (e_recip_pme - e_direct.recip).abs() / e_direct.recip.abs() < 0.01,
            "recip: PME {e_recip_pme} vs Ewald {}",
            e_direct.recip
        );
        // Recip-space forces match too (compare the dominant components).
        let mut a2 = sys0.clone();
        crate::ewald::recip_space(&mut a2, &ew);
        let mut max_rel = 0.0f32;
        let fmax = a2.force.iter().map(|f| f.norm()).fold(0.0f32, f32::max);
        for i in 0..a2.n() {
            let diff = (a2.force[i] - b.force[i]).norm();
            max_rel = max_rel.max(diff / fmax.max(1.0));
        }
        assert!(max_rel < 0.05, "max relative force error {max_rel}");
    }

    #[test]
    fn finer_grid_improves_accuracy() {
        let sys0 = water_box(10, 300.0, 23);
        let beta = 3.2;
        let mut reference = sys0.clone();
        let ew = EwaldParams {
            beta,
            r_cut: reference.pbc.max_cutoff() * 0.99,
            kmax: 16,
        };
        let e_ref = {
            let mut tmp = sys0.clone();
            crate::ewald::recip_space(&mut tmp, &ew)
        };
        let _ = &mut reference;
        let err = |grid: usize| {
            let mut s = sys0.clone();
            let pme = Pme::new(PmeParams {
                beta,
                grid: [grid; 3],
            });
            (pme.recip_energy(&mut s) - e_ref).abs()
        };
        let coarse = err(8);
        let fine = err(32);
        assert!(fine < coarse, "coarse {coarse} fine {fine}");
    }
}
