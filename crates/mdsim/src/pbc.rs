//! Periodic boundary conditions for a rectangular simulation box.

use wide::Lanes8;

use crate::vec3::{vec3, Vec3};

/// A rectangular periodic box with edges along the coordinate axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbcBox {
    lengths: Vec3,
}

impl PbcBox {
    /// A box with the given edge lengths (nm). All must be positive.
    pub fn new(lx: f32, ly: f32, lz: f32) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive"
        );
        Self {
            lengths: vec3(lx, ly, lz),
        }
    }

    /// A cubic box of edge `l`.
    pub fn cubic(l: f32) -> Self {
        Self::new(l, l, l)
    }

    /// Edge lengths.
    pub fn lengths(&self) -> Vec3 {
        self.lengths
    }

    /// Box volume in nm^3.
    pub fn volume(&self) -> f64 {
        self.lengths.x as f64 * self.lengths.y as f64 * self.lengths.z as f64
    }

    /// Minimum-image displacement `a - b`.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        d.x -= self.lengths.x * (d.x / self.lengths.x).round();
        d.y -= self.lengths.y * (d.y / self.lengths.y).round();
        d.z -= self.lengths.z * (d.z / self.lengths.z).round();
        d
    }

    /// [`PbcBox::min_image`] of eight raw displacements `a - b` at once.
    ///
    /// Returns the imaged components and an `inexact` lane mask. A lane
    /// whose mask is clear holds exactly the scalar result: the quotient
    /// is the same lane division, and for `|q| < 1.5` the product
    /// `len * q.round()` is `±len` from `±0.5` outwards (ties round away
    /// from zero) and otherwise a zero of `q`'s sign — which is `d`'s,
    /// edges being positive. A set lane (`|q| >= 1.5` on some axis) must
    /// be recomputed with the scalar form. Lanes that are NaN on an axis
    /// come out NaN on it and may report either way.
    #[inline(always)]
    pub fn min_image8<L: Lanes8>(&self, isa: L::Isa, d: [L; 3]) -> ([L; 3], L) {
        let (x, qx) = min_image_axis8(isa, d[0], self.lengths.x);
        let (y, qy) = min_image_axis8(isa, d[1], self.lengths.y);
        let (z, qz) = min_image_axis8(isa, d[2], self.lengths.z);
        ([x, y, z], le8(L::splat(isa, 1.5), qx.max(qy).max(qz)))
    }

    /// Squared minimum-image distance between `a` and `b`.
    #[inline]
    pub fn dist2(&self, a: Vec3, b: Vec3) -> f32 {
        self.min_image(a, b).norm2()
    }

    /// Wrap a position into `[0, L)` on each axis.
    #[inline]
    pub fn wrap(&self, p: Vec3) -> Vec3 {
        let w = |x: f32, l: f32| {
            let r = x - l * (x / l).floor();
            // Guard the x == l edge case produced by f32 rounding.
            if r >= l {
                r - l
            } else {
                r
            }
        };
        vec3(
            w(p.x, self.lengths.x),
            w(p.y, self.lengths.y),
            w(p.z, self.lengths.z),
        )
    }

    /// Largest cutoff radius compatible with the minimum-image convention.
    pub fn max_cutoff(&self) -> f32 {
        0.5 * self.lengths.x.min(self.lengths.y).min(self.lengths.z)
    }
}

/// `a <= b` as a lane mask; false on NaN.
#[inline(always)]
pub(crate) fn le8<L: Lanes8>(a: L, b: L) -> L {
    a.cmp_lt(b) | a.cmp_eq(b)
}

/// One axis of [`PbcBox::min_image8`]: the imaged component and `|q|`.
#[inline(always)]
fn min_image_axis8<L: Lanes8>(isa: L::Isa, d: L, len: f32) -> (L, L) {
    let (len, half) = (L::splat(isa, len), L::splat(isa, 0.5));
    let q = d / len;
    let zero = d & L::splat(isa, -0.0);
    let step = q
        .cmp_lt(half)
        .blend((-half).cmp_lt(q).blend(zero, -len), len);
    (d - step, q.max(-q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_image_picks_nearest_copy() {
        let b = PbcBox::cubic(10.0);
        let d = b.min_image(vec3(9.5, 0.0, 0.0), vec3(0.5, 0.0, 0.0));
        assert!((d.x - (-1.0)).abs() < 1e-6);
        let d2 = b.min_image(vec3(3.0, 0.0, 0.0), vec3(1.0, 0.0, 0.0));
        assert!((d2.x - 2.0).abs() < 1e-6);
    }

    fn min_image8_matches_scalar<L: Lanes8>(isa: L::Isa) {
        let b = PbcBox::new(3.0, 2.5, 1.7);
        // Around every threshold of the select, zeros of both signs, and
        // far enough out that the lanes must report `inexact`.
        let probes = [
            0.0,
            -0.0,
            1e-30,
            0.3,
            -0.7,
            0.5,
            -0.5,
            0.49999997,
            -0.50000006,
            1.0,
            -1.0,
            1.4999999,
            -1.4999999,
            1.5,
            -1.5,
            2.75,
            -40.0,
        ];
        let origin = vec3(0.0, 0.0, 0.0);
        for (i, &qx) in probes.iter().enumerate() {
            let lanes: [Vec3; 8] = std::array::from_fn(|k| {
                let at = |j: usize| probes[(i + j * (k + 1)) % probes.len()];
                vec3(qx * 3.0, at(1) * 2.5, at(2) * 1.7)
            });
            let column = |f: fn(Vec3) -> f32| L::from_array(isa, lanes.map(f));
            let (d, inexact) =
                b.min_image8(isa, [column(|v| v.x), column(|v| v.y), column(|v| v.z)]);
            let [x, y, z] = d.map(L::to_array);
            for (k, &raw) in lanes.iter().enumerate() {
                let want = b.min_image(raw, origin);
                let q_max = (raw.x / 3.0)
                    .abs()
                    .max((raw.y / 2.5).abs())
                    .max((raw.z / 1.7).abs());
                assert_eq!(inexact.movemask() >> k & 1 == 1, q_max >= 1.5, "{raw:?}");
                if q_max < 1.5 {
                    let got = [x[k], y[k], z[k]].map(f32::to_bits);
                    let want = [want.x, want.y, want.z].map(f32::to_bits);
                    assert_eq!(got, want, "{} lanes, {raw:?}", L::NAME);
                }
            }
        }
    }

    #[test]
    fn min_image8_is_the_scalar_min_image_wherever_it_says_so() {
        wide::for_each_lanes8!(min_image8_matches_scalar);
    }

    #[test]
    fn wrap_lands_inside() {
        let b = PbcBox::new(4.0, 5.0, 6.0);
        for p in [
            vec3(-0.1, 5.1, 12.5),
            vec3(4.0, 5.0, 6.0),
            vec3(-8.3, 0.0, 1.0),
        ] {
            let w = b.wrap(p);
            assert!(w.x >= 0.0 && w.x < 4.0, "{w:?}");
            assert!(w.y >= 0.0 && w.y < 5.0, "{w:?}");
            assert!(w.z >= 0.0 && w.z < 6.0, "{w:?}");
        }
    }

    #[test]
    fn wrap_preserves_min_image_distances() {
        let b = PbcBox::cubic(3.0);
        let a = vec3(2.9, 2.9, 2.9);
        let c = vec3(0.1, 0.1, 0.1);
        let before = b.dist2(a, c);
        let after = b.dist2(b.wrap(a + vec3(3.0, -6.0, 9.0)), c);
        assert!((before - after).abs() < 1e-5);
    }

    #[test]
    fn max_cutoff_is_half_min_edge() {
        let b = PbcBox::new(4.0, 6.0, 8.0);
        assert_eq!(b.max_cutoff(), 2.0);
    }

    #[test]
    fn volume() {
        assert!((PbcBox::new(2.0, 3.0, 4.0).volume() - 24.0).abs() < 1e-9);
    }
}
