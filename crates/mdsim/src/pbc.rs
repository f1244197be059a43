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

    /// Minimum-image displacement `a - b`: per axis,
    /// `d - len * (d / len).round()`.
    ///
    /// Bonded partners, cluster members and anything else closer than
    /// `0.49 * len` take neither the division nor the `round` (a libm
    /// call on baseline x86-64), and get the same bits — sign of zero
    /// included. Below `0.49 * len` the rounded quotient is under 0.5 in
    /// magnitude, so `round` returns a zero of `d`'s sign (edges are
    /// positive), `len * ±0` is `±0`, and `d - (±0)` is `d` for every
    /// `d` but `-0.0`, which it turns into `+0.0`: exactly `d + 0.0`,
    /// an addition the compiler may not fold away. NaN, the infinities
    /// and everything from `0.49 * len` outwards fail the comparison and
    /// take the full expression.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let d = a - b;
        vec3(
            min_image_axis(d.x, self.lengths.x),
            min_image_axis(d.y, self.lengths.y),
            min_image_axis(d.z, self.lengths.z),
        )
    }

    /// [`PbcBox::min_image`] of eight raw displacements `a - b` at once,
    /// bit for bit on every lane.
    ///
    /// A select covers every lane with `|q| < 1.5` on each axis: the
    /// quotient is the same lane division, and the product
    /// `len * q.round()` is `±len` from `±0.5` outwards (ties round away
    /// from zero) and otherwise a zero of `q`'s sign — which is `d`'s,
    /// edges being positive. A lane the select does not cover (a pair
    /// whole periods apart) is redone from its own `d` with the scalar
    /// per-axis form. Lanes that are NaN on an axis come out NaN on it.
    #[inline(always)]
    pub fn min_image8<L: Lanes8>(&self, isa: L::Isa, d: [L; 3]) -> [L; 3] {
        let len = [self.lengths.x, self.lengths.y, self.lengths.z];
        let (x, qx) = min_image_axis8(isa, d[0], len[0]);
        let (y, qy) = min_image_axis8(isa, d[1], len[1]);
        let (z, qz) = min_image_axis8(isa, d[2], len[2]);
        let mut far = le8(L::splat(isa, 1.5), qx.max(qy).max(qz)).movemask();
        if far == 0 {
            return [x, y, z];
        }
        let raw = d.map(L::to_array);
        let mut imaged = [x, y, z].map(L::to_array);
        while far != 0 {
            let lane = far.trailing_zeros() as usize;
            far &= far - 1;
            for axis in 0..3 {
                imaged[axis][lane] = min_image_axis(raw[axis][lane], len[axis]);
            }
        }
        imaged.map(|v| L::from_array(isa, v))
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

/// One axis of [`PbcBox::min_image`].
#[inline(always)]
fn min_image_axis(d: f32, len: f32) -> f32 {
    if d.abs() < 0.49 * len {
        d + 0.0
    } else {
        d - len * (d / len).round()
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

    /// What `min_image` evaluated on every call before the near case
    /// skipped its division and its `round`.
    fn min_image_reference(b: &PbcBox, a: Vec3, c: Vec3) -> Vec3 {
        let mut d = a - c;
        d.x -= b.lengths.x * (d.x / b.lengths.x).round();
        d.y -= b.lengths.y * (d.y / b.lengths.y).round();
        d.z -= b.lengths.z * (d.z / b.lengths.z).round();
        d
    }

    fn bits(v: Vec3) -> [u32; 3] {
        [v.x, v.y, v.z].map(f32::to_bits)
    }

    /// Both zeros, subnormals, one ulp either side of the near-case
    /// threshold and of the rounding tie, whole images, NaN and the
    /// infinities, for an edge `len`.
    fn axis_probes(len: f32) -> Vec<f32> {
        let mut probes = vec![
            0.0,
            f32::from_bits(1),
            1e-40,
            0.3 * len,
            1.5 * len,
            2.5 * len,
        ];
        for edge in [0.49 * len, 0.5 * len] {
            probes
                .extend([-1i32, 0, 1].map(|k| f32::from_bits((edge.to_bits() as i32 + k) as u32)));
        }
        probes.push(f32::INFINITY);
        let negated: Vec<f32> = probes.iter().map(|p| -p).collect();
        probes.extend(negated);
        probes.push(f32::NAN);
        probes
    }

    #[test]
    fn min_image_is_the_rounding_expression_bit_for_bit() {
        let b = PbcBox::new(3.0, 2.5, 1.7);
        let origin = vec3(0.0, 0.0, 0.0);
        for &x in &axis_probes(3.0) {
            for &y in &axis_probes(2.5) {
                for &z in &axis_probes(1.7) {
                    let a = vec3(x, y, z);
                    let (got, want) = (b.min_image(a, origin), min_image_reference(&b, a, origin));
                    assert_eq!(bits(got), bits(want), "{a:?}: {got:?} vs {want:?}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn min_image_equals_the_rounding_expression_on_random_boxes(
            edges in (0.5f32..8.0, 0.5f32..8.0, 0.5f32..8.0),
            a in (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0),
            offset in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
            far in proptest::prelude::any::<bool>(),
        ) {
            // Half the cases a displacement of at most one edge, where
            // the near case and the images next to it meet.
            let b = PbcBox::new(edges.0, edges.1, edges.2);
            let a = vec3(a.0, a.1, a.2);
            let c = if far {
                vec3(offset.0 * 20.0, offset.1 * 20.0, offset.2 * 20.0)
            } else {
                a - vec3(offset.0 * edges.0, offset.1 * edges.1, offset.2 * edges.2)
            };
            proptest::prop_assert_eq!(
                bits(b.min_image(a, c)),
                bits(min_image_reference(&b, a, c))
            );
        }
    }

    fn min_image8_matches_scalar<L: Lanes8>(isa: L::Isa) {
        let b = PbcBox::new(3.0, 2.5, 1.7);
        // Around every threshold of the select, zeros of both signs, and
        // far enough out that the select does not cover the lane.
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
        let mut far = 0usize;
        for (i, &qx) in probes.iter().enumerate() {
            let lanes: [Vec3; 8] = std::array::from_fn(|k| {
                let at = |j: usize| probes[(i + j * (k + 1)) % probes.len()];
                vec3(qx * 3.0, at(1) * 2.5, at(2) * 1.7)
            });
            let column = |f: fn(Vec3) -> f32| L::from_array(isa, lanes.map(f));
            let d = b.min_image8(isa, [column(|v| v.x), column(|v| v.y), column(|v| v.z)]);
            let [x, y, z] = d.map(L::to_array);
            for (k, &raw) in lanes.iter().enumerate() {
                let want = b.min_image(raw, origin);
                let got = [x[k], y[k], z[k]].map(f32::to_bits);
                let want = [want.x, want.y, want.z].map(f32::to_bits);
                assert_eq!(got, want, "{} lanes, {raw:?}", L::NAME);
                let q_max = (raw.x / 3.0)
                    .abs()
                    .max((raw.y / 2.5).abs())
                    .max((raw.z / 1.7).abs());
                far += (q_max >= 1.5) as usize;
            }
        }
        assert!(far > 0, "no lane past the select");
    }

    #[test]
    fn min_image8_is_the_scalar_min_image_on_every_lane() {
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
