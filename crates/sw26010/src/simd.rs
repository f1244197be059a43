//! 256-bit SIMD emulation (`floatv4`) and the Fig. 7 shuffle transpose.
//!
//! SW26010 CPEs execute 256-bit vector instructions; the paper's
//! vectorized kernel operates on `floatv4` (4 x f32) values and uses six
//! `simd_vshulff` instructions to convert three component vectors
//! (X, Y, Z lanes of four particles) into the interleaved `xyzxyzxyzxyz`
//! layout of the force array so results can be added without scalar
//! decomposition (§3.4, Fig. 6/7).
//!
//! [`FloatV4`] is a pure value type — arithmetic actually happens, so
//! vectorized kernels are verified bit-for-bit against scalar references —
//! while cycle costs are accounted explicitly through [`meter`].

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 4-lane `f32` vector, modeling the SW26010 `floatv4` register type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FloatV4(pub [f32; 4]);

impl FloatV4 {
    /// All lanes zero.
    pub const ZERO: FloatV4 = FloatV4([0.0; 4]);

    /// Broadcast one scalar to all lanes (`simd_set_floatv4` splat).
    #[inline]
    pub fn splat(v: f32) -> Self {
        FloatV4([v; 4])
    }

    /// Load from a slice of at least 4 elements.
    ///
    /// A `floatv4` load reads exactly one 128-bit register's worth of
    /// lanes; handing it fewer is always a kernel indexing bug (a tail
    /// cluster that should have been padded to a whole package). Debug
    /// builds report the lane context instead of a bare index panic.
    #[inline]
    pub fn load(s: &[f32]) -> Self {
        debug_assert!(
            s.len() >= 4,
            "FloatV4::load needs 4 lanes, got a {}-element slice \
             (cpe {:?}): unpadded tail cluster?",
            s.len(),
            swprof::scope::Who::current().lane,
        );
        FloatV4([s[0], s[1], s[2], s[3]])
    }

    /// Store to a slice of at least 4 elements.
    #[inline]
    pub fn store(self, s: &mut [f32]) {
        s[..4].copy_from_slice(&self.0);
    }

    /// Lane-wise fused multiply-add: `self * b + c`.
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        FloatV4([
            self.0[0] * b.0[0] + c.0[0],
            self.0[1] * b.0[1] + c.0[1],
            self.0[2] * b.0[2] + c.0[2],
            self.0[3] * b.0[3] + c.0[3],
        ])
    }

    /// Lane-wise reciprocal.
    #[inline]
    pub fn recip(self) -> Self {
        FloatV4(self.0.map(|x| 1.0 / x))
    }

    /// Lane-wise square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        FloatV4(self.0.map(f32::sqrt))
    }

    /// Lane-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        FloatV4([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
            self.0[3].min(o.0[3]),
        ])
    }

    /// Lane-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        FloatV4([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }

    /// Horizontal sum of all lanes.
    #[inline]
    pub fn hsum(self) -> f32 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// `simd_vshulff`: build a new vector whose first two lanes are
    /// `a[sel\[0\]], a[sel[1]]` and last two are `b[sel[2]], b[sel[3]]`
    /// (paper §3.4: "It chooses two float numbers in the first vector as
    /// the first two float numbers of the new vector and the other two
    /// float numbers of the new vector are from the second vector").
    #[inline]
    pub fn vshuff(a: Self, b: Self, sel: [usize; 4]) -> Self {
        FloatV4([a.0[sel[0]], a.0[sel[1]], b.0[sel[2]], b.0[sel[3]]])
    }
}

impl Add for FloatV4 {
    type Output = FloatV4;
    #[inline]
    fn add(self, o: Self) -> Self {
        FloatV4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

impl Sub for FloatV4 {
    type Output = FloatV4;
    #[inline]
    fn sub(self, o: Self) -> Self {
        FloatV4([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }
}

impl Mul for FloatV4 {
    type Output = FloatV4;
    #[inline]
    fn mul(self, o: Self) -> Self {
        FloatV4([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
}

impl Div for FloatV4 {
    type Output = FloatV4;
    #[inline]
    fn div(self, o: Self) -> Self {
        FloatV4([
            self.0[0] / o.0[0],
            self.0[1] / o.0[1],
            self.0[2] / o.0[2],
            self.0[3] / o.0[3],
        ])
    }
}

impl Neg for FloatV4 {
    type Output = FloatV4;
    #[inline]
    fn neg(self) -> Self {
        FloatV4(self.0.map(|x| -x))
    }
}

/// The Fig. 7 post-treatment: convert per-component accumulators
/// `X=(x1..x4), Y=(y1..y4), Z=(z1..z4)` into three vectors matching the
/// interleaved force-array layout `x1 y1 z1 x2 | y2 z2 x3 y3 | z3 x4 y4 z4`
/// using exactly six `vshuff` operations, so they can be vector-added to
/// the force array directly.
pub fn transpose3_to_interleaved(x: FloatV4, y: FloatV4, z: FloatV4) -> [FloatV4; 3] {
    // Stage 1.
    let a = FloatV4::vshuff(x, y, [0, 2, 0, 2]); // X1 X3 Y1 Y3
    let b = FloatV4::vshuff(z, x, [0, 2, 1, 3]); // Z1 Z3 X2 X4
    let c = FloatV4::vshuff(y, z, [1, 3, 1, 3]); // Y2 Y4 Z2 Z4
                                                 // Stage 2.
    let t0 = FloatV4::vshuff(a, b, [0, 2, 0, 2]); // X1 Y1 Z1 X2
    let t1 = FloatV4::vshuff(c, a, [0, 2, 1, 3]); // Y2 Z2 X3 Y3
    let t2 = FloatV4::vshuff(b, c, [1, 3, 1, 3]); // Z3 X4 Y4 Z4
    [t0, t1, t2]
}

/// Number of `vshuff` operations consumed by [`transpose3_to_interleaved`].
pub const TRANSPOSE3_SHUFFLES: u64 = 6;

/// Cycle metering helpers for compute instructions.
///
/// Simple in-order cost model: one cycle per issued vector or scalar
/// arithmetic instruction, with long-latency divide/sqrt modeled
/// separately. Kernels account their instruction mix through these
/// helpers; the [`FloatV4`] arithmetic itself stays pure.
pub mod meter {
    use crate::perf::PerfCounters;

    /// Latency in cycles of a (scalar or vector) divide or square root.
    pub const DIV_SQRT_CYCLES: u64 = 17;

    /// Account `n` scalar single-cycle floating-point instructions.
    pub fn scalar_flops(perf: &mut PerfCounters, n: u64) {
        perf.cycles += n;
        perf.compute_cycles += n;
        perf.scalar_flops += n;
    }

    /// Account `n` SIMD single-cycle instructions (each covers 4 lanes).
    pub fn simd_ops(perf: &mut PerfCounters, n: u64) {
        perf.cycles += n;
        perf.compute_cycles += n;
        perf.simd_ops += n;
    }

    /// Account `n` `vshuff` instructions.
    pub fn shuffle_ops(perf: &mut PerfCounters, n: u64) {
        perf.cycles += n;
        perf.compute_cycles += n;
        perf.shuffle_ops += n;
    }

    /// Account `n` scalar divide/sqrt instructions.
    pub fn scalar_divsqrt(perf: &mut PerfCounters, n: u64) {
        let c = n * DIV_SQRT_CYCLES;
        perf.cycles += c;
        perf.compute_cycles += c;
        perf.scalar_flops += n;
    }

    /// Account `n` vector divide/sqrt instructions.
    pub fn simd_divsqrt(perf: &mut PerfCounters, n: u64) {
        let c = n * DIV_SQRT_CYCLES;
        perf.cycles += c;
        perf.compute_cycles += c;
        perf.simd_ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_lanewise() {
        let a = FloatV4([1.0, 2.0, 3.0, 4.0]);
        let b = FloatV4::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a / b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn mul_add_matches_manual() {
        let a = FloatV4([1.0, 2.0, 3.0, 4.0]);
        let b = FloatV4::splat(10.0);
        let c = FloatV4::splat(1.0);
        assert_eq!(a.mul_add(b, c).0, [11.0, 21.0, 31.0, 41.0]);
    }

    #[test]
    fn hsum_adds_the_four_lanes() {
        assert_eq!(FloatV4([1.0, 2.0, 3.0, 4.0]).hsum(), 10.0);
    }

    #[test]
    fn vshuff_semantics() {
        let a = FloatV4([1.0, 2.0, 3.0, 4.0]);
        let b = FloatV4([5.0, 6.0, 7.0, 8.0]);
        let r = FloatV4::vshuff(a, b, [0, 3, 1, 2]);
        assert_eq!(r.0, [1.0, 4.0, 6.0, 7.0]);
    }

    #[test]
    fn fig7_transpose_produces_interleaved_layout() {
        let x = FloatV4([1.0, 2.0, 3.0, 4.0]); // X1..X4
        let y = FloatV4([10.0, 20.0, 30.0, 40.0]); // Y1..Y4
        let z = FloatV4([100.0, 200.0, 300.0, 400.0]); // Z1..Z4
        let [t0, t1, t2] = transpose3_to_interleaved(x, y, z);
        assert_eq!(t0.0, [1.0, 10.0, 100.0, 2.0]); // X1 Y1 Z1 X2
        assert_eq!(t1.0, [20.0, 200.0, 3.0, 30.0]); // Y2 Z2 X3 Y3
        assert_eq!(t2.0, [300.0, 4.0, 40.0, 400.0]); // Z3 X4 Y4 Z4
    }

    #[test]
    fn transpose_then_add_equals_scalar_scatter() {
        // The whole point of Fig. 7: adding the transposed vectors to an
        // interleaved xyz force array equals the scalar scatter.
        let x = FloatV4([1.0, 2.0, 3.0, 4.0]);
        let y = FloatV4([5.0, 6.0, 7.0, 8.0]);
        let z = FloatV4([9.0, 10.0, 11.0, 12.0]);
        let mut interleaved = [0.5f32; 12];
        let mut reference = interleaved;
        for i in 0..4 {
            reference[3 * i] += x.0[i];
            reference[3 * i + 1] += y.0[i];
            reference[3 * i + 2] += z.0[i];
        }
        let t = transpose3_to_interleaved(x, y, z);
        for (k, v) in t.iter().enumerate() {
            let base = 4 * k;
            for lane in 0..4 {
                interleaved[base + lane] += v.0[lane];
            }
        }
        assert_eq!(interleaved, reference);
    }

    #[test]
    fn meter_accounts_costs() {
        use crate::perf::PerfCounters;
        let mut p = PerfCounters::new();
        meter::scalar_flops(&mut p, 10);
        meter::simd_ops(&mut p, 5);
        meter::shuffle_ops(&mut p, 6);
        meter::simd_divsqrt(&mut p, 1);
        assert_eq!(p.scalar_flops, 10);
        assert_eq!(p.simd_ops, 6);
        assert_eq!(p.shuffle_ops, 6);
        assert_eq!(p.cycles, 10 + 5 + 6 + meter::DIV_SQRT_CYCLES);
        assert_eq!(p.cycles, p.compute_cycles);
    }

    #[test]
    fn load_accepts_exactly_four_elements() {
        // The boundary case: a slice of exactly 4 is a legal register
        // load, including as the tail window of a larger array.
        let v = FloatV4::load(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.0, [1.0, 2.0, 3.0, 4.0]);
        let arr = [0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let tail = FloatV4::load(&arr[4..]);
        assert_eq!(tail.0, [4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FloatV4::load needs 4 lanes")]
    fn load_reports_lane_context_on_short_slice() {
        FloatV4::load(&[1.0, 2.0, 3.0]);
    }
}
