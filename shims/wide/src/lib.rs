//! Offline stand-in for the `wide` crate (the build environment has no
//! registry access). Implements exactly the `f32x8` surface the
//! workspace uses: lanewise arithmetic, multiply-add, square root,
//! comparisons returning all-ones/all-zeros lane masks, and bitwise
//! blends.
//!
//! Eight-lane code is written once against the [`Lanes8`] trait and
//! instantiated per instruction set. There are two implementations:
//!
//! - [`f32x8`] — portable: a plain `[f32; 8]` behind a 32-byte
//!   alignment, every operation a per-lane scalar loop. It runs on
//!   every target, and it is the reference the register type is tested
//!   against. LLVM vectorizes such a loop only *inside* one function:
//!   across a call the lanes travel through memory, which is why the
//!   hot kernels do not rely on it where registers are available.
//! - [`f32x8_avx2`] (`x86_64`) — one `__m256` register. Values exist
//!   only behind an [`Avx2`] token, which [`Avx2::detect`] hands out
//!   when the CPU reports AVX2.
//!
//! [`LaneImpl::detect`] is the one place that picks between them: AVX2
//! where the CPU reports it, the portable arrays everywhere else, and
//! [`on_lanes!`] runs a lane body on the pick.
//!
//! Both perform the same strict IEEE 754 operation per lane (no
//! fast-math, no FMA, no `rsqrt`/`rcp` approximations, one fixed
//! `reduce_add` tree), so a lane of either implementation is
//! bit-identical to the same scalar computation — results do not depend
//! on which implementation the host selected.

#![allow(non_camel_case_types)]

use std::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Sub};

macro_rules! lanewise_type {
    ($name:ident, $n:expr, $align:expr) => {
        /// A `$n`-lane `f32` vector.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        #[repr(C, align($align))]
        pub struct $name([f32; $n]);

        impl $name {
            /// All lanes zero.
            pub const ZERO: Self = Self([0.0; $n]);
            /// Number of lanes.
            pub const LANES: usize = $n;

            /// Broadcast one scalar to every lane.
            #[inline(always)]
            pub fn splat(v: f32) -> Self {
                Self([v; $n])
            }

            /// The lanes as an array.
            #[inline(always)]
            pub fn to_array(self) -> [f32; $n] {
                self.0
            }

            /// Lanewise `self * m + a`, rounded twice (a multiply, then
            /// an add). Lanes stay unfused on purpose: an FMA rounds
            /// once, so fusing only where the host has FMA would make
            /// results depend on the host.
            #[inline(always)]
            pub fn mul_add(self, m: Self, a: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i] * m.0[i] + a.0[i];
                }
                Self(out)
            }

            /// Lanewise square root.
            #[inline(always)]
            pub fn sqrt(self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i].sqrt();
                }
                Self(out)
            }

            /// Lanewise minimum, `if self < rhs { self } else { rhs }`
            /// (see [`Lanes8::min`] for the NaN and signed-zero rule).
            #[inline(always)]
            pub fn min(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = if self.0[i] < rhs.0[i] {
                        self.0[i]
                    } else {
                        rhs.0[i]
                    };
                }
                Self(out)
            }

            /// Lanewise maximum, `if self > rhs { self } else { rhs }`
            /// (see [`Lanes8::max`] for the NaN and signed-zero rule).
            #[inline(always)]
            pub fn max(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = if self.0[i] > rhs.0[i] {
                        self.0[i]
                    } else {
                        rhs.0[i]
                    };
                }
                Self(out)
            }

            /// Lanewise `self < rhs`, as an all-ones (true) or all-zeros
            /// (false) bit mask per lane, reinterpreted as `f32`.
            #[inline(always)]
            pub fn cmp_lt(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = f32::from_bits(if self.0[i] < rhs.0[i] { !0u32 } else { 0 });
                }
                Self(out)
            }

            /// Lanewise `self == rhs` as a bit mask (all-ones / all-zeros).
            #[inline(always)]
            pub fn cmp_eq(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = f32::from_bits(if self.0[i] == rhs.0[i] { !0u32 } else { 0 });
                }
                Self(out)
            }

            /// Bitwise select: for each lane, take `t` where the mask
            /// bit is set, `f` where it is clear. With the all-ones /
            /// all-zeros masks produced by the comparisons this is a
            /// lanewise conditional move that fully replaces the untaken
            /// value (NaNs and infinities included).
            #[inline(always)]
            pub fn blend(self, t: Self, f: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    let m = self.0[i].to_bits();
                    out[i] = f32::from_bits((t.0[i].to_bits() & m) | (f.0[i].to_bits() & !m));
                }
                Self(out)
            }

            /// Sum of all lanes by pairwise halving — the association a
            /// shuffle-and-add SIMD horizontal sum uses. The tree is
            /// fixed, so the reduction is deterministic and the same
            /// on every implementation.
            #[inline(always)]
            pub fn reduce_add(self) -> f32 {
                let mut tmp = self.0;
                let mut half = $n;
                while half > 1 {
                    half /= 2;
                    for i in 0..half {
                        tmp[i] += tmp[i + half];
                    }
                }
                tmp[0]
            }
        }

        impl From<[f32; $n]> for $name {
            #[inline(always)]
            fn from(a: [f32; $n]) -> Self {
                Self(a)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i] + rhs.0[i];
                }
                Self(out)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i] - rhs.0[i];
                }
                Self(out)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i] * rhs.0[i];
                }
                Self(out)
            }
        }

        impl Div for $name {
            type Output = Self;
            #[inline(always)]
            fn div(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = self.0[i] / rhs.0[i];
                }
                Self(out)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = -self.0[i];
                }
                Self(out)
            }
        }

        impl BitAnd for $name {
            type Output = Self;
            #[inline(always)]
            fn bitand(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = f32::from_bits(self.0[i].to_bits() & rhs.0[i].to_bits());
                }
                Self(out)
            }
        }

        impl BitOr for $name {
            type Output = Self;
            #[inline(always)]
            fn bitor(self, rhs: Self) -> Self {
                let mut out = [0.0f32; $n];
                for i in 0..$n {
                    out[i] = f32::from_bits(self.0[i].to_bits() | rhs.0[i].to_bits());
                }
                Self(out)
            }
        }
    };
}

lanewise_type!(f32x8, 8, 32);

/// Eight `f32` lanes with one implementation per instruction set (see
/// the crate docs). Every method is `#[inline(always)]` in every
/// implementation, so a generic kernel body compiles to straight-line
/// register code inside whichever function instantiates it — including
/// a `#[target_feature(enable = "avx2")]` one.
///
/// The arithmetic operators, `sqrt` and `reduce_add` are the IEEE 754
/// operations of the scalar expressions (`a + b`, `a.sqrt()`, …) lane
/// by lane. When a result is NaN its sign and payload are unspecified,
/// as they are for scalar `f32` arithmetic. Everything else — `neg`,
/// `min`, `max`, the comparisons, `blend`, `&`, `|`, the `*_bits`
/// operations, `movemask` and the conversions — is exact on every bit
/// pattern, NaNs included.
pub trait Lanes8:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
{
    /// Proof that this host executes the implementation's
    /// instructions, demanded by every constructor: `()` where nothing
    /// has to be detected, [`Avx2`] for [`f32x8_avx2`]. A value of the
    /// lane type can therefore exist only where its methods may run.
    type Isa: Copy + Send + Sync;

    /// `"portable"` or `"avx2"`.
    const NAME: &'static str;

    /// Broadcast one scalar to every lane.
    fn splat(isa: Self::Isa, v: f32) -> Self;

    /// Lanes from an array.
    fn from_array(isa: Self::Isa, a: [f32; 8]) -> Self;

    /// Lanes 0..4 from `lo`, lanes 4..8 from `hi` (two 16-byte loads).
    fn from_halves(isa: Self::Isa, lo: &[f32; 4], hi: &[f32; 4]) -> Self;

    /// The lanes as an array.
    fn to_array(self) -> [f32; 8];

    /// Lanewise square root.
    fn sqrt(self) -> Self;

    /// Lanewise `if self < rhs { self } else { rhs }` (x86 `minps`):
    /// returns `rhs`, bit for bit, whenever either operand is NaN, and
    /// when both are zeros of either sign. Clamping `x.min(bound)`
    /// therefore maps a NaN `x` to `bound`.
    fn min(self, rhs: Self) -> Self;

    /// Lanewise `if self > rhs { self } else { rhs }` (x86 `maxps`),
    /// with the same rule as [`Lanes8::min`]: `rhs` on NaN and on
    /// zeros of either sign.
    fn max(self, rhs: Self) -> Self;

    /// Lanewise `self < rhs` as an all-ones (true) or all-zeros (false)
    /// bit mask per lane; false when either operand is NaN.
    fn cmp_lt(self, rhs: Self) -> Self;

    /// Lanewise `self == rhs` as a bit mask; false on NaN, true for
    /// `0.0 == -0.0`.
    fn cmp_eq(self, rhs: Self) -> Self;

    /// Bitwise select with `self` as the mask: `(t & self) | (f & !self)`.
    fn blend(self, t: Self, f: Self) -> Self;

    /// Sum of all lanes by pairwise halving: lanes `i` and `i + 4`,
    /// then `i` and `i + 2`, then 0 and 1.
    fn reduce_add(self) -> f32;

    /// Bit `i` is the sign bit of lane `i`; with a comparison mask,
    /// `movemask().count_ones()` counts the true lanes.
    fn movemask(self) -> u32;

    /// Lanewise wrapping `u32` addition of the bit patterns.
    fn add_bits(self, rhs: Self) -> Self;

    /// Lanewise `u32` left shift of the bit patterns by `N` (< 32).
    fn shl_bits<const N: i32>(self) -> Self;

    /// Lanewise `self * m + a`, rounded twice. Lanes stay unfused on
    /// every implementation: an FMA rounds once, so fusing only where
    /// the host has FMA would make results depend on the host.
    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        self * m + a
    }
}

impl Lanes8 for f32x8 {
    type Isa = ();
    const NAME: &'static str = "portable";

    #[inline(always)]
    fn splat((): (), v: f32) -> Self {
        Self([v; 8])
    }

    #[inline(always)]
    fn from_array((): (), a: [f32; 8]) -> Self {
        Self(a)
    }

    #[inline(always)]
    fn from_halves((): (), lo: &[f32; 4], hi: &[f32; 4]) -> Self {
        let mut out = [0.0f32; 8];
        out[..4].copy_from_slice(lo);
        out[4..].copy_from_slice(hi);
        Self(out)
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        self.0
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f32x8::sqrt(self)
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        f32x8::min(self, rhs)
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        f32x8::max(self, rhs)
    }

    #[inline(always)]
    fn cmp_lt(self, rhs: Self) -> Self {
        f32x8::cmp_lt(self, rhs)
    }

    #[inline(always)]
    fn cmp_eq(self, rhs: Self) -> Self {
        f32x8::cmp_eq(self, rhs)
    }

    #[inline(always)]
    fn blend(self, t: Self, f: Self) -> Self {
        f32x8::blend(self, t, f)
    }

    #[inline(always)]
    fn reduce_add(self) -> f32 {
        f32x8::reduce_add(self)
    }

    #[inline(always)]
    fn movemask(self) -> u32 {
        let mut bits = 0;
        for i in 0..8 {
            bits |= (self.0[i].to_bits() >> 31) << i;
        }
        bits
    }

    #[inline(always)]
    fn add_bits(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| {
            f32::from_bits(self.0[i].to_bits().wrapping_add(rhs.0[i].to_bits()))
        }))
    }

    #[inline(always)]
    fn shl_bits<const N: i32>(self) -> Self {
        Self(self.0.map(|v| f32::from_bits(v.to_bits() << N)))
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod x86;
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
pub use x86::{f32x8_avx2, Avx2};

/// Which [`Lanes8`] implementation a lane body runs on. A value is
/// proof that this host can run it: the AVX2 variant carries the
/// detection token.
#[derive(Debug, Clone, Copy)]
pub enum LaneImpl {
    /// [`f32x8`]: array lanes, any target.
    Portable,
    /// [`f32x8_avx2`]: the CPU reported AVX2.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    Avx2(Avx2),
}

impl LaneImpl {
    /// Every implementation this host can run, the preferred one last.
    pub fn available() -> Vec<Self> {
        let mut all = vec![LaneImpl::Portable];
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        all.extend(Avx2::detect().map(LaneImpl::Avx2));
        all
    }

    /// AVX2 when the CPU reports it, else portable. No allocation and
    /// no lock (feature detection is a cached atomic load).
    #[inline]
    pub fn detect() -> Self {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if let Some(isa) = Avx2::detect() {
            return LaneImpl::Avx2(isa);
        }
        LaneImpl::Portable
    }

    /// `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            LaneImpl::Portable => f32x8::NAME,
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            LaneImpl::Avx2(_) => f32x8_avx2::NAME,
        }
    }
}

/// Run the lane body `$body::<L>(isa, $args...)` on the implementation
/// the [`LaneImpl`] `$lanes` names — the AVX2 one through `$avx2`, the
/// body's `#[target_feature(enable = "avx2")]` twin.
#[macro_export]
macro_rules! on_lanes {
    ($lanes:expr, $body:ident, $avx2:path, $($arg:expr),* $(,)?) => {
        match $lanes {
            $crate::LaneImpl::Portable => $body::<$crate::f32x8>((), $($arg),*),
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            $crate::LaneImpl::Avx2(isa) => {
                // SAFETY: the callee needs AVX2, and `isa` exists only
                // because `is_x86_feature_detected!("avx2")` returned
                // true (`Avx2::detect` is its sole constructor).
                unsafe { $avx2(isa, $($arg),*) }
            }
        }
    };
}

/// Call the generic function `$f::<L>(isa, $args...)` once for every
/// [`Lanes8`] implementation this host can run, portable first.
#[macro_export]
macro_rules! for_each_lanes8 {
    ($f:ident $(, $arg:expr)* $(,)?) => {{
        $f::<$crate::f32x8>(() $(, $arg)*);
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if let Some(isa) = $crate::Avx2::detect() {
            $f::<$crate::f32x8_avx2>(isa $(, $arg)*);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_scalar_bit_for_bit() {
        let a = f32x8::from([1.0, 2.5, -3.0, 0.0, 1e-7, 1e7, -0.5, 9.25]);
        let b = f32x8::splat(3.1);
        let sum = (a + b).to_array();
        let prod = (a * b).to_array();
        let quot = (a / b).to_array();
        for i in 0..8 {
            assert_eq!(sum[i].to_bits(), (a.to_array()[i] + 3.1f32).to_bits());
            assert_eq!(prod[i].to_bits(), (a.to_array()[i] * 3.1f32).to_bits());
            assert_eq!(quot[i].to_bits(), (a.to_array()[i] / 3.1f32).to_bits());
        }
    }

    #[test]
    fn blend_replaces_nan_lanes() {
        let x = f32x8::from([1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        let bad = f32x8::splat(1.0) / x; // lanes 1,3,5,7 are inf
        let mask = x.cmp_lt(f32x8::splat(0.5)); // true where x == 0
        let safe = mask.blend(f32x8::ZERO, bad).to_array();
        assert_eq!(safe, [1.0, 0.0, 0.5, 0.0, 1.0 / 3.0, 0.0, 0.25, 0.0]);
    }

    /// Values whose handling differs between careless implementations:
    /// signed zeros, infinities, NaNs of both signs, denormals, the
    /// extremes, and a few ordinary numbers.
    fn specials() -> [f32; 16] {
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_1234),
            f32::MIN_POSITIVE,
            1e-40,
            -1e-40,
            f32::MAX,
            3.1,
            1e-7,
            -0.5,
            12_582_912.0,
        ]
    }

    /// Bit equality; with `arithmetic`, two NaNs agree whatever their
    /// sign and payload (IEEE 754 and Rust leave those unspecified).
    fn assert_same(got: [f32; 8], want: [f32; 8], arithmetic: bool, what: &str) {
        for k in 0..8 {
            let nan_pair = arithmetic && got[k].is_nan() && want[k].is_nan();
            assert!(
                nan_pair || got[k].to_bits() == want[k].to_bits(),
                "{what} lane {k}: {:#010x} vs portable {:#010x}",
                got[k].to_bits(),
                want[k].to_bits()
            );
        }
    }

    fn agrees_with_portable<L: Lanes8>(isa: L::Isa) {
        let s = specials();
        for i in 0..s.len() {
            for j in [0, 8] {
                let (a, b): ([f32; 8], [f32; 8]) = ([s[i]; 8], s[j..j + 8].try_into().unwrap());
                let c: [f32; 8] = std::array::from_fn(|k| s[(i + 3 * k + j) % s.len()]);
                let (la, lb, lc) = (
                    L::from_array(isa, a),
                    L::from_array(isa, b),
                    L::from_array(isa, c),
                );
                let (pa, pb, pc) = (f32x8::from(a), f32x8::from(b), f32x8::from(c));
                let what = |op: &str| format!("{} {op} ({} , lanes {j}..)", L::NAME, s[i]);
                assert_same(la.to_array(), a, false, &what("to_array"));
                assert_same((la + lb).to_array(), (pa + pb).to_array(), true, &what("+"));
                assert_same((la - lb).to_array(), (pa - pb).to_array(), true, &what("-"));
                assert_same((la * lb).to_array(), (pa * pb).to_array(), true, &what("*"));
                assert_same((la / lb).to_array(), (pa / pb).to_array(), true, &what("/"));
                assert_same(
                    la.mul_add(lb, lc).to_array(),
                    pa.mul_add(pb, pc).to_array(),
                    true,
                    &what("mul_add"),
                );
                assert_same(
                    lb.sqrt().to_array(),
                    pb.sqrt().to_array(),
                    true,
                    &what("sqrt"),
                );
                assert_same((-lb).to_array(), (-pb).to_array(), false, &what("neg"));
                assert_same(
                    la.min(lb).to_array(),
                    pa.min(pb).to_array(),
                    false,
                    &what("min"),
                );
                assert_same(
                    la.max(lb).to_array(),
                    pa.max(pb).to_array(),
                    false,
                    &what("max"),
                );
                assert_same(
                    la.cmp_lt(lb).to_array(),
                    pa.cmp_lt(pb).to_array(),
                    false,
                    &what("cmp_lt"),
                );
                assert_same(
                    la.cmp_eq(lb).to_array(),
                    pa.cmp_eq(pb).to_array(),
                    false,
                    &what("cmp_eq"),
                );
                assert_same(
                    lc.blend(la, lb).to_array(),
                    pc.blend(pa, pb).to_array(),
                    false,
                    &what("blend"),
                );
                assert_same(
                    (la & lb).to_array(),
                    (pa & pb).to_array(),
                    false,
                    &what("&"),
                );
                assert_same(
                    (la | lb).to_array(),
                    (pa | pb).to_array(),
                    false,
                    &what("|"),
                );
                assert_same(
                    la.add_bits(lb).to_array(),
                    Lanes8::add_bits(pa, pb).to_array(),
                    false,
                    &what("add_bits"),
                );
                assert_same(
                    lb.shl_bits::<23>().to_array(),
                    pb.shl_bits::<23>().to_array(),
                    false,
                    &what("shl_bits"),
                );
                assert_eq!(lb.movemask(), Lanes8::movemask(pb), "{}", what("movemask"));
                let (got, want) = (lc.reduce_add(), pc.reduce_add());
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{}: {got} vs {want}",
                    what("reduce_add")
                );
                assert_same(
                    L::from_halves(isa, a[..4].try_into().unwrap(), b[4..].try_into().unwrap())
                        .to_array(),
                    [a[0], a[1], a[2], a[3], b[4], b[5], b[6], b[7]],
                    false,
                    &what("from_halves"),
                );
                assert_same(L::splat(isa, s[i]).to_array(), a, false, &what("splat"));
            }
        }
    }

    #[test]
    fn every_implementation_agrees_with_the_portable_lanes() {
        for_each_lanes8!(agrees_with_portable);
    }

    fn reduce_tree_is_pairwise_halving<L: Lanes8>(isa: L::Isa) {
        // Level 3 (lane 0 + lane 1 last): (1e8 + -1e8) + (1 + 1) = 2;
        // left to right would lose both ones to rounding.
        let v = L::from_array(isa, [1e8, 1.0, -1e8, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(v.reduce_add(), 2.0, "{}", L::NAME);
        // Level 1 (lane i + lane i+4 first): the big terms cancel
        // before either one is absorbed. Adjacent pairing gives 0.
        let v = L::from_array(isa, [1e8, 1.0, 0.0, 0.0, -1e8, 1.0, 0.0, 0.0]);
        assert_eq!(v.reduce_add(), 2.0, "{}", L::NAME);
        // Level 2 (lane i + lane i+2 second).
        let v = L::from_array(isa, [1e8, 0.0, -1e8, 0.0, 0.0, 1.0, 0.0, 1.0]);
        assert_eq!(v.reduce_add(), 2.0, "{}", L::NAME);
    }

    #[test]
    fn reduce_add_tree_is_the_same_on_every_implementation() {
        for_each_lanes8!(reduce_tree_is_pairwise_halving);
    }

    #[test]
    fn detected_lanes_are_the_last_available() {
        let names: Vec<_> = LaneImpl::available()
            .into_iter()
            .map(LaneImpl::name)
            .collect();
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let want: &[&str] = if avx2 {
            &["portable", "avx2"]
        } else {
            &["portable"]
        };
        assert_eq!(names, want);
        assert_eq!(LaneImpl::detect().name(), *names.last().unwrap());
    }

    #[test]
    fn min_and_max_return_the_right_operand_on_nan() {
        fn check<L: Lanes8>(isa: L::Isa) {
            let nan = L::splat(isa, f32::NAN);
            let one = L::splat(isa, 1.0);
            assert_eq!(nan.min(one).to_array(), [1.0; 8], "{}", L::NAME);
            assert_eq!(nan.max(one).to_array(), [1.0; 8], "{}", L::NAME);
            assert!(one.min(nan).to_array()[0].is_nan(), "{}", L::NAME);
            assert!(one.max(nan).to_array()[0].is_nan(), "{}", L::NAME);
            let (pz, nz) = (L::splat(isa, 0.0), L::splat(isa, -0.0));
            assert_eq!(pz.min(nz).to_array()[0].to_bits(), (-0.0f32).to_bits());
            assert_eq!(nz.max(pz).to_array()[0].to_bits(), 0.0f32.to_bits());
        }
        for_each_lanes8!(check);
    }
}
