//! The register-backed [`Lanes8`] implementation for `x86_64`:
//! [`f32x8_avx2`] (one `__m256`).
//!
//! It uses no FMA, `rsqrtps`/`rcpps`, or `blendvps` (which selects on
//! the sign bit alone): every method is the packed form of the
//! portable per-lane expression, so lanes stay bit-identical to it.

use core::arch::x86_64::*;
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Sub};

use crate::Lanes8;

/// `$body` in an `unsafe` block, for SSE/SSE2 intrinsics that touch no
/// memory.
macro_rules! sse2 {
    ($body:expr) => {
        // SAFETY: the only precondition is that the CPU has SSE2, and
        // this module is compiled only under
        // `cfg(target_feature = "sse2")`: the whole program already
        // assumes it.
        unsafe { $body }
    };
}

/// `tmp[0] += tmp[2]; tmp[1] += tmp[3]; tmp[0] += tmp[1]` — the last
/// two levels of the `reduce_add` tree.
#[inline(always)]
fn reduce4(v: __m128) -> f32 {
    sse2!({
        let s2 = _mm_add_ps(v, _mm_movehl_ps(v, v));
        _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2)))
    })
}

/// Proof that the CPU reports AVX2: [`Avx2::detect`] is the only way
/// to obtain one, and every [`f32x8_avx2`] constructor demands it.
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

impl Avx2 {
    /// The proof, if `is_x86_feature_detected!("avx2")` (a cached
    /// atomic load after the first call: no lock, no allocation).
    #[inline]
    pub fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("avx2").then_some(Self(()))
    }
}

/// Eight lanes in one AVX register, using AVX and AVX2 instructions
/// (no FMA).
///
/// The methods are safe, `#[inline(always)]` and carry no
/// `#[target_feature]` themselves: instantiate the generic code inside
/// a `#[target_feature(enable = "avx2")]` function, where they inline
/// to bare `ymm` instructions. Anywhere else they still compute the
/// same bits, through out-of-line calls.
#[derive(Clone, Copy)]
pub struct f32x8_avx2(__m256);

/// `$body` in an `unsafe` block, for the intrinsics of [`f32x8_avx2`]
/// that touch no memory.
macro_rules! avx2 {
    ($body:expr) => {
        // SAFETY: the only precondition is that the CPU has AVX2. Every
        // caller holds an `f32x8_avx2` or an `Avx2`, and an `Avx2`
        // comes only from `Avx2::detect`, i.e. after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { $body }
    };
}

impl Lanes8 for f32x8_avx2 {
    type Isa = Avx2;
    const NAME: &'static str = "avx2";

    #[inline(always)]
    fn splat(_: Avx2, v: f32) -> Self {
        Self(avx2!(_mm256_set1_ps(v)))
    }

    #[inline(always)]
    fn from_array(_: Avx2, a: [f32; 8]) -> Self {
        // SAFETY: AVX2 was detected (the `Avx2` argument); the read is
        // the 8 `f32` of the array and `loadu` needs no alignment.
        Self(unsafe { _mm256_loadu_ps(a.as_ptr()) })
    }

    #[inline(always)]
    fn from_halves(_: Avx2, lo: &[f32; 4], hi: &[f32; 4]) -> Self {
        // SAFETY: AVX2 was detected (the `Avx2` argument); each read is
        // the 4 `f32` of one array reference, unaligned.
        Self(unsafe { _mm256_set_m128(_mm_loadu_ps(hi.as_ptr()), _mm_loadu_ps(lo.as_ptr())) })
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        // SAFETY: AVX2 was detected (`self` exists); the write is the
        // 8 `f32` of the array and `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(avx2!(_mm256_sqrt_ps(self.0)))
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(avx2!(_mm256_min_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(avx2!(_mm256_max_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn cmp_lt(self, rhs: Self) -> Self {
        Self(avx2!(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn cmp_eq(self, rhs: Self) -> Self {
        Self(avx2!(_mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn blend(self, t: Self, f: Self) -> Self {
        Self(avx2!(_mm256_or_ps(
            _mm256_and_ps(self.0, t.0),
            _mm256_andnot_ps(self.0, f.0)
        )))
    }

    #[inline(always)]
    fn reduce_add(self) -> f32 {
        avx2!(reduce4(_mm_add_ps(
            _mm256_castps256_ps128(self.0),
            _mm256_extractf128_ps::<1>(self.0)
        )))
    }

    #[inline(always)]
    fn movemask(self) -> u32 {
        avx2!(_mm256_movemask_ps(self.0)) as u32
    }

    #[inline(always)]
    fn add_bits(self, rhs: Self) -> Self {
        Self(avx2!(_mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(self.0),
            _mm256_castps_si256(rhs.0)
        ))))
    }

    #[inline(always)]
    fn shl_bits<const N: i32>(self) -> Self {
        Self(avx2!(_mm256_castsi256_ps(_mm256_slli_epi32::<N>(
            _mm256_castps_si256(self.0)
        ))))
    }
}

macro_rules! avx2_binop {
    ($op:ident, $method:ident, $intrinsic:ident) => {
        impl $op for f32x8_avx2 {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                Self(avx2!($intrinsic(self.0, rhs.0)))
            }
        }
    };
}

avx2_binop!(Add, add, _mm256_add_ps);
avx2_binop!(Sub, sub, _mm256_sub_ps);
avx2_binop!(Mul, mul, _mm256_mul_ps);
avx2_binop!(Div, div, _mm256_div_ps);
avx2_binop!(BitAnd, bitand, _mm256_and_ps);
avx2_binop!(BitOr, bitor, _mm256_or_ps);

impl Neg for f32x8_avx2 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(avx2!(_mm256_xor_ps(self.0, _mm256_set1_ps(-0.0))))
    }
}
