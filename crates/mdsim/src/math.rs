//! Small numerical helpers: complementary error function and friends,
//! their f32 lane forms, and the byte-wise FNV-1a behind the bit-exact
//! checksums.

use wide::Lanes8;

/// Complementary error function, Abramowitz & Stegun 7.1.26
/// (max absolute error ~1.5e-7, ample for mixed-precision MD).
pub fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let r = poly * (-x * x).exp();
    if sign_neg {
        2.0 - r
    } else {
        r
    }
}

/// Error function via [`erfc`].
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// `f32` convenience wrapper around [`erfc`].
pub fn erfc_f32(x: f32) -> f32 {
    erfc(x as f64) as f32
}

/// Vectorized `exp(x)` for `x <= 0` (the Ewald `exp(-(βr)²)` range);
/// `x` is clamped to `[-87, 0]` first, which also maps a NaN lane to
/// `-87` ([`Lanes8::max`] returns its right operand on NaN).
///
/// Standard range reduction `x = n·ln2 + r`, degree-6 polynomial on
/// `r ∈ [-ln2/2, ln2/2]`, scale by `2^n` through exponent bits.
/// Relative error ≤ ~2e-7 over the kernel's domain.
///
/// Rounding uses the `1.5·2²³` magic-constant trick: adding it forces
/// the integer part of `x·log₂e` into the low mantissa bits, so both
/// the rounded float `n` and its integer value fall out of plain
/// adds/subtracts — no `roundps` (SSE4.1) and no libm call.
#[inline(always)]
pub fn exp8<L: Lanes8>(isa: L::Isa, x: L) -> L {
    const LN2_HI: f32 = 0.693_359_4; // ln2 split: hi has few mantissa bits
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let c = |v: f32| L::splat(isa, v);
    let x = x.max(c(-87.0)).min(c(0.0));
    // n ∈ [-126, 0] for in-domain x, so MAGIC + n keeps exponent 23
    // and the mantissa ulp is exactly 1: the bit pattern differs
    // from MAGIC's by the two's-complement integer n.
    let nf = x * c(std::f32::consts::LOG2_E) + c(MAGIC);
    let n = nf - c(MAGIC);
    // 2^n: (n + 127) << 23, with n = bits(nf) - bits(MAGIC).
    let bias = f32::from_bits(127u32.wrapping_sub(MAGIC.to_bits()));
    let two_n = nf.add_bits(c(bias)).shl_bits::<23>();
    let r = x - n * c(LN2_HI);
    let r = r - n * c(LN2_LO);
    // exp(r) ≈ 1 + r + r²/2! + … + r⁶/6! (Horner).
    let p = c(1.0)
        + r * (c(1.0)
            + r * (c(0.5)
                + r * (c(1.0 / 6.0)
                    + r * (c(1.0 / 24.0) + r * (c(1.0 / 120.0) + r * c(1.0 / 720.0))))));
    p * two_n
}

/// The A&S rational variable's `P` constant, shared with callers that
/// precompute `t = 1/(1 + Px)` themselves (the fast short-range Ewald
/// form of [`pair_interaction8`](crate::nonbonded::pair_interaction8)).
pub const ERFC_P: f32 = 0.327_591_1;

/// The polynomial part of Abramowitz & Stegun 7.1.26 (the polynomial of
/// [`erfc`], evaluated in f32) with the rational variable
/// `t = 1/(1 + Px)` and `exp(-x²)` supplied by the caller.
#[inline(always)]
pub fn erfc8_poly_t<L: Lanes8>(isa: L::Isa, t: L, exp_neg_x2: L) -> L {
    const A1: f32 = 0.254_829_6;
    const A2: f32 = -0.284_496_72;
    const A3: f32 = 1.421_413_8;
    const A4: f32 = -1.453_152_1;
    const A5: f32 = 1.061_405_4;
    let c = |v: f32| L::splat(isa, v);
    let poly = ((((c(A5) * t + c(A4)) * t + c(A3)) * t + c(A2)) * t + c(A1)) * t;
    poly * exp_neg_x2
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a state `h`, one byte at a time.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wide::for_each_lanes8;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is incremental.
        assert_eq!(
            fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV1A_OFFSET, b"foobar")
        );
    }

    #[test]
    fn erfc_known_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.479_500_122),
            (1.0, 0.157_299_207),
            (2.0, 0.004_677_735),
            (-1.0, 1.842_700_793),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!((got - want).abs() < 2e-7, "erfc({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.7, 1.3, 2.5] {
            assert!((erf(x) + erf(-x)).abs() < 4e-7);
        }
    }

    #[test]
    fn erfc_limits() {
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(-6.0) - 2.0).abs() < 1e-15);
    }

    fn exp8_matches_f64_reference<L: Lanes8>(isa: L::Isa) {
        let mut x = -9.8f32;
        while x <= 0.0 {
            let got = exp8(isa, L::splat(isa, x)).to_array()[0];
            let want = (x as f64).exp();
            let rel = ((got as f64 - want) / want).abs();
            assert!(rel < 1e-6, "exp({x}) = {got}, want {want}, rel {rel}");
            x += 0.037;
        }
    }

    fn exp8_clamps_its_domain<L: Lanes8>(isa: L::Isa) {
        let x = [
            f32::NAN,
            f32::NEG_INFINITY,
            -1e30,
            -87.0,
            0.0,
            1.0,
            1e30,
            f32::INFINITY,
        ];
        let got = exp8(isa, L::from_array(isa, x)).to_array();
        let floor = exp8(isa, L::splat(isa, -87.0)).to_array()[0];
        assert!(floor > 0.0 && floor < 1e-37);
        for (k, got) in got.iter().enumerate() {
            let want = if k < 4 { floor } else { 1.0 };
            assert_eq!(got.to_bits(), want.to_bits(), "lane {k}");
        }
    }

    fn erfc8_matches_scalar_reference<L: Lanes8>(isa: L::Isa) {
        let mut x = 0.0f32;
        while x <= 4.0 {
            // erfc as the fast Ewald form of `pair_interaction8` composes it.
            let (one, xs) = (L::splat(isa, 1.0), L::splat(isa, x));
            let t = one / (one + L::splat(isa, ERFC_P) * xs);
            let got = erfc8_poly_t(isa, t, exp8(isa, -(xs * xs))).to_array()[0];
            let want = erfc(x as f64);
            // A&S 7.1.26 carries |ε| ≤ 1.5e-7 absolute; f32 evaluation
            // adds a few ulps.
            assert!(
                (got as f64 - want).abs() < 2e-6,
                "erfc({x}) = {got}, want {want}"
            );
            x += 0.029;
        }
    }

    #[test]
    fn lane_transcendentals_hold_on_every_lane_implementation() {
        for_each_lanes8!(exp8_matches_f64_reference);
        for_each_lanes8!(exp8_clamps_its_domain);
        for_each_lanes8!(erfc8_matches_scalar_reference);
    }
}
