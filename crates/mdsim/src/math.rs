//! Small numerical helpers: complementary error function and friends,
//! and the byte-wise FNV-1a behind the bit-exact checksums.

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
}
