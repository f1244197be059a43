//! Table 4 + Figure 11: cross-platform comparison via the TTF model.
//!
//! The paper derives "fair" chip counts from Eq. 3/4 (150 SW26010 per
//! KNL, 24 per P100) and then compares measured GROMACS throughput.
//! We reproduce the equations from Table 4's published numbers, insert
//! the miss ratio *measured by our simulated kernels*, and rebuild the
//! three bar groups; KNL/P100 absolute bars are the paper's published
//! measurements (we have neither device — see DESIGN.md).

use bench::{bar, header, water_workload, BenchJson};
use sw26010::cg::CoreGroup;
use swgmx::engine::{MultiCgModel, Version};
use swgmx::kernels::{run_rma, RmaConfig};
use swgmx::platforms::{self, KNL, P100, SW26010};

fn main() -> std::io::Result<()> {
    header(
        "Table 4 / Figure 11 — platform comparison (TTF model)",
        "TTF_a/TTF_b = (MR_a x BW_b) / (MR_b x BW_a), Table 4 data",
    );
    println!("--- Table 4 ---");
    println!(
        "{:<10} {:>8} {:>12} {:>16} {:>10}",
        "platform", "TFLOPS", "BW (GB/s)", "cache", "miss"
    );
    for p in [SW26010, KNL, P100] {
        println!(
            "{:<10} {:>8.1} {:>12.0} {:>16} {:>9.2}%",
            p.name,
            p.tflops,
            p.bandwidth_gbs,
            p.cache,
            100.0 * p.miss_ratio
        );
    }

    println!("\n--- Eq. 3/4: TTF ratios ---");
    println!(
        "SW26010 vs KNL : paper ~150, model {:.0}",
        platforms::ttf_ratio(&SW26010, &KNL)
    );
    println!(
        "SW26010 vs P100: paper ~24,  model {:.0}",
        platforms::ttf_ratio(&SW26010, &P100)
    );

    // Measured miss ratio from the simulated Mark kernel.
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 12_000 } else { 48_000 };
    let w = water_workload(n, 3);
    let mark = run_rma(
        &w.psys,
        &w.half,
        &w.params,
        &CoreGroup::new(),
        RmaConfig::MARK,
    );
    let measured_miss = 0.5 * (mark.read_miss_ratio + mark.write_miss_ratio);
    println!(
        "\nwith our measured software-cache miss ratio ({:.1}%):",
        100.0 * measured_miss
    );
    println!(
        "SW26010 vs KNL : {:.0}   SW26010 vs P100: {:.0}",
        platforms::ttf_ratio_measured(measured_miss, &KNL),
        platforms::ttf_ratio_measured(measured_miss, &P100)
    );

    // Fig. 11 bars: simulate the CPE/MPE overall speedup at 512-ish CGs.
    let ranks = 600; // 150 chips x 4 CGs
    let steps = if quick { 3 } else { 5 };
    let particles = if quick { 120_000 } else { 3_000_000 };
    let cpe = MultiCgModel::new(particles, ranks, Version::Other)
        .run(steps, 4)
        .total_ms;
    let mpe = MultiCgModel::new(particles, ranks, Version::Ori)
        .run(steps, 4)
        .total_ms;
    let cpe_over_mpe = mpe / cpe;
    println!("\n--- Figure 11 (bars relative to the MPE ensemble) ---");
    for g in platforms::fig11_groups(cpe_over_mpe) {
        println!("\n{}", g.label);
        bar("MPE ensemble", g.mpe, 2.0);
        bar(g.other_name, g.other, 2.0);
        bar("SW_GROMACS (CPE)", g.cpe, 2.0);
    }
    println!(
        "\npaper claim: 150x SW >> 1 KNL; 24x SW ~ 1x P100 (22.92 vs 22.77); \
         48x SW > 2x P100 (21.47 vs 17.20, better scaling)"
    );

    let mut json = BenchJson::new("fig11_platforms");
    json.config_num("particles", n as f64)
        .config_num("fig11_ranks", ranks as f64)
        .config_str("mode", if quick { "quick" } else { "full" });
    json.metric("ttf.sw_vs_knl", platforms::ttf_ratio(&SW26010, &KNL))
        .metric("ttf.sw_vs_p100", platforms::ttf_ratio(&SW26010, &P100))
        .metric("cache.miss_ratio", measured_miss)
        .metric(
            "ttf.sw_vs_knl.measured",
            platforms::ttf_ratio_measured(measured_miss, &KNL),
        )
        .metric(
            "ttf.sw_vs_p100.measured",
            platforms::ttf_ratio_measured(measured_miss, &P100),
        )
        .metric("cpe_over_mpe", cpe_over_mpe);
    json.wall_cycles(
        mark.total.cycles
            + sw26010::params::ns_to_cycles(cpe * 1e6)
            + sw26010::params::ns_to_cycles(mpe * 1e6),
    )
    .write()
}
