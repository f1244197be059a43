//! Figure 9: write-conflict strategy comparison on Case 1 (48 K
//! particles, one CG).
//!
//! Paper values (speedup of the short-range kernel over the MPE
//! original): USTC_GMX 16x, SW_LAMMPS (RCA) 16.4x, RMA_GMX 40x,
//! MARK_GMX 63x.
//!
//! Beyond the paper: the full `RmaConfig` grid (every read-cache ×
//! write-cache × SIMD × mark combination, simulated kcycles), which
//! answers DESIGN.md's feature-interaction questions — the write cache
//! is the single largest lever.

use bench::{bar, header, water_workload, BenchJson};
use sw26010::cg::CoreGroup;
use swgmx::kernels::{run_ori, run_rca, run_rma, run_ustc, RmaConfig};

fn main() {
    header(
        "Figure 9 — write-conflict strategies, Case 1 (48 K particles)",
        "speedup of the short-range kernel over the MPE original",
    );
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("particle count"))
        .unwrap_or(48_000);
    let w = water_workload(n, 7);
    let cg = CoreGroup::new();

    let ori = run_ori(&w.psys, &w.half, &w.params, &cg);
    let t_ori = ori.total.cycles as f64;

    let ustc = run_ustc(&w.psys, &w.half, &w.params, &cg);
    let rca = run_rca(&w.psys, &w.full, &w.params, &cg);
    let rma = run_rma(&w.psys, &w.half, &w.params, &cg, RmaConfig::VEC);
    let mark = run_rma(&w.psys, &w.half, &w.params, &cg, RmaConfig::MARK);

    let results = [
        ("USTC_GMX", 16.0, t_ori / ustc.total.cycles as f64),
        ("SW_LAMMPS (RCA)", 16.4, t_ori / rca.total.cycles as f64),
        ("RMA_GMX", 40.0, t_ori / rma.total.cycles as f64),
        ("MARK_GMX", 63.0, t_ori / mark.total.cycles as f64),
    ];
    println!("{:<18} {:>8} {:>10}", "strategy", "paper", "measured");
    for (name, paper, measured) in results {
        println!("{name:<18} {paper:>8.1} {measured:>10.1}");
    }
    println!();
    for (name, _, measured) in results {
        bar(name, measured, 0.8);
    }
    println!(
        "\nUSTC pipeline balance: CPE {} cyc vs MPE apply {} cyc (imbalance \
         is the §4.3 critique)",
        ustc.phases.cycles("calc (CPE)"),
        ustc.phases.cycles("apply (MPE)"),
    );
    println!(
        "Mark reduction cost: {:.2}% of calculation (paper: ~1.2%)",
        100.0 * mark.phases.cycles("reduce") as f64 / mark.phases.cycles("calc") as f64
    );
    println!("\npaper claim: MARK > RMA >> RCA ~ USTC, MARK ~ 4x USTC");

    let mut json = BenchJson::new("fig9_strategies");
    json.config_num("particles", n as f64);
    for (name, _, measured) in results {
        json.metric(
            &format!(
                "speedup.{}",
                name.split_whitespace().next().unwrap().to_lowercase()
            ),
            measured,
        );
    }
    json.metric(
        "mark.reduce_over_calc",
        mark.phases.cycles("reduce") as f64 / mark.phases.cycles("calc") as f64,
    );

    println!("\nRmaConfig ablation grid (simulated kcycles)");
    println!(
        "{:>5} {:>6} {:>5} {:>5} {:>9}",
        "read", "write", "simd", "mark", "kcycles"
    );
    for read_cache in [false, true] {
        for write_cache in [false, true] {
            for simd in [false, true] {
                for marks in [false, true] {
                    if marks && !write_cache {
                        continue; // marks live in the write cache
                    }
                    let cfg = RmaConfig {
                        read_cache,
                        write_cache,
                        simd,
                        marks,
                    };
                    let cycles = run_rma(&w.psys, &w.half, &w.params, &cg, cfg).total.cycles;
                    println!(
                        "{read_cache:>5} {write_cache:>6} {simd:>5} {marks:>5} {:>9}",
                        cycles / 1000
                    );
                    json.metric(
                        &format!(
                            "grid.kcycles.read{}_write{}_simd{}_mark{}",
                            read_cache as u8, write_cache as u8, simd as u8, marks as u8
                        ),
                        (cycles / 1000) as f64,
                    );
                }
            }
        }
    }

    json.wall_cycles(
        ori.total.cycles
            + ustc.total.cycles
            + rca.total.cycles
            + rma.total.cycles
            + mark.total.cycles,
    )
    .write();
}
