//! Figure 10: overall (whole-step) speedup of the optimization versions.
//!
//! Case 1 (48 K particles, 1 CG), paper: Ori 1, Cal 20, List 30,
//! Other 32. Case 2 (3 M particles, 512 CGs), paper: Ori 1, Cal 6,
//! List 8, Other 18.

use bench::{header, BenchJson};
use swgmx::engine::{MultiCgModel, Version};

fn main() -> std::io::Result<()> {
    header(
        "Figure 10 — overall speedup per optimization version",
        "whole-step time relative to the unoptimized port",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let (n1, n2, steps) = if quick {
        (12_000usize, 120_000usize, 5)
    } else {
        (48_000, 3_000_000, 10)
    };
    let paper_case1 = [1.0, 20.0, 30.0, 32.0];
    let paper_case2 = [1.0, 6.0, 8.0, 18.0];

    let mut json = BenchJson::new("fig10_overall");
    json.config_num("steps", steps as f64)
        .config_str("mode", if quick { "quick" } else { "full" });
    let mut total_cycles = 0u64;
    for (case, n, ranks, paper) in [(1, n1, 1usize, paper_case1), (2, n2, 512, paper_case2)] {
        println!("\n--- Case {case}: {n} particles, {ranks} CG(s) ---");
        println!("{:<8} {:>8} {:>10}", "version", "paper", "measured");
        json.config_num(&format!("case{case}.particles"), n as f64)
            .config_num(&format!("case{case}.ranks"), ranks as f64);
        let mut t_ori = None;
        for (vi, v) in Version::ALL.iter().enumerate() {
            let model = MultiCgModel::new(n, ranks, *v);
            let out = model.run(steps, 21 + case as u64);
            let t = out.total_ms;
            total_cycles += sw26010::params::ns_to_cycles(t * 1e6);
            let speedup = match t_ori {
                None => {
                    t_ori = Some(t);
                    1.0
                }
                Some(t0) => t0 / t,
            };
            println!("{:<8} {:>8.1} {:>10.1}", v.name(), paper[vi], speedup);
            json.metric(
                &format!("case{case}.speedup.{}", v.name().to_lowercase()),
                speedup,
            );
        }
    }
    json.wall_cycles(total_cycles).write()?;
    println!(
        "\npaper claim: calculation optimization dominates case 1; \
         communication/IO optimizations matter at 512 CGs (case 2's \
         List->Other jump)"
    );
    Ok(())
}
