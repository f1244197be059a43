//! Figure 12: weak and strong scalability from 4 to 512 CGs.
//!
//! Strong scaling: the 48 K-particle water box split over N CGs; paper
//! efficiencies 1.00, 0.97, 0.94, 0.92, 0.90, 0.78, 0.63, 0.47.
//! Weak scaling: ~10 K particles per CG; paper efficiencies 1.00, 1.00,
//! 0.99, 0.90, 0.90, 0.89, 0.89, 0.87.

use bench::{header, BenchJson};
use swgmx::engine::{MultiCgModel, Version};

fn time_per_step(n_particles: usize, ranks: usize, steps: usize, seed: u64) -> f64 {
    MultiCgModel::new(n_particles, ranks, Version::Other)
        .run(steps, seed)
        .total_ms
        / steps as f64
}

fn main() -> std::io::Result<()> {
    header(
        "Figure 12 — weak & strong scalability (4 -> 512 CGs)",
        "parallel efficiency per Eq. 5/6: strong Eff(N) = T4/((N/4) TN); weak Eff(N) = T4/TN",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 3 } else { 10 };
    let ranks_list = [4usize, 8, 16, 32, 64, 128, 256, 512];
    let paper_strong = [1.00, 0.97, 0.94, 0.92, 0.90, 0.78, 0.63, 0.47];
    let paper_weak = [1.00, 1.00, 0.99, 0.90, 0.90, 0.89, 0.89, 0.87];

    // Strong: fixed 48 K particles.
    println!("\n--- strong scaling (48 K particles total) ---");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "CGs", "paper eff", "model eff", "speedup"
    );
    let mut json = BenchJson::new("fig12_scaling");
    json.config_num("steps", steps as f64)
        .config_str("mode", if quick { "quick" } else { "full" });
    let mut total_ms = 0.0;
    let t4 = time_per_step(48_000, 4, steps, 31);
    for (i, &ranks) in ranks_list.iter().enumerate() {
        let tn = if ranks == 4 {
            t4
        } else {
            time_per_step(48_000, ranks, steps, 31)
        };
        total_ms += tn * steps as f64;
        let eff = t4 / ((ranks as f64 / 4.0) * tn);
        let speedup = t4 / tn;
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>10.1}",
            ranks, paper_strong[i], eff, speedup
        );
        json.metric(&format!("strong.eff.{ranks}"), eff);
    }

    // Weak: ~10 K particles per CG.
    println!("\n--- weak scaling (~10 K particles per CG) ---");
    println!("{:>6} {:>12} {:>12}", "CGs", "paper eff", "model eff");
    let per_cg = 10_002; // divisible by 3
    let t4w = time_per_step(per_cg * 4, 4, steps, 32);
    for (i, &ranks) in ranks_list.iter().enumerate() {
        let tn = if ranks == 4 {
            t4w
        } else {
            time_per_step(per_cg * ranks, ranks, steps, 32)
        };
        total_ms += tn * steps as f64;
        let eff = t4w / tn;
        println!("{:>6} {:>12.2} {:>12.2}", ranks, paper_weak[i], eff);
        json.metric(&format!("weak.eff.{ranks}"), eff);
    }
    json.wall_cycles(sw26010::params::ns_to_cycles(total_ms * 1e6))
        .write()?;
    println!(
        "\npaper claim: weak scaling nearly flat (>=0.87 at 512 CGs); strong \
         scaling degrades to ~0.47 at 512 CGs as per-CG work shrinks below \
         100 particles and communication dominates"
    );
    Ok(())
}
