//! Table 1: time ratio of the MD workflow kernels.
//!
//! Case 1: 48,000-particle water box on 1 CG (paper: Force 95.5%,
//! Neighbor search 2.5%, everything else <1%).
//! Case 2: 3,000,000-particle water box on 512 CGs (paper: Force 74.8%,
//! Comm. energies 18.7%, Neighbor search 2.3%, Wait+comm F 1.1%,
//! Constraints 1.7%, Domain decomp. 0.7%).
//!
//! The table appears in the paper's introduction as motivation, so it
//! profiles the *initial port* (everything on the MPE, MPI, std I/O) —
//! which is also the only reading under which both columns are
//! internally consistent (Force >90% needs the slow MPE kernel; the
//! 18.7% "Comm. energies" of case 2 is dominated by the synchronization
//! wait of the imbalanced MPE-bound step).

use bench::{header, BenchJson};
use swgmx::engine::{Engine, EngineConfig, MultiCgModel, Version};

/// Record every breakdown row as `caseN.pct.<label>` (share) and
/// `wall_cycles.caseN.<label>` (absolute cycles) in the sidecar, one
/// per line, so a `git diff` of the regenerated baseline names the stage
/// that moved; over both cases they sum to the sidecar's `wall_cycles`
/// exactly.
fn record(json: &mut BenchJson, case: usize, breakdown: &sw26010::Breakdown) {
    let total = breakdown.total_cycles() as f64;
    for (label, perf) in breakdown.iter() {
        let key = label.to_lowercase().replace([' ', '/', '+', '.'], "_");
        json.metric(
            &format!("case{case}.pct.{key}"),
            100.0 * perf.cycles as f64 / total,
        );
        json.metric(&format!("wall_cycles.case{case}.{key}"), perf.cycles as f64);
    }
}

fn print_breakdown(title: &str, rows: &[(&str, f64)], breakdown: &sw26010::Breakdown) {
    println!("\n--- {title} ---");
    println!("{:<22} {:>9} {:>11}", "kernel", "paper %", "measured %");
    let total = breakdown.total_cycles() as f64;
    for (label, paper) in rows {
        let measured = 100.0 * breakdown.cycles(label) as f64 / total;
        println!("{label:<22} {paper:>9.1} {measured:>11.1}");
    }
    // Any rows we produce that the paper lumps under "Rest".
    let named: f64 = rows.iter().map(|(l, _)| breakdown.cycles(l) as f64).sum();
    println!(
        "{:<22} {:>9} {:>11.1}",
        "(other rows)",
        "-",
        100.0 * (total - named) / total
    );
}

fn main() -> std::io::Result<()> {
    header(
        "Table 1 — per-kernel time ratio of the MD workflow",
        "case 1: 48 K particles / 1 CG; case 2: 3 M particles / 512 CGs",
    );
    let quick = std::env::args().any(|a| a == "--quick");
    let (n1, n2) = if quick {
        (12_000, 120_000)
    } else {
        (48_000, 3_000_000)
    };

    let mut json = BenchJson::new("table1_breakdown");
    json.config_num("case1.particles", n1 as f64)
        .config_num("case2.particles", n2 as f64)
        .config_str("mode", if quick { "quick" } else { "full" });

    // Case 1: functional single-CG run over one nstlist period.
    let sys = mdsim::water::water_box_equilibrated(n1 / 3, 300.0, 11);
    let mut engine = Engine::new(sys, EngineConfig::paper(Version::Ori));
    engine.run(10);
    print_breakdown(
        &format!("Case 1: {n1} particles, 1 CG"),
        &[
            ("Neighbor search", 2.5),
            ("Force", 95.5),
            ("NB X/F buffer ops", 0.1),
            ("Update", 0.3),
            ("Constraints", 0.6),
            ("Write traj", 0.5),
        ],
        &engine.breakdown,
    );
    record(&mut json, 1, &engine.breakdown);

    // Case 2: representative-CG model with 512 ranks.
    let model = MultiCgModel::new(n2, 512, Version::Ori);
    let out = model.run(10, 12);
    print_breakdown(
        &format!("Case 2: {n2} particles, 512 CGs"),
        &[
            ("Domain decomp.", 0.7),
            ("Neighbor search", 2.3),
            ("Force", 74.8),
            ("Wait + comm. F", 1.1),
            ("NB X/F buffer ops", 0.2),
            ("Update", 0.2),
            ("Constraints", 1.7),
            ("Comm. energies", 18.7),
            ("Write traj", 0.1),
        ],
        &out.breakdown,
    );
    record(&mut json, 2, &out.breakdown);
    let total = engine.breakdown.total_cycles() + out.breakdown.total_cycles();
    json.wall_cycles(total).write()?;
    println!(
        "\npaper claim: Force dominates both cases; Comm. energies becomes \
         the second-largest cost at 512 CGs"
    );
    Ok(())
}
