//! Figure 8: speedup of the short-range kernel optimization ladder
//! (Ori -> Pkg -> Cache -> Vec -> Mark) for 12 K / 24 K / 48 K / 96 K
//! particle water boxes on one core group.
//!
//! Paper values: Pkg ~3x, Cache ~23x, Vec ~40-41x, Mark ~60-63x, roughly
//! independent of particle count.

use bench::{header, water_workload, BenchJson};
use sw26010::cg::CoreGroup;
use swgmx::kernels::{run_gld_naive, run_ori, run_rma, RmaConfig};

fn main() -> std::io::Result<()> {
    header(
        "Figure 8 — short-range kernel speedup ladder",
        "speedup over the MPE-only original, per optimization stage",
    );
    let sizes: Vec<usize> = std::env::args()
        .nth(1)
        .map(|s| vec![s.parse().expect("particle count")])
        .unwrap_or_else(|| vec![12_000, 24_000, 48_000, 96_000]);
    let paper: [(&str, [f64; 4]); 4] = [
        ("Pkg", [3.0, 3.0, 3.0, 3.0]),
        ("Cache", [23.0, 23.0, 23.0, 23.0]),
        ("Vec", [40.0, 41.0, 40.0, 40.0]),
        ("Mark", [61.0, 62.0, 60.0, 63.0]),
    ];
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "particles", "Ori", "gld*", "Pkg", "Cache", "Vec", "Mark"
    );
    let mut json = BenchJson::new("fig8_ladder");
    json.config_str("sizes", &format!("{sizes:?}"));
    let mut total_cycles = 0u64;
    for (si, &n) in sizes.iter().enumerate() {
        let w = water_workload(n, 42 + si as u64);
        let cg = CoreGroup::new();
        let ori = run_ori(&w.psys, &w.half, &w.params, &cg);
        let t_ori = ori.total.cycles as f64;
        let naive = run_gld_naive(&w.psys, &w.half, &w.params, &cg);
        let mut line = format!(
            "{:>10} {:>8.1} {:>8.1}",
            n,
            1.0,
            t_ori / naive.total.cycles as f64
        );
        let mut measured = Vec::new();
        total_cycles += ori.total.cycles + naive.total.cycles;
        json.metric(
            &format!("speedup.gld.{n}"),
            t_ori / naive.total.cycles as f64,
        );
        // Per-rung children of wall_cycles: a diff of the regenerated
        // baseline names the rung(s) that moved.
        json.metric(&format!("wall_cycles.ori.{n}"), ori.total.cycles as f64);
        json.metric(&format!("wall_cycles.gld.{n}"), naive.total.cycles as f64);
        for cfg in [
            RmaConfig::PKG,
            RmaConfig::CACHE,
            RmaConfig::VEC,
            RmaConfig::MARK,
        ] {
            let r = run_rma(&w.psys, &w.half, &w.params, &cg, cfg);
            let speedup = t_ori / r.total.cycles as f64;
            total_cycles += r.total.cycles;
            json.metric(
                &format!("speedup.{}.{n}", cfg.name().to_lowercase()),
                speedup,
            );
            json.metric(
                &format!("wall_cycles.{}.{n}", cfg.name().to_lowercase()),
                r.total.cycles as f64,
            );
            measured.push((cfg.name(), speedup, r));
            line += &format!(" {:>8.1}", speedup);
        }
        println!("{line}");
        if si == 0 {
            println!(
                "\n  paper (12K row):   Ori 1, Pkg {}, Cache {}, Vec {}, Mark {}",
                paper[0].1[0], paper[1].1[0], paper[2].1[0], paper[3].1[0]
            );
            let mark = &measured[3].2;
            println!(
                "  Mark diagnostics: read miss {:.1}%, write miss {:.1}%, \
                 init {} cyc, calc {} cyc, reduce {} cyc",
                100.0 * mark.read_miss_ratio,
                100.0 * mark.write_miss_ratio,
                mark.phases.cycles("init"),
                mark.phases.cycles("calc"),
                mark.phases.cycles("reduce"),
            );
            println!(
                "       calc parts: compute {} dma {} bw-floor {}",
                mark.total.compute_cycles, mark.total.dma_cycles, mark.total.dma_bw_cycles
            );
            let vec_r = &measured[2].2;
            println!(
                "  Vec  diagnostics: init {} cyc, calc {} cyc, reduce {} cyc",
                vec_r.phases.cycles("init"),
                vec_r.phases.cycles("calc"),
                vec_r.phases.cycles("reduce"),
            );
            let pkg_r = &measured[0].2;
            println!(
                "  Pkg  diagnostics: init {} cyc, calc {} cyc, reduce {} cyc\n",
                pkg_r.phases.cycles("init"),
                pkg_r.phases.cycles("calc"),
                pkg_r.phases.cycles("reduce"),
            );
        }
    }
    println!("\npaper claim: ladder ~1 / 3 / 23 / 40 / 61, stable across sizes");
    println!("(*gld: our extra ablation rung — CPEs with per-element gld/gst, not in the paper)");
    json.wall_cycles(total_cycles).write()
}
