//! Table 2: DMA bandwidth as a function of access size.
//!
//! Streams a fixed volume of data in transfers of each Table 2 size
//! through the simulated DMA engine and reports the achieved bandwidth —
//! by construction this must land on the interpolated curve at the
//! measured points, and the interesting check is the *shape*: an
//! aggregated particle package (~80-108 B) runs ~16x faster per byte
//! than per-element 8 B accesses, and an 8-package cache line (~640 B)
//! is within 5% of peak.

use bench::{header, BenchJson};
use sw26010::dma::{Dir, DmaEngine};
use sw26010::params::DMA_BANDWIDTH_TABLE;
use sw26010::perf::PerfCounters;

fn achieved_gbs(size: usize) -> f64 {
    let total_bytes = 8 << 20;
    let n = total_bytes / size;
    let mut perf = PerfCounters::new();
    for _ in 0..n {
        DmaEngine::transfer(&mut perf, Dir::Get, size, true);
    }
    perf.effective_dma_gbs()
}

fn main() -> std::io::Result<()> {
    header(
        "Table 2 — DMA bandwidth vs access size",
        "simulated bandwidth of back-to-back transfers at each size",
    );
    println!(
        "{:>12} {:>14} {:>14}",
        "size (B)", "paper (GB/s)", "model (GB/s)"
    );
    let mut json = BenchJson::new("table2_dma");
    json.config_num("stream_bytes", (8u64 << 20) as f64);
    for &(size, paper) in &DMA_BANDWIDTH_TABLE {
        let gbs = achieved_gbs(size);
        println!("{:>12} {:>14.2} {:>14.2}", size, paper, gbs);
        json.metric(&format!("gbs.{size}"), gbs);
    }
    println!("\nderived sizes used by SW_GROMACS:");
    for (what, size) in [
        ("per-element access", 8usize),
        ("particle package", 80),
        ("force package", 48),
        ("8-package cache line", 640),
        ("force cache line", 384),
    ] {
        println!(
            "{:>24} ({size:>4} B): {:>6.2} GB/s",
            what,
            achieved_gbs(size)
        );
    }
    let pkg = achieved_gbs(80) / achieved_gbs(8);
    println!(
        "\npaper claim: packaging raises bandwidth from 0.99 to ~15.77 GB/s \
         (~16x); model: {pkg:.1}x"
    );
    // wall_cycles: one 8 MiB stream at the package size, the headline
    // configuration of the table.
    let mut perf = PerfCounters::new();
    for _ in 0..(8 << 20) / 80 {
        DmaEngine::transfer(&mut perf, Dir::Get, 80, true);
    }
    json.metric("package_speedup_vs_8b", pkg)
        .wall_cycles(perf.cycles)
        .write()
}
