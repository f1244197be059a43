//! §3.8 in practice: run the native RMA kernel on real host threads with
//! the three write-conflict strategies and compare wall-clock times — the
//! update-mark idea is not Sunway-specific.
//!
//! ```sh
//! cargo run --release --example portability [n_particles]
//! ```

use std::time::Instant;

use sw_gromacs::mdsim::nonbonded::{max_force_diff, NbParams};
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::water::water_box_particles;
use sw_gromacs::sw26010::LanePool;
use sw_gromacs::swgmx::kernels::{run_rma_native, WriteStrategy};
use sw_gromacs::swgmx::{CpePairList, PackageLayout, PackedSystem};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("particle count"))
        .unwrap_or(24_000);
    let n = n / 3 * 3;
    let sys = water_box_particles(n, 300.0, 8);
    let params = NbParams::paper_default();
    let list = PairList::build(&sys, params.r_cut, ListKind::Half);
    let psys = PackedSystem::build(&sys, list.clustering.clone(), PackageLayout::Transposed);
    let cpe = CpePairList::build(&sys, &list);
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);

    println!(
        "{n} particles, {host} host threads, {} cluster pairs",
        cpe.n_entries()
    );
    println!(
        "{:<16} {:>8} {:>12} {:>14}",
        "strategy", "threads", "time (ms)", "pairs"
    );
    let mut reference: Option<(u64, Vec<sw_gromacs::mdsim::Vec3>)> = None;
    let mut thread_counts = vec![1];
    thread_counts.extend((host > 1).then_some(host));
    for threads in thread_counts {
        let pool = LanePool::with_threads(threads);
        for strategy in WriteStrategy::ALL {
            // Warm up once, then take the best of 3.
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..4 {
                let start = Instant::now();
                let r = run_rma_native(&psys, &cpe, &params, &pool, strategy);
                if out.is_some() {
                    best = best.min(start.elapsed().as_secs_f64() * 1e3);
                }
                out = Some(r);
            }
            let r = out.unwrap();
            let pairs = r.energies.pairs_within_cutoff;
            println!(
                "{:<16} {threads:>8} {best:>12.2} {pairs:>14}",
                strategy.name()
            );
            match &reference {
                None => reference = Some((pairs, r.forces)),
                Some((pairs_ref, f_ref)) => {
                    assert_eq!(pairs, *pairs_ref, "strategies disagree on the pair set");
                    let diff = max_force_diff(&r.forces, f_ref);
                    assert!(diff < 1.0, "strategies disagree: {diff}");
                }
            }
        }
    }
    println!("\npaper §3.8 claim: the update-mark strategy transfers to ordinary multicores");
}
