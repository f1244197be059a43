//! Ablation: cluster-id ordering vs software-cache behaviour.
//!
//! DESIGN.md's locality question: the LDM caches index by cluster id, so
//! the spatial order that assigns ids controls the working set. Compare
//! row-major, Morton (production default), and Hilbert orderings on the
//! Mark kernel.

use bench::{header, BenchJson};
use mdsim::cluster::{CellOrder, Clustering};
use mdsim::nonbonded::NbParams;
use mdsim::pairlist::{ListKind, PairList};
use sw26010::cg::CoreGroup;
use swgmx::cpelist::CpePairList;
use swgmx::kernels::{run_rma, RmaConfig};
use swgmx::package::{PackageLayout, PackedSystem};

fn main() -> std::io::Result<()> {
    header(
        "Ablation — cluster ordering vs cache behaviour",
        "Mark kernel read/write miss ratios and cycles per ordering",
    );
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("particle count"))
        .unwrap_or(24_000);
    let sys = mdsim::water::water_box_particles(n / 3 * 3, 300.0, 17);
    let params = NbParams::paper_default();
    let cg = CoreGroup::new();

    let mut rows = Vec::new();
    for (name, order) in [
        ("row-major", CellOrder::RowMajor),
        ("morton", CellOrder::Morton),
        ("hilbert", CellOrder::Hilbert),
    ] {
        let clustering = Clustering::build_ordered(&sys.pbc, &sys.pos, params.r_cut, order);
        let list = PairList::build_with_clustering(
            &sys.pbc,
            &sys.pos,
            clustering.clone(),
            params.r_cut,
            ListKind::Half,
        );
        let psys = PackedSystem::build(&sys, clustering, PackageLayout::Transposed);
        let cpe = CpePairList::build(&sys, &list);
        let out = run_rma(&psys, &cpe, &params, &cg, RmaConfig::MARK);
        rows.push((
            name,
            out.read_miss_ratio,
            out.write_miss_ratio,
            out.total.cycles,
        ));
    }
    let morton_cycles = rows[1].3;
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>10}",
        "ordering", "read miss", "write miss", "kcycles", "vs morton"
    );
    let mut json = BenchJson::new("ablation_ordering");
    json.config_num("particles", n as f64);
    let mut total_cycles = 0u64;
    for (name, rm, wm, cycles) in rows {
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>14} {:>10.2}",
            name,
            100.0 * rm,
            100.0 * wm,
            cycles / 1000,
            cycles as f64 / morton_cycles as f64
        );
        total_cycles += cycles;
        json.metric(&format!("read_miss.{name}"), rm)
            .metric(&format!("write_miss.{name}"), wm)
            .metric(&format!("cycles.{name}"), cycles as f64);
    }
    json.wall_cycles(total_cycles).write()?;
    println!(
        "\ninterpretation: the §4.2 'miss ratio under 15%' claim depends on a \
         locality-preserving cluster order; row-major ids thrash the \
         direct-mapped caches, the space-filling curves keep them resident"
    );
    Ok(())
}
