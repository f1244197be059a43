//! Small-scale versions of every paper claim the bench harness
//! regenerates at full scale: these assertions pin the *shape* of each
//! table/figure so a regression in any subsystem fails CI, without the
//! full-size run time.

use sw_gromacs::mdsim::nonbonded::NbParams;
use sw_gromacs::mdsim::pairlist::{ListKind, PairList};
use sw_gromacs::mdsim::water::water_box;
use sw_gromacs::sw26010::dma::DmaEngine;
use sw_gromacs::sw26010::params::DMA_BANDWIDTH_TABLE;
use sw_gromacs::sw26010::CoreGroup;
use sw_gromacs::swgmx::engine::{MultiCgModel, Version};
use sw_gromacs::swgmx::pairgen::grid_walk_miss_study;
use sw_gromacs::swgmx::platforms::{self, KNL, P100, SW26010};
use sw_gromacs::swgmx::{
    run_ori, run_rca, run_rma, run_ustc, CpePairList, PackageLayout, PackedSystem, RmaConfig,
};

fn workload(n_mol: usize, seed: u64) -> (PackedSystem, CpePairList, CpePairList, NbParams) {
    let sys = water_box(n_mol, 300.0, seed);
    let params = NbParams {
        r_cut: 0.7,
        ..NbParams::paper_default()
    };
    let half = PairList::build(&sys, 0.7, ListKind::Half);
    let full = PairList::build(&sys, 0.7, ListKind::Full);
    let psys = PackedSystem::build(&sys, half.clustering.clone(), PackageLayout::Transposed);
    (
        psys,
        CpePairList::build(&sys, &half),
        CpePairList::build(&sys, &full),
        params,
    )
}

/// Table 2: the modeled bandwidth reproduces every measured point.
#[test]
fn table2_bandwidth_points() {
    for &(size, gbs) in &DMA_BANDWIDTH_TABLE {
        let cycles = DmaEngine::transfer_cycles(size);
        let achieved = size as f64 / sw_gromacs::sw26010::params::cycles_to_ns(cycles);
        assert!(
            (achieved - gbs).abs() / gbs < 0.15,
            "size {size}: {achieved:.2} vs {gbs}"
        );
    }
}

/// Fig. 8: the ladder is strictly monotone with meaningful gaps.
#[test]
fn fig8_ladder_shape() {
    let (psys, half, _, params) = workload(1200, 1);
    let cg = CoreGroup::new();
    let ori = run_ori(&psys, &half, &params, &cg).total.cycles as f64;
    let s = |cfg| ori / run_rma(&psys, &half, &params, &cg, cfg).total.cycles as f64;
    let pkg = s(RmaConfig::PKG);
    let cache = s(RmaConfig::CACHE);
    let vec = s(RmaConfig::VEC);
    let mark = s(RmaConfig::MARK);
    assert!(pkg > 1.5, "Pkg {pkg:.1}");
    assert!(cache > 3.0 * pkg, "Cache {cache:.1} vs Pkg {pkg:.1}");
    assert!(vec > 1.1 * cache, "Vec {vec:.1} vs Cache {cache:.1}");
    assert!(mark > 1.1 * vec, "Mark {mark:.1} vs Vec {vec:.1}");
    assert!(mark > 25.0, "Mark only {mark:.1}x");
}

/// Fig. 9: Mark > RMA > {RCA, USTC}.
#[test]
fn fig9_strategy_order() {
    let (psys, half, full, params) = workload(1200, 2);
    let cg = CoreGroup::new();
    let mark = run_rma(&psys, &half, &params, &cg, RmaConfig::MARK)
        .total
        .cycles;
    let rma = run_rma(&psys, &half, &params, &cg, RmaConfig::VEC)
        .total
        .cycles;
    let rca = run_rca(&psys, &full, &params, &cg).total.cycles;
    let ustc = run_ustc(&psys, &half, &params, &cg).total.cycles;
    assert!(mark < rma, "Mark {mark} vs RMA {rma}");
    assert!(mark < rca, "Mark {mark} vs RCA {rca}");
    assert!(rma < ustc, "RMA {rma} vs USTC {ustc}");
    // RMA-vs-RCA crosses over with system size: RMA's init+reduction
    // overhead shrinks relative to compute as N grows, so RMA wins at the
    // paper's 48 K scale (see fig9_strategies at full size) but can lose
    // at this test's small size. Only bound the gap here.
    assert!(rma < 2 * rca, "RMA {rma} vs RCA {rca}");
}

/// Fig. 10: every optimization version improves the whole step, in both
/// single-CG and many-CG regimes.
#[test]
fn fig10_versions_monotone() {
    for ranks in [1usize, 64] {
        let mut last = f64::INFINITY;
        for v in Version::ALL {
            let t = MultiCgModel::new(24_000, ranks, v).run(2, 3).total_ms;
            assert!(
                t < last * 1.02,
                "{} at {ranks} CGs regressed: {t} after {last}",
                v.name()
            );
            last = t;
        }
    }
}

/// Table 4 / Eq. 3-4: the TTF model reproduces the published ratios.
#[test]
fn fig11_ttf_model() {
    assert!((platforms::ttf_ratio(&SW26010, &KNL) - 150.0).abs() < 10.0);
    assert!((platforms::ttf_ratio(&SW26010, &P100) - 24.0).abs() < 2.0);
}

/// Fig. 12: weak scaling stays efficient while strong scaling decays.
#[test]
fn fig12_scaling_shape() {
    let per_step = |n: usize, ranks: usize| {
        MultiCgModel::new(n, ranks, Version::Other)
            .run(2, 5)
            .total_ms
            / 2.0
    };
    // Weak: 12 K particles per CG.
    let w4 = per_step(48_000, 4);
    let w64 = per_step(768_000, 64);
    let weak_eff = w4 / w64;
    assert!(weak_eff > 0.7, "weak efficiency {weak_eff:.2}");
    // Strong: fixed 48 K particles.
    let s4 = per_step(48_000, 4);
    let s256 = per_step(48_000, 256);
    let strong_eff = s4 / (64.0 * s256);
    assert!(
        strong_eff < 0.95,
        "strong efficiency did not decay: {strong_eff:.2}"
    );
    assert!(
        strong_eff > 0.1,
        "strong efficiency collapsed: {strong_eff:.2}"
    );
}

/// §3.5: the grid-walk study shows direct-mapped thrashing fixed by
/// two-way associativity.
#[test]
fn pairlist_cache_study() {
    let direct = grid_walk_miss_study(1);
    let two_way = grid_walk_miss_study(2);
    assert!(direct > 0.6, "direct {direct:.2}");
    assert!(two_way < 0.25, "two-way {two_way:.2}");
}

/// §3.6: RDMA beats MPI for GROMACS-sized messages, most strongly for
/// small ones.
#[test]
fn rdma_beats_mpi() {
    use sw_gromacs::swnet::{message_ns, RankDistance, Transport};
    let small = message_ns(Transport::Mpi, RankDistance::SameSupernode, 64)
        / message_ns(Transport::Rdma, RankDistance::SameSupernode, 64);
    let large = message_ns(Transport::Mpi, RankDistance::SameSupernode, 1 << 22)
        / message_ns(Transport::Rdma, RankDistance::SameSupernode, 1 << 22);
    assert!(small > large, "small {small:.1} vs large {large:.1}");
    assert!(small > 3.0);
}
